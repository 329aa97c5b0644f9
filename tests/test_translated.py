import numpy as np
import pytest

from contactmorse import hamiltonian as ham
from contactmorse import translated as tp
from contactmorse.flow import integrate_flow
from contactmorse.genfun import build_rotation_family
from contactmorse.linsymp import inertia
from contactmorse.sampling import sphere_points


SMALL = dict(sphere_count=48, t_count=24, keep_per_seed=3)


def test_identity_reports_continuum(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    res = tp.direct_translated_points(spec, fast_settings, **SMALL)
    assert res.continuum_suspected
    assert all(r.nondegenerate is False for r in res.records)
    assert all(abs(r.t) < 1e-6 or abs(r.t - 1.0) < 1e-6 for r in res.records)


def test_diagonal_unitary_two_circles(fast_settings, diag_spec):
    res = tp.direct_translated_points(diag_spec, fast_settings, sphere_count=64, t_count=32)
    assert res.continuum_suspected
    ts = {round(r.t, 4) for r in res.records}
    assert ts == {0.3, 0.7}
    assert all(r.nondegenerate is False for r in res.records)
    # the circles live in the coordinate complex lines
    for r in res.records:
        q = r.q_array()
        z1sq = q[0] ** 2 + q[2] ** 2
        assert min(abs(z1sq - 1.0), abs(z1sq)) < 1e-6


def test_negative_reeb_rotation_reports_complement(fast_settings):
    # phi = a_c with c = 0.25 (h == -c): identity at t = 1 - c
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(-0.25, -0.25))
    res = tp.direct_translated_points(spec, fast_settings, **SMALL)
    assert res.continuum_suspected
    assert all(abs(r.t - 0.75) < 1e-6 for r in res.records)


def test_perturbed_corpus_finitely_many_nondegenerate(settings, sphere_corpus_spec):
    res = tp.direct_translated_points(
        spec=sphere_corpus_spec, settings=settings, sphere_count=96, t_count=32
    )
    assert not res.continuum_suspected
    assert len(res.records) >= 2
    assert all(r.nondegenerate is True for r in res.records)
    assert all(r.residual_fixed < 1e-8 for r in res.records)
    assert all(r.residual_g < 1e-8 for r in res.records)
    # g vanishes also via the alpha-pullback oracle, not just via the norm
    from contactmorse.linsymp import contact_form_eval, mul_i

    for r in res.records:
        q = r.q_array()
        z1, jac = integrate_flow(sphere_corpus_spec, q, 0.0, 1.0, settings)
        nrm = np.linalg.norm(z1)
        dz = jac @ mul_i(q)
        dphi = dz / nrm - z1 * np.dot(z1, dz) / nrm**3
        g_oracle = np.log(contact_form_eval(z1 / nrm, dphi))
        assert abs(g_oracle) < 1e-6


def test_nondegeneracy_classifier_cases(settings, diag_spec, sphere_corpus_spec):
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    # diagonal unitary at q = e1, t = c1: kernel is the full complex line
    assert tp.nondegeneracy_check(diag_spec, e1, 0.3, settings=settings) is False
    # identity at any q, t = 0: kernel is everything
    ident = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    assert tp.nondegeneracy_check(ident, e1, 0.0, settings=settings) is False
    # perturbed record: kernel is exactly the radial line, stable over the band
    res = tp.direct_translated_points(
        sphere_corpus_spec, settings, sphere_count=64, t_count=24
    )
    rec = res.records[0]
    for tol in (1e-8, 1e-7, 1e-6):
        assert (
            tp.nondegeneracy_check(
                sphere_corpus_spec, rec.q_array(), rec.t, tol=tol, settings=settings
            )
            is True
        )


def test_index_jump_values():
    for n, k in [(1, 3), (1, 4), (2, 4), (3, 5), (2, 8)]:
        assert tp.index_jump(n, k) == 2 * n


def test_index_jump_structural_nullity():
    data = tp.index_data(2, 4)
    assert data["nullity_a0"] == 4 and data["nullity_a1"] == 4
    assert data["jump"] == 4


def test_index_jump_rejects_small_k():
    with pytest.raises(ValueError):
        tp.index_jump(1, 2)


def test_route_equivalence_small(settings, sphere_corpus_spec):
    params = tp.SweepParams(routes="both", **SMALL)
    report = tp.sweep_and_count(sphere_corpus_spec, params, settings)
    assert not report.continuum_suspected
    assert report.sphere_count == len(report.records) >= 2
    assert all(r.route == "both" for r in report.records)
    assert report.route_stats["matched"] == len(report.records)
    assert report.bound_asserted and report.bound_met
    assert report.index_data["jump"] == 4
    # genfun critical values vanish on the detected rays
    assert all(abs(r.gf_value) < 1e-8 for r in report.records)


def test_sweep_constant_hamiltonian_suppresses_counts(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, 0.5))
    params = tp.SweepParams(routes="direct", sphere_count=64, t_count=32, keep_per_seed=3)
    report = tp.sweep_and_count(spec, params, fast_settings)
    assert report.continuum_suspected
    assert report.sphere_count is None
    assert not report.bound_asserted
    assert report.bound_met is None


def test_direct_route_deterministic(fast_settings, sphere_corpus_spec):
    a = tp.direct_translated_points(sphere_corpus_spec, fast_settings, **SMALL)
    b = tp.direct_translated_points(sphere_corpus_spec, fast_settings, **SMALL)
    assert [(r.q, r.t) for r in a.records] == [(r.q, r.t) for r in b.records]


def test_t_distance_wraparound():
    assert tp._t_distance(0.01, 0.99) == pytest.approx(0.02)
    assert tp._t_distance(0.5, 0.5) == 0.0
    assert tp._t_distance(0.0, 1.0) == pytest.approx(0.0)


def test_genfun_route_verifies_against_direct(settings, sphere_corpus_spec):
    f_phi, _ = tp.build_phi_genfun(sphere_corpus_spec, settings, 1.0)
    family = tp.ShiftedGenFunFamily(f_phi, 2, 4)
    res = tp.find_critical_rays(
        family, sphere_corpus_spec, settings, sphere_count=48, t_count=24,
        keep_per_seed=3,
    )
    assert not res.inconsistent
    assert len(res.records) >= 2
    for r in res.records:
        assert r.residual_fixed < 1e-8
        assert abs(r.gf_value) < 1e-8


def _corpus_family(spec, settings, k):
    f_phi, _ = tp.build_phi_genfun(spec, settings, 1.0)
    return tp.ShiftedGenFunFamily(f_phi, spec.n, k)


def test_genfun_newton_drops_row_leaving_rotation_domain(
    fast_settings, sphere_corpus_spec, monkeypatch
):
    # With k = 3 the rotation family is defined for |t| < 3/2.  The third
    # start's first Newton step lands beyond t = 3/2: the row must be dropped
    # before rotation_family_matrices sees it, and the batch must go on.
    family = _corpus_family(sphere_corpus_spec, fast_settings, 3)
    seen = []
    inner = tp.rotation_family_matrices

    def recording(t, n, k):
        seen.append(np.array(t))
        return inner(t, n, k)

    monkeypatch.setattr(tp, "rotation_family_matrices", recording)
    q = sphere_points(8, 4)[:3]
    t = np.array([0.25, 0.35, 1.49])
    x0, warm = family.seed(q, t)
    _, _, _, ok = tp._genfun_newton(family, x0, t, 1e-9, 40, warm)
    assert ok.tolist() == [True, True, False]
    assert all(np.all(np.abs(s) < 1.5) for s in seen)
    assert seen[0].shape == (3,) and all(s.shape == (2,) for s in seen[1:])


def test_warm_genfun_rays_are_cold_critical(fast_settings, sphere_corpus_spec, monkeypatch):
    """Warm leaf solves must not bias the critical points: the gradient at
    every returned (x, t) is re-evaluated with cold leaf solves."""
    family = _corpus_family(sphere_corpus_spec, fast_settings, 4)
    grad_tol = 1e-9
    results = []
    inner = tp._genfun_newton

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(tp, "_genfun_newton", recording)
    res = tp.find_critical_rays(
        family, sphere_corpus_spec, fast_settings, sphere_count=16, t_count=16,
        keep_per_seed=3, grad_tol=grad_tol,
    )
    assert len(res.records) >= 2
    x = np.concatenate([r[0] for r in results])
    t = np.concatenate([r[1] for r in results])
    ok = np.concatenate([r[3] for r in results])
    assert ok.sum() >= 2
    _, grad, _, _, ok_cold = family.evaluate(x[ok], t[ok], order=1)
    assert ok_cold.all()
    assert np.max(np.linalg.norm(grad, axis=1)) <= 100.0 * grad_tol
