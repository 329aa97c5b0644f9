import os
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contactmorse import cli, flow, linsymp
from contactmorse import genfun as gfm
from contactmorse import hamiltonian as ham
from contactmorse import translated as tp
from contactmorse.config import load_config
from contactmorse.flow import IntegratorSettings, integrate_flow
from contactmorse.genfun import gf_compose
from contactmorse.linsymp import inertia, mul_i, same_on_rows, solve_rows
from contactmorse.sampling import sphere_points, subdivision_probe_points

from oracles import (
    build_rotation_family,
    chain_change,
    classify_kernel,
    cold_leaf_state,
    contact_form_eval,
    loop_dedup_and_flag,
    nested_bordered,
    nested_chain,
    solve_leaves,
    solved_chain,
)


SMALL = dict(sphere_count=48, t_count=24, keep_per_seed=3)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        q = np.asarray(r.q)
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
    for r in res.records:
        q = np.asarray(r.q)
        z1, jac = integrate_flow(sphere_corpus_spec, q, 0.0, 1.0, settings)
        nrm = np.linalg.norm(z1)
        dz = jac @ mul_i(q)
        dphi = dz / nrm - z1 * np.dot(z1, dz) / nrm**3
        g_oracle = np.log(contact_form_eval(z1 / nrm, dphi))
        assert abs(g_oracle) < 1e-6


def _nondegenerate(spec, q, t, settings, tol=tp._NONDEG_TOL):
    """The non-degeneracy verdict of the record detection builds at (q, t)."""
    return tp._build_records(spec, settings, np.asarray(q, dtype=float)[None],
                             np.array([t]), "direct", tol)[0].nondegenerate


def test_nondegeneracy_classifier_cases(settings, diag_spec, sphere_corpus_spec):
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    # diagonal unitary at q = e1, t = c1: kernel is the full complex line
    assert _nondegenerate(diag_spec, e1, 0.3, settings) is False
    # identity at any q, t = 0: kernel is everything
    ident = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    assert _nondegenerate(ident, e1, 0.0, settings) is False
    # perturbed record: kernel is exactly the radial line, stable over the band
    res = tp.direct_translated_points(
        sphere_corpus_spec, settings, sphere_count=64, t_count=24
    )
    rec = res.records[0]
    for tol in (1e-8, 1e-7, 1e-6):
        assert _nondegenerate(sphere_corpus_spec, rec.q, rec.t, settings, tol) is True


def test_stacked_kernel_verdicts_equal_per_record(settings, sphere_corpus_spec):
    """_build_records classifies its records in one stacked test; each
    verdict is the one of tests/oracles.py:classify_kernel on an SVD of that
    record's DPsi - I alone.  The Reeb continuum's DPsi - I has four equal
    singular values per record, between 3e-14 and 4e-11: all False at the
    default tolerance, a False/None mix at 1e-11; the sphere corpus's
    records are True."""
    reeb = load_config(CONFIGS / "reeb-continuum.json")
    cases = [
        (reeb.hamiltonian, tp.sweep_and_count(reeb.hamiltonian, reeb.params, settings).records),
        (sphere_corpus_spec, tp.direct_translated_points(sphere_corpus_spec, settings,
                                                         **SMALL).records),
    ]
    seen = set()
    for (spec, records), tols in zip(cases, ((1e-7, 1e-11), (1e-7,))):
        q = np.array([r.q for r in records])
        t = np.array([r.t for r in records])
        _, _, dpsi = tp._shifted_flow(spec, settings, q, t)
        for tol in tols:
            stacked = [r.nondegenerate for r in tp._build_records(spec, settings, q, t,
                                                                  "direct", tol)]
            per_record = []
            for i in range(len(q)):
                _, svals, vt = np.linalg.svd(dpsi[i] - np.eye(q.shape[1]))
                per_record.append(classify_kernel(svals, vt, q[i], tol))
            assert stacked == per_record
            seen.update(stacked)
    assert seen == {True, False, None}


def test_stacked_kernel_raises_where_per_record_does():
    """_classify_kernels raises ValueError exactly when the per-record
    classifier raises on a verified record: one with no singular value
    below tol and none within a factor 10 of it.  An unverified record is
    never classified, and an ambiguous one is None."""
    tol = 1e-7
    rng = np.random.default_rng(5)
    vt = np.linalg.qr(rng.normal(size=(4, 4, 4)))[0]
    q = 2.0 * vt[:, -1]  # every kernel vector is radial
    svals = np.array([[1.0, 0.5, 0.2, 1e-12],  # one radial kernel direction
                      [1.0, 0.5, 0.2, 1e-3],  # no kernel direction
                      [1.0, 0.5, 0.2, 5e-8],  # ambiguous: within 10x of tol
                      [1.0, 0.5, 1e-12, 1e-13]])  # two kernel directions
    # row 1 makes the per-record classifier raise, and so the stacked one
    with pytest.raises(ValueError, match="no kernel direction"):
        classify_kernel(svals[1], vt[1], q[1], tol)
    with pytest.raises(ValueError, match="no kernel direction"):
        tp._classify_kernels(svals, vt, q, tol, np.ones(4, dtype=bool))
    # unverified, it is not classified, and no row raises
    verified = np.array([True, False, True, True])
    expected = [classify_kernel(svals[i], vt[i], q[i], tol) if v else None
                for i, v in enumerate(verified)]
    assert tp._classify_kernels(svals, vt, q, tol, verified) == expected
    assert expected == [True, None, None, False]


def test_index_jump_values():
    for n, k in [(1, 3), (1, 4), (2, 4), (3, 5), (2, 8)]:
        assert tp.index_data(n, k)["jump"] == 2 * n


def test_index_jump_structural_nullity():
    data = tp.index_data(2, 4)
    assert data["nullity_a0"] == 4 and data["nullity_a1"] == 4
    assert data["jump"] == 4


def test_index_jump_rejects_small_k():
    with pytest.raises(ValueError):
        tp.index_data(1, 2)


def test_route_equivalence_small(settings, sphere_corpus_spec):
    params = tp.SweepParams(routes="both", **SMALL)
    report = tp.sweep_and_count(sphere_corpus_spec, params, settings)
    assert not report.continuum_suspected
    assert report.sphere_count == len(report.records) >= 2
    assert all(r.route == "both" for r in report.records)
    assert report.route_stats["matched"] == len(report.records)
    assert report.bound_outcome == "met"
    assert tp.index_data(2, tp.ROTATION_PIECES)["jump"] == 4
    # genfun critical values vanish on the detected rays
    assert all(abs(r.gf_value) < 1e-8 for r in report.records)


TINY = dict(sphere_count=16, t_count=8, keep_per_seed=2)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_concurrent_routes_equal_routes_in_turn(settings, sphere_corpus_spec):
    """Both routes, the direct one in a forked worker, give the records of
    both routes run here one after the other, float for float."""
    params = tp.SweepParams(routes="both", **TINY)
    report = tp.sweep_and_count(sphere_corpus_spec, params, settings)
    _assert_no_child()
    assert list(report.route_seconds) == ["direct", "genfun"]
    assert report.disagreement is None
    seeds = tp._prefilter_seeds(sphere_corpus_spec, settings, **TINY)
    direct = tp.direct_translated_points(sphere_corpus_spec, settings, seeds=seeds)
    family = _corpus_family(sphere_corpus_spec, settings, tp.ROTATION_PIECES)
    genf = tp.find_critical_rays(family, sphere_corpus_spec, settings, seeds=seeds)
    matched, only_d, only_g = tp._match_routes(direct.records, genf.records)
    assert matched and not only_d and not only_g
    assert report.records == matched
    assert report.route_stats["direct_converged"] == direct.converged_raw


def test_route_errors_reap_the_worker(settings, sphere_corpus_spec, monkeypatch):
    """An error of the genfun route is raised once the worker is reaped, and
    an error of the direct route wins over it.  A worker that sends nothing
    back becomes a RuntimeError naming its status, and an interrupt kills
    the worker.  No run leaves a child behind."""
    params = tp.SweepParams(routes="both", **TINY)

    def raising(exc):
        def route(*args, **kwargs):
            raise exc
        return route

    class Unpicklable(Exception):
        pass

    monkeypatch.setattr(tp, "find_critical_rays", raising(ValueError("genfun failed")))
    with pytest.raises(ValueError, match="genfun failed"):
        tp.sweep_and_count(sphere_corpus_spec, params, settings)
    _assert_no_child()
    cases = [
        (raising(np.linalg.LinAlgError("direct failed")), np.linalg.LinAlgError,
         "direct failed"),
        (raising(Unpicklable("lost")), RuntimeError,
         r"sent no readable result \(exit status 1\)"),
        (lambda *args: os.kill(os.getpid(), signal.SIGKILL), RuntimeError,
         r"sent no readable result \(signal 9\)"),
    ]
    for direct_newton, exc_type, message in cases:
        monkeypatch.setattr(tp, "_direct_newton", direct_newton)
        with pytest.raises(exc_type, match=message):
            tp.sweep_and_count(sphere_corpus_spec, params, settings)
        _assert_no_child()
    monkeypatch.undo()
    monkeypatch.setattr(tp, "find_critical_rays", raising(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        tp.sweep_and_count(sphere_corpus_spec, params, settings)
    _assert_no_child()


def test_sweep_constant_hamiltonian_suppresses_counts(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, 0.5))
    params = tp.SweepParams(routes="direct", sphere_count=64, t_count=32, keep_per_seed=3)
    report = tp.sweep_and_count(spec, params, fast_settings)
    assert report.continuum_suspected
    assert report.sphere_count is None
    assert report.bound_outcome == "not_asserted"


def test_direct_route_deterministic(fast_settings, sphere_corpus_spec):
    a = tp.direct_translated_points(sphere_corpus_spec, fast_settings, **SMALL)
    b = tp.direct_translated_points(sphere_corpus_spec, fast_settings, **SMALL)
    assert [(r.q, r.t) for r in a.records] == [(r.q, r.t) for r in b.records]


@pytest.mark.parametrize("route", ["direct", "genfun"])
def test_records_independent_of_seed_order(route, settings, rp3_corpus_spec):
    """Permuting the starts gives the same records, bit for bit.  Converged
    starts of one point tie in residual_fixed at the rounding level, so the
    representative of a cluster must not be the one that came first; on
    this grid, sorting by residual alone changes records of both routes
    under the reversed order."""
    grid = dict(sphere_count=64, t_count=16, keep_per_seed=4)
    q, t = tp._prefilter_seeds(rp3_corpus_spec, settings, **grid)
    if route == "genfun":
        f_phi = tp.build_phi_genfun(rp3_corpus_spec, settings)
        family = tp.ShiftedGenFunFamily(f_phi, 2, 4)

    def records(order):
        seeds = (q[order], t[order])
        if route == "direct":
            return tp.direct_translated_points(rp3_corpus_spec, settings, **grid,
                                               seeds=seeds).records
        return tp.find_critical_rays(family, rp3_corpus_spec, settings, **grid,
                                     seeds=seeds).records

    identity = np.arange(len(t))
    expected = records(identity)
    assert len(expected) == 8
    for order in (identity[::-1], np.random.default_rng(1).permutation(len(t))):
        assert records(order) == expected


def _dedup_inputs(config, tmp_path, monkeypatch, routes):
    """The records that every _dedup_and_flag call of a run of config with
    one route gets.  A run of both routes makes the direct route's call in a
    forked worker, which a spy here would not see."""
    calls, dedup = [], tp._dedup_and_flag

    def spy(records, n):
        calls.append((list(records), n))
        return dedup(records, n)

    monkeypatch.setattr(tp, "_dedup_and_flag", spy)
    cli.main(["run", str(CONFIGS / config), "--out", str(tmp_path / f"{config}-{routes}"),
              "--routes", routes])
    monkeypatch.setattr(tp, "_dedup_and_flag", dedup)
    return calls


def _chain_records(count):
    """Records along one great circle at t = 0.5, neighbours 0.6e-4 radians
    apart, so each is close to the next: a chain that the greedy pick
    resolves one link at a time."""
    angles = 0.6e-4 * np.arange(count)
    qs = np.stack([np.cos(angles), np.sin(angles), 0 * angles, 0 * angles], axis=1)
    return [tp.TranslatedPointRecord(tuple(q), 0.5, 1e-12 * (1 + i % 3), 0.0, None, "direct")
            for i, q in enumerate(qs)]


def test_dedup_matches_record_loop(tmp_path, monkeypatch):
    """The blocked dedup keeps the records and flags the continuum of the
    one-record-at-a-time loop, whatever the block size, on the Reeb
    continuum, on both routes of rp3 and on a chain of close records."""
    calls = (_dedup_inputs("reeb-continuum.json", tmp_path, monkeypatch, "direct")
             + _dedup_inputs("rp3-sym-eps0.05.json", tmp_path, monkeypatch, "direct")
             + _dedup_inputs("rp3-sym-eps0.05.json", tmp_path, monkeypatch, "genfun")
             + [(_chain_records(700), 2)])
    assert len(calls) == 4
    flagged = []
    for block in (7, 256, 5000):
        monkeypatch.setattr(tp, "_DEDUP_BLOCK", block)
        for records, n in calls:
            kept, continuum = tp._dedup_and_flag(records, n)
            assert (kept, continuum) == loop_dedup_and_flag(records, n), block
            flagged.append(continuum)
    assert any(flagged) and not all(flagged)


def test_t_distance_wraparound():
    assert tp._t_distance(0.01, 0.99) == pytest.approx(0.02)
    assert tp._t_distance(0.5, 0.5) == 0.0
    assert tp._t_distance(0.0, 1.0) == pytest.approx(0.0)


def test_genfun_route_verifies_against_direct(settings, sphere_corpus_spec):
    f_phi = tp.build_phi_genfun(sphere_corpus_spec, settings)
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
    f_phi = tp.build_phi_genfun(spec, settings)
    return tp.ShiftedGenFunFamily(f_phi, spec.n, k)


def test_genfun_rays_on_unit_sphere_and_base_floor(settings, sphere_corpus_spec, monkeypatch):
    """Every row _genfun_newton returns lies on the Euclidean unit sphere of
    the chain coordinates.  _U_FLOOR drops no converged ray at its default,
    and raised above the smallest base |a_N| it drops exactly the rays
    below it."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    results = []
    inner = tp._genfun_newton

    def recording(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tp, "_genfun_newton", recording)
    grid = dict(sphere_count=16, t_count=8, keep_per_seed=2)
    res = tp.find_critical_rays(family, sphere_corpus_spec, settings, **grid)
    x = np.concatenate([r[0] for r in results])
    done = np.concatenate([r[3] for r in results])
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12
    u = np.linalg.norm(x[done, :4], axis=1)
    assert u.min() > tp._U_FLOOR and res.converged_raw == done.sum()
    floor = 0.5 * (u.min() + np.median(u))
    monkeypatch.setattr(tp, "_U_FLOOR", floor)
    raised = tp.find_critical_rays(family, sphere_corpus_spec, settings, **grid)
    assert 0 < np.sum(u <= floor) < u.size
    assert raised.converged_raw == np.sum(u > floor)


def test_genfun_newton_drops_row_leaving_rotation_domain(
    fast_settings, sphere_corpus_spec, monkeypatch
):
    # With k = 3 the rotation family is defined for |t| < 3/2.  The third
    # start's first Newton step lands beyond t = 3/2: the row must be dropped
    # before rotation_coefficients sees it, and the batch must go on.
    family = _corpus_family(sphere_corpus_spec, fast_settings, 3)
    seen = []
    inner = tp.rotation_coefficients

    def recording(t, k):
        seen.append(np.array(t))
        return inner(t, k)

    q = sphere_points(8, 4)[:3]
    t = np.array([0.25, 0.35, 1.49])
    x0, warm = family.seed(q, t)
    monkeypatch.setattr(tp, "rotation_coefficients", recording)
    _, _, _, ok = tp._genfun_newton(family, x0, t, warm)
    assert ok.tolist() == [True, True, False]
    assert all(np.all(np.abs(s) < 1.5) for s in seen)
    assert seen[0].shape == (3,) and all(s.shape == (2,) for s in seen[1:])


def test_warm_genfun_rays_are_cold_critical(fast_settings, sphere_corpus_spec, monkeypatch):
    """Warm leaf solves must not bias the critical points: the gradient at
    every returned (x, t) is re-evaluated with cold leaf solves."""
    family = _corpus_family(sphere_corpus_spec, fast_settings, 4)
    grad_tol = 1e-9
    assert tp._GRAD_TOL == grad_tol
    results = []
    inner = tp._genfun_newton

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(tp, "_genfun_newton", recording)
    res = tp.find_critical_rays(
        family, sphere_corpus_spec, fast_settings, sphere_count=16, t_count=16,
        keep_per_seed=3,
    )
    assert len(res.records) >= 2
    x = np.concatenate([r[0] for r in results])
    t = np.concatenate([r[1] for r in results])
    ok = np.concatenate([r[3] for r in results])
    assert ok.sum() >= 2
    _, grad, _, ok_cold = solved_chain(family._chain(t[ok])[0], x[ok])
    assert ok_cold.all()
    assert np.max(np.linalg.norm(grad, axis=1)) <= 100.0 * grad_tol


def test_genfun_route_integrates_each_leaf_once_per_evaluation(settings, sphere_corpus_spec,
                                                                monkeypatch):
    """The leaf midpoints are Newton unknowns: every family evaluation of the
    route integrates its leaves once (the corpus leaves are one group)."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    integrations, evaluations = [], []
    inner_flow, inner_eval = gfm.integrate_flow, family.evaluate

    def integrating(spec, z0, *args, with_jacobian=True, **kwargs):
        if with_jacobian:  # a leaf solve; seeding integrates the state alone
            integrations.append(z0.shape[0])
        return inner_flow(spec, z0, *args, with_jacobian=with_jacobian, **kwargs)

    def evaluating(x, t, warm):
        evaluations.append(x.shape[0])
        return inner_eval(x, t, warm)

    monkeypatch.setattr(gfm, "integrate_flow", integrating)
    monkeypatch.setattr(family, "evaluate", evaluating)
    res = tp.find_critical_rays(family, sphere_corpus_spec, settings, sphere_count=16,
                                t_count=8, keep_per_seed=2)
    assert len(res.records) >= 2 and len(evaluations) > 2
    L = len(family.f_phi.links)
    assert integrations == [L * rows for rows in evaluations]


def _newton_with_states(family, x0, t0, warm, monkeypatch):
    """_genfun_newton from (x0, t0, warm), with the x and the LeafState of
    every family evaluation it makes."""
    seen = []
    inner = family.evaluate

    def evaluate(x, t, warm):
        out = inner(x, t, warm)
        seen.append((x.copy(), out[5]))
        return out

    monkeypatch.setattr(family, "evaluate", evaluate)
    out = tp._genfun_newton(family, x0, t0, warm)
    monkeypatch.undo()
    return out, seen


def test_genfun_rays_carry_solved_leaves(settings, sphere_corpus_spec, monkeypatch):
    """At every accepted ray the warm midpoints solve their bases to the leaf
    tolerance, and a cold solve finds the same midpoints.  Since the leaf
    gradient is linearized at the midpoints, it stays critical when they are
    moved off their bases; a row must then neither finish nor be rescued
    until the midpoints are solved again."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    q, t = tp._prefilter_seeds(sphere_corpus_spec, settings, 16, 8, 2)
    x0, warm = family.seed(q, t)
    (x, t, _, done), seen = _newton_with_states(family, x0, t, warm, monkeypatch)
    assert done.sum() >= 16
    tol = gfm._LEAF_TOL
    states = []
    for xr in x[done]:
        # the evaluation at exactly this iterate
        xs, state = next((xs, st) for xs, st in seen if np.any(np.all(xs == xr, axis=1)))
        states.append(state.take([np.argmax(np.all(xs == xr, axis=1))]))
        bases = family.leaf_bases(xr[None])[0]
        assert states[-1].solves(bases[None])[0]
        for leaf, b, z in zip(family.f_phi.links, bases, states[-1].z[0]):
            z_out, Z_out, _, ok = gfm.solve_midpoint(leaf.spec, leaf.span, leaf.settings,
                                                     b[None], z[None])
            assert ok[0] and gfm._leaf_solved(z_out, 0.5 * (z_out + Z_out), b[None])[0]
            *_, ok, cold = solve_leaves(gfm.ChainGF((leaf,)), b[None],
                                        cold_leaf_state(b[None, None]))
            assert ok[0]
            assert np.linalg.norm(cold.z[0, 0] - z) <= 4.0 * tol * np.linalg.norm(b)

    def off_bases():
        """The accepted rows' states with every midpoint moved off its base."""
        off = gfm.LeafState(*(np.concatenate([getattr(st, f) for st in states])
                              for f in ("b", "z", "jac")))
        off.z[...] *= 1.0 + 1e-6
        return off

    monkeypatch.setattr(tp, "_MAX_ITER", 1)
    _, _, _, once = tp._genfun_newton(family, x[done], t[done], off_bases())
    assert not once.any()
    monkeypatch.setattr(tp, "_MAX_ITER", 2)
    _, _, _, twice = tp._genfun_newton(family, x[done], t[done], off_bases())
    assert twice.all()


def test_genfun_zero_base_row_dropped_alone(settings, sphere_corpus_spec, monkeypatch):
    """A row with a leaf base at the cone tip fails its first evaluation and
    is dropped; the other rows keep their bits."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    q, t = tp._prefilter_seeds(sphere_corpus_spec, settings, 8, 8, 2)
    x0, warm = family.seed(q, t)
    bad = 5
    blk = 2 * family.k + 1  # b_L, the base of the last leaf, after the k rotation links
    x0[bad, 4 * blk : 4 * blk + 4] = 0.0
    assert np.all(family.leaf_bases(x0[bad : bad + 1])[0, -1] == 0.0)
    every = np.arange(x0.shape[0])
    rest = np.delete(every, bad)
    # take copies the state, which _genfun_newton updates in place
    (x, tt, v, done), seen = _newton_with_states(family, x0, t, warm.take(every), monkeypatch)
    alone = tp._genfun_newton(family, x0[rest], t[rest], warm.take(rest))
    assert not done[bad] and done[rest].all()
    # the bad row is evaluated once, then no more
    assert all(xs.shape[0] < x0.shape[0] for xs, _ in seen[1:])
    for got, want in zip((x, tt, v, done), alone):
        assert np.array_equal(got[rest], want)


def test_family_matches_composed_dag(fast_settings, sphere_corpus_spec):
    """ShiftedGenFunFamily chains F_phi and the k rotation links of A_t; at
    a scalar t it must agree with the nested composition DAG of F_phi and
    the k rotation leaves, mapped by S, and its d/dt with a central
    difference in t."""
    n, k = 2, 4
    family = _corpus_family(sphere_corpus_spec, fast_settings, k)
    x = sphere_points(6, family.dim, seed=0.35)
    S = chain_change(len(family.f_phi.links) + k, 2 * n)
    T = np.rint(np.linalg.inv(S))
    for t in (0.3, 0.8):
        tt = np.full(x.shape[0], t)
        val, grad, hess, ok = solved_chain(family._chain(tt)[0], x)
        dgrad = family.evaluate(x, tt, cold_leaf_state(family.leaf_bases(x)))[3]
        hess = gfm.chain_hessian(hess)
        dag = nested_chain(gf_compose(family.f_phi, build_rotation_family(t, n, k).genfun))
        ref_val, ref_grad, ref_hess, ref_ok = dag.evaluate(x @ T.T)
        ref = (ref_val, ref_grad @ T, T.T @ ref_hess @ T)
        assert ok.all() and ref_ok.all()
        for got, want in zip((val, grad, hess), ref):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        h = 1e-5
        _, g_plus, _, _ = solved_chain(family._chain(tt + h)[0], x)
        _, g_minus, _, _ = solved_chain(family._chain(tt - h)[0], x)
        fd = (g_plus - g_minus) / (2.0 * h)
        assert np.max(np.abs(dgrad - fd)) <= 1e-8 * np.max(np.abs(dgrad))


def test_bordered_newton_policy(monkeypatch):
    """_bordered_newton's row policy on F(x, t) = (x - c, t - s), with no
    integration: polish, rescue at the best iterate, and dropped rows."""
    tol, max_iter = 1e-10, 12
    monkeypatch.setattr(tp, "_MAX_ITER", max_iter)
    c = np.array([[0.3, 0.1], [0.2, -0.1], [0.0, 0.4], [0.1, 0.1], [0.2, 0.2], [0.3, 0.0]])
    s = np.array([0.2, 0.3, 0.1, 0.1, 5.0, 0.1])
    x0 = c.copy()
    x0[[1, 2, 3, 5]] += np.array([[0.1, 0.1], [0.2, 0.0], [0.1, 0.0], [0.1, 0.0]])
    t0 = s.copy()
    t0[4] = 0.0

    def run(polish):
        calls = np.zeros(len(s), dtype=int)
        seen = {}

        def evaluate(work, x, t):
            rows = np.where(work)[0]
            k = calls[rows].copy()
            calls[rows] += 1
            for r, kk, xr in zip(rows, k, x):
                seen[r, kk] = xr.copy()
            F = np.concatenate([x - c[rows], (t - s[rows])[:, None]], axis=1)
            F[rows == 2, :2] *= 0.5  # row 2 halves its distance to c per step
            M = np.broadcast_to(np.eye(3), (rows.size, 3, 3)).copy()
            err = np.linalg.norm(F, axis=1)
            # row 2 stalls inside (tol, 100 tol], best at its 4th evaluation;
            # row 3 stalls above 100 tol
            err[rows == 2] = tol * (20.0 + 10.0 * np.abs(k[rows == 2] - 3))
            err[rows == 3] = 200.0 * tol
            ok = ~((rows == 5) & (k == 1))  # row 5's second evaluation fails
            return F, M, err, ok, k.astype(float)

        def retract(x, t):
            return x, np.abs(t) > 2.0

        monkeypatch.setattr(tp, "_POLISH", polish)
        out = tp._bordered_newton(x0, t0, (evaluate, retract), tol)
        return out, calls, seen

    for polish in (1, 2, 3):
        (x, t, val, done), calls, seen = run(polish)
        assert done.tolist() == [True, True, True, False, False, False]
        # a row finishes on its polish-th converged evaluation, not before;
        # row 0 starts at its root, row 1 one full step from it
        assert calls[0] == polish and calls[1] == 1 + polish
        assert np.array_equal(x[0], c[0]) and val[0] == polish - 1
        assert np.max(np.abs(x[1] - c[1])) <= tol and val[1] == polish
        # the stalled row is rescued at its best iterate, the other is not
        assert calls[2] == calls[3] == max_iter
        assert np.array_equal(x[2], seen[2, 3]) and val[2] == 3.0 and t[2] == s[2]
        # row 4's damped t steps of 0.5 leave |t| <= 2 on its 5th step; row 5
        # stops at its failed evaluation, whose error does not count as best
        assert calls[4] == 5 and t[4] == 2.0
        assert calls[5] == 2


def test_bordered_newton_retires_stalled_rows(monkeypatch):
    """With _MAX_ITER past the stall window, a row stops once _STALL finite
    evaluations in a row have not lowered its best error, and then takes
    the end-of-loop rescue test; err = inf evaluations do not count."""
    S = tp._STALL
    tol, max_iter = 1e-10, S + 8
    monkeypatch.setattr(tp, "_MAX_ITER", max_iter)
    c = np.array([[0.3, 0.1], [0.2, -0.1], [0.0, 0.4], [0.1, 0.1]])
    s = np.array([0.2, 0.3, 0.1, 0.4])
    x0 = c + 0.1

    calls = np.zeros(len(s), dtype=int)
    seen = {}

    def evaluate(work, x, t):
        rows = np.where(work)[0]
        k = calls[rows].copy()
        calls[rows] += 1
        for r, kk, xr in zip(rows, k, x):
            seen[r, kk] = xr.copy()
        F = np.concatenate([x - c[rows], (t - s[rows])[:, None]], axis=1)
        M = np.broadcast_to(np.eye(3), (rows.size, 3, 3)).copy()
        err = np.linalg.norm(F, axis=1)
        # row 0 falls to a constant error inside (tol, 100 tol] at its 4th
        # evaluation; row 1 sits above 100 tol from the start
        on = rows == 0
        err[on] = tol * (50.0 + 10.0 * np.maximum(3 - k[on], 0))
        err[rows == 1] = 200.0 * tol
        # row 2 cannot measure its error for S + 3 evaluations, then converges
        err[(rows == 2) & (k < S + 3)] = np.inf
        # row 3 holds its first error for S - 1 more evaluations, then converges
        err[(rows == 3) & (k < S)] = 50.0 * tol
        return F, M, err, np.ones(rows.size, dtype=bool), k.astype(float)

    def retract(x, t):
        return x, np.zeros(len(t), dtype=bool)

    x, t, val, done = tp._bordered_newton(x0, s.copy(), (evaluate, retract), tol)
    assert done.tolist() == [True, False, True, True]
    # row 0 is rescued at its best iterate, S evaluations after it
    assert calls[0] == 3 + 1 + S
    assert np.array_equal(x[0], seen[0, 3]) and val[0] == 3.0
    assert calls[1] == 1 + S
    # rows 2 and 3 finish on their second converged evaluation
    assert calls[2] == S + 5 and calls[3] == S + 2
    assert np.max(np.abs(x[2:] - c[2:])) <= tol
    assert calls.max() < max_iter


def test_bordered_newton_stops_rows_that_jump_off_a_best(monkeypatch):
    """A row whose best error is within 100 tol stops on the evaluation
    whose finite error exceeds _JUMP times that best, and takes the
    end-of-loop rescue at its best iterate.  A smaller rise, an err = inf
    evaluation, or a jump off a best above 100 tol does not stop a row."""
    tol = 1e-10
    assert 1e5 < tp._JUMP < 1e8
    monkeypatch.setattr(tp, "_MAX_ITER", 12)
    c = np.array([[0.3, 0.1], [0.2, -0.1], [0.0, 0.4], [0.1, 0.1]])
    s = np.array([0.2, 0.3, 0.1, 0.4])
    x0 = c + 0.1

    calls = np.zeros(len(s), dtype=int)
    seen = {}

    def evaluate(work, x, t):
        rows = np.where(work)[0]
        k = calls[rows].copy()
        calls[rows] += 1
        for r, kk, xr in zip(rows, k, x):
            seen[r, kk] = xr.copy()
        F = np.concatenate([x - c[rows], (t - s[rows])[:, None]], axis=1)
        M = np.broadcast_to(np.eye(3), (rows.size, 3, 3)).copy()
        err = np.linalg.norm(F, axis=1)
        # rows 0-2 fall to a best of 50 tol at their 2nd evaluation; then
        # row 0 jumps 1e8-fold, row 1 rises 1e5-fold, less than _JUMP, and
        # row 2 cannot measure its error, before rows 1 and 2 converge
        first = (rows < 3) & (k < 2)
        err[first] = tol * np.array([1000.0, 50.0])[k[first]]
        jump = (rows < 3) & (k == 2)
        err[jump] = 50.0 * tol * np.array([1e8, 1e5, np.inf])[rows[jump]]
        # row 3's best stays at 200 tol before a 1e8-fold jump, then converges
        err[(rows == 3) & (k == 0)] = 200.0 * tol
        err[(rows == 3) & (k == 1)] = 200.0 * tol * 1e8
        return F, M, err, np.ones(rows.size, dtype=bool), k.astype(float)

    def retract(x, t):
        return x, np.zeros(len(t), dtype=bool)

    x, t, val, done = tp._bordered_newton(x0, s.copy(), (evaluate, retract), tol)
    assert done.all()
    # row 0 stops on its jump and is rescued at its best iterate
    assert calls[0] == 3
    assert np.array_equal(x[0], seen[0, 1]) and val[0] == 1.0
    # rows 1-3 go on and finish on their second converged evaluation
    assert calls.tolist()[1:] == [5, 5, 4]
    assert val.tolist()[1:] == [4.0, 4.0, 3.0]
    assert np.max(np.abs(x[1:] - c[1:])) <= tol


@pytest.mark.parametrize("name, routes, retires", [
    ("reeb-continuum", "direct", True),
    ("diag-0.3-0.7-eps0.05", "direct", False),
])
def test_stall_retirement_keeps_records_bitwise(name, routes, retires, monkeypatch):
    """Stopping rows early, by _STALL and by _JUMP, changes no record and no
    route count (_STALL = _MAX_ITER and _JUMP = inf turn the rules off).  On
    the Reeb continuum every row reaches its best error by its 5th
    evaluation and then jumps off it, so the direct Newton stops after at
    most 6 evaluations with both rules, at most 5 + _STALL with _STALL
    alone, and _MAX_ITER with neither; on diag every row ends before either
    rule, after a plateau of at most 8 evaluations."""
    cfg = load_config(CONFIGS / f"{name}.json")
    params = replace(cfg.params, routes=routes)
    settings = IntegratorSettings(steps_per_unit=cfg.steps_per_unit)
    calls = []
    inner = tp._shifted_flow
    monkeypatch.setattr(tp, "_shifted_flow", lambda *a: calls.append(1) or inner(*a))
    runs = []
    for stall, jump in ((tp._MAX_ITER, np.inf), (tp._STALL, np.inf), (tp._STALL, tp._JUMP)):
        monkeypatch.setattr(tp, "_STALL", stall)
        monkeypatch.setattr(tp, "_JUMP", jump)
        calls.clear()
        report = tp.sweep_and_count(cfg.hamiltonian, params, settings)
        # one _shifted_flow call per Newton evaluation, one for the records
        runs.append((report.records, report.route_stats, len(calls) - 1))
    (records_off, stats_off, evals_off), *rest = runs
    for records, stats, _ in rest:
        assert records == records_off and stats == stats_off
    evals_stall, evals_on = (evals for *_, evals in rest)
    if retires:
        assert evals_off == tp._MAX_ITER and evals_stall <= 18 and evals_on <= 6
    else:
        assert evals_on == evals_stall == evals_off < tp._MAX_ITER


def test_bordered_newton_drops_singular_row(monkeypatch):
    # row 1 has no t-dependence: its bordered matrix is singular, so
    # solve_rows gives it a NaN step and the row is dropped, while row 0
    # converges with the bits it has alone
    c = np.array([[0.3, 0.1], [0.2, -0.1]])
    s = np.array([0.2, 0.3])

    def system(ids):
        def evaluate(work, x, t):
            rows = np.asarray(ids)[work]
            F = np.concatenate([x - c[rows], (t - s[rows])[:, None]], axis=1)
            F[rows == 1, 2] = 0.0
            M = np.broadcast_to(np.eye(3), (rows.size, 3, 3)).copy()
            M[rows == 1, 2, 2] = 0.0
            return F, M, np.linalg.norm(F, axis=1), np.ones(rows.size, dtype=bool), F[:, 0]

        return evaluate, lambda x, t: (x, np.zeros(len(t), dtype=bool))

    def run(ids):
        return tp._bordered_newton(c[ids] + 0.1, s[ids] + np.array([0.1, 0.0])[ids],
                                   system(ids), 1e-10)

    monkeypatch.setattr(tp, "_MAX_ITER", 10)

    F, M, *_ = system([0, 1])[0](np.ones(2, dtype=bool), c + 0.1, s + 0.1)
    step = solve_rows(M, F)
    assert np.isnan(step[1]).all() and np.array_equal(step[0], np.linalg.solve(M[0], F[0]))
    alone, both = run([0]), run([0, 1])
    assert both[3].tolist() == [True, False]
    assert np.max(np.abs(alone[0] - c[0])) <= 1e-10 and abs(alone[1][0] - s[0]) <= 1e-10
    for a, b in zip(alone, both):
        assert np.array_equal(a, b[:1])


def test_bordered_newton_singular_row_leaves_others_bitwise(monkeypatch):
    # F(x, t) = A_r (d + d^2 / 2), d = (x - c_r, t - s_r); row 2's A has no
    # t-column, so its Jacobian is singular.  Only that row's solve fails:
    # after two steps, still short of the roots, rows 0 and 1 have the bits
    # they have in a batch without it.
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 4, 4)) + 3.0 * np.eye(4)
    A[2, :, 3] = 0.0
    c = rng.normal(size=(3, 3))
    s = rng.uniform(0.1, 0.9, size=3)

    def run(ids):
        def evaluate(work, x, t):
            rows = np.asarray(ids)[work]
            d = np.concatenate([x - c[rows], (t - s[rows])[:, None]], axis=1)
            F = np.einsum("rij,rj->ri", A[rows], d + 0.5 * d**2)
            M = A[rows] * (1.0 + d)[:, None, :]
            return F, M, np.linalg.norm(F, axis=1), np.ones(rows.size, dtype=bool), F[:, 0]

        return tp._bordered_newton(
            c[ids] + 0.3, s[ids] + 0.2,
            (evaluate, lambda x, t: (x, np.zeros(len(t), dtype=bool))), 1e-10,
        )

    monkeypatch.setattr(tp, "_MAX_ITER", 2)
    alone, mixed = run([0, 1]), run([0, 1, 2])
    assert not np.array_equal(alone[0], c[:2] + 0.3)
    for a, b in zip(alone, mixed):
        assert np.array_equal(a, b[:2])
    b = rng.normal(size=(3, 4))
    assert np.array_equal(solve_rows(A[:2], b[:2]), solve_rows(A, b)[:2])


def _steps_against_nested(family, spec, settings, monkeypatch, sphere_count, t_count, keep):
    """Run _genfun_newton from prefiltered seeds and compare every step it
    solves with a dense solve of the level-by-level bordered matrix M of
    tests/oracles.py, mapped to chain coordinates by S.  Returns, per row of
    every iteration, the relative distance of the two steps, the condition
    number of M and the backward error |M s - F| / (|M| |s| + |F|) of the
    chain step s, and the row count of each iteration."""
    q, t = tp._prefilter_seeds(spec, settings, sphere_count, t_count, keep)
    x0, warm = family.seed(q, t)
    calls, steps = [], []
    inner_eval, inner_step = family.evaluate, family.bordered_step

    def evaluate(x, t, warm):
        out = inner_eval(x, t, warm)
        calls.append((x.copy(), t.copy(), out[1].copy(), out[5].jac.copy()))
        return out

    def bordered_step(border, hess, dgrad, F):
        # a step is solved only for the rows that go on: find them by their
        # gradients among those of the last evaluation
        x, tt, grad, jac = calls[-1]
        rows = np.argmax(np.all(grad[None, :, :] == F[:, None, :-1], axis=2), axis=1)
        s = inner_step(border, hess, dgrad, F)
        steps.append((x[rows], tt[rows], dgrad.copy(), jac[rows], border.copy(), F.copy(), s))
        return s

    monkeypatch.setattr(family, "evaluate", evaluate)
    monkeypatch.setattr(family, "bordered_step", bordered_step)
    tp._genfun_newton(family, x0, t, warm)
    assert steps
    rel, cond, backward = [], [], []
    for x, tt, dgrad, jac, border, F, s in steps:
        M = nested_bordered(family, x, tt, dgrad, border, jac)
        ref = np.linalg.solve(M, F[:, :, None])[:, :, 0]
        rel.append(np.max(np.abs(s - ref), axis=1) / np.max(np.abs(ref), axis=1))
        cond.append(np.linalg.cond(M))
        resid = np.linalg.norm(np.einsum("rij,rj->ri", M, s) - F, axis=1)
        scale = np.linalg.norm(M, ord=2, axis=(1, 2)) * np.linalg.norm(s, axis=1)
        backward.append(resid / (scale + np.linalg.norm(F, axis=1)))
    rows = [x.shape[0] for x, *_ in calls]
    return np.concatenate(rel), np.concatenate(cond), np.concatenate(backward), rows


def test_genfun_bordered_matrix_matches_nested_reference(settings, sphere_corpus_spec,
                                                         monkeypatch):
    """Every Newton step that _genfun_newton takes, on every iteration as the
    working rows shrink, solves the level-by-level bordered matrix of
    tests/oracles.py to 1e-10 relative."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    assembled = []
    monkeypatch.setattr(gfm, "chain_hessian", lambda *a: assembled.append(a))
    rel, _, _, rows = _steps_against_nested(family, sphere_corpus_spec, settings, monkeypatch,
                                            12, 8, 2)
    assert rows[0] == 24 and min(rows) < 24
    assert np.max(rel) <= 1e-10
    # the Newton path never assembles the Hessian
    assert not assembled


@pytest.mark.parametrize("case", ["quadratic-1.0-0.35", "one-piece", "k3", "k5"])
def test_genfun_chain_steps_match_nested_reference_on_stress_families(case, settings,
                                                                       sphere_corpus_spec,
                                                                       monkeypatch):
    """The chain solve against the dense one where it is hardest: a
    quadratic Hamiltonian whose last partial map closes a full turn, F_phi of
    a single leaf, and 3 or 5 rotation pieces.

    Seeds at t = 0 meet A_0, whose form has the structural kernel of the
    identity, and Newton on the quadratic spec slides along its degenerate
    critical circles: bordered matrices there reach condition numbers of
    1e12 to 1e17, where any two backward-stable solves differ by about
    cond * eps.  So the 1e-10 agreement is widened by 1e-16 * cond per row
    whose matrix is not singular to working precision (cond * eps < 1),
    and every chain step must be backward stable."""
    spec, k = sphere_corpus_spec, 4
    if case == "quadratic-1.0-0.35":
        spec = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 0.35))
    elif case != "one-piece":
        k = int(case[1:])
    if case == "one-piece":
        f_phi = gfm.flow_chain(spec, 1, settings)
    else:
        f_phi = tp.build_phi_genfun(spec, settings)
    family = tp.ShiftedGenFunFamily(f_phi, 2, k)
    rel, cond, backward, rows = _steps_against_nested(family, spec, settings, monkeypatch,
                                                      8, 8, 2)
    assert rows[0] == 16 and len(rows) > 2
    assert np.sum(cond < 1e6) >= rows[0]
    regular = cond * np.finfo(float).eps < 1.0
    assert np.all(rel[regular] <= 1e-10 + 1e-16 * cond[regular])
    assert np.max(backward) <= 1e-15


def test_genfun_chain_step_rows_are_batch_independent(settings, sphere_corpus_spec, rng):
    """A row's chain step has the same bits alone and in batches of 2, 7 and
    128."""
    family = _corpus_family(sphere_corpus_spec, settings, 4)
    q, t = tp._prefilter_seeds(sphere_corpus_spec, settings, 64, 8, 2)
    x, warm = family.seed(q, t)
    assert x.shape[0] == 128
    _, grad, hess, dgrad, ok, _ = family.evaluate(x, t, warm)
    assert ok.all()
    F = np.concatenate([grad, 0.5 * (np.sum(x * x, axis=1) - 1.0)[:, None]], axis=1)
    full = family.bordered_step(x, hess, dgrad, F)
    for rows in ([0], [77], [127], [3, 4], [10, 50], list(range(20, 27)),
                 sorted(rng.choice(128, 7, replace=False).tolist())):
        part = family.bordered_step(x[rows], hess[rows], dgrad[rows], F[rows])
        assert np.array_equal(part, full[rows]), rows


def _shared_path_specs(rp3_corpus_spec, sphere_corpus_spec):
    T = ham.PerturbationTerm
    return {
        "rp3": rp3_corpus_spec,
        "n3": ham.ContactHamiltonianSpec(
            n=3, quadratic=(0.3, 0.5, 0.7),
            terms=(T(0.05, (2, 0, 0), (0, 0, 0)), T(0.04, (0, 1, 0), (0, 0, 1))),
        ),
        "nonlinear": sphere_corpus_spec,
    }


@pytest.mark.parametrize("case", ["rp3", "n3", "nonlinear"])
def test_linear_shared_matrices_match_per_row(case, rp3_corpus_spec, sphere_corpus_spec,
                                              monkeypatch):
    """On a linear spec every row has the same C^1 probe Jacobians, leaf
    DPhi and leaf-link pivots; once_if_shared finds them where they are
    used, and each is computed once and given to every row: bit for bit what
    the per-row calls give.  A Hessian stack one ulp off on one row's leaf
    block, and a leaf batch with a row that was not integrated (identity
    DPhi), take the per-row calls, with the same bits on every other row.  A
    nonlinear spec's rows differ."""
    spec = _shared_path_specs(rp3_corpus_spec, sphere_corpus_spec)[case]
    linear = case != "nonlinear"
    settings = IntegratorSettings()
    m = 2 * spec.n
    q = sphere_points(24, m)
    t = np.linspace(0.05, 0.95, 24)
    nudge = (5, 1)  # row 5's Hessian of leaf 2, the first leaf-link pivot

    def compute():
        probes = [flow.c1_distance(spec, span, settings, subdivision_probe_points(spec.n))
                  for span in (1.0, 0.5, 0.0625)]
        f_phi = tp.build_phi_genfun(spec, settings)
        family = tp.ShiftedGenFunFamily(f_phi, spec.n, 4)
        x, warm = family.seed(q, t)
        chain, _ = family._chain(t)
        _, _, cold, ok, _ = gfm.evaluate_stacked(chain, x,
                                                 cold_leaf_state(family.leaf_bases(x)))
        tip = x.copy()
        tip[3] = 0.0  # row 3's leaf bases at the cone tip: never integrated
        _, _, cold_tip, ok_tip, _ = gfm.evaluate_stacked(
            chain, tip, cold_leaf_state(family.leaf_bases(tip)))
        _, grad, hess, dgrad, ok_warm, state = family.evaluate(x, t, warm)
        assert ok.all() and ok_warm.all() and len(f_phi.links) > 1
        assert np.flatnonzero(~ok_tip).tolist() == [3]
        F = np.concatenate([grad, 0.5 * (np.sum(x * x, axis=1) - 1.0)[:, None]], axis=1)
        nudged = hess.copy()
        nudged[nudge] = np.nextafter(nudged[nudge], np.inf)
        steps = [family.bordered_step(x, h, dgrad, F) for h in (hess, nudged)]
        alone = family.bordered_step(x[5:6], nudged[5:6], dgrad[5:6], F[5:6])
        assert np.array_equal(steps[1][5], alone[0]) and not np.array_equal(*steps)
        return np.array(probes), cold, cold_tip, hess, *steps, state.jac

    # leaf_hessian takes row 0 alone when the rows are shared
    rows = []
    inner = gfm.leaf_hessian
    monkeypatch.setattr(gfm, "leaf_hessian", lambda jac: rows.append(len(jac)) or inner(jac))
    shared = compute()
    assert same_on_rows(shared[-1]) == linear
    assert rows == ([1, 24, 1] if linear else [24, 24, 24])
    monkeypatch.setattr(linsymp, "same_on_rows", lambda a: False)
    per_row = compute()
    for a, b in zip(shared, per_row):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    _, cold, cold_tip = shared[:3]
    rest = np.arange(len(q)) != 3
    assert np.array_equal(cold_tip[rest].view(np.uint64), cold[rest].view(np.uint64))
