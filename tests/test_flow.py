import functools
from pathlib import Path

import numpy as np
import pytest

from contactmorse import cli, flow
from contactmorse import hamiltonian as ham
from contactmorse.config import load_config
from contactmorse.linsymp import complex_structure_matrix, mul_i, to_complex, to_real
from contactmorse.sampling import sphere_points

from oracles import (
    bisect_c1_small,
    compiled_field,
    contact_form_eval,
    expm,
    realify,
    reference_flow,
    symplectic_form_matrix,
    wirtinger_lift,
)


def _perturbed_spec():
    return ham.ContactHamiltonianSpec(
        n=2,
        quadratic=(0.3, 0.7),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0), (1, 0)),
            ham.PerturbationTerm(0.05, (0, 2), (0, 1)),
        ),
    )


def test_reeb_quarter_turn(settings):
    """h == 1 over t = 0.25 is multiplication by i (Hopf calibration)."""
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0))
    z0 = sphere_points(6, 4)
    z1, _ = flow.integrate_flow(spec, z0, 0.0, 0.25, settings, with_jacobian=False)
    assert np.max(np.abs(z1 - mul_i(z0))) < 1e-8


def test_diagonal_closed_form(settings, rng):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7))
    z0 = rng.normal(size=(4, 4))
    for t in (0.25, 1.0):
        z1, _ = flow.integrate_flow(spec, z0, 0.0, t, settings, with_jacobian=False)
        expect = to_real(to_complex(z0) * np.exp(2j * np.pi * np.array([0.3, 0.7]) * t))
        assert np.max(np.abs(z1 - expect)) < 1e-8


def test_linear_quadratic_flow_matches_matrix_exponential(settings):
    # H = 0.3|z1|^2 + 0.7|z2|^2 + 0.05 Re(z1^2) is a (non-Hermitian) real
    # quadratic form; its flow must be exp(t * pi * J * HessH).
    spec = ham.ContactHamiltonianSpec(
        n=2, quadratic=(0.3, 0.7), terms=(ham.PerturbationTerm(0.05, (2, 0), (0, 0)),)
    )
    z = sphere_points(5, 4)
    _, _, P, Q = wirtinger_lift(spec, to_complex(np.ones(4)))
    hess = realify(P, Q)

    gen = np.pi * complex_structure_matrix(2) @ hess
    for t in (0.5, 1.0):
        z1, jac = flow.integrate_flow(spec, z, 0.0, t, settings)
        L = expm(t * gen)
        assert np.max(np.abs(z1 - z @ L.T)) < 1e-8
        assert np.max(np.abs(jac - L)) < 1e-8


def test_radial_equivariance(settings, rng):
    spec = _perturbed_spec()
    z0 = rng.normal(size=(3, 4))
    base, _ = flow.integrate_flow(spec, z0, 0.0, 0.7, settings, with_jacobian=False)
    for lam in (0.25, 0.5, 2.0, 4.0):
        scaled, _ = flow.integrate_flow(
            spec, lam * z0, 0.0, 0.7, settings, with_jacobian=False
        )
        assert np.max(np.abs(scaled - lam * base)) < 1e-8 * lam


def test_jacobian_is_symplectic(settings, rng):
    spec = _perturbed_spec()
    z0 = sphere_points(8, 4)
    _, jac = flow.integrate_flow(spec, z0, 0.0, 1.0, settings)
    Om = symplectic_form_matrix(2)
    defect = np.swapaxes(jac, -1, -2) @ Om @ jac - Om
    assert np.max(np.abs(defect)) < 1e-7


def test_jacobian_matches_finite_differences(settings):
    spec = _perturbed_spec()
    z0 = np.array([0.6, 0.0, 0.0, 0.8])
    _, jac = flow.integrate_flow(spec, z0, 0.0, 0.5, settings)
    eps = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = eps
        zp, _ = flow.integrate_flow(spec, z0 + e, 0.0, 0.5, settings, with_jacobian=False)
        zm, _ = flow.integrate_flow(spec, z0 - e, 0.0, 0.5, settings, with_jacobian=False)
        assert np.allclose(jac[:, k], (zp - zm) / (2 * eps), atol=1e-7)


def test_flow_composition(settings):
    spec = _perturbed_spec()
    z0 = sphere_points(4, 4)
    mid, _ = flow.integrate_flow(spec, z0, 0.0, 0.4, settings, with_jacobian=False)
    end_split, _ = flow.integrate_flow(spec, mid, 0.4, 1.0, settings, with_jacobian=False)
    end_direct, _ = flow.integrate_flow(spec, z0, 0.0, 1.0, settings, with_jacobian=False)
    assert np.max(np.abs(end_split - end_direct)) < 1e-9


def test_flow_rejects_origin(settings):
    spec = _perturbed_spec()
    with pytest.raises(ValueError):
        flow.integrate_flow(spec, np.zeros(4), 0.0, 1.0, settings)


def test_step_count_floor_and_cap():
    # at least one step, however short the span or coarse the density
    assert flow.IntegratorSettings(steps_per_unit=0).steps_for(0.5) == 1
    assert flow.IntegratorSettings().steps_for(1e-9) == 1
    cap = flow._MAX_STEPS
    assert flow.IntegratorSettings(steps_per_unit=cap).steps_for(1.0) == cap
    with pytest.raises(RuntimeError, match="cap"):
        flow.IntegratorSettings(steps_per_unit=cap).steps_for(2.0)
    with pytest.raises(RuntimeError, match="cap"):
        flow.integrate_flow(ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,)),
                            np.array([1.0, 0.0]), 0.0, 2.0,
                            flow.IntegratorSettings(steps_per_unit=cap))


def _conformal_factor(spec, q, t1, settings):
    """g(q) = -2 log |Phi_{t1}(q)| at a unit-sphere point q: the lift has
    |Phi(q)| = e^{-g(q)/2} on the sphere."""
    z1, _ = flow.integrate_flow(spec, q, 0.0, t1, settings, with_jacobian=False)
    return -2.0 * float(np.log(np.linalg.norm(z1)))


def test_conformal_factor_vanishes_for_unitary_flows(settings):
    q = np.array([0.6, 0.0, 0.0, 0.8])
    unitary = ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7))
    assert abs(_conformal_factor(unitary, q, 1.0, settings)) < 1e-9
    reeb = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0))
    for t in (0.25, 1.0):
        assert abs(_conformal_factor(reeb, q, t, settings)) < 1e-9


def test_conformal_factor_matches_pullback_oracle(settings):
    """g(q) = log alpha_{phi(q)}(Dphi(q) i q) with phi the renormalized flow."""
    spec = _perturbed_spec()
    for q in sphere_points(6, 4):
        g_norm = _conformal_factor(spec, q, 1.0, settings)
        z1, jac = flow.integrate_flow(spec, q, 0.0, 1.0, settings)
        r = np.linalg.norm(z1)
        # Dphi restricted to the sphere: normalize the image along the flow
        dz = jac @ mul_i(q)
        dphi = dz / r - z1 * np.dot(z1, dz) / r**3
        g_oracle = np.log(contact_form_eval(z1 / r, dphi))
        assert g_norm == pytest.approx(g_oracle, abs=1e-6)


def test_subdivision_examples(settings):
    zero = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    assert flow.subdivide_c1_small(zero, 0.5, settings) == 1

    reeb = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0))
    pieces = flow.subdivide_c1_small(reeb, 0.5, settings)
    assert pieces >= 8
    assert pieces & (pieces - 1) == 0  # a power of 2


def test_subdivision_pieces_meet_criterion(settings):
    spec = _perturbed_spec()
    from contactmorse.sampling import subdivision_probe_points

    samples = subdivision_probe_points(2)
    pieces = flow.subdivide_c1_small(spec, 1.0, settings)
    probe = flow.IntegratorSettings(steps_per_unit=64)
    assert flow.c1_distance(spec, 1.0 / pieces, probe, samples) < 1.0


def test_subdivision_cap(monkeypatch):
    monkeypatch.setattr(flow, "_MAX_PIECES", 64)
    reeb = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    with pytest.raises(RuntimeError):
        flow.subdivide_c1_small(reeb, 1e-4)
    # a NaN distance never passes, so the halving runs into the cap
    monkeypatch.setattr(flow, "c1_distance", lambda *args: np.nan)
    with pytest.raises(RuntimeError, match="piece cap"):
        flow.subdivide_c1_small(reeb, 0.5)


@pytest.fixture
def probes(monkeypatch):
    """Records the span of every c1_distance call."""
    calls = []
    inner = flow.c1_distance

    def counting(spec, span, *args):
        calls.append(span)
        return inner(spec, span, *args)

    monkeypatch.setattr(flow, "c1_distance", counting)
    return calls


@pytest.mark.parametrize("case", ["corpus", "rp3"])
def test_subdivision_matches_bisection_reference(case, request, probes):
    """The piece count probes each level of halving once, and its pieces
    (i/L, (i + 1)/L) are the reference's, with one probe per interval, bit
    for bit."""
    spec = request.getfixturevalue({"corpus": "sphere_corpus_spec", "rp3": "rp3_corpus_spec"}[case])
    settings = flow.IntegratorSettings()
    pieces = flow.subdivide_c1_small(spec, 1.0, settings)
    levels = len(probes)
    probes.clear()
    ref = bisect_c1_small(spec, 0.0, 1.0, 1.0, settings)
    equal = [(i / pieces, (i + 1) / pieces) for i in range(pieces)]
    assert equal == ref and pieces > 1
    assert all(x.hex() == y.hex() for p, r in zip(equal, ref) for x, y in zip(p, r))
    assert len(probes) == 2 * len(ref) - 1
    assert pieces == 2 ** (levels - 1)


def test_subdivision_probes_once_per_dyadic_level(sphere_corpus_spec, probes):
    """The corpus flow is 16 pieces of 1/16: bisection visits 31 intervals
    on 5 levels, and the piece count probes each level once."""
    pieces = flow.subdivide_c1_small(sphere_corpus_spec, 1.0, flow.IntegratorSettings())
    assert pieces == 16
    assert probes == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_calibration_sweep_agrees(fast_settings, monkeypatch):
    monkeypatch.setattr(flow, "_CALIBRATION_TOL", 1e-9)
    spec = _perturbed_spec()
    density = flow.calibrate_steps_per_unit(spec)
    assert density <= 64
    probes = sphere_points(4, 4)
    a, _ = flow.integrate_flow(
        spec, probes, 0.0, 1.0, flow.IntegratorSettings(steps_per_unit=density),
        with_jacobian=False,
    )
    b, _ = flow.integrate_flow(
        spec, probes, 0.0, 1.0, flow.IntegratorSettings(steps_per_unit=2 * density),
        with_jacobian=False,
    )
    assert np.max(np.abs(a - b)) < 1e-9


def test_dop853_tableau_matches_scipy():
    """The literal tableau is scipy's DOP853 tableau, bit for bit."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    stages = ref.N_STAGES
    A = np.zeros((stages, stages))
    for s, row in enumerate(flow._A):
        for j, a in row:
            assert j < s
            A[s, j] = a
    b = np.zeros(stages)
    for j, w in flow._B:
        b[j] = w
    assert len(flow._A) == len(flow._C) == stages
    assert np.array_equal(A, ref.A[:stages, :stages])
    assert np.array_equal(b, ref.B)
    assert np.array_equal(np.array(flow._C), ref.C[:stages])
    assert all(a != 0.0 for row in flow._A for _, a in row)
    assert all(w != 0.0 for _, w in flow._B)


@pytest.mark.parametrize("weights, tol16", [((1.0, 1.0), 1e-9), ((0.3, 0.7), 1e-10)])
def test_dop853_order_on_exact_rotations(weights, tol16):
    """Halving the step cuts the error over one unit by at least 2^7, state
    and Jacobian alike, on the unitary diagonal flows z_j -> e^{2 pi i w_j t} z_j;
    at 16 steps per unit both errors are below tol16."""
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=weights)
    z0 = sphere_points(8, 4)
    rot = to_real(to_complex(np.eye(4)) * np.exp(2j * np.pi * np.asarray(weights))).T
    errors = []
    for density in (4, 8, 16):
        z, jac = flow.integrate_flow(
            spec, z0, 0.0, 1.0, flow.IntegratorSettings(steps_per_unit=density)
        )
        errors.append((np.max(np.abs(z - z0 @ rot.T)), np.max(np.abs(jac - rot))))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine[0] * 2**7 <= coarse[0]
        assert fine[1] * 2**7 <= coarse[1]
    assert max(errors[-1]) < tol16


def test_corpus_schedule_takes_one_step_per_leaf(sphere_corpus_spec):
    """At the default density, delta = 1.0 splits the corpus flow into 16
    pieces, each integrated in one step."""
    default = flow.IntegratorSettings()
    pieces = flow.subdivide_c1_small(sphere_corpus_spec, 1.0, default)
    assert pieces == 16
    assert default.steps_for(1.0 / pieces) == 1


def _n3_mixed_spec():
    """An n = 3 spec whose cubic terms mix the coordinates."""
    return ham.ContactHamiltonianSpec(
        n=3,
        quadratic=(0.3, 0.5, 0.7),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0, 1), (1, 0, 0)),
            ham.PerturbationTerm(0.03, (0, 1, 0), (0, 0, 2)),
            ham.PerturbationTerm(-0.02, (1, 1, 0), (0, 0, 1)),
        ),
    )


def _linear_specs(rp3_corpus_spec):
    T = ham.PerturbationTerm
    return {
        "quadratic": ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, 0.5)),
        "rp3": rp3_corpus_spec,
        "mixing": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7),
                                             terms=(T(0.1, (1, 0), (0, 1)),)),
        "constant": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7),
                                               terms=(T(0.05, (0, 0), (0, 0)),)),
    }


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("case", ["quadratic", "rp3", "mixing"])
def test_linear_flow_shares_jacobian_bitwise(case, rp3_corpus_spec, rng):
    """A linear field's flow is its one shared Jacobian P: every state is
    P z0, summed one column at a time, bit for bit, and within 1e-13
    relative of a one-row integration that carries the Jacobian, whose
    Jacobian every row gets bit for bit (signed zeros included)."""
    spec = _linear_specs(rp3_corpus_spec)[case]
    tables = flow._real_field(spec)
    assert tables.linear
    settings = flow.IntegratorSettings(steps_per_unit=32)
    z0 = rng.normal(size=(8, 4))
    for t0 in (0.0, 0.3, 0.55):
        for t1 in (t0 + 1.0, t0 + 1 / 16, t0 + 0.37):
            z, jac = flow.integrate_flow(spec, z0, t0, t1, settings)
            span = t1 - t0
            steps = settings.steps_for(span)
            P = tables.jacobian(span, steps)
            assert np.array_equal(_bits(jac), _bits(np.broadcast_to(P, jac.shape)))
            expect = np.zeros_like(z0)
            for k in range(4):
                expect += z0[:, k:k + 1] * P[:, k]
            assert np.array_equal(_bits(z), _bits(expect)), (t0, t1)
            for i in range(z0.shape[0]):
                zr, jr = z0[i:i + 1].copy(), np.eye(4)[None].copy()
                flow._dop853(flow._FieldEval(tables, 1, True), zr, jr, span / steps, steps)
                assert np.max(np.abs(zr - z[i:i + 1])) <= 1e-13 * np.max(np.abs(zr))
                assert np.array_equal(_bits(jr), _bits(jac[i:i + 1])), (t0, t1, i)


@pytest.mark.parametrize("long_first", [True, False])
@pytest.mark.parametrize("case", ["quadratic", "rp3", "mixing"])
def test_step_size_memo_matches_fresh_integrations(case, long_first, rp3_corpus_spec):
    """A linear field's P over k steps of h = 1/16, k = 1..16, is
    the k-th step of the memo's one integration at h, extended as longer
    spans ask: bit for bit a fresh k-step integration of the unit row
    through the compiled field, whichever span is asked first."""
    spec = _linear_specs(rp3_corpus_spec)[case]
    tables, fresh = flow._RealField(spec), flow._RealField(spec)
    h = 1 / 16
    for k in (range(16, 0, -1) if long_first else (1, 2, 5, 3, 16, *range(4, 16))):
        P = tables.jacobian(k * h, k)
        z, jac = np.eye(1, 4), np.eye(4)[None].copy()
        flow._dop853(flow._FieldEval(fresh, 1, True), z, jac, h, k)
        assert np.array_equal(_bits(P), _bits(jac[0])), k
    assert list(tables._jacobians) == [h] and len(tables._jacobians[h]) == 17


def test_jacobian_memo_is_bounded(rp3_corpus_spec, monkeypatch):
    """The memo never holds more than _JACOBIAN_MEMO Jacobians: it drops its
    oldest entries, and a span of that many steps or more keeps only its
    last Jacobian, so one long span stays under the cap.  Every Jacobian,
    dropped and asked again or kept alone, has the bits it has under the
    default cap."""
    asked = [(1.0, 16), (1.0, 8), (1.0, 32), (1.0, 24), (1.0, 64), (0.5, 32), (1.0, 1000)]
    expect = {key: flow._RealField(rp3_corpus_spec).jacobian(*key).copy() for key in asked}
    monkeypatch.setattr(flow, "_JACOBIAN_MEMO", 40)
    tables = flow._RealField(rp3_corpus_spec)
    for span, steps in asked + asked[:2]:
        P = tables.jacobian(span, steps)
        assert np.array_equal(_bits(P), _bits(expect[span, steps])), (span, steps)
        assert sum(map(len, tables._jacobians.values())) <= 40, (span, steps)
        if steps >= 40:
            assert len(tables._jacobians[span, steps]) == 1


def test_linearity_flag(sphere_corpus_spec, rp3_corpus_spec, monkeypatch, rng):
    """Quadratic forms (terms of degree 2 or 0) are linear; odd cubic, mixed
    cubic and even quartic terms are not, and never reach the memo."""
    for case, spec in _linear_specs(rp3_corpus_spec).items():
        assert flow._real_field(spec).linear, case
    quartic = ham.ContactHamiltonianSpec(
        n=2, quadratic=(0.3, 0.7), terms=(ham.PerturbationTerm(0.05, (2, 0), (0, 2)),)
    )

    def reached(*args):
        raise AssertionError("a nonlinear spec reached the shared Jacobian")

    monkeypatch.setattr(flow._RealField, "jacobian", reached)
    for spec in (sphere_corpus_spec, _n3_mixed_spec(), quartic):
        assert not flow._real_field(spec).linear
        z0 = rng.normal(size=(5, 2 * spec.n))
        _, jac = flow.integrate_flow(spec, z0, 0.2, 0.7, flow.IntegratorSettings(32))
        assert len({_bits(j).tobytes() for j in jac}) == 5


def test_shared_jacobian_is_copied_out(rp3_corpus_spec, settings):
    """Writing into a returned Jacobian leaves the memo, and so the next
    call's result, as it was."""
    z0 = sphere_points(6, 4)
    _, expect = flow.integrate_flow(rp3_corpus_spec, z0, 0.0, 1.0, settings)
    for z in (z0, z0[0]):
        _, jac = flow.integrate_flow(rp3_corpus_spec, z, 0.0, 1.0, settings)
        jac[...] = np.nan
        _, again = flow.integrate_flow(rp3_corpus_spec, z, 0.0, 1.0, settings)
        assert np.array_equal(_bits(again), _bits(expect[0] if z.ndim == 1 else expect))


def test_rp3_config_computes_one_jacobian_per_interval(tmp_path, monkeypatch):
    """On the committed rp3 config each compiled spec's memo runs one
    unit-row integration per step size h, and every span of k steps of h is
    its k-th step: the stacked integrations of the 16 genfun leaves in every
    outer Newton iteration share one, and so do the direct route's time-one
    integrations, the subdivision probes and the leaves.  The Reeb
    calibration check asks its own spec's memo.  That makes 3: the Reeb
    spec at h = 1/16, and rp3 at h = 1/16 (spans 1, 1/2, ..., 1/16) and at
    h = 1/32."""
    flow._real_field.cache_clear()
    asked, computed, current = [], [], []
    lookup, integrate = flow._RealField.jacobian, flow._dop853

    def jacobian(self, span, steps):
        asked.append((self, span, steps))
        current.append(self)
        try:
            return lookup(self, span, steps)
        finally:
            current.pop()

    def dop853(field, z, jac, h, steps, trace=None):
        if jac is not None:
            computed.append((current[-1], h, z.shape[0]))
        return integrate(field, z, jac, h, steps, trace)

    monkeypatch.setattr(flow._RealField, "jacobian", jacobian)
    monkeypatch.setattr(flow, "_dop853", dop853)
    config = Path(__file__).resolve().parents[1] / "configs" / "rp3-sym-eps0.05.json"
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    rp3 = flow._real_field(load_config(config).hamiltonian)
    reeb = flow._real_field(ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0)))
    assert sorted(computed, key=lambda c: (c[0] is rp3, -c[1])) == [
        (reeb, 1 / 16, 1), (rp3, 1 / 16, 1), (rp3, 1 / 32, 1)]
    assert {span for tables, span, steps in asked if tables is rp3 and span / steps == 1 / 16} \
        == {1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16}
    leaf = (rp3, 1 / 16, 1)
    assert asked.count(leaf) > 1 and asked.count((rp3, 1.0, 16)) > 1


@pytest.mark.parametrize("routes", ["both", "genfun"])
def test_rp3_config_stage_loop_matches_linear_map(routes, tmp_path, monkeypatch):
    """The committed rp3 config run with the stage loop in place of the
    linear flow's one matrix gives the same report (the calibration error
    aside), the same exit status and the same records, row by row: the same
    flags, and q, t and residuals within 1e-12.  On the genfun route the two
    members of an antipodal pair, whose t agree to rounding, keep their rows."""
    config = Path(__file__).resolve().parents[1] / "configs" / "rp3-sym-eps0.05.json"

    def run(name):
        out = tmp_path / name
        status = cli.main(["run", str(config), "--out", str(out), "--routes", routes])
        report = [line for line in (out / "report.txt").read_text().splitlines()
                  if not line.startswith("reeb_quarter_turn_rel_err")]
        lines = (out / "records.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        numeric = [i for i, key in enumerate(header) if key not in ("nondegenerate", "route")]
        values = np.array([[float(row[i]) for i in numeric] for row in rows])
        flags = [[v for i, v in enumerate(row) if i not in numeric] for row in rows]
        return status, report, values, flags

    linear = run("linear")

    @functools.lru_cache(maxsize=None)
    def stage_loop(spec):
        tables = flow._RealField(spec)
        tables.linear = False
        return tables

    monkeypatch.setattr(flow, "_real_field", stage_loop)
    staged = run("stage_loop")
    assert linear[0] == staged[0] == cli.EXIT_OK
    assert linear[1] == staged[1]
    assert linear[2].shape == staged[2].shape == (8, 7)
    assert np.max(np.abs(linear[2] - staged[2])) <= 1e-12
    assert linear[3] == staged[3]


def _kernel_reference(spec, x):
    """FIELD_SCALE * i * G and FIELD_SCALE * realify(i P, i Q) of the
    Wirtinger reference."""
    _, G, P, Q = wirtinger_lift(spec, to_complex(x))
    return to_real(flow.FIELD_SCALE * 1j * G), flow.FIELD_SCALE * realify(1j * P, 1j * Q)


def _assert_rel_close(got, ref, rel=1e-13):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "case", ["n1", "corpus", "rp3", "no_terms", "n3_mixed", "degree0", "pure_zbar", "n3_degree5"]
)
def test_real_field_matches_eval_lift(case, sphere_corpus_spec, rp3_corpus_spec, rng):
    specs = {
        "n1": ham.ContactHamiltonianSpec(
            n=1, quadratic=(0.4,),
            terms=(ham.PerturbationTerm(0.07, (3,), (1,)), ham.PerturbationTerm(0.02, (1,), (0,))),
        ),
        "corpus": sphere_corpus_spec,
        "rp3": rp3_corpus_spec,
        "no_terms": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, -0.7)),
        "n3_mixed": _n3_mixed_spec(),
        "degree0": ham.ContactHamiltonianSpec(
            n=2, quadratic=(0.3, 0.7), terms=(ham.PerturbationTerm(0.05, (0, 0), (0, 0)),)
        ),
        "pure_zbar": ham.ContactHamiltonianSpec(
            n=2, quadratic=(0.3, 0.7), terms=(ham.PerturbationTerm(0.04, (0, 0), (0, 3)),)
        ),
        "n3_degree5": ham.ContactHamiltonianSpec(
            n=3, quadratic=(0.2, 0.5, -0.4),
            terms=(ham.PerturbationTerm(0.03, (2, 0, 1), (0, 1, 1)),),
        ),
    }
    spec = specs[case]
    x = rng.normal(size=(70, 2 * spec.n)) * rng.uniform(0.1, 10.0, size=(70, 1))
    f_ref, j_ref = _kernel_reference(spec, x)
    field, jac = compiled_field(spec, x)
    field_only, none = compiled_field(spec, x, with_jacobian=False)
    assert none is None
    _assert_rel_close(field, f_ref)
    _assert_rel_close(jac, j_ref)
    _assert_rel_close(field_only, f_ref)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_real_field_rejects_origin_and_nonfinite(bad, sphere_corpus_spec, reeb_spec, settings):
    x = np.array([[0.6, 0.0, 0.0, 0.8], [bad, 0.0, 0.0, 0.0]])
    for spec in (sphere_corpus_spec, reeb_spec):
        for with_jacobian in (True, False):
            with pytest.raises(ValueError):
                compiled_field(spec, x, with_jacobian)
            with pytest.raises(ValueError):
                flow.integrate_flow(spec, x, 0.0, 0.1, settings, with_jacobian)


@pytest.mark.parametrize("with_jacobian", [True, False])
@pytest.mark.parametrize("case", ["corpus", "rp3", "reeb", "n3_mixed"])
def test_flow_rows_bitwise_independent_of_batch(
    case, with_jacobian, sphere_corpus_spec, rp3_corpus_spec, rng
):
    """Each row's bits are those it gets in the full batch, whether it is
    integrated alone or in consecutive batches of 2, 7, 64 or 513 rows."""
    spec = {
        "corpus": sphere_corpus_spec,
        "rp3": rp3_corpus_spec,
        "reeb": ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, 0.5)),
        "n3_mixed": _n3_mixed_spec(),
    }[case]
    short = flow.IntegratorSettings(steps_per_unit=512)
    z0 = rng.normal(size=(530, 2 * spec.n))
    t0, t1 = 0.3, 0.3 + 4 / 512

    def run(rows):
        return flow.integrate_flow(spec, z0[rows], t0, t1, short, with_jacobian)

    full_z, full_j = run(slice(None))
    for size in (1, 2, 7, 64, 513):
        for start in range(0, z0.shape[0], size):
            rows = slice(start, start + size)
            z, j = run(rows)
            assert np.array_equal(z, full_z[rows]), (size, start)
            if with_jacobian:
                assert np.array_equal(j, full_j[rows]), (size, start)


def _reference_specs(sphere_corpus_spec, rp3_corpus_spec):
    """The three configs' specs, a mixing term Re(z1 conj(z2)), Re(z1^3) (its
    Jacobian plan builds no degree-1 monomial of y_2) and the n = 3 sphere
    spec with Re(z_j^2 conj(z_j))."""
    T = ham.PerturbationTerm
    return {
        "corpus": sphere_corpus_spec,
        "rp3": rp3_corpus_spec,
        "reeb": ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, 0.5)),
        "mixing": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7),
                                             terms=(T(0.1, (1, 0), (0, 1)),)),
        "cube": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7),
                                           terms=(T(0.05, (3, 0), (0, 0)),)),
        "n3": ham.ContactHamiltonianSpec(
            n=3, quadratic=(0.2, 0.45, 0.7),
            terms=(T(0.05, (2, 0, 0), (1, 0, 0)), T(0.05, (0, 2, 0), (0, 1, 0)),
                   T(0.05, (0, 0, 2), (0, 0, 1))),
        ),
    }


def _rows_with_zeros(rng, B, m):
    """B random rows, the first ones with exact zero coordinates."""
    z0 = rng.normal(size=(B, m))
    for i in range(min(B, m)):
        z0[i, :i] = z0[i, i + 1:] = 0.0
    return z0


@pytest.mark.parametrize("with_jacobian", [True, False])
@pytest.mark.parametrize("case", ["corpus", "rp3", "reeb", "mixing", "cube", "n3"])
def test_integrate_flow_matches_reference_bitwise(
    case, with_jacobian, sphere_corpus_spec, rp3_corpus_spec, settings, rng
):
    """integrate_flow gives every row, signed zeros included, the bits of
    the reference integrator, which runs the whole batch in one pass with
    separate stage buffers and one numpy call per tableau term, per
    coordinate of |x|^2 and per gathered operand."""
    spec = _reference_specs(sphere_corpus_spec, rp3_corpus_spec)[case]
    if case == "cube":
        levels, _ = flow._real_field(spec).plans[True]
        start, stop, _ = levels[0]
        assert stop - start < 2 * spec.n
    for B in (1, 5, 128, 700, 2048):
        z0 = _rows_with_zeros(rng, B, 2 * spec.n)
        for span in (1 / 16, 0.37, 1.0):
            z, jac = flow.integrate_flow(spec, z0, 0.3, 0.3 + span, settings, with_jacobian)
            z_ref, jac_ref = reference_flow(spec, z0, 0.3, 0.3 + span, settings, with_jacobian)
            assert np.array_equal(_bits(z), _bits(z_ref)), (B, span)
            if with_jacobian:
                assert np.array_equal(_bits(jac), _bits(jac_ref)), (B, span)
            else:
                assert jac is None


@pytest.mark.parametrize("with_jacobian", [True, False])
@pytest.mark.parametrize("case", ["corpus", "rp3"])
def test_row_chunk_and_row_order_keep_bits(
    case, with_jacobian, sphere_corpus_spec, rp3_corpus_spec, settings, monkeypatch, rng
):
    """The row chunk is a performance knob: chunks of 64, 512 or 4096 rows
    give a batch of 1100 rows (a ragged last chunk) the same bits, and
    reversing the rows of the batch reverses the rows of the result."""
    spec = _reference_specs(sphere_corpus_spec, rp3_corpus_spec)[case]
    z0 = _rows_with_zeros(rng, 1100, 4)

    def run(rows):
        return flow.integrate_flow(spec, rows, 0.1, 0.1 + 1 / 16, settings, with_jacobian)

    results = []
    for chunk in (64, 512, 4096):
        monkeypatch.setattr(flow, "_ROW_CHUNK", chunk)
        results.append(run(z0))
        z_rev, jac_rev = run(z0[::-1])
        assert np.array_equal(_bits(z_rev[::-1]), _bits(results[-1][0])), chunk
        if with_jacobian:
            assert np.array_equal(_bits(jac_rev[::-1]), _bits(results[-1][1])), chunk
    for z, jac in results[1:]:
        assert np.array_equal(_bits(z), _bits(results[0][0]))
        if with_jacobian:
            assert np.array_equal(_bits(jac), _bits(results[0][1]))
