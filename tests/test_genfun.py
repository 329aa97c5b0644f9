import numpy as np
import pytest

from contactmorse import genfun as gfm
from contactmorse import hamiltonian as ham
from contactmorse import translated as tp
from contactmorse.flow import integrate_flow
from contactmorse.linsymp import inertia, to_complex, to_real
from contactmorse.sampling import sphere_points
from contactmorse.translated import ShiftedGenFunFamily, build_phi_genfun

from oracles import (
    build_rotation_family,
    chain_change,
    chain_leaf_bases,
    cold_leaf_state,
    fd_gradient,
    monotonicity_probe_values,
    nested_chain,
    nested_rotation_matrices,
    quadratic_form_for_rotation,
    rotation_leaf,
    solve_leaves,
    solved_chain,
    tau_covector,
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


def _leaf(spec, span, settings):
    """The one-link chain of the flow piece over span."""
    return gfm.ChainGF((gfm.LeafGF(spec, span, settings),))


def _tau_graph_check(gf, spec_or_map, z, settings, tol):
    """The fiber-critical reduction of gf must hit tau(graph Phi) over z: the
    chain seed over z is fiber-critical, its fiber gradient within 1e-10
    |base|, and its base gradient is the covector tau(z, Phi(z))."""
    if isinstance(spec_or_map, ham.ContactHamiltonianSpec):
        Z, _ = integrate_flow(spec_or_map, z, 0.0, 1.0, settings, with_jacobian=False)
    else:
        Z = spec_or_map(z)
    base = 0.5 * (z + Z)
    fib, z_out, _ = gf.chain_seed(z)
    assert np.max(np.abs(z_out - Z)) < 1e-7
    _, grad, _, ok = solved_chain(gf, np.concatenate([base, fib], axis=1))
    assert ok.all()
    m = gf.base_dim
    assert np.all(np.linalg.norm(grad[:, m:], axis=1) <= 1e-10 * np.linalg.norm(base, axis=1))
    assert np.max(np.abs(grad[:, :m] - tau_covector(z, Z))) < tol


# --- leaves ---------------------------------------------------------------


def test_identity_leaf(settings, rng):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    leaf = _leaf(spec, 1.0, settings)
    b = rng.normal(size=(5, 4))
    val, grad, _, ok = solved_chain(leaf, b)
    assert ok.all()
    assert np.allclose(val, 0.0, atol=1e-10)
    assert np.allclose(grad, 0.0, atol=1e-10)


def test_leaf_rotation_closed_form(settings, rng):
    # a_{1/8} (h == -1 over [0, 1/8]) has Q(b) = -tan(pi/8) |b|^2
    spec = ham.ContactHamiltonianSpec(n=1, quadratic=(-1.0,))
    leaf = _leaf(spec, 0.125, settings)
    b = rng.normal(size=(8, 2))
    val, grad, _, ok = solved_chain(leaf, b)
    assert ok.all()
    coeff = -np.tan(np.pi * 0.125)
    assert np.allclose(val, coeff * np.sum(b * b, axis=1), atol=1e-9)
    assert np.allclose(grad, 2.0 * coeff * b, atol=1e-9)


def test_leaf_gradient_matches_fd(settings, rng):
    leaf = _leaf(_perturbed_spec(), 0.08, settings)
    for _ in range(3):
        b = rng.normal(size=4)
        _, grad, _, ok = solved_chain(leaf, b[None])
        assert ok.all()
        fd = fd_gradient(lambda v: solved_chain(leaf, v[None])[0][0], b)
        assert np.allclose(grad[0], fd, atol=1e-6)


def test_leaf_newton_failure_raises(settings, monkeypatch):
    # h == 1 over half a period maps z to -z; the midpoint equation is
    # singular and the piece is maximally far from C^1-small.  The leaf step
    # throws the midpoint to |z| ~ 1e10 |b|, where (z + Phi(z))/2 meets b
    # only on paper: the growth guard _LEAF_GROWTH flags the row, and
    # without it the row would pass the residual test.
    spec = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    leaf = _leaf(spec, 0.5, settings)
    b = np.array([[1.0, 0.0]])
    assert not solved_chain(leaf, b)[3].any()
    monkeypatch.setattr(gfm, "_LEAF_GROWTH", np.inf)
    assert solved_chain(leaf, b)[3].all()


# --- midpoint integrations and the leaf Newton -------------------------------


def _midpoint_problem(settings, rng, rows=6):
    leaf = _leaf(_perturbed_spec(), 0.08, settings)
    b = rng.normal(size=(rows, 4))
    return leaf, b


def _newton_midpoints(leaf, b, z):
    """The midpoints (B, 2n) of the one-leaf chain leaf at bases b, solved by
    solve_leaves from midpoints z with DPhi = I (its first step integrates at
    z, and z = b starts cold), and the rows that pass the leaf test."""
    state = cold_leaf_state(b[:, None])
    state.z[:, 0] = z
    *_, ok, state = solve_leaves(leaf, b, state)
    return state.z[:, 0], ok


@pytest.fixture
def integrations(monkeypatch):
    """Records the start points of every leaf integration."""
    calls = []
    inner = gfm.integrate_flow

    def counting(spec, z0, *args, **kwargs):
        calls.append(np.array(z0))
        return inner(spec, z0, *args, **kwargs)

    monkeypatch.setattr(gfm, "integrate_flow", counting)
    return calls


def _integrate_once(leaf, b, z, integrations):
    """solve_midpoint of the leaf at bases b and midpoints z: one integration
    of every row, at z, whose Phi and DPhi it returns."""
    piece = leaf.links[0]
    integrations.clear()
    z1, Zv, jac, ok = gfm.solve_midpoint(piece.spec, piece.span, piece.settings, b, z)
    assert len(integrations) == 1 and integrations[0].shape[0] == b.shape[0]
    assert ok.all() and np.array_equal(z1, z)
    Zr, jr = integrate_flow(piece.spec, z, 0.0, piece.span, piece.settings)
    assert np.array_equal(Zv, Zr) and np.array_equal(jac, jr)
    return gfm._leaf_solved(z1, 0.5 * (z1 + Zv), b)


def test_midpoint_exact_guess_takes_one_integration(settings, rng, integrations):
    leaf, b = _midpoint_problem(settings, rng)
    z, ok = _newton_midpoints(leaf, b, b)
    assert ok.all()
    assert _integrate_once(leaf, b, z, integrations).all()


def test_midpoint_perturbed_guess_matches_cold(settings, rng, monkeypatch):
    # Newton stops anywhere inside the leaf tolerance, so two solves of one
    # root agree to about that tolerance; a tight one makes the comparison
    # sharp.
    monkeypatch.setattr(gfm, "_LEAF_TOL", 1e-13)
    leaf, b = _midpoint_problem(settings, rng)
    z, ok = _newton_midpoints(leaf, b, b)
    z0 = z + 1e-2 * rng.normal(size=z.shape)
    z2, ok2 = _newton_midpoints(leaf, b, z0)
    assert ok.all() and np.array_equal(ok2, ok)
    scale = np.linalg.norm(b, axis=1)
    assert np.all(np.linalg.norm(z2 - z, axis=1) <= 1e-12 * scale)


def test_midpoint_without_steps_leaves_the_leaf_test_to_the_caller(settings, rng,
                                                                   integrations):
    """solve_midpoint takes no leaf step: ok marks the rows integrated at
    their midpoints, also where those fail the leaf test."""
    leaf, b = _midpoint_problem(settings, rng)
    z, _ = _newton_midpoints(leaf, b, b)
    z0 = z + 1e-2 * rng.normal(size=z.shape)
    assert not _integrate_once(leaf, b, z0, integrations).any()


def test_midpoint_zero_base_row_fails_alone(settings, rng):
    leaf, b = _midpoint_problem(settings, rng)
    b[2] = 0.0
    rest = np.delete(b, 2, axis=0)
    ref, ok_ref = _newton_midpoints(leaf, rest, rest)
    for z0 in (b, b + 1e-3):
        z, ok = _newton_midpoints(leaf, b, z0)
        assert not ok[2]
        assert ok_ref.all() and np.array_equal(np.delete(ok, 2), ok_ref)
        assert np.max(np.abs(np.delete(z, 2, axis=0) - ref)) <= 1e-12


def test_zero_span_is_the_identity(settings, sphere_corpus_spec, rng):
    """integrate_flow alone handles t1 == t0: it returns the rows bit for bit
    with the identity Jacobian, so a zero-span leaf solves z = Phi(z) = b."""
    b = rng.normal(size=(5, 4))
    for t in (0.0, 0.375):
        z1, jac = integrate_flow(sphere_corpus_spec, b, t, t, settings)
        assert np.array_equal(z1, b) and np.array_equal(jac, np.broadcast_to(np.eye(4), jac.shape))
    z, Z, jac, ok = gfm.solve_midpoint(sphere_corpus_spec, 0.0, settings, b, b)
    assert ok.all() and np.array_equal(z, b) and np.array_equal(Z, b)
    assert np.array_equal(jac, np.broadcast_to(np.eye(4), jac.shape))


# --- rotation quadratics ---------------------------------------------------


def test_rotation_quadratic_values():
    assert np.allclose(quadratic_form_for_rotation(0.0, 2), 0.0)
    assert np.allclose(quadratic_form_for_rotation(0.25, 1), -np.eye(2))
    c1 = abs(quadratic_form_for_rotation(0.49, 1)[0, 0])
    c2 = abs(quadratic_form_for_rotation(0.499, 1)[0, 0])
    assert c2 > c1
    with pytest.raises(ValueError):
        quadratic_form_for_rotation(0.5, 1)


def test_rotation_quadratic_generates_rotation(rng):
    for t in (0.1, -0.3, 0.25):
        leaf = rotation_leaf(t, 2)
        z = rng.normal(size=(6, 4))
        Z = leaf.map_points(z)
        expect = to_real(np.exp(-2j * np.pi * t) * to_complex(z))
        assert np.max(np.abs(Z - expect)) < 1e-12
        # graph of dQ under tau
        base = 0.5 * (z + Z)
        _, grad, _, _ = solved_chain(leaf, base)
        assert np.max(np.abs(grad - tau_covector(z, Z))) < 1e-12


# --- composition ------------------------------------------------------------


def test_compose_identity_reduces_to_zero_section(settings, rng):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.0, 0.0))
    leaf1 = gfm.LeafGF(spec, 0.5, settings)
    leaf2 = gfm.LeafGF(spec, 0.5, settings)
    comp = gfm.gf_compose(leaf1, leaf2)
    z = rng.normal(size=(6, 4))
    _tau_graph_check(comp, lambda w: w, z, settings, 1e-9)


def test_compose_two_rotations(rng):
    comp = gfm.gf_compose(rotation_leaf(0.125, 1), rotation_leaf(0.125, 1))
    assert comp.fiber_dim == 4
    z = rng.normal(size=(8, 2))
    rot = lambda w: to_real(np.exp(-2j * np.pi * 0.25) * to_complex(w))
    _tau_graph_check(comp, rot, z, None, 1e-8)


def test_compose_homogeneity(settings, rng):
    spec = _perturbed_spec()
    leaf = gfm.LeafGF(spec, 0.08, settings)
    comp = gfm.gf_compose(rotation_leaf(0.1, 2), leaf)
    x = rng.normal(size=(5, comp.total_dim))
    v1, _, _, ok = solved_chain(comp, x)
    assert ok.all()
    for lam in (0.5, 2.0):
        v2, _, _, ok = solved_chain(comp, lam * x)
        assert ok.all()
        assert np.max(np.abs(v2 - lam**2 * v1) / np.abs(v1)) < 1e-9


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        gfm.gf_compose(rotation_leaf(0.1, 1), rotation_leaf(0.1, 2))


def test_quadratic_dag_matches_assembled_matrix(rng):
    dag = gfm.gf_compose(
        gfm.gf_compose(rotation_leaf(0.1, 1), rotation_leaf(0.05, 1)),
        rotation_leaf(-0.2, 1),
    )
    _, _, hess, _ = solved_chain(dag, np.zeros((1, dag.total_dim)))
    M = 0.5 * gfm.chain_hessian(hess)[0]
    x = rng.normal(size=(10, dag.total_dim))
    direct = np.einsum("bi,ij,bj->b", x, M, x)
    vals, grads, _, _ = solved_chain(dag, x)
    assert np.max(np.abs(vals - direct)) < 1e-10
    assert np.max(np.abs(grads - 2.0 * x @ M)) < 1e-10


def test_gf_grad_matches_fd(settings, rng):
    spec = _perturbed_spec()
    leaf = gfm.LeafGF(spec, 0.08, settings)
    comp = gfm.gf_compose(leaf, rotation_leaf(0.15, 2))
    x = rng.normal(size=comp.total_dim)
    _, grad, _, ok = solved_chain(comp, x[None])
    assert ok.all()
    fd = fd_gradient(lambda v: solved_chain(comp, v[None])[0][0], x)
    assert np.allclose(grad[0], fd, atol=1e-6)


# --- rotation family --------------------------------------------------------


def test_build_rotation_family_validation():
    with pytest.raises(ValueError):
        build_rotation_family(0.5, 1, 2)
    with pytest.raises(ValueError):
        build_rotation_family(1.2, 1, 4)


def test_rotation_family_reduces_to_rotation_graph(rng):
    for t in (0.0, 0.3, 0.7, 1.0):
        fam = build_rotation_family(t, 2, 4)
        z = rng.normal(size=(6, 4))
        rot = lambda w: to_real(np.exp(-2j * np.pi * t) * to_complex(w))
        _tau_graph_check(fam.genfun, rot, z, None, 1e-8)


def test_rotation_family_matrix_matches_dag(rng):
    for t in (0.2, 0.9):
        fam = build_rotation_family(t, 1, 4)
        x = np.zeros((1, fam.genfun.total_dim))
        _, _, hess, _ = solved_chain(fam.genfun, x)
        M = 0.5 * gfm.chain_hessian(hess)[0]
        assert np.max(np.abs(M - fam.matrix)) < 1e-12


def test_rotation_family_matrices_continuous_in_t():
    M = np.array([gfm.rotation_family_matrices(t, 1, 4) for t in np.linspace(0.0, 1.0, 9)])
    diffs = np.abs(np.diff(M, axis=0)).max(axis=(1, 2))
    assert np.all(diffs < 0.5)


def test_generating_property_full_isotopy(settings):
    """Reduction of the composed F_phi coincides with tau(graph Phi)."""
    spec = _perturbed_spec()
    gf = build_phi_genfun(spec, settings)
    _tau_graph_check(gf, spec, sphere_points(32, 4), settings, 1e-7)


def test_chain_seed_lies_on_fiber_critical_set(settings):
    spec = _perturbed_spec()
    gf = build_phi_genfun(spec, settings)
    z = sphere_points(8, 4)
    Z, _ = integrate_flow(spec, z, 0.0, 1.0, settings, with_jacobian=False)
    fib, z_out, midpoints = gf.chain_seed(z)
    x = np.concatenate([0.5 * (z + Z), fib], axis=1)
    _, grad, _, ok = solved_chain(gf, x)
    assert ok.all()
    # fiber block of the gradient vanishes on the chain seed
    assert np.max(np.abs(grad[:, gf.base_dim:])) < 1e-7
    # the seed's midpoints solve their leaves: one evaluation from them passes
    # the leaf test
    bases = chain_leaf_bases(gf, x)
    assert midpoints.shape == bases.shape == (8, len(gf.links), 4)
    state = gfm.LeafState(bases, midpoints, cold_leaf_state(bases).jac)
    *_, ok, state = gfm.evaluate_stacked(gf, x, state)
    assert ok.all() and state.solves(bases).all()


# --- monotonicity -----------------------------------------------------------


def test_monotonicity_reeb_positive(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    vals = monotonicity_probe_values(spec, fast_settings, sample_count=16, t_count=8)
    assert np.min(vals) > 0


def test_monotonicity_mirror_negative(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=1, quadratic=(-1.0,))
    vals = monotonicity_probe_values(
        spec, fast_settings, sample_count=16, t_count=8
    )
    assert np.max(vals) < 0


def test_monotonicity_positive_perturbed(fast_settings):
    spec = ham.ContactHamiltonianSpec(
        n=2, quadratic=(1.0, 1.0), terms=(ham.PerturbationTerm(0.3, (1, 0), (0, 1)),)
    )
    vals = monotonicity_probe_values(spec, fast_settings, sample_count=16, t_count=8)
    assert np.min(vals) > 0


def test_monotonicity_rejects_sign_indefinite(fast_settings):
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(0.5, -0.5))
    with pytest.raises(ValueError):
        monotonicity_probe_values(spec, fast_settings, sample_count=8, t_count=4)


# --- chain coordinates against the nested reference -------------------------


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_chain_matches_nested(gf, x):
    """At sigma = S x the chain has the nested DAG's value; its gradient and
    Hessian map by S^T and S^T H S."""
    S = chain_change(len(gf.links), gf.base_dim)
    val, grad, hess, ok = solved_chain(gf, x @ S.T)
    ref_val, ref_grad, ref_hess, ref_ok = nested_chain(gf).evaluate(x)
    assert ok.all() and ref_ok.all()
    assert np.max(np.abs(val - ref_val)) <= 1e-14 * np.max(np.abs(ref_val))
    assert np.max(np.abs(grad @ S - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))
    H = S.T @ gfm.chain_hessian(hess) @ S
    assert np.max(np.abs(H - ref_hess)) <= 1e-13 * np.max(np.abs(ref_hess))


@pytest.mark.parametrize("case", ["corpus", "rotations"])
def test_chain_matches_nested_reference(case, sphere_corpus_spec, settings, rng):
    """F_phi of the sphere spec (16 leaves) and chains of rotation pieces at
    n = 1 against the nested DAG of their links."""
    if case == "rotations":
        for t in (0.2, 0.9):
            gf = build_rotation_family(t, 1, 4).genfun
            _assert_chain_matches_nested(gf, rng.normal(size=(4, gf.total_dim)))
        return
    f_phi = build_phi_genfun(sphere_corpus_spec, settings)
    assert len(f_phi.links) == 16
    x = rng.normal(size=(6, f_phi.total_dim))
    _assert_chain_matches_nested(f_phi, x / np.linalg.norm(x, axis=1, keepdims=True))


def test_rotation_family_inertia_matches_nested_reference():
    """S is unimodular, so by Sylvester's law index_data from the chain
    matrices has the inertia of the nested ones."""
    for n in (1, 2, 3):
        for k in (3, 4, 5, 8):
            S = chain_change(k, 2 * n)
            t = np.array([0.0, 0.35, 1.0])
            M = np.array([gfm.rotation_family_matrices(s, n, k) for s in t])
            ref_M = nested_rotation_matrices(t, n, k)
            assert np.max(np.abs(S.T @ M @ S - ref_M)) <= 1e-13
            data = tp.index_data(n, k)
            for label, i in (("a0", 0), ("a1", 2)):
                ref = inertia(ref_M[i])
                assert (data[f"index_{label}"], data[f"nullity_{label}"],
                        data[f"coindex_{label}"]) == (ref.index, ref.nullity, ref.coindex)


def test_family_hessian_rows_are_batch_independent(sphere_corpus_spec, settings, rng):
    f_phi = build_phi_genfun(sphere_corpus_spec, settings)
    family = ShiftedGenFunFamily(f_phi, 2, 4)
    x = rng.normal(size=(128, family.dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    t = rng.uniform(-0.5, 1.5, size=128)
    warm = cold_leaf_state(family.leaf_bases(x))
    full = family.evaluate(x, t, warm)
    for rows in ([0], [77], [127], [3, 4], [10, 50], list(range(20, 27)), [1, 9, 30, 31, 60, 99, 126]):
        part = family.evaluate(x[rows], t[rows], warm.take(rows))
        for a, b in zip(part[:5], full[:5]):
            assert _bitwise_equal(a, b[rows]), rows
        for name in ("b", "z", "jac"):
            assert _bitwise_equal(getattr(part[5], name), getattr(full[5], name)[rows]), rows
