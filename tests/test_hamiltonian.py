import numpy as np
import pytest

from contactmorse import hamiltonian as ham
from contactmorse.linsymp import realify, to_complex, to_real

from oracles import fd_gradient, naive_lift_value


def _perturbed_spec():
    return ham.ContactHamiltonianSpec(
        n=2,
        quadratic=(0.3, 0.7),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0), (1, 0)),
            ham.PerturbationTerm(0.03, (1, 0), (0, 1)),
            ham.PerturbationTerm(0.02, (0, 2), (2, 0)),
        ),
    )


def test_lift_spec_examples():
    one = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    assert ham.lift_hamiltonian(one, np.array([2.0, 0.0])) == pytest.approx(4.0)

    z1sq = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 0.0))
    q = np.array([0.6, 0.8, 0.0, 0.0])  # |z1|^2 = 0.36 on the unit sphere
    assert ham.lift_hamiltonian(z1sq, q) == pytest.approx(0.36)


def test_lift_matches_naive_oracle(rng):
    spec = _perturbed_spec()
    for _ in range(25):
        x = rng.normal(size=4)
        zc = to_complex(x)
        assert ham.lift_value(spec, zc) == pytest.approx(
            naive_lift_value(spec, zc), rel=1e-12, abs=1e-14
        )


def test_lift_homogeneous_degree_two(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(20, 4))
    base = ham.lift_value(spec, to_complex(x))
    for lam in (0.5, 2.0, 3.7):
        scaled = ham.lift_value(spec, to_complex(lam * x))
        assert np.allclose(scaled, lam**2 * base, rtol=1e-12)


def test_gradient_matches_finite_differences(rng):
    spec = _perturbed_spec()
    for _ in range(5):
        x = rng.normal(size=4)
        grad = to_real(ham.lift_grad(spec, to_complex(x)))
        fd = fd_gradient(lambda v: float(ham.lift_value(spec, to_complex(v))), x)
        assert np.allclose(grad, fd, atol=2e-9)


def test_hessian_matches_finite_differences(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(3, 4))
    H = ham.lift_hess_real(spec, to_complex(x))
    eps = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = eps
        gp = to_real(ham.lift_grad(spec, to_complex(x + e)))
        gm = to_real(ham.lift_grad(spec, to_complex(x - e)))
        assert np.allclose(H[:, :, k], (gp - gm) / (2 * eps), atol=2e-9)


def test_hessian_blocks_consistent(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(6, 4))
    P, Q = ham.lift_hess(spec, to_complex(x))
    # real Hessian symmetry <=> P Hermitian and Q symmetric
    assert np.allclose(P, np.swapaxes(P, -1, -2).conj(), atol=1e-13)
    assert np.allclose(Q, np.swapaxes(Q, -1, -2), atol=1e-13)
    H = realify(P, Q)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-13)


def test_lift_rejects_origin():
    spec = _perturbed_spec()
    with pytest.raises(ValueError):
        ham.lift_value(spec, np.zeros(2, dtype=complex))


def test_sphere_value_requires_unit_vectors():
    spec = _perturbed_spec()
    with pytest.raises(ValueError):
        ham.sphere_value(spec, np.array([2.0 + 0j, 0.0 + 0j]))


def test_spec_validation():
    with pytest.raises(ValueError):
        ham.ContactHamiltonianSpec(n=0)
    with pytest.raises(ValueError):
        ham.ContactHamiltonianSpec(n=2, quadratic=(1.0,))
    with pytest.raises(ValueError):
        ham.PerturbationTerm(1.0, (1,), (0, 0))
    with pytest.raises(ValueError):
        ham.PerturbationTerm(1.0, (-1, 0), (0, 0))
    with pytest.raises(ValueError):
        ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,), time_profile="linear")


def test_time_profile_constant_vs_bump():
    spec_c = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    assert ham.time_profile_value(spec_c, 0.3) == 1.0
    spec_b = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,), time_profile="bump")
    assert ham.time_profile_value(spec_b, 0.0) == 0.0
    assert ham.time_profile_value(spec_b, 1.0) == 0.0
    assert ham.time_profile_value(spec_b, 0.5) > 0.0
    # normalized so the bump integrates to 1 over [0, 1]
    t = np.linspace(0.0, 1.0, 20001)
    vals = ham.time_profile_value(spec_b, t)
    assert np.trapezoid(vals, t) == pytest.approx(1.0, abs=1e-9)


def test_bump_profile_time_one_map_matches_constant():
    from contactmorse.flow import IntegratorSettings, integrate_flow

    # The bump's high time derivatives need a finer step than the smooth
    # corpus specs: over one unit the error is 1.4e-8 at 16 steps, 1.1e-11 at 32.
    fine = IntegratorSettings(steps_per_unit=32)
    spec_c = ham.ContactHamiltonianSpec(n=1, quadratic=(0.4,))
    spec_b = ham.ContactHamiltonianSpec(n=1, quadratic=(0.4,), time_profile="bump")
    z0 = np.array([0.8, -0.6])
    zc, _ = integrate_flow(spec_c, z0, 0.0, 1.0, fine, with_jacobian=False)
    zb, _ = integrate_flow(spec_b, z0, 0.0, 1.0, fine, with_jacobian=False)
    assert np.allclose(zc, zb, atol=1e-8)
