import numpy as np
import pytest

from contactmorse import flow
from contactmorse import hamiltonian as ham
from contactmorse.linsymp import complex_structure_matrix, to_complex

from oracles import compiled_field, fd_gradient, naive_lift_value


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


def _value(spec, x):
    return ham.eval_lift(spec, to_complex(x))


def _gradient_hessian(spec, x):
    """grad H = -J field / FIELD_SCALE and its Hessian -J jac / FIELD_SCALE,
    read off the compiled field and Jacobian at real points x (B, 2n)."""
    J = complex_structure_matrix(spec.n)
    field, jac = compiled_field(spec, x)
    return -field @ J.T / flow.FIELD_SCALE, -J @ jac / flow.FIELD_SCALE


def test_lift_spec_examples():
    one = ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,))
    assert _value(one, np.array([2.0, 0.0])) == pytest.approx(4.0)

    z1sq = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 0.0))
    q = np.array([0.6, 0.8, 0.0, 0.0])  # |z1|^2 = 0.36 on the unit sphere
    assert _value(z1sq, q) == pytest.approx(0.36)


def test_lift_matches_naive_oracle(rng):
    spec = _perturbed_spec()
    for _ in range(25):
        x = rng.normal(size=4)
        zc = to_complex(x)
        assert ham.eval_lift(spec, zc) == pytest.approx(
            naive_lift_value(spec, zc), rel=1e-12, abs=1e-14
        )


def test_lift_homogeneous_degree_two(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(20, 4))
    base = _value(spec, x)
    for lam in (0.5, 2.0, 3.7):
        scaled = _value(spec, lam * x)
        assert np.allclose(scaled, lam**2 * base, rtol=1e-12)


def test_gradient_matches_finite_differences(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(5, 4))
    grad, _ = _gradient_hessian(spec, x)
    for row, g in zip(x, grad):
        fd = fd_gradient(lambda v: float(_value(spec, v)), row)
        assert np.allclose(g, fd, atol=2e-9)


def test_hessian_matches_finite_differences(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(3, 4))
    _, H = _gradient_hessian(spec, x)
    eps = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = eps
        gp, _ = _gradient_hessian(spec, x + e)
        gm, _ = _gradient_hessian(spec, x - e)
        assert np.allclose(H[:, :, k], (gp - gm) / (2 * eps), atol=2e-9)


def test_hessian_blocks_consistent(rng):
    spec = _perturbed_spec()
    x = rng.normal(size=(6, 4))
    _, H = _gradient_hessian(spec, x)
    assert np.allclose(H, np.swapaxes(H, -1, -2), atol=1e-13)


def test_lift_rejects_origin():
    spec = _perturbed_spec()
    with pytest.raises(ValueError):
        ham.eval_lift(spec, np.zeros(2, dtype=complex))


def test_spec_validation():
    with pytest.raises(ValueError):
        ham.ContactHamiltonianSpec(n=0)
    with pytest.raises(ValueError):
        ham.ContactHamiltonianSpec(n=2, quadratic=(1.0,))
    with pytest.raises(ValueError):
        ham.PerturbationTerm(1.0, (1,), (0, 0))
    with pytest.raises(ValueError):
        ham.PerturbationTerm(1.0, (-1, 0), (0, 0))
    with pytest.raises(TypeError):  # the Hamiltonian is autonomous
        ham.ContactHamiltonianSpec(n=1, quadratic=(1.0,), time_profile="bump")
