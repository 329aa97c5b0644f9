import numpy as np
import pytest

from contactmorse.linsymp import inertia, mul_i, to_complex, to_real

from oracles import (
    build_rotation_family,
    contact_form_eval,
    inertia_via_jacobi,
    random_orthogonal,
    tau_covector,
)


def test_contact_form_spec_values():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert contact_form_eval(e1, mul_i(e1)) == pytest.approx(1.0)
    assert contact_form_eval(e1, e1) == 0.0
    q = np.array([0.6, 0.8])  # n = 1, (x, y)
    v = np.array([1.0, 0.0])
    assert contact_form_eval(q, v) == pytest.approx(-0.8)


def test_contact_form_on_reeb_direction(rng):
    for _ in range(20):
        q = rng.normal(size=6)
        val = contact_form_eval(q, mul_i(q))
        assert val == pytest.approx(np.dot(q, q), rel=1e-12)


def test_complex_structure(rng):
    z = rng.normal(size=(30, 8))
    assert np.allclose(mul_i(mul_i(z)), -z)
    assert np.allclose(np.sum(mul_i(z) * z, axis=1), 0.0, atol=1e-12)
    zc = to_complex(z)
    assert np.allclose(to_real(1j * zc), mul_i(z))


def test_contact_form_dimension_mismatch():
    with pytest.raises(ValueError):
        contact_form_eval(np.zeros(4), np.zeros(6))


def test_tau_diagonal_is_zero_section(rng):
    z = rng.normal(size=4)
    assert np.allclose(tau_covector(z, z), 0.0)
    zs = rng.normal(size=(5, 6))
    assert np.allclose(tau_covector(zs, zs), 0.0)


def test_tau_spec_example():
    # n = 1: z = 1, Z = i; (x, y, X, Y) = (1, 0, 0, 1) -> covector (Y-y, x-X)
    assert np.allclose(tau_covector(np.array([1.0, 0.0]), np.array([0.0, 1.0])), [1.0, 1.0])


def test_tau_covector_is_minus_i_difference(rng):
    for _ in range(10):
        z = rng.normal(size=6)
        Z = rng.normal(size=6)
        cov = tau_covector(z, Z)
        assert np.allclose(cov, -mul_i(Z - z), atol=1e-14)
        # the same map in complex notation: -i(Z - z)
        assert np.allclose(to_complex(cov), -1j * (to_complex(Z) - to_complex(z)), atol=1e-14)


def test_inertia_trivial_cases():
    ine = inertia(-np.eye(4), tol=1e-9)
    assert (ine.index, ine.nullity, ine.coindex) == (4, 0, 0)
    ine = inertia(np.diag([1.0, -1.0, 0.0]), tol=1e-9)
    assert (ine.index, ine.nullity, ine.coindex) == (1, 1, 1)


def test_inertia_rotation_family_tol_stable():
    A = build_rotation_family(0.25, 1, 3).matrix
    base = inertia(A, tol=1e-8)
    for tol in (1e-10, 1e-9, 1e-7, 1e-6):
        ine = inertia(A, tol=tol)
        assert (ine.index, ine.nullity, ine.coindex) == (
            base.index, base.nullity, base.coindex,
        )
    jac = inertia_via_jacobi(A, 1e-8)
    assert jac == (base.index, base.nullity, base.coindex)


def test_inertia_matches_jacobi_oracle(rng):
    for m in (3, 5, 8):
        M = rng.normal(size=(m, m))
        M = M + M.T
        ine = inertia(M, tol=1e-10)
        assert inertia_via_jacobi(M, 1e-10) == (ine.index, ine.nullity, ine.coindex)


def test_inertia_orthogonal_conjugation_invariant(rng):
    M = rng.normal(size=(7, 7))
    M = M + M.T
    base = inertia(M, tol=1e-9)
    for _ in range(5):
        O = random_orthogonal(7, rng)
        ine = inertia(O @ M @ O.T, tol=1e-9)
        assert (ine.index, ine.nullity, ine.coindex) == (
            base.index, base.nullity, base.coindex,
        )


def test_inertia_rejects_nonfinite():
    M = np.eye(3)
    M[0, 0] = np.nan
    with pytest.raises(ValueError):
        inertia(M, tol=1e-9)


def _fr_index(Q, tol):
    """index + nullity: the cohomological index of the form's sublevel set."""
    ine = inertia(Q, tol=tol)
    return ine.index + ine.nullity


def test_fr_index_examples():
    assert _fr_index(-np.eye(4), tol=1e-9) == 4
    assert _fr_index(np.zeros((5, 5)), tol=1e-9) == 5
    assert _fr_index(np.eye(2), tol=1e-9) == 0


def test_fr_index_additive_over_direct_sums(rng):
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(3, 3))
        QA, QB = A + A.T, B + B.T
        total = inertia(np.block([[QA, np.zeros((4, 3))], [np.zeros((3, 4)), QB]]), tol=1e-10)
        ia, ib = inertia(QA, tol=1e-10), inertia(QB, tol=1e-10)
        assert total.index == ia.index + ib.index
        assert total.nullity == ia.nullity + ib.nullity
