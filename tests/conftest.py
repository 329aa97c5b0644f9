from __future__ import annotations

import numpy as np
import pytest

from contactmorse import flow
from contactmorse import hamiltonian as ham


@pytest.fixture(scope="session")
def settings():
    return flow.IntegratorSettings(steps_per_unit=16)


@pytest.fixture(scope="session")
def fast_settings():
    return flow.IntegratorSettings(steps_per_unit=8)


@pytest.fixture(scope="session")
def diag_spec():
    """Diagonal unitary example: translated-point circles at t = 0.3, 0.7."""
    return ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7))


@pytest.fixture(scope="session")
def sphere_corpus_spec():
    """diag-0.3-0.7-eps0.05: odd cubic terms split each circle into points."""
    return ham.ContactHamiltonianSpec(
        n=2,
        quadratic=(0.3, 0.7),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0), (1, 0)),
            ham.PerturbationTerm(0.05, (0, 2), (0, 1)),
        ),
    )


@pytest.fixture(scope="session")
def rp3_corpus_spec():
    """rp3-sym-eps0.05: even quadratic terms, Z2-symmetric, non-unitary flow."""
    return ham.ContactHamiltonianSpec(
        n=2,
        quadratic=(0.3, 0.7),
        terms=(
            ham.PerturbationTerm(0.05, (2, 0), (0, 0)),
            ham.PerturbationTerm(0.05, (0, 2), (0, 0)),
        ),
    )


@pytest.fixture(scope="session")
def reeb_spec():
    return ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
