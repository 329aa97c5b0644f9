import numpy as np
import pytest

from contactmorse import hamiltonian as ham
from contactmorse import projective as prj
from contactmorse import translated as tp
from contactmorse.flow import integrate_flow
from contactmorse.genfun import gf_compose, LeafGF
from contactmorse.sampling import sphere_points

from oracles import build_rotation_family, solved_chain


def _spec(*terms):
    return ham.ContactHamiltonianSpec(
        n=2, quadratic=(0.3, 0.7), terms=tuple(ham.PerturbationTerm(*t) for t in terms)
    )


def test_projective_spec_accepts_even_rejects_odd(rp3_corpus_spec):
    prj.ProjectiveSpec(rp3_corpus_spec)
    with pytest.raises(ValueError, match=r"^perturbations\[0\] has odd degree 1: "
                                         r"the Hamiltonian is not Z2-symmetric$"):
        prj.ProjectiveSpec(_spec((0.1, (1, 0), (0, 0))))
    # per term, whatever its amplitude
    with pytest.raises(ValueError, match=r"perturbations\[0\] has odd degree 1"):
        prj.ProjectiveSpec(_spec((1e-13, (1, 0), (0, 0))))
    # Re(z_1^2 conj z_2) = Re(z_2 conj z_1^2): the pair cancels on the
    # sphere, but each term is odd
    with pytest.raises(ValueError, match=r"perturbations\[0\] has odd degree 3"):
        prj.ProjectiveSpec(_spec((0.05, (2, 0), (0, 1)), (-0.05, (0, 1), (2, 0))))
    with pytest.raises(ValueError, match=r"perturbations\[0\] has odd degree 3"):
        prj.ProjectiveSpec(_spec((0.05, (2, 0), (0, 1)), (-0.04, (0, 1), (2, 0))))
    # Re(z_1) (1 - |z|^2) vanishes on the sphere, and its first term is odd
    with pytest.raises(ValueError, match=r"perturbations\[0\] has odd degree 1"):
        prj.ProjectiveSpec(_spec((0.1, (1, 0), (0, 0)), (-0.1, (2, 0), (1, 0)),
                                 (-0.1, (1, 1), (0, 1))))
    # the first odd term is the one named
    with pytest.raises(ValueError, match=r"perturbations\[1\] has odd degree 3"):
        prj.ProjectiveSpec(_spec((0.05, (1, 0), (0, 1)), (0.05, (1, 1), (0, 1)),
                                 (0.05, (1, 0), (0, 0))))


def test_projective_sweep_rejects_an_asymmetric_spec(sphere_corpus_spec, settings):
    """The API sweep checks the symmetry itself, before any route runs, so
    the diag spec's odd cubic terms are named instead of the seed grid."""
    params = tp.SweepParams(mode="projective", routes="direct", sphere_count=96, t_count=32)
    with pytest.raises(ValueError, match=r"perturbations\[0\] has odd degree 3: "
                                         r"the Hamiltonian is not Z2-symmetric"):
        tp.sweep_and_count(sphere_corpus_spec, params, settings)


def _equivariance_defect(spec, settings):
    """max |Phi(-z) + Phi(z)| over sphere samples: the lifted flow is odd."""
    z = sphere_points(128, 2 * spec.n, seed=0.25)
    plus, _ = integrate_flow(spec, z, 0.0, 1.0, settings, with_jacobian=False)
    minus, _ = integrate_flow(spec, -z, 0.0, 1.0, settings, with_jacobian=False)
    return np.max(np.linalg.norm(plus + minus, axis=1))


def _invariance_defect(gf):
    """max |F(-x) - F(x)| / |x|^2 over total-space samples: F is even."""
    x = sphere_points(64, gf.total_dim, seed=0.75)
    vp, _, _, okp = solved_chain(gf, x)
    vm, _, _, okm = solved_chain(gf, -x)
    assert np.all(okp & okm)
    return np.max(np.abs(vp - vm) / np.sum(x * x, axis=1))


def test_equivariance_unperturbed_quadratic(settings, diag_spec):
    assert _equivariance_defect(diag_spec, settings) < 1e-10


def test_equivariance_even_monomial(settings):
    spec = _spec((0.05, (1, 0), (0, 1)))
    assert _equivariance_defect(spec, settings) < 1e-8


def test_equivariance_corpus(settings, rp3_corpus_spec):
    assert _equivariance_defect(rp3_corpus_spec, settings) < 1e-8


def test_invariance_quadratic_dag(rng):
    dag = gf_compose(
        build_rotation_family(0.4, 1, 3).genfun, build_rotation_family(0.2, 1, 3).genfun
    )
    assert _invariance_defect(dag) < 1e-12


def test_invariance_equivariant_leaf_family(settings, rp3_corpus_spec):
    gf = tp.build_phi_genfun(rp3_corpus_spec, settings)
    assert _invariance_defect(gf) < 1e-8


def test_conicality_negative_lambda(settings, rp3_corpus_spec):
    gf = tp.build_phi_genfun(rp3_corpus_spec, settings)
    x = sphere_points(8, gf.total_dim, seed=0.6)
    vp, _, _, okp = solved_chain(gf, x)
    lam = -1.7
    vm, _, _, okm = solved_chain(gf, lam * x)
    assert np.all(okp & okm)
    assert np.max(np.abs(vm - lam**2 * vp) / np.abs(vp)) < 1e-9


def test_antipodal_classes_trivial_cases():
    assert prj.antipodal_classes([]) == []
    q = (1.0, 0.0, 0.0, 0.0)
    mq = (-1.0, 0.0, 0.0, 0.0)
    recs = [
        tp.TranslatedPointRecord(q, 0.3, 0.0, 0.0, True, "direct"),
        tp.TranslatedPointRecord(mq, 0.3, 0.0, 0.0, True, "direct"),
    ]
    # a class is represented by its first member
    assert prj.antipodal_classes(recs) == recs[:1]
    assert prj.antipodal_classes(recs[::-1]) == recs[1:]


def test_antipodal_unpaired_raises():
    recs = [tp.TranslatedPointRecord((1.0, 0.0, 0.0, 0.0), 0.3, 0.0, 0.0, True, "d")]
    with pytest.raises(prj.AntipodalPairingError):
        prj.antipodal_classes(recs)


def test_antipodal_ambiguous_partner_raises():
    # -q lies within ang_tol of two records at equal t
    c, s = np.cos(1e-6), np.sin(1e-6)
    recs = [
        tp.TranslatedPointRecord((1.0, 0.0, 0.0, 0.0), 0.3, 0.0, 0.0, True, "d"),
        tp.TranslatedPointRecord((-1.0, 0.0, 0.0, 0.0), 0.3, 0.0, 0.0, True, "d"),
        tp.TranslatedPointRecord((-c, s, 0.0, 0.0), 0.3, 0.0, 0.0, True, "d"),
    ]
    with pytest.raises(prj.AntipodalPairingError, match="two antipodal"):
        prj.antipodal_classes(recs)


def test_corpus_records_antipodally_closed(settings, rp3_corpus_spec):
    res = tp.direct_translated_points(
        rp3_corpus_spec, settings, sphere_count=96, t_count=32
    )
    assert not res.continuum_suspected
    classes = prj.antipodal_classes(res.records)
    assert len(classes) * 2 == len(res.records)
    assert len(classes) >= 4  # 2n with n = 2
