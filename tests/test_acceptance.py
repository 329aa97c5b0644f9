"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is pinned here, not deferred to configuration.
"""

import time

import numpy as np
import pytest

from contactmorse import hamiltonian as ham
from contactmorse import projective as prj
from contactmorse import translated as tp
from contactmorse.flow import IntegratorSettings, integrate_flow
from contactmorse.genfun import LeafGF, gf_compose
from contactmorse.linsymp import mul_i, to_complex, to_real
from contactmorse.sampling import sphere_points

from oracles import (
    build_rotation_family,
    monotonicity_probe_values,
    rotation_leaf,
    solved_chain,
    tau_covector,
)

SETTINGS = IntegratorSettings(steps_per_unit=16)

SPHERE_CORPUS = ham.ContactHamiltonianSpec(
    n=2,
    quadratic=(0.3, 0.7),
    terms=(
        ham.PerturbationTerm(0.05, (2, 0), (1, 0)),
        ham.PerturbationTerm(0.05, (0, 2), (0, 1)),
    ),
)

RP3_CORPUS = ham.ContactHamiltonianSpec(
    n=2,
    quadratic=(0.3, 0.7),
    terms=(
        ham.PerturbationTerm(0.05, (2, 0), (0, 0)),
        ham.PerturbationTerm(0.05, (0, 2), (0, 0)),
    ),
)


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{tag} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_1_index_jump():
    ok = True
    detail = []
    for n in (1, 2, 3):
        for k in (3, 4, 5, 8):
            t0 = time.perf_counter()
            jump = tp.index_data(n, k)["jump"]
            dt = time.perf_counter() - t0
            if jump != 2 * n or dt >= 1.0:
                ok = False
                detail.append(f"n={n},k={k}: jump={jump}, {dt:.2f}s")
    _verdict(1, "index jump i(A_1) - i(A_0) = 2n over n in {1,2,3}, k in {3,4,5,8}",
             ok, "; ".join(detail))


def test_criterion_2_reeb_calibration():
    spec = ham.ContactHamiltonianSpec(n=2, quadratic=(1.0, 1.0))
    z0 = sphere_points(8, 4)
    t0 = time.perf_counter()
    z1, _ = integrate_flow(spec, z0, 0.0, 0.25, SETTINGS, with_jacobian=False)
    dt = time.perf_counter() - t0
    err = float(np.max(np.linalg.norm(z1 - mul_i(z0), axis=1)))
    _verdict(2, "h == 1 over t = 0.25 gives i z (rel err <= 1e-8, < 1 s)",
             err <= 1e-8 and dt < 1.0, f"err={err:.2e}, {dt:.2f}s")


def _composition_check(first, second, oracle_map, points, tol=1e-7):
    """Reduction of first # second must hit tau(graph of the composite)."""
    comp = gf_compose(first, second)
    Z = oracle_map(points)
    base = 0.5 * (points + Z)
    fib, _, _ = comp.chain_seed(points)
    _, grad, _, ok = solved_chain(comp, np.concatenate([base, fib], axis=1))
    m = comp.base_dim
    # the chain seed is fiber-critical: fiber gradient within 1e-10 |base|
    ok &= np.linalg.norm(grad[:, m:], axis=1) <= 1e-10 * np.linalg.norm(base, axis=1)
    if not ok.all():
        return np.inf
    return float(np.max(np.abs(grad[:, :m] - tau_covector(points, Z))))


def test_criterion_3_composition_formula():
    rng = np.random.default_rng(7)
    pts = sphere_points(32, 4)
    pert_leaf = LeafGF(SPHERE_CORPUS, 0.1, SETTINGS)
    second_leaf = LeafGF(SPHERE_CORPUS, 0.1, SETTINGS)

    def rot_map(tval):
        return lambda z: to_real(np.exp(-2j * np.pi * tval) * to_complex(z))

    def flow_map(a, b):
        def apply(z):
            out, _ = integrate_flow(SPHERE_CORPUS, z, a, b, SETTINGS, with_jacobian=False)
            return out
        return apply

    t0 = time.perf_counter()
    errs = {
        "rot.rot": _composition_check(
            rotation_leaf(0.15, 2), rotation_leaf(0.1, 2), rot_map(0.25), pts
        ),
        "rot.pert": _composition_check(
            rotation_leaf(0.12, 2), pert_leaf,
            lambda z: flow_map(0.0, 0.1)(rot_map(0.12)(z)), pts,
        ),
        "pert.pert": _composition_check(
            pert_leaf, second_leaf,
            lambda z: flow_map(0.1, 0.2)(flow_map(0.0, 0.1)(z)), pts,
        ),
    }
    dt = time.perf_counter() - t0
    ok = all(e <= 1e-7 for e in errs.values()) and dt < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items()) + f", {dt:.1f}s"
    _verdict(3, "F#G reduction matches tau(graph of composite) on 32 points (1e-7)",
             ok, detail)


def test_criterion_4_homogeneity_and_critical_value():
    rng = np.random.default_rng(11)
    worst_hom = 0.0
    # a representative family of constructed generating functions
    f_phi = tp.build_phi_genfun(SPHERE_CORPUS, SETTINGS)
    family = tp.ShiftedGenFunFamily(f_phi, 2, 4)
    gfs = [
        rotation_leaf(0.2, 2),
        build_rotation_family(0.7, 2, 4).genfun,
        gf_compose(rotation_leaf(0.1, 2), LeafGF(SPHERE_CORPUS, 0.1, SETTINGS)),
        f_phi,
        gf_compose(f_phi, build_rotation_family(0.3, 2, 4).genfun),
    ]
    for gf in gfs:
        x = sphere_points(8, gf.total_dim, seed=0.45)
        v1, _, _, ok1 = solved_chain(gf, x)
        for lam in (0.5, 2.0):
            v2, _, _, ok2 = solved_chain(gf, lam * x)
            assert ok1.all() and ok2.all()
            worst_hom = max(
                worst_hom, float(np.max(np.abs(v2 - lam**2 * v1) / np.abs(v1)))
            )
    # critical values along detected critical rays (|x| = 1)
    res = tp.find_critical_rays(
        family, SPHERE_CORPUS, SETTINGS, sphere_count=48, t_count=16, keep_per_seed=3
    )
    assert res.records, "no critical rays detected"
    worst_cv = max(abs(r.gf_value) for r in res.records)
    ok = worst_hom <= 1e-9 and worst_cv <= 1e-8
    _verdict(4, "F(lambda x) = lambda^2 F(x) (1e-9) and critical values 0 (1e-8 |x|^2)",
             ok, f"hom={worst_hom:.2e}, crit={worst_cv:.2e}")


_EXTRA_TERMS = [((1, 1), (0, 0)), ((2, 0), (0, 1)), ((1, 0), (0, 2)), ((2, 1), (0, 0))]


def _random_generic_spec(seed: int) -> ham.ContactHamiltonianSpec:
    """Generic perturbed spec: both coordinate circles split at first order."""
    rng = np.random.default_rng(seed)
    c = np.sort(rng.uniform(0.15, 0.85, size=2))
    while c[1] - c[0] < 0.1:
        c = np.sort(rng.uniform(0.15, 0.85, size=2))
    extra = _EXTRA_TERMS[int(rng.integers(len(_EXTRA_TERMS)))]
    terms = (
        ham.PerturbationTerm(float(rng.uniform(0.02, 0.06)), (2, 0), (1, 0)),
        ham.PerturbationTerm(float(rng.uniform(0.02, 0.06)), (0, 2), (0, 1)),
        ham.PerturbationTerm(float(rng.uniform(0.01, 0.03)), *extra),
    )
    return ham.ContactHamiltonianSpec(n=2, quadratic=tuple(c), terms=terms)


def test_criterion_5_route_equivalence():
    ok = True
    details = []
    assert tp._MATCH_ANGULAR == 1e-6 and tp._MATCH_T == 1e-6
    params = tp.SweepParams(routes="both", sphere_count=64, t_count=24, keep_per_seed=3)
    for seed in range(1001, 1006):
        spec = _random_generic_spec(seed)
        t0 = time.perf_counter()
        rep = tp.sweep_and_count(spec, params, SETTINGS)
        dt = time.perf_counter() - t0
        good = (
            rep.disagreement is None
            and not rep.continuum_suspected
            and len(rep.records) >= 1
            and all(r.route == "both" for r in rep.records)
            and dt < 300.0
        )
        if rep.disagreement is None:
            details.append(f"seed {seed}: {len(rep.records)} matched, {dt:.0f}s")
        else:
            details.append(f"seed {seed}: disagreement {rep.disagreement}")
        ok = ok and good
    _verdict(5, "genfun and direct record sets in bijection (1e-6) on 5 random specs",
             ok, "; ".join(details))


def test_criterion_6_sphere_lower_bound():
    res = tp.direct_translated_points(
        SPHERE_CORPUS, SETTINGS, sphere_count=96, t_count=32
    )
    nondeg = [r for r in res.records if r.nondegenerate is True]
    ok = (
        not res.continuum_suspected
        and len(nondeg) == len(res.records)
        and len(res.records) >= 2
    )
    # 4 is the oracle-derived generic count (two split circles); >= 2 is the bound
    ok = ok and len(res.records) == 4
    _verdict(6, "sphere corpus: >= 2 non-degenerate translated points (found 4)",
             ok, f"records={len(res.records)}")


def test_criterion_7_projective_lower_bound():
    params = tp.SweepParams(
        mode="projective", routes="both", sphere_count=64, t_count=24, keep_per_seed=3
    )
    rep = tp.sweep_and_count(RP3_CORPUS, params, SETTINGS)
    ok = (
        not rep.continuum_suspected
        and rep.projective_count is not None
        and rep.projective_count >= 4
        and rep.bound_outcome == "met"
    )
    _verdict(7, "projective corpus: >= 2n = 4 antipodal classes",
             ok, f"classes={rep.projective_count}, sphere records={rep.sphere_count}")


def test_criterion_8_monotonicity():
    pos = ham.ContactHamiltonianSpec(
        n=2, quadratic=(1.0, 1.0), terms=(ham.PerturbationTerm(0.3, (1, 0), (0, 1)),)
    )
    vals_pos = monotonicity_probe_values(pos, SETTINGS, sample_count=64, t_count=16)
    neg = ham.ContactHamiltonianSpec(n=2, quadratic=(-1.0, -1.0))
    vals_neg = monotonicity_probe_values(neg, SETTINGS, sample_count=64, t_count=16)
    ok = bool(np.min(vals_pos) > 0.0 and np.max(vals_neg) < 0.0)
    _verdict(8, "dF_t/dt > 0 for the positive family; < 0 for the a_t family",
             ok, f"min_pos={np.min(vals_pos):.2e}, max_neg={np.max(vals_neg):.2e}")


def _nondegenerate(spec, q, t, tol):
    """The non-degeneracy verdict of the record detection builds at (q, t)."""
    return tp._build_records(spec, SETTINGS, np.asarray(q, dtype=float)[None],
                             np.array([t]), "direct", tol)[0].nondegenerate


def test_criterion_9_nondegeneracy_classifier():
    diag = ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    res = tp.direct_translated_points(
        SPHERE_CORPUS, SETTINGS, sphere_count=64, t_count=24
    )
    ok = bool(res.records)
    for tol in (1e-8, 1e-7, 1e-6):
        ok = ok and _nondegenerate(diag, e1, 0.3, tol) is False
        ok = ok and _nondegenerate(diag, e2, 0.7, tol) is False
        for rec in res.records:
            ok = ok and _nondegenerate(SPHERE_CORPUS, rec.q, rec.t, tol) is True
    _verdict(9, "classifier: diagonal unitary degenerate, perturbed non-degenerate, "
                "stable over tol in [1e-8, 1e-6]", ok)


def test_criterion_10_z2_layer():
    specs = {
        "rp3-sym-eps0.05": RP3_CORPUS,
        "diag-0.3-0.7": ham.ContactHamiltonianSpec(n=2, quadratic=(0.3, 0.7)),
        "even-mixing": ham.ContactHamiltonianSpec(
            n=2, quadratic=(0.4, 0.6),
            terms=(ham.PerturbationTerm(0.05, (1, 0), (0, 1)),),
        ),
    }
    worst_eq = 0.0
    worst_inv = 0.0
    z = sphere_points(128, 4, seed=0.25)
    for spec in specs.values():
        prj.ProjectiveSpec(spec)
        # the lifted flow is odd: |Phi(-z) + Phi(z)|
        plus, _ = integrate_flow(spec, z, 0.0, 1.0, SETTINGS, with_jacobian=False)
        minus, _ = integrate_flow(spec, -z, 0.0, 1.0, SETTINGS, with_jacobian=False)
        worst_eq = max(worst_eq, float(np.max(np.linalg.norm(plus + minus, axis=1))))
        # the generating function is even: |F(-x) - F(x)| / |x|^2
        gf = tp.build_phi_genfun(spec, SETTINGS)
        x = sphere_points(64, gf.total_dim, seed=0.75)
        vp, _, _, okp = solved_chain(gf, x)
        vm, _, _, okm = solved_chain(gf, -x)
        assert np.all(okp & okm)
        worst_inv = max(worst_inv, float(np.max(np.abs(vp - vm) / np.sum(x * x, axis=1))))
    res = tp.direct_translated_points(RP3_CORPUS, SETTINGS, sphere_count=96, t_count=32)
    classes = prj.antipodal_classes(res.records)
    closure_exact = 2 * len(classes) == len(res.records)
    ok = worst_eq <= 1e-8 and worst_inv <= 1e-8 and closure_exact
    _verdict(10, "Z2 layer: equivariance/invariance defects <= 1e-8, antipodal "
                 "closure exact",
             ok, f"eq={worst_eq:.2e}, inv={worst_inv:.2e}, "
                 f"classes={len(classes)}x2={len(res.records)}")
