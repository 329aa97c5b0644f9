"""A run's records against two checks that need no tolerance of the routes:
the signed count of the direct route's zeros, and, for a quadratic-form
Hamiltonian, the exact translated points of its linear pencil."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from contactmorse import cli
from contactmorse import hamiltonian as ham
from contactmorse import translated as tp
from contactmorse.config import load_config
from contactmorse.flow import IntegratorSettings
from contactmorse.linsymp import mul_i, to_complex

from oracles import linear_translated_points

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _direct_newton_matrix(spec, settings, q, t):
    """The bordered matrix M (R, 2n + 1, 2n + 1) of _direct_newton at records
    (q, t): d/d(q, t) of (e^{-2 pi i t} Phi(q) - q, (|q|^2 - 1)/2)."""
    _, psi, dpsi = tp._shifted_flow(spec, settings, q, t)
    n2 = 2 * spec.n
    M = np.zeros((q.shape[0], n2 + 1, n2 + 1))
    M[:, :n2, :n2] = dpsi - np.eye(n2)
    M[:, :n2, n2] = -2.0 * np.pi * mul_i(psi)
    M[:, n2, :n2] = q
    return M


@pytest.mark.parametrize("name, signs", [
    ("diag-0.3-0.7-eps0.05", [1, -1, 1, -1]),
    ("rp3-sym-eps0.05", [1, 1, -1, -1, 1, 1, -1, -1]),
])
def test_direct_records_have_zero_signed_count(name, signs):
    """G(q, t) = e^{-2 pi i t} Phi(q) - q maps the closed 2n-manifold
    S^{2n-1} x R/Z into R^{2n}, so its degree is 0: at non-degenerate zeros
    the signs of det M sum to 0.  -1 preserves the orientation of S^{2n-1}
    and of R^{2n}, so both members of an antipodal pair have one sign.  A
    run that misses one record has a nonzero sum."""
    cfg = load_config(CONFIGS / f"{name}.json")
    settings = IntegratorSettings(steps_per_unit=cfg.steps_per_unit)
    params = cfg.params
    res = tp.direct_translated_points(cfg.hamiltonian, settings, params.sphere_count,
                                      params.t_count, params.keep_per_seed)
    records = res.records
    assert not res.continuum_suspected and all(r.nondegenerate is True for r in records)
    q = np.array([r.q for r in records])
    t = np.array([r.t for r in records])
    M = _direct_newton_matrix(cfg.hamiltonian, settings, q, t)
    sign, _ = np.linalg.slogdet(M)
    assert sign.tolist() == signs and sign.sum() == 0
    assert np.max(np.linalg.cond(M)) < 1e3
    if params.mode == "projective":
        partner = tp.pair_records(records, records, tp._DEDUP_ANGULAR, tp._DEDUP_T,
                                  antipodal=True)
        assert sorted(partner.tolist()) == list(range(len(records)))
        assert np.array_equal(sign, sign[partner])
    for i in range(len(records)):
        assert np.delete(sign, i).sum() != 0


def _run(config, out, *args):
    """records.csv as (q (R, 2n), t (R,), rows) and report.txt's lines of
    a run of the config file config."""
    cli.main(["run", str(config), "--out", str(out), *args])
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    q = np.array([[float(v) for k, v in r.items() if k.startswith("q_")] for r in rows])
    t = np.array([float(r["t"]) for r in rows])
    return q, t, rows, (out / "report.txt").read_text().splitlines()


def _spec_and_settings(config):
    cfg = load_config(config)
    return cfg.hamiltonian, IntegratorSettings(steps_per_unit=cfg.steps_per_unit)


def _pencil_pairs(spec, settings, q, t):
    """Bool table (records, roots): record i of (q, t), found for the
    quadratic-form spec, lies within 1e-12 of root j of its pencil in q (up
    to sign) and in t.  Every root is simple, so it has a q."""
    points = linear_translated_points(spec, settings)
    assert len(points) == 2 * spec.n and all(m == 1 for _, _, m in points)
    pq = np.array([p[0] for p in points])
    pt = np.array([p[1] for p in points])
    dq = np.minimum(np.abs(q[:, None] - pq[None]).max(axis=2),
                    np.abs(q[:, None] + pq[None]).max(axis=2))
    dt = np.abs((t[:, None] - pt[None] + 0.5) % 1.0 - 0.5)
    return (dq <= 1e-12) & (dt <= 1e-12)


def test_rp3_records_are_the_pencil_points(tmp_path):
    """The rp3 spec is a quadratic form: every record of its run is a root
    of the linear pencil, within 1e-12 in q (up to sign) and in t, and each
    root is the antipodal class of exactly two records."""
    config = CONFIGS / "rp3-sym-eps0.05.json"
    q, t, _, _ = _run(config, tmp_path / "out")
    close = _pencil_pairs(*_spec_and_settings(config), q, t)
    assert np.all(close.sum(axis=1) == 1)
    assert np.all(close.sum(axis=0) == 2)


def test_coupled_linear_spec_records_are_the_pencil_points(tmp_path):
    """rp3 plus the coupling term 0.04 Re(z_1 conj(z_2)) is still a
    Z2-symmetric quadratic form, but no coordinate circle is invariant: all
    8 records leave both circles, where the pencil is the only exact oracle.
    Both routes agree on them, they form 4 antipodal classes, each is a
    pencil root within 1e-12 and each root is two records, and the signs of
    det M sum to 0."""
    raw = json.loads((CONFIGS / "rp3-sym-eps0.05.json").read_text())
    raw["hamiltonian"]["perturbations"].append(
        {"amplitude": 0.04, "z_powers": [1, 0], "zbar_powers": [0, 1]})
    config = tmp_path / "coupled.json"
    config.write_text(json.dumps(raw))
    q, t, rows, report = _run(config, tmp_path / "out")
    for line in ("exit_status = 0", "matched = 8", "projective_count = 4"):
        assert line in report, line
    assert len(rows) == 8 and all(r["route"] == "both" for r in rows)
    assert np.all(np.abs(to_complex(q)).min(axis=1) > 0.04)
    close = _pencil_pairs(*_spec_and_settings(config), q, t)
    assert np.all(close.sum(axis=1) == 1)
    assert np.all(close.sum(axis=0) == 2)
    cfg = load_config(config)
    M = _direct_newton_matrix(cfg.hamiltonian, IntegratorSettings(cfg.steps_per_unit), q, t)
    sign, _ = np.linalg.slogdet(M)
    assert sign.tolist() == [1, 1, -1, -1, 1, 1, -1, -1]
    assert np.max(np.linalg.cond(M)) < 1e3


def test_n3_linear_spec_records_are_the_pencil_points():
    """An RP^5 quadratic form, the diagonal (0.2, 0.45, 0.7) plus
    0.05 Re(z_j^2) for each j: the direct route's 12 records are
    non-degenerate, each lies within 1e-12 of one of the 6 simple pencil
    roots, each root is two records, and the signs of det M sum to 0."""
    spec = ham.ContactHamiltonianSpec(n=3, quadratic=(0.2, 0.45, 0.7), terms=tuple(
        ham.PerturbationTerm(0.05, tuple(2 * (i == j) for i in range(3)), (0, 0, 0))
        for j in range(3)))
    settings = IntegratorSettings()
    res = tp.direct_translated_points(spec, settings, sphere_count=96, t_count=32,
                                      keep_per_seed=4)
    records = res.records
    assert not res.continuum_suspected and len(records) == 12
    assert all(r.nondegenerate is True for r in records)
    q = np.array([r.q for r in records])
    t = np.array([r.t for r in records])
    close = _pencil_pairs(spec, settings, q, t)
    assert np.all(close.sum(axis=1) == 1)
    assert np.all(close.sum(axis=0) == 2)
    sign, _ = np.linalg.slogdet(_direct_newton_matrix(spec, settings, q, t))
    assert sign.sum() == 0


@pytest.mark.parametrize("seed", range(4))
def test_bench_rp3_records_are_the_pencil_points(seed, tmp_path, monkeypatch):
    """The bench's rp3-symmetric workload draws its quadratic-form spec
    from a seed: on seeds 0-3 the direct route's 8 records are the pencil
    points, one root per record and two records per root."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    config = tmp_path / "rp3.json"
    config.write_text(workloads.bench_config_text("rp3-symmetric", seed))
    q, t, rows, _ = _run(config, tmp_path / "out", "--routes", "direct")
    assert len(rows) == 8
    close = _pencil_pairs(*_spec_and_settings(config), q, t)
    assert np.all(close.sum(axis=1) == 1)
    assert np.all(close.sum(axis=0) == 2)


def test_reeb_pencil_root_is_the_continuum(tmp_path):
    """The Reeb config's flow turns S^3 by half a turn in time 1: the pencil
    has one root of multiplicity 2n at t = 0.5, a whole sphere of translated
    points, and the run flags the continuum."""
    cfg = load_config(CONFIGS / "reeb-continuum.json")
    points = linear_translated_points(
        cfg.hamiltonian, IntegratorSettings(steps_per_unit=cfg.steps_per_unit))
    assert len(points) == 1
    q, t, multiplicity = points[0]
    assert q is None and multiplicity == 2 * cfg.n and abs(t - 0.5) <= 1e-10
    _, _, _, report = _run(CONFIGS / "reeb-continuum.json", tmp_path / "out")
    assert "continuum_suspected = true" in report
