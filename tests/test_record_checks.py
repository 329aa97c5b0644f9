"""A run's records against two checks that need no tolerance of the routes:
the signed count of the direct route's zeros, and, for a quadratic-form
Hamiltonian, the exact translated points of its linear pencil."""

import csv
from pathlib import Path

import numpy as np
import pytest

from contactmorse import cli
from contactmorse import translated as tp
from contactmorse.config import load_config
from contactmorse.flow import IntegratorSettings
from contactmorse.linsymp import mul_i

from oracles import linear_translated_points

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _run(config, tmp_path):
    out = tmp_path / config
    cli.main(["run", str(CONFIGS / f"{config}.json"), "--out", str(out)])
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = (out / "report.txt").read_text().splitlines()
    return rows, report


def test_rp3_records_are_the_pencil_points(tmp_path):
    """The rp3 spec is a quadratic form: every record of its run is a root
    of the linear pencil, within 1e-12 in q (up to sign) and in t, and each
    root is the antipodal class of exactly two records."""
    cfg = load_config(CONFIGS / "rp3-sym-eps0.05.json")
    points = linear_translated_points(
        cfg.hamiltonian, IntegratorSettings(steps_per_unit=cfg.steps_per_unit))
    rows, _ = _run("rp3-sym-eps0.05", tmp_path)
    assert len(points) == 2 * cfg.n and all(m == 1 for _, _, m in points)
    pq = np.array([p[0] for p in points])
    pt = np.array([p[1] for p in points])
    q = np.array([[float(r[c]) for c in ("q_x1", "q_x2", "q_y1", "q_y2")] for r in rows])
    t = np.array([float(r["t"]) for r in rows])
    dq = np.minimum(np.abs(q[:, None] - pq[None]).max(axis=2),
                    np.abs(q[:, None] + pq[None]).max(axis=2))
    dt = np.abs((t[:, None] - pt[None] + 0.5) % 1.0 - 0.5)
    close = (dq <= 1e-12) & (dt <= 1e-12)
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
    _, report = _run("reeb-continuum", tmp_path)
    assert "continuum_suspected = true" in report
