"""Detection, matching, classification and Morse counting of translated points.

Two independent routes find the translated points of the time-1 map of a
contact isotopy of S^{2n-1}:

* the direct route solves e^{-2 pi i t} Phi(q) = q, |q| = 1 over (q, t) by
  multistart Newton on the lifted flow (the ground truth);
* the genfun route finds critical rays of the shifted generating family
  F_t = F_phi # A_t on the unit sphere of its total space, reduces each
  critical point to its base ray, and re-verifies it against the direct
  residual.

The two record sets must agree; a disagreement is the sweep's verdict
(SweepReport.disagreement), not something to average away.

When both routes run, they run at the same time: the direct route in a
worker made with os.fork (so the package needs a POSIX system), the genfun
route in the calling process.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import genfun as gfm
from .flow import IntegratorSettings, integrate_flow, subdivide_c1_small
from .genfun import (
    ChainGF,
    evaluate_stacked,
    rotation_coefficients,
    rotation_family_matrices,
)
from .hamiltonian import ContactHamiltonianSpec
from .linsymp import (
    complex_structure_matrix,
    inertia,
    mul_i,
    once_if_shared,
    rotation_matrix,
    solve_rows,
    to_complex,
    to_real,
)
from .sampling import sphere_points


class ConfigurationError(RuntimeError):
    """A structural contract failed (unexpected nullity, bad rotation family)."""


@dataclass(frozen=True)
class TranslatedPointRecord:
    """One detected translated point q with Reeb shift t (Hopf fraction)."""

    q: tuple[float, ...]
    t: float
    residual_fixed: float
    residual_g: float
    nondegenerate: bool | None  # None: tolerance-ambiguous spectrum
    route: str  # direct | genfun | both
    gf_value: float | None = None  # critical value residual, genfun route only


@dataclass
class DetectionResult:
    records: list[TranslatedPointRecord]
    continuum_suspected: bool
    converged_raw: int
    inconsistent: list[TranslatedPointRecord] = field(default_factory=list)


@dataclass
class SweepReport:
    """What sweep_and_count found; the defaults are a sweep that did not run.
    bound_outcome is "met" or "failed" when the lower bound bound_threshold
    was asserted, and "not_asserted" when it was not: no records, a record
    not certified non-degenerate, a suspected continuum, a route
    disagreement, or no sweep.  route_seconds is the wall time of each route
    that ran ("direct", "genfun").  disagreement, when not None, says how the
    two routes' records disagree, and dump holds the records behind it by
    group; such a report holds nothing else but route_seconds and
    route_stats, each route's record and converged counts and the genfun
    route's own counts, so that an exit-3 report.txt still shows them."""

    records: list[TranslatedPointRecord] = field(default_factory=list)
    event_ts: list[float] = field(default_factory=list)
    sphere_count: int | None = None
    projective_count: int | None = None
    continuum_suspected: bool = False
    bound_outcome: str = "not_asserted"  # met | failed | not_asserted
    route_stats: dict = field(default_factory=dict)
    route_seconds: dict[str, float] = field(default_factory=dict)
    disagreement: str | None = None
    dump: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepParams:
    """Run parameters of sweep_and_count.  The config schema takes its
    defaults and value types from these fields, and the routes their
    defaults.  The tolerances that decide what counts as a record are fixed
    module constants, not parameters."""

    mode: str = "sphere"  # sphere | projective
    routes: str = "both"  # direct | genfun | both
    sphere_count: int = 0  # 0: 128 n (sphere_seed_count)
    t_count: int = 64
    keep_per_seed: int = 4


def bound_threshold(mode: str, n: int) -> int:
    """The Morse-type lower bound: 2 points on S^{2n-1}, 2n antipodal
    classes on RP^{2n-1}."""
    return 2 * n if mode == "projective" else 2


def phase_shift(z: np.ndarray, t) -> np.ndarray:
    """e^{-2 pi i t} z for real-coordinate points z, t scalar or per-row."""
    zc = to_complex(np.asarray(z, dtype=float))
    phase = np.exp(-2j * np.pi * np.asarray(t, dtype=float))
    if zc.ndim > 1:
        phase = np.asarray(phase)[..., None]
    return to_real(phase * zc)


def _shifted_flow(spec, settings, q, t):
    """Phi(q), e^{-2 pi i t} Phi(q) and e^{-2 pi i t} DPhi(q) of the time-1
    map at rows q (R, 2n), t (R,)."""
    phi, dphi = integrate_flow(spec, q, 0.0, 1.0, settings, with_jacobian=True)
    return phi, phase_shift(phi, t), rotation_matrix(-2.0 * np.pi * t, spec.n) @ dphi


def _angular_distance(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    dot = np.clip(np.sum(q1 * q2, axis=-1), -1.0, 1.0)
    return np.arccos(dot)


def _t_distance(t1, t2) -> np.ndarray:
    d = np.abs(np.asarray(t1) - np.asarray(t2)) % 1.0
    return np.minimum(d, 1.0 - d)


# ---------------------------------------------------------------------------
# Direct fixed-point route
# ---------------------------------------------------------------------------


# Fewest sphere seeds of a seed grid.
MIN_SPHERE_SEEDS = 8


def sphere_seed_count(sphere_count: int, n: int) -> int:
    """The sphere seeds of a grid on S^{2n-1}: sphere_count, or 128 n if 0."""
    return sphere_count or 128 * n


def _prefilter_seeds(
    spec: ContactHamiltonianSpec,
    settings: IntegratorSettings,
    sphere_count: int,
    t_count: int,
    keep_per_seed: int,
):
    """Product grid filtered by the cheap residual |e^{-2 pi i t} Phi(q) - q|.

    One state-only integration gives Phi on the sphere grid; the t factor is
    explicit, so the residual over the whole product grid costs nothing and
    Newton only starts from the most promising (q, t) pairs per sphere seed.
    Both routes take their starts from here, so both reject a grid of fewer
    than MIN_SPHERE_SEEDS sphere seeds.
    """
    sphere_count = sphere_seed_count(sphere_count, spec.n)
    if sphere_count < MIN_SPHERE_SEEDS:
        raise ValueError(f"resolution too small: need at least {MIN_SPHERE_SEEDS} sphere seeds")
    n2 = 2 * spec.n
    qs = sphere_points(sphere_count, n2)
    phi_q, _ = integrate_flow(spec, qs, 0.0, 1.0, settings, with_jacobian=False)
    t_grid = np.arange(t_count) / t_count
    phic = to_complex(phi_q)[:, None, :]
    qc = to_complex(qs)[:, None, :]
    phases = np.exp(-2j * np.pi * t_grid)[None, :, None]
    resid = np.linalg.norm(phases * phic - qc, axis=-1)
    keep = min(keep_per_seed, t_count)
    order = np.argsort(resid, axis=1)[:, :keep]
    q_seeds = np.repeat(qs, keep, axis=0)
    t_seeds = t_grid[order].reshape(-1)
    return q_seeds, t_seeds


# Newton iterations per start, on either route.
_MAX_ITER = 40

# Converged iterations a row takes before it finishes (see _bordered_newton).
_POLISH = 2

# Newton tolerance of the direct route on its residual
# |(e^{-2 pi i t} Phi(q) - q, (|q|^2 - 1)/2)|.
_NEWTON_TOL = 1e-10

# A row retires after this many finite evaluations in a row that do not
# lower its best error (see _bordered_newton).  Retiring changes a row's
# result only if its best iterate would have come after such a plateau.  The
# longest plateau before a best iterate measured 8 evaluations (the diag
# config, direct route, 384 starts), 7 on the sphere-generic bench seeds
# 0-3 and 0 on the Reeb continuum.  A window of 8 loses one diag start;
# 10 and 12 keep every output byte, and 12 leaves a 50% margin over the
# longest plateau.
# On the Reeb continuum _JUMP stops every row first, after at most 6
# evaluations; _STALL alone would stop them after 17, not _MAX_ITER.
_STALL = 12

# A row whose best error already reached the rescue threshold 100*tol stops
# when a finite error exceeds _JUMP times that best (see _bordered_newton):
# its step left an accepted point, as on a continuum, where the damped step
# runs along the singular direction and never comes back.  Over the three
# committed configs under each route option and the bench seeds 0-3 of the
# three workloads, no error rises above a best within 100*tol before a
# row's accepted iterate, and the largest such rise after it is x12.6 (diag,
# direct route).  On the Reeb continuum (bench seeds 0-3) every row's error
# jumps off a best of 4e-13..4e-9 by at least x7.3e6 (seed 1, to 5e-5;
# mostly to 0.125), at its 2nd to 6th evaluation.  A factor too small would
# stop a row that still finishes, and move its record; one too large only
# leaves a bouncing row to _STALL.  So 1e6 sits far above the first bound
# and 7x below the second.
_JUMP = 1e6


def direct_translated_points(
    spec: ContactHamiltonianSpec,
    settings: IntegratorSettings = IntegratorSettings(),
    sphere_count: int = SweepParams.sphere_count,
    t_count: int = SweepParams.t_count,
    keep_per_seed: int = SweepParams.keep_per_seed,
    seeds: tuple[np.ndarray, np.ndarray] | None = None,
) -> DetectionResult:
    """Ground-truth route: multistart Newton on e^{-2 pi i t} Phi(q) - q = 0.

    g(q) = 0 is automatic at solutions because |Phi(q)| = |q| there; the
    conformal residual is still recorded.  Non-convergent starts are dropped
    (coverage is the seed grid's job).  seeds, when given, are the (q, t)
    starts that _prefilter_seeds returns for the same grid arguments.
    """
    if seeds is None:
        seeds = _prefilter_seeds(spec, settings, sphere_count, t_count, keep_per_seed)
    q, t = seeds
    q, t, ok = _direct_newton(spec, settings, q, t)
    q, t = q[ok], t[ok] % 1.0
    records = _build_records(spec, settings, q, t, route="direct")
    records, continuum = _dedup_and_flag(records, spec.n)
    return DetectionResult(records=records, continuum_suspected=continuum,
                           converged_raw=int(np.sum(ok)))


def _bordered_newton(x0, t0, system, tol, solve=solve_rows):
    """Masked, damped Newton on a bordered system F(x, t) = 0 per row.

    system is a pair (evaluate, retract).  evaluate(work, x, t) is called on
    the rows of the boolean mask `work` that are still running, with their x
    (R, D) and t (R,), and returns (F, M, err, ok, val): the residual F
    (R, D + 1), its Jacobian M in (x, t), the error err (R,) compared with
    tol, ok (R,) false on rows whose evaluation failed, and a value val (R,)
    returned with the point it belongs to.  M is a per-row array or a tuple
    of them.  solve(M, F) returns the Newton step of every row of M, (R,
    D + 1); it is called only on the rows that go on, neither finished nor
    failed.  By default M is a dense (R, D + 1, D + 1) array and solve_rows
    gives a row whose matrix is singular a NaN step.  retract(x, t) maps the
    new iterates back to the system's domain and returns them with a bool
    mask of rows to drop.

    Steps are damped to Euclidean norm 0.5 in (x, t).  A row finishes only
    after satisfying tol on _POLISH iterations: the extra full steps matter
    in flat valleys (weakly split continua), where a residual below tol can
    still sit noticeably off the true point and the final
    quadratic-convergence steps pin it down.  Rows that are dropped, whose
    evaluation fails or whose step is not finite (a singular matrix) stop.
    A row also stops once _STALL evaluations in a row with a finite error
    have not lowered its best error (failed evaluations and err = inf, an
    iterate the system cannot yet measure, do not count): on a continuum no
    iterate converges and later steps only bounce.  A row whose best error
    is already within 100*tol stops at once when a finite error exceeds
    _JUMP times that best: the step has left an accepted point.  A row that
    stops or runs out of _MAX_ITER iterations without finishing is accepted
    at its best iterate if its best error reached 100*tol (the integrator
    noise floor can exceed an aggressive tol), and dropped otherwise.
    Returns (x, t, val, done).
    """
    evaluate, retract = system
    rescue = 100.0 * tol
    x = np.asarray(x0, dtype=float).copy()
    t = np.asarray(t0, dtype=float).copy()
    B, D = x.shape
    alive = np.ones(B, dtype=bool)
    done = np.zeros(B, dtype=bool)
    times_conv = np.zeros(B, dtype=int)
    stall = np.zeros(B, dtype=int)  # finite evaluations since best_err fell
    vals = np.zeros(B)
    best_err = np.full(B, np.inf)
    best_x = x.copy()
    best_t = t.copy()
    best_v = np.zeros(B)
    for _ in range(_MAX_ITER):
        work = alive & ~done
        if not np.any(work):
            break
        xi, ti = x[work], t[work]
        F, M, err, ok, val = evaluate(work, xi, ti)
        idx = np.where(work)[0]
        better = ok & (err < best_err[idx])
        bidx = idx[better]
        best_err[bidx] = err[better]
        best_x[bidx] = xi[better]
        best_t[bidx] = ti[better]
        best_v[bidx] = val[better]
        stall[bidx] = 0
        measured = ok & np.isfinite(err)
        stall[idx[measured & ~better]] += 1
        best = best_err[idx]
        jumped = measured & (best <= rescue) & (err > _JUMP * best)
        conv = ok & (err <= tol)
        times_conv[idx[conv]] += 1
        finish = conv & (times_conv[idx] >= _POLISH)
        go = ok & ~finish
        step = np.zeros(F.shape)
        if np.any(go):
            step[go] = solve(tuple(a[go] for a in M) if isinstance(M, tuple) else M[go], F[go])
        finite = np.isfinite(step).all(axis=1)
        norms = np.linalg.norm(step, axis=1)
        damp = np.minimum(1.0, 0.5 / np.maximum(norms, 1e-30))
        step = step * damp[:, None]
        tn = ti - step[:, D]
        xn, bad = retract(xi - step[:, :D], tn)
        bad = bad | ~ok | ~finite | (stall[idx] >= _STALL) | jumped
        move = ~finish & ~bad
        x[idx[move]] = xn[move]
        t[idx[move]] = tn[move]
        vals[idx[finish]] = val[finish]
        done[idx[finish]] = True
        alive[idx[bad & ~finish]] = False
    rescued = ~done & (best_err <= rescue)
    done = done | rescued
    x[rescued] = best_x[rescued]
    t[rescued] = best_t[rescued]
    vals[rescued] = best_v[rescued]
    return x, t, vals, done


def _direct_newton(spec, settings, q0, t0):
    """Bordered Newton (_bordered_newton) on e^{-2 pi i t} Phi(q) - q = 0,
    (|q|^2 - 1)/2 = 0 over (q, t), to _NEWTON_TOL in at most _MAX_ITER
    iterations.  A row is dropped once a step takes |q| out of [0.3, 3] or
    |t| above 4."""
    n2 = 2 * spec.n
    eye = np.eye(n2)

    def evaluate(work, q, t):
        _, psi, dpsi = _shifted_flow(spec, settings, q, t)
        res_map = psi - q
        res_norm = 0.5 * (np.sum(q * q, axis=1) - 1.0)
        rnorm = np.sqrt(np.sum(res_map**2, axis=1) + res_norm**2)
        M = np.zeros((q.shape[0], n2 + 1, n2 + 1))
        M[:, :n2, :n2] = dpsi - eye
        M[:, :n2, n2] = -2.0 * np.pi * mul_i(psi)
        M[:, n2, :n2] = q
        F = np.concatenate([res_map, res_norm[:, None]], axis=1)
        return F, M, rnorm, np.ones(q.shape[0], dtype=bool), rnorm

    def retract(q, t):
        qnorm = np.linalg.norm(q, axis=1)
        return q, (qnorm < 0.3) | (qnorm > 3.0) | (np.abs(t) > 4.0)

    q, t, _, done = _bordered_newton(q0, t0, (evaluate, retract), _NEWTON_TOL)
    return q, t, done


# A singular value of DPsi - I below this is a kernel direction (see
# _classify_kernels).
_NONDEG_TOL = 1e-7

# Largest direct residual |e^{-2 pi i t} Phi(q) - q| of a verified genfun
# record; a reduced ray above it is reported as inconsistent.  Only records
# within it are classified: off a translated point DPsi - I need have no
# kernel.
_VERIFY_TOL = 1e-6


def _build_records(spec, settings, q, t, route, nondeg_tol=_NONDEG_TOL, gf_values=None):
    if q.shape[0] == 0:
        return []
    phi, psi, dpsi = _shifted_flow(spec, settings, q, t)
    residual_fixed = np.linalg.norm(psi - q, axis=1)
    # the conformal factor g(q) = -2 log |Phi(q)|, which vanishes at
    # translated points
    residual_g = np.abs(-2.0 * np.log(np.linalg.norm(phi, axis=1)))
    svals, vt = _kernel_svd(dpsi)
    nondeg = _classify_kernels(svals, vt, q, nondeg_tol, residual_fixed <= _VERIFY_TOL)
    gf = [None] * len(nondeg) if gf_values is None else np.asarray(gf_values, dtype=float).tolist()
    return [TranslatedPointRecord(tuple(qi), ti, rf, rg, nd, route, gv)
            for qi, ti, rf, rg, nd, gv in zip(q.tolist(), (t % 1.0).tolist(),
                                              residual_fixed.tolist(), residual_g.tolist(),
                                              nondeg, gf)]


def _kernel_svd(dpsi: np.ndarray):
    """Singular values (R, 2n) and right singular vectors Vt (R, 2n, 2n) of
    DPsi - I for a stack of DPsi (R, 2n, 2n), in one stacked call."""
    _, svals, vt = np.linalg.svd(dpsi - np.eye(dpsi.shape[-1]))
    return svals, vt


def _classify_kernels(svals: np.ndarray, vt: np.ndarray, q: np.ndarray, tol: float,
                      verified: np.ndarray) -> list[bool | None]:
    """Per row of q (R, 2n): True iff ker(DPsi - I) is exactly the radial
    line span(q), given the singular values svals (R, 2n) and right singular
    vectors vt (R, 2n, 2n) of DPsi - I (_kernel_svd).

    A row is None when it is not verified (only a translated point need
    have a kernel) or when a singular value sits within a factor 10 of tol:
    the spectrum is tolerance-ambiguous and the verdict is never guessed.
    Raises ValueError when a verified, unambiguous row has no kernel
    direction.
    """
    classified = verified & ~((svals > tol / 10.0) & (svals < tol * 10.0)).any(axis=1)
    count = np.count_nonzero(svals < tol, axis=1)
    if np.any(classified & (count == 0)):
        raise ValueError("no kernel direction: the point fails the residual contract")
    qhat = q / np.linalg.norm(q, axis=1)[:, None]
    radial = np.abs(np.sum(vt[:, -1] * qhat, axis=1)) > 1.0 - 1e-6
    verdict = (count == 1) & radial
    return [v if c else None for c, v in zip(classified.tolist(), verdict.tolist())]


# Two records of one route are one point when their q lie within
# _DEDUP_ANGULAR (radians) and their t within _DEDUP_T (mod 1); the
# antipodal pairing of projective records uses the same pair.
_DEDUP_ANGULAR = 1e-4
_DEDUP_T = 1e-5

# A t-slice with more degenerate records than _CONTINUUM_FACTOR * max(2, 2n)
# is a suspected continuum.  A slice is the records within _CONTINUUM_T (mod
# 1) of its first record's t, ten times _DEDUP_T: wider than the dedup window
# in t, so that the records of one continuum, which dedup keeps apart by q
# alone at t within _DEDUP_T of each other, share a slice.
_CONTINUUM_FACTOR = 10.0
_CONTINUUM_T = 1e-4


# Records per block of _dedup_and_flag: a block's records are compared with
# the ones kept before it and with each other, one table per block, so the
# tables grow with the kept records, not with N^2.  Small blocks compare
# fewer pairs; the result does not depend on the block size.
_DEDUP_BLOCK = 32


def _dedup_and_flag(records, n):
    """Greedy clustering by (angular, t) distance; representative = smallest
    fixed-point residual, ties broken by (t, q), so that the result does not
    depend on the order of the records (residuals tie at the rounding
    level).  The kept records are in record_sort_key order.  A t-slice
    accumulating more mutually-distinct degenerate records than
    _CONTINUUM_FACTOR * max(2, 2n) is declared a suspected continuum."""
    if not records:
        return [], False
    order = sorted(range(len(records)),
                   key=lambda i: (records[i].residual_fixed, records[i].t, records[i].q))
    qs = np.array([records[i].q for i in order])
    ts = np.array([records[i].t for i in order])
    chosen = np.zeros(len(order), dtype=bool)
    for start in range(0, len(order), _DEDUP_BLOCK):
        block = slice(start, start + _DEDUP_BLOCK)
        earlier = np.flatnonzero(chosen[:start])
        q, t = qs[block], ts[block]
        free = ~_close(qs[earlier], ts[earlier], q, t, _DEDUP_ANGULAR, _DEDUP_T).any(axis=1)
        chosen[block] = _greedy_pick(free, _close(q, t, q, t, _DEDUP_ANGULAR, _DEDUP_T))
    kept = [records[order[i]] for i in np.flatnonzero(chosen)]
    kept.sort(key=record_sort_key)

    threshold = _CONTINUUM_FACTOR * max(2, 2 * n)
    continuum = False
    kept_ts = np.array([r.t for r in kept])
    degenerate = np.array([r.nondegenerate is not True for r in kept])
    used = np.zeros(len(kept), dtype=bool)
    for i in range(len(kept)):
        if used[i]:
            continue
        slice_mask = _t_distance(kept_ts, kept_ts[i]) < _CONTINUUM_T
        used |= slice_mask
        if np.count_nonzero(slice_mask & degenerate) > threshold:
            continuum = True
    return kept, continuum


def record_sort_key(record) -> tuple:
    """Row order of records: t, then q, each rounded to 10 digits as in
    event_ts, so that rounding-level moves keep the rows in place.  The two
    members of an antipodal pair share t to rounding, and on the symmetric
    specs some of their coordinates are rounding noise of either sign."""
    return round(record.t, 10), tuple(round(x, 10) for x in record.q)


def _close(q1, t1, q2, t2, ang_tol: float, t_tol: float) -> np.ndarray:
    """(len(q2), len(q1)) table: record i of (q2, t2) and record j of (q1,
    t1) lie within ang_tol (radians) and t_tol (mod 1), by the same
    elementwise operations as a comparison of the one pair; t only where q
    is close."""
    close = _angular_distance(q1, q2[:, None]) < ang_tol
    i, j = np.nonzero(close)
    close[i, j] = _t_distance(t1[j], t2[i]) < t_tol
    return close


def _greedy_pick(free: np.ndarray, close: np.ndarray) -> np.ndarray:
    """The greedy choice over B candidates in order: candidate i is picked
    when it is free and close (B, B) to no picked j < i.  Each round settles
    every candidate whose earlier close candidates are all settled."""
    earlier = np.tril(close, -1)
    picked = np.zeros_like(free)
    open_ = free.copy()
    while open_.any():
        dropped = open_ & (earlier & picked).any(axis=1)
        picked |= open_ & ~(earlier & (picked | open_)).any(axis=1)
        open_ &= ~(dropped | picked)
    return picked


# ---------------------------------------------------------------------------
# Generating-function route
# ---------------------------------------------------------------------------


# Rotation links k of A_t, in the genfun route and in the reported index
# data: each link turns by -t/k of a Hopf circle, so A_t is defined for
# |t| < k/2 (rotation_coefficients).
ROTATION_PIECES = 4


class ShiftedGenFunFamily:
    """The family F_t = F_phi # A_t generating the lift of a_t o phi.

    F_t is one chain (see genfun): the L links of F_phi, the composed
    generating function of the subdivided isotopy of phi, followed by the k
    rotation links -tan(pi t / k)|b|^2 of A_t, the generating family of the
    negative Reeb flow.  Points x are flat chain coordinates, base first.
    Only the rotation links depend on t, through their coefficient, so the
    t-derivative of the gradient is available in closed form for the joint
    (x, t) Newton, whose step bordered_step solves along the chain.
    """

    def __init__(self, f_phi: ChainGF, n: int, k: int):
        self.f_phi = f_phi
        self.n = n
        self.k = k
        self.dim = self._chain(0.0)[0].total_dim

    def _chain(self, t):
        """F_t as a chain for t per row, and d/dt of its rotation coefficient."""
        coeff, dcoeff = rotation_coefficients(t, self.k)
        return gfm.gf_compose(self.f_phi, *(gfm.QuadraticLink(coeff, self.n),) * self.k), dcoeff

    def seed(self, q: np.ndarray, t: np.ndarray):
        """Chain seeds on the fiber-critical set over starting points q.

        Returns (x, warm): x on the Euclidean unit sphere of the chain
        coordinates, and the LeafState of F_phi at x.  Each leaf's
        chain point is the exact midpoint at its chain base; the lifted flow
        is R_+-equivariant, so after the normalisation of x it is the chain
        point over |x|.
        """
        q = np.asarray(q, dtype=float)
        chain, _ = self._chain(t)
        fiber, z_out, z = chain.chain_seed(q)
        x = np.concatenate([0.5 * (q + z_out), fiber], axis=1)
        norm = np.linalg.norm(x, axis=1)[:, None]
        x = x / norm
        z = z / norm[:, :, None]
        jac = np.broadcast_to(np.eye(2 * self.n), z.shape + (2 * self.n,)).copy()
        return x, gfm.LeafState(self.leaf_bases(x), z, jac)

    def leaf_bases(self, x: np.ndarray) -> np.ndarray:
        """Bases (R, L, 2n) of F_phi's leaves, a_1, b_2, ..., b_L, at chain
        coordinates x."""
        a, b = gfm.split_chain(x, 2 * self.n)
        return np.concatenate([a[:, :1], b[:, : len(self.f_phi.links) - 1]], axis=1)

    def evaluate(self, x: np.ndarray, t: np.ndarray, warm: gfm.LeafState):
        """(val, grad, hess, dgrad_dt, ok, state) of F_t at x, t per row:
        one evaluate_stacked of the chain from warm, the LeafState of
        F_phi's leaves for these rows.  Every leaf takes the leaf step of
        warm and is integrated once, its gradient is linearized at that
        midpoint, and state is the new LeafState.  hess is the
        (R, L + k, 2n, 2n) stack of the links' Hessians, which
        gfm.chain_hessian assembles into the Hessian of F_t.
        """
        x = np.asarray(x, dtype=float)
        chain, dcoeff = self._chain(t)
        val, grad, hess, ok, state = evaluate_stacked(chain, x, warm)
        # only the rotation links' terms coeff |b|^2, on the last k bases
        a, b = gfm.split_chain(x, 2 * self.n)
        db = np.zeros(b.shape)
        db[:, -self.k:] = 2.0 * dcoeff[:, None, None] * b[:, -self.k:]
        dgrad = gfm.join_chain(np.zeros(a.shape), db)
        return val, grad, hess, dgrad, ok, state

    def bordered_step(self, border: np.ndarray, hess: np.ndarray, dgrad: np.ndarray,
                      F: np.ndarray) -> np.ndarray:
        """Solution s (R, D + 1) of [[H, dgrad], [border^T, 0]] s = F on
        every row, with H the Hessian of F_t given by the links' Hessians
        hess (R, L + k, 2n, 2n).

        Solved by elimination along the chain, uniformly over its N = L + k
        links.  H is block tridiagonal: link j's Hessian H_j is the diagonal
        block of its base (a_1 for j = 1, b_j after), and link j >= 2 pairs
        a_{j-1}, b_j and a_j through constant multiples of 2i.  Every unknown
        is carried as an affine function of the step on a_1 and the t-step:
        the a_j row gives e = b_{j+1} - a_{j+1} through 2i, and the b_{j+1}
        row then pivots on H_{j+1} + 2i for the increment b_{j+1} - a_j.  For
        a C^1-small leaf that pivot is 4i (I + DPhi)^{-1} up to the
        symmetrisation of H, and for a rotation link it is
        -2 tan(pi t / k) I + 2i; both are well conditioned, and the
        increments of C^1-small leaves are small, so no unknown is the
        difference of two large ones.  The a_N row and the border row close
        the chain in one (2n + 1)-system per row, whatever k.  Every product
        is a per-row stacked call, so a row's step depends neither on its
        batch nor on the BLAS thread count.  Leaf-link pivots that every row
        shares are inverted once (_inverses); the rotation links' vary with t.
        """
        R, N, m = hess.shape[:3]
        h = m // 2
        eye = np.eye(m)
        K = 2.0 * complex_structure_matrix(h)

        def i_rows(X):  # i applied to the m rows of X (R, ..., m, c)
            return np.concatenate([-X[..., h:, :], X[..., :h, :]], axis=-2)

        def rhs(g, d):  # the affine function g - d tau
            out = np.zeros((R, m, m + 2))
            out[:, :, m] = -d
            out[:, :, m + 1] = g
            return out

        ga, gb = gfm.split_chain(F[:, :-1], m)
        da, db = gfm.split_chain(dgrad, m)
        # affine functions of (a_1 step, t-step), (R, m, m + 2): their
        # coefficients, then the constant; (2i)^{-1} = -i/2
        sa = np.empty((R, N, m, m + 2))  # a_1..a_N
        sb = np.empty((R, N - 1, m, m + 2))  # b_2..b_N
        sa[:, 0] = 0.0
        sa[:, 0, :, :m] = eye
        # a_1 row: H_1 a_1 + 2i (b_2 - a_2) + d tau = g gives e = b_2 - a_2
        e = -0.5 * i_rows(rhs(ga[:, 0], da[:, 0]) - hess[:, 0] @ sa[:, 0])
        P = hess[:, 1:] + K
        L = len(self.f_phi.links)
        Pinv = np.concatenate([_inverses(P[:, :L - 1]), _inverses(P[:, L - 1:])], axis=1)
        for j in range(1, N):
            # b_{j+1} row: H b + 2i (a_{j+1} - a_j) + d tau = g with b = a_j + f
            # and a_{j+1} = b - e, solved for the increment f
            f = Pinv[:, j - 1] @ (rhs(gb[:, j - 1], db[:, j - 1]) + 2.0 * i_rows(e)
                                  - hess[:, j] @ sa[:, j - 1])
            sb[:, j - 1] = sa[:, j - 1] + f
            sa[:, j] = sb[:, j - 1] - e
            # a_{j+1} row: 2i (a_j - b_{j+1}) + 2i (b_{j+2} - a_{j+2}) + d tau = g
            e = -0.5 * i_rows(rhs(ga[:, j], da[:, j])) + f
        # the closing system in (a_1 step, t-step): the a_N row, 2i times the
        # last e = 0, and the border row border . s = r
        M = np.empty((R, m + 1, m + 1))
        close = np.empty((R, m + 1))
        M[:, :m] = e[:, :, : m + 1]
        close[:, :m] = -e[:, :, m + 1]
        links = np.concatenate([sa, sb], axis=1).reshape(R, -1, m + 2)
        ca, cb = gfm.split_chain(border, m)
        c = np.concatenate([ca, cb], axis=1).reshape(R, 1, -1)
        row = (c @ links)[:, 0]
        M[:, m] = row[:, : m + 1]
        close[:, m] = F[:, -1] - row[:, m + 1]
        sol = np.concatenate([solve_rows(M, close), np.ones((R, 1))], axis=1)[:, None, :, None]
        step = np.empty((R, border.shape[1] + 1))
        step[:, :-1] = gfm.join_chain((sa @ sol)[..., 0], (sb @ sol)[..., 0])
        step[:, -1] = sol[:, 0, m, 0]
        return step


def _inverses(P: np.ndarray) -> np.ndarray:
    """The inverse of every matrix of P (R, S, m, m), by solve_rows: NaN
    where P is singular.  When every row has row 0's matrices, they are
    inverted once and given to every row (once_if_shared), with the bits of
    each row's own inverses."""

    def invert(rows):
        A = rows.reshape(-1, *rows.shape[2:])
        return solve_rows(A, np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()).reshape(rows.shape)

    return once_if_shared(invert, P)


# Starts per genfun Newton batch, which bounds a batch's Newton state.  A
# start's state grows linearly with the number of links L + k: leaf
# midpoints, one 2n x 2n Hessian block and one 2n x (2n + 2) affine function
# of the chain solve per link, some 20 KB at L = 16, k = 4, so some 10 MB a
# batch.  The batch's stacked leaf solve of L x _CHUNK rows integrates in
# passes of flow._ROW_CHUNK rows, whose stage buffers take about 1 MB at
# n = 2 whatever L is.
_CHUNK = 512

# Smallest base |a_N| of an accepted critical ray x, |x| = 1 in chain
# coordinates; a ray with a smaller base is not reduced to a_N / |a_N|.  On
# the committed configs and the bench seeds 0-3 the smallest |a_N| of a
# converged ray is about 0.16.
_U_FLOOR = 0.02

# Newton tolerance of the genfun route on |grad F_t| in chain coordinates.
_GRAD_TOL = 1e-9


def find_critical_rays(
    family: ShiftedGenFunFamily,
    spec: ContactHamiltonianSpec,
    settings: IntegratorSettings = IntegratorSettings(),
    sphere_count: int = SweepParams.sphere_count,
    t_count: int = SweepParams.t_count,
    keep_per_seed: int = SweepParams.keep_per_seed,
    seeds: tuple[np.ndarray, np.ndarray] | None = None,
) -> DetectionResult:
    """Critical rays of F_t on the unit sphere of the total space.

    Seeds chain each (q, t) start onto the fiber-critical set; projected
    Newton then solves grad F_t(x) = 0, |x| = 1 jointly in (x, t).  Every
    converged ray is reduced to its base point and re-verified against the
    direct fixed-point residual.  A ray whose residual exceeds _VERIFY_TOL is
    reported as inconsistent, never silently kept, and left unclassified
    (nondegenerate None).  seeds, when given, are the (q, t) starts that
    _prefilter_seeds returns for the same grid arguments.
    """
    if seeds is None:
        seeds = _prefilter_seeds(spec, settings, sphere_count, t_count, keep_per_seed)
    q_seeds, t_seeds = seeds
    xs, ts, vals, oks = [], [], [], []
    for lo in range(0, q_seeds.shape[0], _CHUNK):
        q_c = q_seeds[lo : lo + _CHUNK]
        t_c = t_seeds[lo : lo + _CHUNK]
        x0, warm = family.seed(q_c, t_c)
        xx, tt, vv, ok_c = _genfun_newton(family, x0, t_c, warm)
        xs.append(xx)
        ts.append(tt)
        vals.append(vv)
        oks.append(ok_c)
    x = np.concatenate(xs, axis=0)
    t = np.concatenate(ts, axis=0)
    gf_vals = np.concatenate(vals, axis=0)
    ok = np.concatenate(oks, axis=0)

    u = x[:, : 2 * spec.n]
    unorm = np.linalg.norm(u, axis=1)
    ok = ok & (unorm > _U_FLOOR)
    q_red = u[ok] / unorm[ok][:, None]
    t_red = t[ok] % 1.0
    v_red = gf_vals[ok]

    records = _build_records(spec, settings, q_red, t_red, route="genfun", gf_values=v_red)
    verified = [r for r in records if r.residual_fixed <= _VERIFY_TOL]
    inconsistent = [r for r in records if r.residual_fixed > _VERIFY_TOL]
    verified, continuum = _dedup_and_flag(verified, spec.n)
    return DetectionResult(
        records=verified,
        continuum_suspected=continuum,
        converged_raw=int(np.sum(ok)),
        inconsistent=inconsistent,
    )


def _genfun_newton(family, x0, t0, warm):
    """Bordered Newton (_bordered_newton) on grad F_t(x) = 0,
    (|x|^2 - 1)/2 = 0 over (x, t), to _GRAD_TOL in at most _MAX_ITER
    iterations, with x renormalised after every step.

    x is in chain coordinates, with their Euclidean norm, as q is on the
    direct route: F_t is homogeneous of degree 2, so its critical rays do
    not depend on the sphere that normalises them.  Each iteration
    evaluates F_t once, to its links' Hessians, and family.bordered_step
    solves the bordered system along the chain; no (D + 1) x (D + 1)
    matrix is formed.

    The leaf midpoints z_j are unknowns of the same Newton: warm, the
    LeafState of F_phi at x0 (from family.seed), is carried across
    iterations, sliced by the same work mask as x and t.  Each iteration
    integrates every leaf once, from the Newton step of the last state
    toward the leaf's new base (LeafState.predict, which takes up the
    damped, retracted x step and the midpoint residual), and the gradient
    is linearized at the midpoint (evaluate_stacked); eliminating the
    midpoint steps link by link leaves bordered_step's pivots unchanged.  A
    row finishes, or is rescued at its best iterate, only where every leaf
    residual is within the leaf tolerance (LeafState.solves), so accepted
    points carry solved leaves.  A row is dropped when a leaf cannot be
    integrated (its base or midpoint at the cone tip) or its step leaves
    the rotation family's domain |t| < k/2.  Returns (x, t, F_t(x), done).
    """

    def evaluate(work, x, t):
        val, grad, hess, dgrad, ok, state = family.evaluate(x, t, warm.take(work))
        warm.put(work, state)
        F = np.concatenate([grad, 0.5 * (np.sum(x * x, axis=1) - 1.0)[:, None]], axis=1)
        err = np.where(state.solves(family.leaf_bases(x)), np.linalg.norm(grad, axis=1), np.inf)
        return F, (x, hess, dgrad), err, ok, val

    def retract(x, t):
        xnorm = np.linalg.norm(x, axis=1)
        # rotation_coefficients rejects the whole batch once any |t| >= k/2
        bad = (xnorm < 1e-8) | ~(np.abs(t) < 0.5 * family.k)
        return x / np.maximum(xnorm, 1e-30)[:, None], bad

    return _bordered_newton(x0, t0, (evaluate, retract), _GRAD_TOL,
                            solve=lambda M, F: family.bordered_step(*M, F))


# ---------------------------------------------------------------------------
# Index jump and the sweep driver
# ---------------------------------------------------------------------------


def index_data(n: int, k: int) -> dict:
    """Inertia of the endpoint forms A_0 and A_1 of the k-piece rotation
    family, and the jump i(A_1) - i(A_0), which equals 2n.

    Both endpoint forms generate the identity, whose critical set is the full
    2n-dimensional diagonal family, so the raw matrices carry a structural
    kernel of dimension exactly 2n; any other nullity is a configuration
    error.  The index difference is insensitive to that kernel.
    """
    in0 = inertia(rotation_family_matrices(0.0, n, k))
    in1 = inertia(rotation_family_matrices(1.0, n, k))
    for label, ine in (("A_0", in0), ("A_1", in1)):
        if ine.nullity != 2 * n:
            raise ConfigurationError(
                f"{label} has nullity {ine.nullity}, expected the structural {2 * n}"
            )
    return {
        "index_a0": in0.index,
        "nullity_a0": in0.nullity,
        "coindex_a0": in0.coindex,
        "index_a1": in1.index,
        "nullity_a1": in1.nullity,
        "coindex_a1": in1.coindex,
        "jump": in1.index - in0.index,
    }


# C^1 bound delta of the pieces of phi's isotopy (subdivide_c1_small): a
# solved midpoint of such a leaf has |z| <= |b| / (1 - delta/2) = 2|b|, far
# inside the leaf test's bound (genfun._LEAF_GROWTH).
_C1_DELTA = 1.0


def build_phi_genfun(spec: ContactHamiltonianSpec, settings: IntegratorSettings) -> ChainGF:
    """Generating function of phi: the chain of the equal C^1-small pieces
    of its isotopy (subdivide_c1_small)."""
    return gfm.flow_chain(spec, subdivide_c1_small(spec, _C1_DELTA, settings), settings)


def pair_records(a, b, ang_tol: float, t_tol: float, antipodal: bool = False):
    """Unique pairing of the records a with the records b.

    Record j of b is a candidate for record i of a when q_j (-q_j if
    antipodal) lies within ang_tol of q_i and t_j within t_tol of t_i
    (mod 1).  Returns partner, where partner[i] is the index of the only
    candidate of a[i], or -1 if it has none.  Returns None when a record of
    either list has two or more candidates: no pairing is then unique.
    """
    if not a or not b:
        return np.full(len(a), -1)
    qa = np.array([r.q for r in a])
    qb = np.array([r.q for r in b])
    if antipodal:
        qb = -qb
    ta = np.array([r.t for r in a])
    tb = np.array([r.t for r in b])
    close = _close(qb, tb, qa, ta, ang_tol, t_tol)
    if np.any(close.sum(axis=0) > 1) or np.any(close.sum(axis=1) > 1):
        return None
    return np.where(close.any(axis=1), np.argmax(close, axis=1), -1)


# A direct and a genfun record are one point when their q lie within
# _MATCH_ANGULAR (radians) and their t within _MATCH_T (mod 1).
_MATCH_ANGULAR = 1e-6
_MATCH_T = 1e-6


def _match_routes(direct, genf):
    """(matched, direct-only, genfun-only) records of the unique pairing of
    the two routes' records, or None when no pairing is unique."""
    partner = pair_records(direct, genf, _MATCH_ANGULAR, _MATCH_T)
    if partner is None:
        return None
    matched = [replace(rd, route="both", gf_value=genf[j].gf_value)
               for rd, j in zip(direct, partner) if j >= 0]
    unmatched_direct = [rd for rd, j in zip(direct, partner) if j < 0]
    used = set(partner.tolist())
    unmatched_genfun = [rg for j, rg in enumerate(genf) if j not in used]
    return matched, unmatched_direct, unmatched_genfun


def _compare_routes(direct: DetectionResult, genf: DetectionResult):
    """(matched records, None, {}) when every genfun ray passed the direct
    residual verification and the two record sets are in bijection;
    otherwise ([], how they disagree, the records behind it by group)."""
    if genf.inconsistent:
        return [], "genfun records failed the direct residual verification", {
            "inconsistent": genf.inconsistent}
    match = _match_routes(direct.records, genf.records)
    if match is None:
        return [], ("ambiguous route match: a record has two candidates within the match "
                    "tolerances"), {"direct": direct.records, "genfun": genf.records}
    matched, only_d, only_g = match
    if only_d or only_g:
        return [], f"route mismatch: {len(only_d)} direct-only, {len(only_g)} genfun-only", {
            "direct_only": only_d, "genfun_only": only_g, "matched": matched}
    return matched, None, {}


class _RouteWorker:
    """A zero-argument route run in a forked worker, while this process runs
    another.  The worker sends back (what the route returned, seconds since
    start), or the exception the route raised, pickled over a pipe, and
    always ends with os._exit.  join or kill reaps it."""

    def __init__(self, route, start: float):
        rfd, wfd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(rfd)
                try:
                    reply = (True, (route(), time.perf_counter() - start))
                except Exception as exc:
                    reply = (False, exc)
                data = pickle.dumps(reply)  # an unpicklable exception sends nothing
                with os.fdopen(wfd, "wb") as fh:
                    fh.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        self.reader = os.fdopen(rfd, "rb")

    def join(self):
        """(the route's value, seconds) of the worker, or its error raised."""
        try:
            with self.reader:
                data = self.reader.read()
            _, status = os.waitpid(self.pid, 0)
        except BaseException:
            self.kill()
            raise
        try:
            ok, payload = pickle.loads(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(f"the route worker sent no readable result ({how})") from None
        if not ok:
            raise payload
        return payload

    def kill(self):
        self.reader.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def sweep_and_count(
    spec: ContactHamiltonianSpec,
    params: SweepParams = SweepParams(),
    settings: IntegratorSettings = IntegratorSettings(),
) -> SweepReport:
    """Run the configured routes, merge records, count, and decide the bound.

    The Morse-type lower bound (bound_threshold: 2 on the sphere, 2n
    antipodal classes on the projective space) is asserted only when every
    record is certified non-degenerate and no continuum is suspected; the
    report's bound_outcome says which of met, failed or not_asserted holds,
    instead of passing silently.  When both routes run and no continuum is
    suspected, their records must agree (_compare_routes); when they do not,
    the report returns the disagreement and its dump, with route_seconds
    and route_stats and nothing else, so its bound_outcome stays
    not_asserted.

    Both routes start from one prefiltered seed grid, whose time counts
    toward the first route: the direct route, or the genfun route when it
    runs alone.  The last route runs here; with both routes, the direct
    route runs in a forked worker (_RouteWorker) meanwhile, so each time in
    route_seconds is that route's own wall time, and the two overlap.  An
    error of the direct route wins over one of the genfun route, as when
    the direct route ran first.  A projective spec must be Z2-symmetric,
    term by term (projective.ProjectiveSpec): an odd-degree term raises a
    ValueError before any route runs.
    """
    if params.mode == "projective":
        from .projective import ProjectiveSpec, antipodal_classes

        ProjectiveSpec(spec)
    grid = dict(sphere_count=params.sphere_count, t_count=params.t_count,
                keep_per_seed=params.keep_per_seed)

    # each route returns its DetectionResult and its own route_stats
    def direct():
        return direct_translated_points(spec, settings, **grid, seeds=seeds), {}

    def genfun():
        f_phi = build_phi_genfun(spec, settings)
        family = ShiftedGenFunFamily(f_phi, spec.n, ROTATION_PIECES)
        res = find_critical_rays(family, spec, settings, **grid, seeds=seeds)
        return res, {"genfun_inconsistent": len(res.inconsistent),
                     "subdivision_pieces": len(f_phi.links), "total_space_dim": family.dim}

    routes = {"direct": direct, "genfun": genfun}
    names = list(routes) if params.routes == "both" else [params.routes]
    start = time.perf_counter()
    seeds = _prefilter_seeds(spec, settings, **grid)
    worker = _RouteWorker(routes[names[0]], start) if len(names) == 2 else None
    last_start = start if worker is None else time.perf_counter()
    try:
        last = routes[names[-1]]()
    except Exception:
        if worker is not None:
            worker.join()  # raises the worker's error, if any
        raise
    except BaseException:
        if worker is not None:
            worker.kill()
        raise
    runs = [(last, time.perf_counter() - last_start)]
    if worker is not None:
        runs.insert(0, worker.join())

    results, route_stats, route_seconds = {}, {}, {}
    for name, ((res, stats), seconds) in zip(names, runs):
        results[name] = res
        route_seconds[name] = seconds
        route_stats.update({f"{name}_records": len(res.records),
                            f"{name}_converged": res.converged_raw}, **stats)
    continuum = any(res.continuum_suspected for res in results.values())

    if len(results) == 2 and not continuum:
        records, disagreement, dump = _compare_routes(results["direct"], results["genfun"])
        if disagreement is not None:
            return SweepReport(route_stats=route_stats, route_seconds=route_seconds,
                               disagreement=disagreement, dump=dump)
        route_stats["matched"] = len(records)
    else:
        # one route, or both on a continuum: the routes sample a continuum
        # differently, so report the ground truth set (the direct route's,
        # the first whenever it ran) without asserting a bijection
        records = results[names[0]].records

    events = sorted({round(r.t, 10) for r in records})
    sphere_count = projective_count = None
    outcome = "not_asserted"
    if not continuum:
        sphere_count = count = len(records)
        if params.mode == "projective":
            projective_count = count = len(antipodal_classes(records))
        if records and all(r.nondegenerate is True for r in records):
            outcome = "met" if count >= bound_threshold(params.mode, spec.n) else "failed"
    return SweepReport(records, events, sphere_count, projective_count, continuum, outcome,
                       route_stats, route_seconds)
