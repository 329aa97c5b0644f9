"""Output checks for one `contactmorse run`, independent of the program.

Nothing here imports contactmorse.  The fixed-point residual of every record
is recomputed by integrating a direct transcription of the Hamiltonian's
vector field with scipy's DOP853 at tight tolerance, not by the program's
compiled monomial tables or its fixed-step RK4.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp

# A record passes when its recomputed residual |e^{-2 pi i t} Phi(q) - q| is
# at most the program's default verification tolerance.
RESIDUAL_TOL = 1e-6
# | |q| - 1 |: the direct Newton accepts a row whose residual, which includes
# (|q|^2 - 1)/2, reached 100 x its default tolerance 1e-10.
UNIT_TOL = 1e-8
PAIR_TOL = 1e-6  # |q_i + q_j| and |t_i - t_j| (mod 1) of an antipodal pair
CLOSED_FORM_T_TOL = 1e-6  # |t - c| (mod 1) on the Reeb continuum

EXPECTED = {
    # workload: (exit status, bound_outcome)
    "sphere-generic": (0, "met"),
    "rp3-symmetric": (0, "met"),
    "reeb-continuum": (2, "not_asserted"),
}


def read_records(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(q of shape (N, 2n), t of shape (N,), route per record) of records.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    two_n = sum(1 for h in header if h.startswith("q_"))
    q = np.array([[float(v) for v in r[:two_n]] for r in body]).reshape(len(body), two_n)
    t = np.array([float(r[two_n]) for r in body])
    route = [r[header.index("route")] for r in body]
    return q, t, route


def read_report(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                out[key] = value
    return out


def lift_velocity(config: dict, z: np.ndarray) -> np.ndarray:
    """dz/dt of the lifted flow at complex points z of shape (N, n).

    H(z) = |z|^2 h(z/|z|) with h = sum_j c_j |z_j|^2 + sum A Re(z^a zbar^b), so
    each term of degree d lifts to A rho^s Re(z^a zbar^b), s = (2 - d)/2,
    rho = |z|^2.  The flow is dz/dt = pi i G with G_j = 2 dH/dzbar_j, the
    time unit being one Hopf circle (h == 1 gives z -> e^{2 pi i t} z).
    """
    ham = config["hamiltonian"]
    if ham.get("time_profile", "constant") != "constant":
        raise ValueError("only constant time profiles are transcribed")
    c = np.asarray(ham["quadratic"], dtype=float)
    dH = c * z  # d/dzbar_j of sum c_j z_j zbar_j
    rho = np.sum((z * z.conj()).real, axis=1)
    for term in ham.get("perturbations", []):
        amp = term["amplitude"]
        a = np.asarray(term["z_powers"])
        b = np.asarray(term["zbar_powers"])
        s = (2 - int(a.sum() + b.sum())) / 2.0
        mono = np.prod(z**a * z.conj() ** b, axis=1)
        for j in range(z.shape[1]):
            e = np.zeros_like(a)
            e[j] = 1
            # d/dzbar_j of z^a zbar^b and of its conjugate zbar^a z^b
            d_mono = b[j] * np.prod(z**a * z.conj() ** (b - e), axis=1) if b[j] else 0.0
            d_conj = a[j] * np.prod(z.conj() ** (a - e) * z**b, axis=1) if a[j] else 0.0
            dH[:, j] += amp * (
                s * rho ** (s - 1.0) * z[:, j] * mono.real + 0.5 * rho**s * (d_mono + d_conj)
            )
    return math.pi * 1j * 2.0 * dH


def time_one_map(config: dict, q: np.ndarray) -> np.ndarray:
    """Phi(q) for real points q of shape (N, 2n), by DOP853 on all rows at once."""
    N, two_n = q.shape
    n = two_n // 2

    def rhs(_, y):
        x = y.reshape(N, two_n)
        v = lift_velocity(config, x[:, :n] + 1j * x[:, n:])
        return np.concatenate([v.real, v.imag], axis=1).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), q.ravel(), method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(N, two_n)


def fixed_point_residuals(config: dict, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|e^{-2 pi i t} Phi(q) - q| per record."""
    n = q.shape[1] // 2
    phi = time_one_map(config, q)
    zc = (phi[:, :n] + 1j * phi[:, n:]) * np.exp(-2j * np.pi * t)[:, None]
    qc = q[:, :n] + 1j * q[:, n:]
    return np.linalg.norm(zc - qc, axis=1)


def _t_distance(t1, t2):
    d = np.abs(np.asarray(t1) - np.asarray(t2)) % 1.0
    return np.minimum(d, 1.0 - d)


def unpaired_antipodes(q: np.ndarray, t: np.ndarray) -> int:
    """Records with no distinct partner -q at equal t (each partner used once)."""
    used = np.zeros(len(q), dtype=bool)
    for i in range(len(q)):
        if used[i]:
            continue
        near = (np.linalg.norm(q + q[i], axis=1) < PAIR_TOL) & (_t_distance(t, t[i]) < PAIR_TOL)
        near &= ~used
        near[i] = False
        partners = np.flatnonzero(near)
        if len(partners) != 1:
            return int(np.sum(~used))
        used[i] = used[partners[0]] = True
    return 0


def check_run(workload: str, config: dict, records, report, status: int) -> list[str]:
    """Every check of one run; returns the failures, empty when the run passed.

    `records` and `report` are the paths of records.csv and report.txt.
    """
    fails = []
    exit_expected, outcome_expected = EXPECTED[workload]
    rep = read_report(report)
    q, t, route = read_records(records)
    n = config["n"]
    if status != exit_expected or rep.get("exit_status") != str(exit_expected):
        fails.append(f"exit status {status} (report {rep.get('exit_status')}), "
                     f"expected {exit_expected}")
    if rep.get("bound_outcome") != outcome_expected:
        fails.append(f"bound_outcome {rep.get('bound_outcome')}, expected {outcome_expected}")
    if rep.get("index_jump") != str(2 * n):
        fails.append(f"index_jump {rep.get('index_jump')}, expected {2 * n}")
    if len(q) == 0 or rep.get("records") != str(len(q)):
        fails.append(f"{len(q)} records in records.csv, report says {rep.get('records')}")
        return fails
    off_unit = np.abs(np.linalg.norm(q, axis=1) - 1.0) > UNIT_TOL
    if np.any(off_unit):
        fails.append(f"{int(off_unit.sum())} records with |q| != 1")
    resid = fixed_point_residuals(config, q, t)
    if not np.all(resid <= RESIDUAL_TOL):
        fails.append(f"fixed-point residual up to {float(np.max(resid)):.3e} "
                     f"> {RESIDUAL_TOL:g}")

    if workload == "sphere-generic":
        if any(r != "both" for r in route):
            fails.append("a record is not confirmed by both routes")
        if len(q) < 2:
            fails.append(f"{len(q)} translated points, the sphere bound is 2")
    elif workload == "rp3-symmetric":
        unpaired = unpaired_antipodes(q, t)
        if unpaired:
            fails.append(f"{unpaired} records without a unique antipode at equal t")
        classes = len(q) // 2
        if len(q) % 2 or rep.get("projective_count") != str(classes) or classes < 2 * n:
            fails.append(f"projective_count {rep.get('projective_count')} for {len(q)} "
                         f"records, the projective bound is {2 * n}")
    elif workload == "reeb-continuum":
        if rep.get("continuum_suspected") != "true":
            fails.append("the continuum is not flagged")
        c = config["hamiltonian"]["quadratic"]
        if len(set(c)) != 1:
            raise ValueError("the Reeb workload needs equal quadratic weights")
        t_off = _t_distance(t, c[0] % 1.0)
        if not np.all(t_off <= CLOSED_FORM_T_TOL):
            fails.append(f"t off the closed form t = c (mod 1) by {float(t_off.max()):.3e}")
    return fails
