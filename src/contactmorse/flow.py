"""Lifted Hamiltonian flows on R^{2n} minus the origin.

The time variable is a fraction of a Hopf circle: the vector field is the
Hamiltonian field of the degree-2 lift scaled by a single calibration
constant (pi, with our sign conventions) chosen so that h == 1 integrates to
z -> e^{2 pi i t} z.  A dedicated test pins this calibration down.

Integration is a fixed-step explicit Runge-Kutta scheme with the 12-stage,
8th-order Dormand-Prince tableau (DOP853), with the variational equation for
the Jacobian integrated alongside the state.  Step counts come from an
explicit setting, optionally chosen by a halving sweep until successive
refinements agree; nothing here is adaptive, so reruns are bit-stable.  At
the default 16 steps per unit the error over one unit is ~1e-11 on the
corpus specs.

The integrator keeps few numpy calls per stage, since at the batch sizes
of a Newton evaluation their fixed cost dominates.  The state and the
Jacobian share one flat stage buffer, so one weighted sum per stage serves
both.  The field builds its monomials in one table stacked over the
coordinates, one gather and one multiply per degree.  A batch of more than
_ROW_CHUNK rows runs in consecutive chunks of that many rows, which keeps
the stage buffers in cache.  None of this changes a bit: every row is
rounded on its own, by the same operations in the same order.

The field and its Jacobian are compiled once per spec, straight from the
spec terms in real coordinates: the quadratic part is an exact linear map,
and every other term is a polynomial in u = x/|x| times one real matrix.

When h is a quadratic form (every term of degree 2 or 0) the lifted flow is
linear, and so is the scheme: a step multiplies the state by one matrix
(the stability polynomial of the step), and the flow over an interval is
one matrix P, the Jacobian at every point.  P is integrated by the
variational equation on one unit row and memoised with the compiled
tables; a batch is then P z_i row by row, with no stage loop.  It differs
from the stage loop's state by rounding only: at most 1.4e-14 relative on
2,048 random rows over 3 units of the committed Reeb and rp3 specs, at 16
and 512 steps per unit.  The field does not depend on t, so a linear
field's P over k steps of h is the k-th step of one integration whatever
the span, and one integration per step size h serves every span: at 16
steps per unit, the spans 1, 1/2, ..., 1/16 of a subdivision.  Only the
integrator knows that the flow is linear; a matrix derived from P alone is
found by value to be the same on every row where it is used, and computed
once (linsymp.once_if_shared): the C^1 probe's (c1_distance), the leaf
Hessians and the chain pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hamiltonian as ham
from .linsymp import complex_structure_matrix, once_if_shared
from .sampling import sphere_points, subdivision_probe_points

# Calibration constant: with omega = sum dx ^ dy and iota_X omega = dH the
# Hamiltonian field of H = |z|^2 is -2iz; scaling by -pi turns h == 1 into
# the Hopf rotation e^{2 pi i t} the time convention is built on.
FIELD_SCALE = math.pi

# Cap on the steps of one integration.
_MAX_STEPS = 1 << 22

# Jacobians a linear field's memo keeps: a step size's Jacobian after each
# of its steps, and one per span of this many steps or more, so no entry
# holds more.  The oldest entries go first.
_JACOBIAN_MEMO = 4096

# Rows of one integration pass: a larger batch runs as consecutive chunks of
# this many rows, so the stage buffers stay in cache.  Rows are independent,
# so a row's bits do not depend on it.
_ROW_CHUNK = 512


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed step density of the integrator.

    The default 16 steps per unit gives an error of ~1e-11 over one unit on
    the corpus specs; the config value `steps_per_unit: 0` picks a density
    by the `calibrate_steps_per_unit` sweep.
    """

    steps_per_unit: int = 16

    def steps_for(self, span: float) -> int:
        steps = max(1, math.ceil(abs(span) * self.steps_per_unit))
        if steps > _MAX_STEPS:
            raise RuntimeError("step count exceeds cap; span too long or settings too fine")
        return steps


# Points per block of the monomial matrix product.  The product runs in
# blocks of exactly this many points, the last one zero-padded, so BLAS always
# sees one shape and a point's bits do not depend on the batch it came in (a
# plain product of a one-row batch takes another BLAS path and rounds
# differently).
_GEMM_ROWS = 64


def _real_expansion(p, q) -> dict[tuple, complex]:
    """prod_j u_j^p_j conj(u_j)^q_j as {alpha: coefficient} over the real
    monomials u^alpha of the coordinates (x_1..x_n, y_1..y_n) of u."""
    n = len(p)
    poly = {(0,) * (2 * n): 1 + 0j}
    for j in range(n):
        # (x + iy)^a (x - iy)^b = sum C(a,s) C(b,t) i^s (-i)^t x^(a+b-s-t) y^(s+t)
        factor: dict[tuple, complex] = {}
        for s in range(p[j] + 1):
            for t in range(q[j] + 1):
                e = (p[j] + q[j] - s - t, s + t)
                c = math.comb(p[j], s) * math.comb(q[j], t) * 1j**s * (-1j) ** t
                factor[e] = factor.get(e, 0) + c
        grown: dict[tuple, complex] = {}
        for alpha, c in poly.items():
            for (ex, ey), d in factor.items():
                beta = list(alpha)
                beta[j] += ex
                beta[n + j] += ey
                grown[tuple(beta)] = grown.get(tuple(beta), 0) + c * d
        poly = grown
    return {alpha: c for alpha, c in poly.items() if c != 0}


def _parent(alpha: tuple) -> tuple[tuple, int]:
    """(alpha less one in its last nonzero coordinate c, c): the monomial
    u^alpha is built as its parent times u_c."""
    c = max(i for i, e in enumerate(alpha) if e)
    return alpha[:c] + (alpha[c] - 1,) + alpha[c + 1:], c


def _lift_derivatives(a, b) -> dict[tuple, np.ndarray]:
    """Gradient and Hessian of the lift of m = Re(u^a conj(u)^b), per real
    monomial u^alpha of u: {alpha: coefficients in (g, Hessian row-major)}.

    m is a real polynomial, homogeneous of degree d.  Its lift
    |x|^2 m(x/|x|) has gradient |x| g(u) and Hessian g u^T + Dg (I - u u^T)
    at u = x/|x|, with g = (2 - d) u m + grad m; by Euler's identity the
    Hessian is (2 - d) (m I + u grad m^T + grad m u^T - d m u u^T) + Hess m.
    Every coefficient is an integer, so cancellations are exact.
    """
    two_n, d = 2 * len(a), sum(a) + sum(b)
    out: dict[tuple, np.ndarray] = {}

    def add(alpha, col, c):
        if c:
            out.setdefault(alpha, np.zeros(two_n + two_n * two_n))[col] += c

    def step(alpha, k, by):
        return alpha[:k] + (alpha[k] + by,) + alpha[k + 1:]

    for alpha, c in _real_expansion(a, b).items():
        c = c.real
        for i in range(two_n):
            row = two_n + i * two_n
            add(step(alpha, i, 1), i, (2 - d) * c)
            add(alpha, row + i, (2 - d) * c)
            if alpha[i]:
                add(step(alpha, i, -1), i, alpha[i] * c)
            for k in range(two_n):
                add(step(step(alpha, i, 1), k, 1), row + k, -(2 - d) * d * c)
                if alpha[k]:
                    beta = step(alpha, k, -1)
                    # u_i d_k m at (i, k) and, as grad m u^T, at (k, i)
                    add(step(beta, i, 1), row + k, (2 - d) * alpha[k] * c)
                    add(step(beta, i, 1), two_n + k * two_n + i, (2 - d) * alpha[k] * c)
                    if beta[i]:
                        add(step(beta, i, -1), row + k, alpha[k] * beta[i] * c)
    return out


class _RealField:
    """The lifted vector field and its real Jacobian, compiled to real tables.

    The field is FIELD_SCALE * J * grad H, with J the complex structure.  The
    quadratic part is the exact linear field x -> lin x.  Each term's gradient
    is |x| times a polynomial of u = x/|x| and its Hessian a polynomial of u
    (`_lift_derivatives`); the amplitudes and FIELD_SCALE * J fold into one
    real matrix from the real monomials of u to the field and the row-major
    Jacobian, so only the field is scaled by |x|.

    The tables are compiled once per spec; _FieldEval evaluates them.

    The field is linear when no monomial but the constant one feeds the
    Jacobian: then the Jacobian is the same matrix at every point, and so
    is the solution of its variational equation (`jacobian`).
    """

    def __init__(self, spec: ham.ContactHamiltonianSpec):
        n = spec.n
        two_n = 2 * n
        self.n = n
        XJ = FIELD_SCALE * complex_structure_matrix(n)
        # the Hessian of sum_j c_j |z_j|^2 is diag(2c, 2c)
        self.lin = XJ @ np.diag(np.tile(2.0 * np.asarray(spec.quadratic), 2))
        self.lin_T = self.lin.T.copy()

        derivs: dict[tuple, np.ndarray] = {}
        for term in spec.terms:
            for alpha, coef in _lift_derivatives(term.z_powers, term.zbar_powers).items():
                acc = derivs.setdefault(alpha, np.zeros(two_n + two_n * two_n))
                acc += term.amplitude * coef
        rows = {
            alpha: np.concatenate([XJ @ v[:two_n], (XJ @ v[two_n:].reshape(two_n, two_n)).ravel()])
            for alpha, v in derivs.items()
        }
        self.plans = {
            True: self._plan(rows, slice(None)),
            False: self._plan(rows, slice(0, two_n)),
        }
        self.linear = self.plans[True] is None or not np.any(self.plans[True][1][1:, two_n:])
        # step size h -> read-only Jacobians (k + 1, 2n, 2n) after 0..k steps,
        # or (span, steps) -> the one Jacobian (1, 2n, 2n)
        self._jacobians: dict = {}

    def jacobian(self, span: float, steps: int) -> np.ndarray:
        """The Jacobian (2n, 2n) of a linear field's flow over span in steps
        steps, memoised and read-only: the flow itself, which integrate_flow
        applies to every row.

        It is integrated by the variational equation on one unit row.  D is
        the constant monomial's, the same at every point, and J starts at I;
        every later operation is elementwise or a per-row product, so it has
        the bits of every row of a batch integrated with its Jacobian.

        The flow over k steps of h is the same integration whatever the
        span: one integration per step size h keeps its Jacobian after each
        step, and is extended when a longer span asks; each integration
        evaluates D once, at the unit row (_ConstantField).  A span of
        _JACOBIAN_MEMO steps or more keeps only its last Jacobian, per
        (span, steps).
        """
        m = 2 * self.n
        h = span / steps
        if steps < _JACOBIAN_MEMO:
            done = self._jacobians.get(h, np.eye(m)[None])
            if len(done) <= steps:
                more = _unit_row_jacobians(_ConstantField(self), done[-1], h,
                                           steps + 1 - len(done), every=True)
                self._jacobians.pop(h, None)
                done = self._remember(h, np.concatenate([done, more]))
            return done[steps]
        if (span, steps) not in self._jacobians:
            self._remember((span, steps),
                           _unit_row_jacobians(_ConstantField(self), np.eye(m), h, steps))
        return self._jacobians[span, steps][0]

    def _remember(self, key, jacobians: np.ndarray) -> np.ndarray:
        """Memoise the stack jacobians read-only under key, the newest
        entry, and drop the oldest ones while the memo holds more than
        _JACOBIAN_MEMO Jacobians."""
        jacobians.flags.writeable = False
        self._jacobians[key] = jacobians
        held = sum(map(len, self._jacobians.values()))
        while held > _JACOBIAN_MEMO and len(self._jacobians) > 1:
            held -= len(self._jacobians.pop(next(iter(self._jacobians))))
        return jacobians

    def _plan(self, rows: dict, cols: slice):
        """Monomial recipe and matrix for the output columns cols, or None
        when no monomial feeds them.

        The monomials are the needed ones and their ancestors, sorted by
        degree, the constant first.  They are rows [0, K) of a table whose
        rows K.. hold the coordinates of u; a level is (start, stop, gather),
        monomial start + i being table row gather[i] times table row
        gather[w + i], w = stop - start.
        """
        needed = {alpha for alpha, row in rows.items() if np.any(row[cols])}
        if not needed:
            return None
        closure = {(0,) * 2 * self.n}
        for alpha in needed:
            while alpha not in closure:
                closure.add(alpha)
                alpha = _parent(alpha)[0]
        order = sorted(closure, key=lambda alpha: (sum(alpha), alpha))
        index = {alpha: i for i, alpha in enumerate(order)}
        levels = []
        start = 1
        for d in range(1, sum(order[-1]) + 1):
            stop = start + sum(1 for alpha in order if sum(alpha) == d)
            links = [_parent(alpha) for alpha in order[start:stop]]
            gather = [index[p] for p, _ in links] + [len(order) + c for _, c in links]
            levels.append((start, stop, np.array(gather)))
            start = stop
        zero = np.zeros(next(iter(rows.values())).size)
        mat = np.array([rows.get(alpha, zero)[cols] for alpha in order])
        return levels, mat


class _FieldEval:
    """The compiled field of one spec at batches of B points, with scratch
    arrays allocated once for all the evaluations of an integration.

    The monomials are built degree by degree, each one its parent times one
    coordinate, in one table with the points along the last axis: the
    monomials first (the matrix product's input), then the coordinates of
    u, so that a level is one gather and one multiply.  Every step is a
    single float64 multiply, and the matrix product runs in fixed blocks,
    so a point's bits do not depend on its batch.  |x|^2 is summed over the
    padded width, coordinate after coordinate.
    """

    def __init__(self, tables: _RealField, B: int, with_jacobian: bool):
        self.tables = tables
        plan = tables.plans[with_jacobian]
        two_n = 2 * tables.n
        padded = -(-B // _GEMM_ROWS) * _GEMM_ROWS
        monomials = 0 if plan is None else len(plan[1])
        # the padding points stay at zero
        table = np.zeros((monomials + two_n, padded))
        self.uT = table[monomials:]
        self.uT_rows = self.uT[:, :B]
        self.squares = np.empty((two_n, padded))
        self.norm2 = np.empty(padded)
        self.radial = np.empty((B, two_n))
        self.mat = None
        if plan is not None:
            levels, self.mat = plan
            table[0] = 1.0  # the constant monomial
            gathered = np.empty((max(len(g) for _, _, g in levels), padded))
            # per level: the gather and its output, the multiply's operands
            # (parents, coordinates) and its output
            self.levels = []
            for start, stop, gather in levels:
                pairs, w = gathered[:len(gather)], stop - start
                self.levels.append((gather, pairs, pairs[:w], pairs[w:], table[start:stop]))
            self.table = table
            blocks = padded // _GEMM_ROWS
            by_block = table[:monomials].reshape(monomials, blocks, _GEMM_ROWS)
            self.blocks = by_block.transpose(1, 2, 0)  # (blocks, _GEMM_ROWS, monomials)
            self.out = np.empty((blocks, _GEMM_ROWS, self.mat.shape[1]))
            products = self.out.reshape(padded, -1)[:B]
            self.field_part = products[:, :two_n]
            if with_jacobian:
                self.jac_part = products[:, two_n:].reshape(B, two_n, two_n)

    def __call__(self, x: np.ndarray, field: np.ndarray, jac=None) -> None:
        """Write the field at real points x (B, 2n) into field (B, 2n) and,
        when the Jacobian was asked for, the Jacobian into jac (B, 2n, 2n)."""
        tables = self.tables
        uT = self.uT_rows
        np.copyto(uT, x.T)
        # over all the padded points: a reduction across one point would sum
        # pairwise, not coordinate after coordinate
        np.multiply(self.uT, self.uT, out=self.squares)
        r = np.add.reduce(self.squares, axis=0, out=self.norm2)[:len(x)]
        if not (r.min(initial=np.inf) > 0.0 and r.max(initial=1.0) < np.inf):
            raise ValueError("the lifted Hamiltonian is undefined at z = 0")
        np.matmul(x, tables.lin_T, out=field)
        if self.mat is not None:
            np.sqrt(r, out=r)
            np.divide(uT, r, out=uT)
            self._monomials()
            field += np.multiply(r[:, None], self.field_part, out=self.radial)
            if jac is not None:
                np.add(self.jac_part, tables.lin, out=jac)
        elif jac is not None:
            jac[...] = tables.lin

    def _monomials(self) -> None:
        """Build the monomials of uT and their matrix outputs, into out."""
        table = self.table
        for gather, pairs, parents, coords, level in self.levels:
            table.take(gather, axis=0, out=pairs, mode="wrap")
            np.multiply(parents, coords, out=level)
        np.matmul(self.blocks, self.mat, out=self.out)


class _ConstantField:
    """A linear field x -> D x for _dop853, called as a _FieldEval of one
    row is: D, the same at every point, is evaluated once, by the compiled
    field at the unit row."""

    def __init__(self, tables: _RealField):
        m = 2 * tables.n
        self.D = np.empty((1, m, m))
        _FieldEval(tables, 1, True)(np.eye(1, m), np.empty((1, m)), self.D)
        self.D_T = self.D[0].T.copy()

    def __call__(self, x: np.ndarray, field: np.ndarray, jac=None) -> None:
        np.matmul(x, self.D_T, out=field)
        if jac is not None:
            jac[...] = self.D


def _unit_row_jacobians(field, start: np.ndarray, h: float, steps: int,
                        every: bool = False) -> np.ndarray:
    """The Jacobian of field's flow from start (2n, 2n) over steps steps of
    h, by the variational equation on a unit row: after each step
    (steps, 2n, 2n) when every, else after the last (1, 2n, 2n).  J' = D J
    does not read the state, so the row's own state need not be carried."""
    m = start.shape[-1]
    jac = start[None].copy()
    trace = np.empty((steps, 1, m, m)) if every else None
    _dop853(field, np.eye(1, m), jac, h, steps, trace=trace)
    return jac if trace is None else trace[:, 0]


@lru_cache(maxsize=64)
def _real_field(spec: ham.ContactHamiltonianSpec) -> _RealField:
    return _RealField(spec)


def integrate_flow(
    spec: ham.ContactHamiltonianSpec,
    z0: np.ndarray,
    t0: float,
    t1: float,
    settings: IntegratorSettings = IntegratorSettings(),
    with_jacobian: bool = True,
):
    """Integrate the lifted flow from t0 to t1.  The field does not depend
    on t, so only the span t1 - t0 matters.

    z0: real coordinates, shape (2n,) or (B, 2n).  Returns (z1, jac) with jac
    None when with_jacobian is False.  The Jacobian solves the variational
    equation dJ/dt = DX(z(t)) J, J(t0) = I.  A linear field's flow is its
    one memoised Jacobian P (_RealField.jacobian): every row z_i becomes
    P z_i, and P is the Jacobian.  A nonlinear batch of more than
    _ROW_CHUNK rows runs as consecutive chunks of that many rows.  Either
    way a row's result does not depend on the other rows of the batch.  A
    zero span returns the rows and the identity Jacobian.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    z0 = np.asarray(z0, dtype=float)
    single = z0.ndim == 1
    z = (z0[None, :] if single else z0).copy()
    B, two_n = z.shape
    norms0 = np.linalg.norm(z, axis=1)
    if np.any(norms0 == 0.0):
        raise ValueError("flow is undefined at z = 0")

    jac = np.broadcast_to(np.eye(two_n), (B, two_n, two_n)).copy() if with_jacobian else None
    span = t1 - t0
    if span != 0.0:
        steps = settings.steps_for(span)
        tables = _real_field(spec)
        if tables.linear:
            if not np.all(np.isfinite(norms0)):
                raise ValueError("flow is undefined at non-finite z")
            flow_map = tables.jacobian(span, steps)
            z = _apply_rows(flow_map, z)
            if with_jacobian:
                jac[...] = flow_map
        else:
            for start in range(0, B, _ROW_CHUNK):
                rows = slice(start, start + _ROW_CHUNK)
                field = _FieldEval(tables, len(z[rows]), with_jacobian)
                _dop853(field, z[rows], None if jac is None else jac[rows], span / steps, steps)
        if np.any(np.linalg.norm(z, axis=1) < 1e-9 * norms0):
            raise RuntimeError("trajectory norm collapsed toward the cone tip")
    if single:
        return z[0], (jac[0] if with_jacobian else None)
    return z, jac


def _apply_rows(P: np.ndarray, z: np.ndarray) -> np.ndarray:
    """P z_i for every row z_i of z (B, m): the products z_ik P_jk summed over
    k, one column after another, so that a row's bits do not depend on its
    batch (a BLAS product of a one-row batch rounds differently)."""
    return np.add.reduce(np.multiply(z.T[:, :, None], P.T[:, None, :]), axis=0)


# The Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, section II.10): nodes c_s of the 12
# stages, the nonzero (j, a_sj) of each stage row, and the nonzero (j, b_j)
# of the 8th-order solution.  Only the 8th-order solution is used, at a fixed
# step: no error estimate, no dense output.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_A = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_B = (
    (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259),
)


def _dop853(field: _FieldEval, z: np.ndarray, jac, h: float, steps: int,
            trace=None) -> None:
    """Fixed-step DOP853 of the real state z (B, m) and, unless jac is None,
    of the variational equation, in place; trace, when given, (steps, B, m,
    m) receives the Jacobian after each step.

    The state and the Jacobian are integrated as one flat array
    [B m | B m m], with contiguous (B, m) and (B, m, m) views, so that one
    weighted sum per stage serves both.  The stage buffers are allocated
    once."""
    B, m = z.shape
    carry = jac is not None
    hA = [[(j, h * w) for j, w in row] for row in _A]
    hB = [(j, h * w) for j, w in _B]
    y = np.concatenate([z.ravel(), jac.ravel()] if carry else [z.ravel()])
    k = np.empty((len(_C), y.size))
    arg, tmp = np.empty_like(y), np.empty_like(y)
    D = np.empty((B, m, m)) if carry else None
    # the (state, Jacobian) views of y, of arg and of each stage's k
    views = [_split(flat, B, m, carry) for flat in (y, arg, *k)]
    for i in range(steps):
        for s in range(len(_C)):
            if s:
                np.add(y, _weighted_sum(k, hA[s], arg, tmp), out=arg)
            x, J = views[1 if s else 0]
            fx, fJ = views[2 + s]
            field(x, fx, D)
            if carry:
                np.matmul(D, J, out=fJ)
        y += _weighted_sum(k, hB, arg, tmp)
        if trace is not None:
            trace[i] = views[0][1]
    x, J = views[0]
    z[...] = x
    if carry:
        jac[...] = J


def _split(flat: np.ndarray, B: int, m: int, with_jacobian: bool):
    """The state (B, m) and Jacobian (B, m, m) views of a flat [B m | B m m]
    array; the Jacobian view is None without the Jacobian."""
    x = flat[:B * m].reshape(B, m)
    return x, (flat[B * m:].reshape(B, m, m) if with_jacobian else None)


def _weighted_sum(k: np.ndarray, terms, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_j w_j k[j] over the (j, w_j) of terms, into out: one multiply and
    one add per term, in order, so each entry is rounded on its own."""
    (j, w), rest = terms[0], terms[1:]
    np.multiply(k[j], w, out=out)
    for j, w in rest:
        out += np.multiply(k[j], w, out=tmp)
    return out


# Agreement tolerance of the calibration sweep.
_CALIBRATION_TOL = 1e-10


def calibrate_steps_per_unit(spec: ham.ContactHamiltonianSpec) -> int:
    """Halving sweep: double the step density from 8 steps per unit until
    successive results agree.

    Returns the finer density of the first agreeing pair, or 2^15 when none
    agrees by then.  Agreement is the max state difference of the time-1 map
    over a fixed probe set of unit points, within _CALIBRATION_TOL.
    """
    probes = sphere_points(8, 2 * spec.n)
    density = 8
    prev, _ = integrate_flow(
        spec, probes, 0.0, 1.0, IntegratorSettings(steps_per_unit=density), with_jacobian=False
    )
    while density < 1 << 15:
        density *= 2
        cur, _ = integrate_flow(
            spec, probes, 0.0, 1.0, IntegratorSettings(steps_per_unit=density),
            with_jacobian=False,
        )
        if float(np.max(np.abs(cur - prev))) <= _CALIBRATION_TOL:
            return density
        prev = cur
    return density


def _leg_opnorms(jac_m: np.ndarray, jac_2: np.ndarray) -> np.ndarray:
    """||DPhi - I||_2 (R, 2) of each row's flow to the midpoint, DPhi =
    jac_m, and to the end, DPhi = jac_2 jac_m."""
    legs = np.stack([jac_m, jac_2 @ jac_m], axis=1) - np.eye(jac_m.shape[-1])
    return np.linalg.svd(legs, compute_uv=False)[..., 0]


def c1_distance(
    spec: ham.ContactHamiltonianSpec,
    span: float,
    settings: IntegratorSettings,
    samples: np.ndarray,
) -> float:
    """max over samples of |Phi(q) - q| + ||DPhi(q) - I||_2 for the flow
    over span.

    Evaluated at half the span as well as at the whole: a loop closed up
    inside the piece would otherwise alias to the identity and pass.  A
    Jacobian every sample shares (a linear flow's) is normed once per leg
    (once_if_shared), with the bits of each row's.
    """
    half = 0.5 * span
    z_m, jac_m = integrate_flow(spec, samples, 0.0, half, settings, with_jacobian=True)
    z_e, jac_2 = integrate_flow(spec, z_m, 0.0, half, settings, with_jacobian=True)
    move = np.stack([np.linalg.norm(z - samples, axis=1) for z in (z_m, z_e)], axis=1)
    return float(np.max(move + once_if_shared(_leg_opnorms, jac_m, jac_2)))


# Cap on the halving: a flow whose pieces still fail the criterion at more
# than this many pieces raises.
_MAX_PIECES = 4096


def subdivide_c1_small(
    spec: ham.ContactHamiltonianSpec,
    delta: float,
    settings: IntegratorSettings = IntegratorSettings(),
) -> int:
    """Number L = 2^j of equal C^1-small pieces of the time-1 flow, j the
    first level of halving whose pieces pass.

    A piece of span 1/L passes the sampled criterion when
    max_q (|Phi(q) - q| + ||DPhi(q) - I||) < delta over the fixed
    deterministic unit points of subdivision_probe_points.  The field does
    not depend on t, so every piece of a level is the same flow, and each
    level is probed once.  Raises when the pieces still fail at more than
    _MAX_PIECES pieces (delta too small or the flow too fast), also when
    the distance is NaN.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    # The criterion is compared against delta ~ O(1); 16 steps per unit
    # (error ~1e-11 over a unit) are plenty and keep the probes cheap.
    probe_settings = IntegratorSettings(steps_per_unit=min(settings.steps_per_unit, 16))
    samples = subdivision_probe_points(spec.n)
    pieces = 1
    while not c1_distance(spec, 1.0 / pieces, probe_settings, samples) < delta:
        if pieces > _MAX_PIECES:
            raise RuntimeError(
                "C1-small subdivision exceeded the piece cap; "
                "increase delta or the cap"
            )
        pieces *= 2
    return pieces
