"""Dense convex quadratic programming with optimality certification.

Solves
    min 0.5 x'Qx + c'x
    s.t. A x <= b

with a primal active-set method on an equilibrated copy of the data. The
Hessian Q is diagonal and is given as the 1-d array of its diagonal, whose
entries must be positive and finite, so the optimum is unique. The rows are
inequality rows only: a bound on a variable is a row of A with one nonzero
entry, which the active-set method treats like any other row (Nocedal &
Wright, Numerical Optimization, ch. 16). The caller supplies a feasible
start, and the solver does not search for one: a start that violates a row
by more than FEASIBILITY_TOL is rejected, naming the row.

The work that depends only on the Hessian and the rows is held by a
Structure: the equilibration, the scaled Hessian q_s, and the rows in y =
L'x of Goldfarb & Idnani (1983), where the Hessian is the identity. With
q_s diagonal, L = diag(sqrt(q_s)), so y = L'x only scales each column and
l_inv = 1/sqrt(q_s) scales it back: every product with the Hessian, with L
or with its inverse is elementwise, and no n x n matrix is formed (the
MPC's Hessian, mpc._qp_structure's, is diagonal). A working set is a
sorted tuple of row indices, in solve's input and output alike. A
caller that re-solves one family of problems with new right-hand sides and
costs (the MPC, every hour) builds one Structure and passes it to every
solve; it and its cache (below) live as long as the caller holds it. It
keeps read-only copies of the Hessian and the row matrix, and solve rejects
a problem that does not hold those very arrays, so no factor can go stale.
Without a structure, solve builds one for that solve alone. Each solve
scales its own right-hand side and cost, checks its vectors and the start,
and certifies its result on the full problem.

A caller that solves a family of problems can first offer candidate
working sets, such as the QpSolution.working_set of earlier solves, tried
in order. On a fixed working set the optimum and its multipliers are affine
in (b, c), the critical regions of explicit MPC (Bemporad, Morari, Dua &
Pistikopoulos 2002), so the structure keeps for each set offered as a
candidate the matrix K of that law (_affine_law), the inverse of its KKT
matrix: [x; lam] = K [-c; b_w]. A candidate costs one product with K, then
the excess Ax - b, judged by the solve's one row test: row i holds when its
excess is at most 1e-9 (1/row_scale_i + |b_i|), a relative 1e-9 of the
scaled row in the row's own units. Only then are its multipliers tested, by
the loop's sign test on the scaled gradient col_scale (Qx + c);
on the synthetic hourly year from 0.4 m, 806 of the 1264 rejected candidates
fail a row. The first candidate that passes both is returned, counted as one
iteration, and certified from the same excess and Qx. Only when every
candidate is rejected does the solve start from the caller's start, which
may be given as a function so that it is built only then. A rejected
candidate the structure has seen before costs a dict lookup, the product,
the row test and, when it meets every row, the sign test: about 10-12 us at
the MPC's size on a shared 2-vCPU Xeon, against 27-38 us for a solve that
takes its first candidate and 230-290 us for one from the start, which
takes 4 iterations at the median (medians over every fourth solve of days
104-120 from 1.08 m of the least of five timeit repeats, three runs; the
machine's speed moves by up to 2x). Each solve checks
its cost and right-hand side once, on entry, and builds the law's argument
[-c; b_w] in one buffer; the certification below works on the working rows'
multipliers.

With Z the null-space basis of the working rows in y, the step is the
projection p = -L^-T ZZ' L^-1 g: no reduced Hessian is formed or factored.
A start is judged from one excess Ax0 - b: a row it violates by more than
FEASIBILITY_TOL is named, and the rows that the row test counts as held
with equality (excess at least minus its tolerance) are tight there. The
working-set factor starts as the complete QR of those tight rows, or of a
candidate's rows; when they are dependent (or outnumber the variables), a
pivoted QR first picks an independent subset and that is factored
instead. The structure's one cache, Structure.starts, keeps this factor for
each such tuple of rows it has seen, up to _START_CACHE_BYTES of arrays
(first in, first out; 42-69 kB at the MPC's 72 variables, and a set tried as
a candidate also keeps its packed K, 22-58 kB), so the MPC's hours, which
start from few distinct sets, pay one QR per set rather than one per solve,
whether the set comes first as a candidate or as a start. At the MPC's
24-hour horizon the budget, 128 MiB, holds every set a run meets: the
hourly MPC's 131 sets on the synthetic year from 0.4 m take 12.0 MB, and
the 210 of that year with daily inflow jitter 0.3 (seed 7919) 19.2 MB.
An entry grows with the square of the horizon (5.3 MB at 168 hours), and
the budget, not a count of entries, keeps the cache's memory bounded
there. The cached Q and R are read-only:
the solve only replaces them. The factor is then updated by scipy's
qr_insert and qr_delete (Gill, Golub, Murray & Saunders 1974), and the
triangular solves call LAPACK's trtrs; both skip scipy's argument checks,
which cost more than the work on matrices this small.
At a stationary point, and at the iteration limit, the same factor gives
the exact optimum on the working rows and its multipliers in two
triangular solves (_working_optimum; Nocedal & Wright, Numerical
Optimization, ch. 16), and no KKT matrix is formed. Every working row whose
multiplier is negative is dropped at once, highest position first. Dropping
several rows can steer the next step straight back into one of them. So
when the step after such a drop is blocked at zero length, the solve drops
one row at a time from then on, and it cannot cycle between multi-drops and
re-insertions. A single drop takes the most negative multiplier; among
multipliers within a relative 1e-9 of it (the MPC's hours are alike, so
ties are exact) it takes the row last in the working set, rather than
leaving the choice to rounding. When no multiplier is negative the solve
returns the optimum on the working rows, which clears the drift the steps
inherited from the start, if its excess meets the same row test, and the
iterate otherwise. So the candidates, the start's check and tight rows and
this snap share one excess and one row test, in each row's own units. R is
tested for rank only at the start: a row enters the working set only when
it blocks the step (a.p > 0 with p in the working rows' null space), so it
adds rank, and "optimal" is still decided by the certification below.

Every returned solution carries a KKT residual recomputed on the original,
unscaled problem; `status == "optimal"` is only reported when that residual
passes the certification tolerance. It is computed from the structure's
unscaled rows, the right-hand side and the m-vector of row multipliers
(QpSolution.duals), with one product each way: stationarity max|Qx + c +
A'duals| from A'duals, and primal feasibility, the multipliers' sign and
complementarity from the excess A x - b, the slack's negative (for a
candidate, the Qx and the excess its tests read); the multipliers' sign and
complementarity are read on the working rows only, as every other row's
multiplier is zero. kkt_components and kkt_residual remain the independent
check that the tests run against the solver. Problem sizes are expected to
stay small (tens of variables, low hundreds of constraints), so all linear
algebra is dense.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg

FEASIBILITY_TOL = 1e-8
KKT_TOL = 1e-6
MAX_ITERATIONS = 10_000

# The QR updates without scipy's array validation (the solver passes
# checked, finite float arrays), LAPACK's triangular solve and packing,
# and BLAS's packed product of a matrix equal to its transpose.
_qr_insert = getattr(scipy.linalg.qr_insert, "__wrapped__", scipy.linalg.qr_insert)
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)
(_trtrs, _trttp) = scipy.linalg.get_lapack_funcs(("trtrs", "trttp"), dtype=np.float64)
(_spmv,) = scipy.linalg.get_blas_funcs(("spmv",), dtype=np.float64)


def __getattr__(name: str):
    """qp.linprog, imported only when asked for: nothing here calls it, but
    perfbench/tracer.LAYER_FUNCTIONS wraps it by name, and importing
    scipy.optimize on every import of lakempc costs about a third of a
    second. The hook goes once the benchmark stops naming qp.linprog."""
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _as_matrix(value, n_cols: int) -> np.ndarray:
    if value is None:
        return np.zeros((0, n_cols))
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    return arr.reshape((0, n_cols)) if arr.size == 0 else arr


def _as_vector(value, length: int | None = None) -> np.ndarray:
    if value is None:
        return np.zeros(length or 0)
    return np.atleast_1d(np.asarray(value, dtype=float))


def _every(mask: np.ndarray) -> bool:
    """mask.all() for a boolean array, as a count: ndarray.all's Python
    wrapper costs several times the work at the sizes solved here."""
    return np.count_nonzero(mask) == mask.size


def _is_float_array(value, ndim: int) -> bool:
    return type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == ndim


@dataclass
class QpProblem:
    """Convex QP data: min 0.5 x'Qx + c'x s.t. A x <= b, where hessian is
    the 1-d array of Q's diagonal (Q has no other nonzero entry). A missing
    row block may be passed as None."""

    hessian: np.ndarray
    linear_cost: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Arrays that are already float64 of the right rank (every MPC step's)
        # are kept as they are, which is what the conversions would do.
        if (
            _is_float_array(self.hessian, 1)
            and _is_float_array(self.linear_cost, 1)
            and _is_float_array(self.ineq_matrix, 2)
            and _is_float_array(self.ineq_rhs, 1)
            and self.ineq_matrix.shape[1] == self.linear_cost.size
        ):
            return
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.linear_cost = _as_vector(self.linear_cost)
        self.ineq_matrix = _as_matrix(self.ineq_matrix, self.linear_cost.size)
        self.ineq_rhs = _as_vector(self.ineq_rhs, self.ineq_matrix.shape[0])

    @property
    def n(self) -> int:
        return self.linear_cost.size

    def _check_data(self) -> None:
        """The checks on the vectors, which solve repeats for every problem."""
        if self.n == 0:
            raise ValueError("the problem has no variables (linear_cost is empty)")
        if self.ineq_rhs.shape != (self.ineq_matrix.shape[0],):
            raise ValueError("inequality block dimensions inconsistent")
        # A NaN would pass every comparison below and in the certification.
        # One pass clears a valid problem; only a failing one is diagnosed.
        if _every(np.isfinite(self.linear_cost)) and _every(np.isfinite(self.ineq_rhs)):
            return
        for name, vec, entry in (
            ("linear_cost", self.linear_cost, "variable"),
            ("ineq_rhs", self.ineq_rhs, "row"),
        ):
            ok = np.isfinite(vec)
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"{name} is {vec[i]} at {entry} {i}")

    def _check_matrices(self) -> None:
        """The checks on the Hessian and the rows, which solve runs once per structure."""
        n, h = self.n, self.hessian
        if h.shape != (n,):
            raise ValueError(f"hessian must be the diagonal, of shape ({n},), got {h.shape}")
        if self.ineq_matrix.shape[1] != n:
            raise ValueError("inequality block dimensions inconsistent")
        usable = (h > 0.0) & (h < np.inf)
        if not usable.all():
            i = int(np.argmin(usable))
            raise ValueError(f"hessian is {h[i]} at variable {i}, not positive and finite")

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float((0.5 * x * self.hessian).dot(x) + self.linear_cost.dot(x))


@dataclass
class QpSolution:
    x: np.ndarray
    duals: np.ndarray  # one multiplier per row
    objective: float
    status: str  # "optimal" | "iteration-limit"
    kkt_residual: float
    iterations: int = 0
    message: str = ""
    # The final working rows, a sorted tuple of the Structure's rows; solve
    # accepts it back as a candidate working set.
    working_set: tuple[int, ...] | None = None
    warm_start: bool = False  # a candidate working set was optimal


def kkt_components(problem: QpProblem, solution: QpSolution) -> dict[str, float]:
    """Recompute KKT residual components without trusting the solver."""
    x = np.asarray(solution.x, dtype=float)
    a, b = problem.ineq_matrix, problem.ineq_rhs
    mu = _as_vector(solution.duals, a.shape[0])

    grad = problem.hessian * x
    grad += problem.linear_cost
    if a.shape[0]:
        grad += a.T @ mu
    slack = b - a @ x
    return {
        "stationarity": _worst(np.abs(grad, out=grad)),
        "primal": _worst(-slack),
        "dual": _worst(-mu),
        "complementarity": _worst(np.abs(mu * slack)),
    }


def _worst(*terms: np.ndarray) -> float:
    """The largest entry of the terms, at least 0; NaN when any entry is NaN."""
    return float(np.concatenate(terms).max(initial=0.0))


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Max-norm KKT residual over stationarity, feasibility, dual sign and complementarity.

    NaN when any component is NaN.
    """
    return _worst(np.fromiter(kkt_components(problem, solution).values(), dtype=float))


class Structure:
    """What the solves of one family of problems share: the work that
    depends only on the Hessian and the rows, and the factors the solves
    cache.

    Built from a problem, it serves every problem that holds its hessian and
    ineq_matrix, read-only copies of the problem's (see solve). Each solve
    is certified on the unscaled rows ineq_matrix and their C-contiguous,
    read-only transpose ineq_matrix_t. It holds the rows' equilibration
    (row_norm = 1/row_scale), the scaled Hessian's diagonal q_s, l_inv =
    1/sqrt(q_s), the scaled rows a and the rows in y, a_y, and the solves'
    one cache, starts (_start_factor gives an entry's parts). The
    right-hand side and the linear cost are scaled per solve with row_scale
    and col_scale.
    """

    def __init__(self, problem: QpProblem) -> None:
        """Raises ValueError for dimension errors and a Hessian diagonal
        with an entry that is not positive and finite."""
        problem._check_matrices()
        self.hessian = problem.hessian.copy()
        self.ineq_matrix = a = problem.ineq_matrix.copy()
        self.ineq_matrix_t = np.ascontiguousarray(a.T)
        for matrix in (self.hessian, a, self.ineq_matrix_t):
            matrix.flags.writeable = False

        # One equilibration pass: column scales from the Hessian's diagonal
        # and the rows, then unit inf-norm rows. Keeps mixed-unit problems
        # (storage vs flow columns) within a sane condition number for the
        # QRs of the working rows. x_original = col_scale * x_scaled, and
        # original dual = row_scale * scaled dual.
        col_norm = np.maximum(self.hessian, np.max(np.abs(a), axis=0, initial=0.0))
        self.col_scale = 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))
        a_s = a * self.col_scale[None, :]
        self.row_norm = np.maximum(np.max(np.abs(a_s), axis=1, initial=0.0), 1e-12)
        self.row_scale = 1.0 / self.row_norm
        self.a = a_s * self.row_scale[:, None]

        # y = L'x with L = diag(sqrt(q_s)) (see module docstring); a_y is a
        # in y. + 0.0 writes each -0.0 of a (the negated rows' zeros) as
        # +0.0, as the product with a dense L^-T did: the QR's reflectors
        # follow the sign of a zero.
        self.q_s = self.col_scale * self.hessian * self.col_scale
        self.l_inv = 1.0 / np.sqrt(self.q_s)
        self.a_y = self.a * self.l_inv + 0.0
        # The rows tight at a start, or a candidate working set -> (working
        # rows as a tuple and as an intp array, Q, R, K); see _start_factor.
        # start_bytes counts the entries' arrays.
        self.starts: dict[tuple[int, ...], tuple] = {}
        self.start_bytes = 0


# The bytes of arrays Structure.starts may hold. No entry of a 24-hour MPC
# run exceeds 128 kB, and the synthetic year with daily inflow jitter 0.3
# (seed 7919) caches 19.2 MB in all (see the module docstring).
_START_CACHE_BYTES = 128 * 2**20


def _full_rank(r: np.ndarray, tol: float) -> bool:
    """True when no diagonal entry of the triangular factor r is below tol
    times its largest one (or 1). An empty factor has full rank."""
    diag = np.abs(np.diag(r))
    return diag.size == 0 or float(np.min(diag)) > tol * max(1.0, float(np.max(diag)))


def _solve_upper(r: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with r x = b (trans 0) or r' x = b (trans 1), r upper triangular.

    scipy's triangular solve, called with check_finite=False, bit for bit:
    the same LAPACK call, with its rule for a C-ordered r (solve the
    transposed lower system), without its argument checks.
    """
    if b.size == 0:
        return np.empty_like(b)  # LAPACK rejects an empty system
    if r.flags.f_contiguous:
        x, info = _trtrs(r, b, lower=0, trans=trans)
    else:
        x, info = _trtrs(r.T, b, lower=1, trans=1 - trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed: LAPACK trtrs info {info}")
    return x


def _start_factor(structure: Structure, key: tuple[int, ...], law: bool = False) -> tuple:
    """The working rows and their complete QR in y for the sorted rows key
    (the rows tight at a start, or a candidate working set): (the rows as a
    tuple, the rows as an intp array, Q, R, K), the arrays read-only. K is
    the rows' _affine_law, built the first time it is asked for (law), and
    None before. Kept in structure.starts, so a key seen before costs a
    lookup, and its factor is never built twice.

    When the rows are independent, they are the working rows. Otherwise a
    pivoted QR picks an independent subset, which is then factored; y = L'x
    only scales the columns, so independence in y is independence of the
    rows.

    Raises ValueError, naming key, when a key not seen before is not a
    strictly increasing tuple of integer rows in [0, m).
    """
    start = structure.starts.get(key)
    if start is None:
        m = structure.a.shape[0]
        if not (
            isinstance(key, tuple)
            and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in key)
            and all(i < j for i, j in zip(key, key[1:]))
            and (not key or (0 <= key[0] and key[-1] < m))
        ):
            raise ValueError(
                f"working_set {key!r} is not a strictly increasing tuple of rows in [0, {m})"
            )
        tight = w_rows = np.array(key, dtype=np.intp)
        if tight.size <= structure.a.shape[1]:
            qf, rf = np.linalg.qr(structure.a_y[tight].T, mode="complete")
        if tight.size > structure.a.shape[1] or not _full_rank(rf, 1e-8):
            _, r, piv = scipy.linalg.qr(structure.a[tight].T, pivoting=True, mode="economic")
            diag = np.abs(np.diag(r))
            rank = int(np.sum(diag > 1e-10 * max(1.0, diag[0])))
            w_rows = np.sort(tight[piv[:rank]])
            qf, rf = np.linalg.qr(structure.a_y[w_rows].T, mode="complete")
        for arr in (w_rows, qf, rf):
            arr.flags.writeable = False
        start = (tuple(w_rows.tolist()), w_rows, qf, rf, None)
        _remember(structure, key, start)
    if law and start[4] is None:
        start = (*start[:4], _affine_law(structure, *start[1:4]))
        _remember(structure, key, start)
    return start


def _entry_bytes(entry: tuple) -> int:
    return sum(arr.nbytes for arr in entry[1:] if arr is not None)


def _remember(structure: Structure, key: tuple[int, ...], start: tuple) -> None:
    """Keep start under key in structure.starts (in the place of key's
    entry, if it has one), then drop first-in entries until their arrays
    take at most _START_CACHE_BYTES. An entry larger than the budget alone
    is dropped too; its caller still holds it."""
    starts = structure.starts
    structure.start_bytes += _entry_bytes(start) - _entry_bytes(starts.get(key, ()))
    starts[key] = start
    while structure.start_bytes > _START_CACHE_BYTES and starts:
        structure.start_bytes -= _entry_bytes(starts.pop(next(iter(starts))))


def _affine_law(structure: Structure, rows, qf, rf) -> np.ndarray:
    """K, read-only: the inverse of the rows' KKT matrix [[Q, A_w'], [A_w, 0]]
    (factored in qf and rf), in the problem's units, so that [x; lam] = K
    [-c; b[rows]] are the optimum on the rows and their multipliers. K
    equals its transpose and is kept packed, its lower triangle row by row
    (BLAS's packed upper form), for one spmv product. With D =
    diag(col_scale), S = diag(row_scale[rows]), P = D L^-T Z, V = R^-T S and
    G = D L^-T Q1 V, _working_optimum gives K = [[P P', G], [G', -V'V]];
    L^-T = diag(l_inv) scales the rows of qf."""
    mw = rows.size
    v = _solve_upper(rf[:mw], np.diag(structure.row_scale[rows]), trans=1)
    t = structure.col_scale[:, None] * (structure.l_inv[:, None] * qf)
    g, p = t[:, :mw] @ v, t[:, mw:]
    # LAPACK packs the transpose's upper triangle by columns: K's lower one by rows.
    law = _trttp(np.block([[p @ p.T, g], [g.T, -(v.T @ v)]]).T, uplo="U")[0]
    law.flags.writeable = False
    return law


def _working_optimum(structure, qf, rf, rows, b_s, c_y):
    """The exact optimum on the working rows (the rows factored in qf and
    rf, a sorted sequence) and its multipliers, in scaled units, from the
    working-set factor.

    With A_w' = Q1 R in y, Z the rest of the complete Q, c_y = L^-1 c and
    t = R^-T b_w, the optimum on the rows is y = Q1 t - ZZ'c_y with
    multipliers lam = -R^-1 (t + Q1'c_y)."""
    mw = len(rows)
    r, q1, z = rf[:mw], qf[:, :mw], qf[:, mw:]
    t = _solve_upper(r, b_s[rows], trans=1)
    y = q1 @ t - z @ (z.T @ c_y)
    return structure.l_inv * y, -_solve_upper(r, t + q1.T @ c_y)


def _lam_tol(g: np.ndarray) -> float:
    """The most negative scaled multiplier that counts as nonnegative, for
    the scaled gradient g."""
    return -1e-9 * (1.0 + float(np.abs(g).max(initial=0.0)))


def _unscaled(structure: Structure, x_s: np.ndarray, lam: np.ndarray, rows) -> tuple:
    """x and the working rows' multipliers lam in the problem's units."""
    return structure.col_scale * x_s, structure.row_scale[rows] * lam


def _finish(structure, problem, x, lam, working_set, rows, status, iterations, qx=None,
            grad=None, excess=None, message="", warm_start=False) -> QpSolution:
    """The solution at x, lam the multipliers of the working rows (both
    unscaled, lam scrubbed in place), and its KKT residual: the largest of
    |Qx + c + A'duals|, each row's violation, each negative multiplier and
    |duals * slack|, at least +0.0, and NaN when any is NaN, which is not
    certified. The multipliers and |duals * slack| are taken on the working
    rows: every other row's multiplier is zero. Qx, grad = Qx + c and the
    excess Ax - b, the slack's negative, are computed unless given.

    Here and in solve's candidate test the row products are ndarray.dot:
    the same BLAS call as @, for less of numpy's overhead."""
    c = problem.linear_cost
    if qx is None:
        qx, excess = structure.hessian * x, structure.ineq_matrix.dot(x) - problem.ineq_rhs
        grad = qx + c
    # Scrub multiplier noise: tiny negatives on working rows are numerical,
    # not meaningful. The threshold scales with the largest multiplier.
    if not lam.min(initial=0.0) >= 0.0:
        tiny = 1e-9 * max(1.0, float(np.abs(lam).max()))
        lam[(lam < 0.0) & (lam > -tiny)] = 0.0
    # The multiplier of every row, zero off the working set.
    duals = np.zeros(structure.row_norm.size)
    duals[rows] = lam
    grad += structure.ineq_matrix_t.dot(duals)
    # + 0.0: a zero residual is +0.0 whatever the sign of its zero terms.
    residual = _worst(np.abs(grad, out=grad), excess, -lam, np.abs(lam * excess[rows])) + 0.0
    objective = float(x.dot(0.5 * qx + c))
    # Positional, in QpSolution's field order.
    sol = QpSolution(
        x, duals, objective, status, residual, iterations, message, working_set, warm_start
    )
    if status == "optimal" and not residual <= KKT_TOL:
        sol.status = "iteration-limit"
        sol.message = f"converged but certification failed (kkt residual {sol.kkt_residual:.3e})"
    return sol


def solve(
    problem: QpProblem,
    initial_point: np.ndarray | Callable[[], np.ndarray],
    max_iterations: int = MAX_ITERATIONS,
    working_sets: Sequence[tuple[int, ...]] = (),
    structure: Structure | None = None,
) -> QpSolution:
    """Solve a dense convex QP from a feasible start and certify the result.

    structure is the Structure of a problem of the same family, whose
    cache this solve reads and extends; without one, the solve builds its
    own.

    working_sets are candidate active sets, each a sorted tuple of the
    structure's rows like QpSolution.working_set, tried in order: the
    optimum on the first candidate's rows that meets every row and whose
    multipliers have the right sign is returned as the solution, in one
    iteration (see the module docstring). A rejected candidate costs the
    product of its affine law and the row test, and the sign test when it
    meets every row, plus, the first time the structure sees it, its
    validation, the QR of its rows and its law. Only when every candidate
    is rejected does the solve start from initial_point, an array or a
    function of no arguments that returns one, called only then.
    initial_point must meet every row within FEASIBILITY_TOL; the rows tight
    there seed the working set.

    Raises ValueError for a problem with no variables, a structure whose
    matrices the problem does not hold, dimension errors, a Hessian that is
    not a 1-d diagonal of positive, finite entries, a cost or right-hand
    side entry that is not finite, a candidate not seen before that is not
    a strictly increasing tuple of rows in [0, m) (checked when the
    candidate is reached), and a start that is not of length n, not finite
    or not feasible (the message names its most violated row). The start
    is checked only when it is used.
    """
    problem._check_data()
    n = problem.n
    if structure is None:
        structure = Structure(problem)
    elif problem.hessian is not structure.hessian or problem.ineq_matrix is not structure.ineq_matrix:
        raise ValueError("the problem's hessian and ineq_matrix are not the structure's")
    m = structure.a.shape[0]
    hessian, a = structure.hessian, structure.ineq_matrix
    b, c = problem.ineq_rhs, problem.linear_cost

    # The one row test of the candidates, the start's tight rows and the snap:
    # a row holds when its excess Ax - b is at most 1e-9 (1/row_scale + |b|).
    cand_tol = 1e-9 * (structure.row_norm + np.abs(b))
    # The laws' argument [-c; b[rows]]: -c once, then each candidate's rows.
    law_arg = np.empty(n + m)
    np.negative(c, out=law_arg[:n])
    for candidate in working_sets:
        w_rows, rows, _, _, law = _start_factor(structure, candidate, law=True)
        mw = rows.size
        law_arg[n:n + mw] = b[rows]
        x_lam = _spmv(n + mw, 1.0, law, law_arg)
        x, lam = x_lam[:n], x_lam[n:]
        excess = a.dot(x) - b
        # A NaN fails both tests.
        if not _every(excess <= cand_tol):
            continue
        qx = hessian * x
        grad = qx + c
        if _every(lam >= _lam_tol(structure.col_scale * grad) * structure.row_scale[rows]):
            return _finish(structure, problem, x, lam, w_rows, rows, "optimal", 1, qx, grad, excess,
                           warm_start=True)

    if callable(initial_point):
        initial_point = initial_point()
    x0 = np.asarray(initial_point, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"initial_point must have length {n}, got shape {x0.shape}")
    # A NaN would pass the violation test below, which only compares.
    if not _every(np.isfinite(x0)):
        j = int(np.argmin(np.isfinite(x0)))
        raise ValueError(f"initial_point is not finite at variable {j}")
    # One excess checks the start and picks its tight rows, which seed the working set.
    excess = a.dot(x0) - b
    if excess.max(initial=0.0) > FEASIBILITY_TOL:
        i = int(np.argmax(excess))
        raise ValueError(
            f"initial_point is infeasible: inequality row {i} violated by {excess[i]:.6g}"
        )
    tight = np.flatnonzero(excess >= -cand_tol)
    w_rows, rows, qf, rf, _ = _start_factor(structure, tuple(tight.tolist()))
    w_list = list(w_rows)
    x_s = x0 / structure.col_scale
    q_s, l_inv, a_y = structure.q_s, structure.l_inv, structure.a_y
    b_s = structure.row_scale * b
    c_s = structure.col_scale * c
    c_y = l_inv * c_s

    in_w = np.zeros(m, dtype=bool)
    in_w[rows] = True

    # Drops are multi until a multi-drop is followed by a zero-length step;
    # from then on this solve drops one row at a time.
    single_drop = False
    multi_dropped = False
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        mw = len(w_list)
        g = q_s * x_s + c_s
        g_y = l_inv * g
        z = qf[:, mw:]
        p = -(l_inv * (z @ (z.T @ g_y)))
        p_norm = float(np.abs(p).max(initial=0.0))
        step_tol = 1e-11 * (1.0 + float(np.abs(x_s).max(initial=0.0)))
        if p_norm <= step_tol:
            x_w, lam = _working_optimum(structure, qf, rf, w_list, b_s, c_y)
            lam_tol = _lam_tol(g)
            if lam.size == 0 or lam.min() >= lam_tol:
                # x_w when it holds every row by the one row test (NaN
                # fails), certified from the excess that test read.
                x, lam = _unscaled(structure, x_w, lam, w_list)
                excess = a.dot(x) - b
                if _every(excess <= cand_tol):
                    qx = hessian * x
                    return _finish(structure, problem, x, lam, tuple(w_list), w_list, "optimal",
                                   iterations, qx, qx + c, excess)
                return _finish(structure, problem, structure.col_scale * x_s, lam, tuple(w_list),
                               w_list, "optimal", iterations)
            if single_drop:
                lam_min = float(lam.min())
                drop = np.flatnonzero(lam <= lam_min + 1e-9 * abs(lam_min))[-1:]
            else:
                drop = np.flatnonzero(lam < lam_tol)
            # Highest position first, so the positions still to drop hold.
            for pos in drop[::-1]:
                in_w[w_list.pop(pos)] = False
                qf, rf = _qr_delete(qf, rf, pos, which="col", check_finite=False)
            multi_dropped = drop.size > 1
            continue

        denom = structure.a @ p
        slack = np.maximum(b_s - structure.a @ x_s, 0.0)
        blocking = (~in_w) & (denom > 1e-11 * max(1.0, p_norm))
        if not blocking.any():
            x_s = x_s + p
            multi_dropped = False
            continue
        ratios = np.divide(slack, denom, out=np.full(m, np.inf), where=blocking)
        blocker = int(np.argmin(ratios))
        alpha = float(ratios[blocker])
        if multi_dropped and alpha * p_norm <= step_tol:
            single_drop = True
        multi_dropped = False
        if alpha < 1.0:
            x_s = x_s + alpha * p
            pos = bisect.bisect(w_list, blocker)
            w_list.insert(pos, blocker)
            in_w[blocker] = True
            qf, rf = _qr_insert(qf, rf, a_y[blocker], pos, which="col", check_finite=False)
        else:
            x_s = x_s + p

    lam = _working_optimum(structure, qf, rf, w_list, b_s, c_y)[1]
    x, lam = _unscaled(structure, x_s, lam, w_list)
    return _finish(
        structure, problem, x, lam, tuple(w_list), w_list, "iteration-limit", iterations,
        message="iteration limit reached",
    )
