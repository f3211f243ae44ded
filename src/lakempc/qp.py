"""Dense convex quadratic programming with optimality certification.

Solves
    min 0.5 x'Qx + c'x
    s.t. A x <= b,  lower <= x <= upper

with a primal active-set method on an equilibrated copy of the data. The
Hessian must be positive definite, so the optimum is unique. There are
inequality rows and bounds only. The caller supplies a feasible start, and
the solver does not search for one: a start that, clipped into the bounds,
still violates a row by more than FEASIBILITY_TOL is rejected.

A caller that solves a family of problems can first offer candidate
active sets: working sets in the form of QpSolution.working_set (the rows a
solve ended on), tried in order. For each, the solver computes the optimum
on its rows and their multipliers (_working_optimum, below) from the factor
the structure caches for that set of rows, and returns the first such point,
counted as one iteration, at which every row holds within 1e-9 (1 + |b_i|)
of its own scaled right-hand side and every multiplier passes the loop's
sign test. Only when every candidate is rejected does the solve start from
the caller's start, which may be given as a function so that it is built
only then. Either way the result is certified as below. The structure
(below) also remembers the rows of each candidate it has checked, keyed by
the candidate's bytes, so a candidate seen before costs a dict lookup, the
optimum and the two tests when it is rejected: about 30 us at the MPC's
size on a 2-vCPU Xeon, against 150 us for a solve that takes its first
candidate and 550 us for one from the start.

The work that depends only on the Hessian, the rows and which bounds are
finite is held by a Structure: folding the finite bounds in as rows, the
equilibration, the factor of the scaled Hessian, Q = LL' (it fails unless
the Hessian is positive definite), and the rows in y = L'x of Goldfarb &
Idnani (1983), where the Hessian is the identity. A caller that re-solves
one family of problems with new right-hand sides, costs and bound values
(the MPC, every hour) builds one Structure and passes it to every solve;
it and its caches (below) live as long as the caller holds it. It keeps
read-only copies of the Hessian and the row matrix, and solve rejects a
problem that does not hold those very arrays, so no factor can go stale.
Without a structure, solve builds one for that solve alone. Each solve
scales its own right-hand side and cost, checks its vectors and the
start, and certifies its result on the full problem.

With Z the null-space basis of the working rows in y, the step is the
projection p = -L^-T ZZ' L^-1 g: no reduced Hessian is formed or factored.
The working-set factor starts as the complete QR of the rows tight at the
start; when they are dependent (or outnumber the variables), a pivoted QR
first picks an independent subset and that is factored instead. A
structure keeps this start factor for each set of tight rows it has seen,
and for each candidate's rows (above), up to _START_CACHE_SIZE sets (first
in, first out; about 70 kB each at the MPC's 72 variables), so the MPC's
hours, which start from few distinct sets, pay one QR per set rather than
one per solve. The daily MPC on two jittered years uses 65 sets, so room
for 64 would cost 79 QRs on every pass over them. The cached Q and R are
read-only: the solve only replaces them. The factor is then updated by
scipy's qr_insert and qr_delete (Gill, Golub, Murray & Saunders 1974), and
the triangular solves call LAPACK's trtrs; both skip scipy's argument
checks, which cost more than the work on matrices this small.
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
inherited from the start, if it meets every row by the candidates' test,
and the iterate otherwise. R is tested for rank only at the start: a row
enters the working set only when it blocks the step (a.p > 0 with p in the
working rows' null space), so it adds rank, and "optimal" is still decided
by the certification below.

Every returned solution carries an independently recomputed KKT residual;
`status == "optimal"` is only reported when that residual passes the
certification tolerance. Problem sizes are expected to stay small (tens of
variables, low hundreds of constraints), so all linear algebra is dense.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
# Unused here; perfbench/tracer.LAYER_FUNCTIONS wraps qp.linprog by name.
from scipy.optimize import linprog  # noqa: F401

FEASIBILITY_TOL = 1e-8
KKT_TOL = 1e-6
MAX_ITERATIONS = 10_000

# The QR updates without scipy's array validation (the solver passes
# checked, finite float arrays), and LAPACK's triangular solve.
_qr_insert = getattr(scipy.linalg.qr_insert, "__wrapped__", scipy.linalg.qr_insert)
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)
(_trtrs,) = scipy.linalg.get_lapack_funcs(("trtrs",), dtype=np.float64)

_ROW_INEQ = 0
_ROW_LOWER = 1
_ROW_UPPER = 2


def _as_matrix(value, n_cols: int) -> np.ndarray:
    if value is None:
        return np.zeros((0, n_cols))
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    return arr.reshape((0, n_cols)) if arr.size == 0 else arr


def _as_vector(value, length: int | None = None) -> np.ndarray:
    if value is None:
        return np.zeros(length or 0)
    return np.atleast_1d(np.asarray(value, dtype=float))


@dataclass
class QpProblem:
    """Dense convex QP data. Missing blocks may be passed as None."""

    hessian: np.ndarray
    linear_cost: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.hessian = np.asarray(self.hessian, dtype=float)
        self.linear_cost = _as_vector(self.linear_cost)
        n = self.linear_cost.size
        self.ineq_matrix = _as_matrix(self.ineq_matrix, n)
        self.ineq_rhs = _as_vector(self.ineq_rhs, self.ineq_matrix.shape[0])
        self.lower = np.full(n, -np.inf) if self.lower is None else _as_vector(self.lower)
        self.upper = np.full(n, np.inf) if self.upper is None else _as_vector(self.upper)

    @property
    def n(self) -> int:
        return self.linear_cost.size

    def _check_data(self) -> None:
        """The checks on the vectors, which solve repeats for every problem."""
        n = self.n
        if n == 0:
            raise ValueError("the problem has no variables (linear_cost is empty)")
        if self.ineq_rhs.shape != (self.ineq_matrix.shape[0],):
            raise ValueError("inequality block dimensions inconsistent")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must have length n")
        # Infinite bounds are absent bounds; a NaN anywhere would pass every
        # comparison below and in the certification. (v == v fails only at NaN.)
        for name, vec, entry, ok in (
            ("linear_cost", self.linear_cost, "variable", np.isfinite(self.linear_cost)),
            ("ineq_rhs", self.ineq_rhs, "row", np.isfinite(self.ineq_rhs)),
            ("lower bound", self.lower, "variable", self.lower == self.lower),
            ("upper bound", self.upper, "variable", self.upper == self.upper),
        ):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ValueError(f"{name} is {vec[i]} at {entry} {i}")
        if (self.lower > self.upper).any():
            j = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower bound exceeds upper bound at variable {j}")

    def _check_matrices(self) -> None:
        """The checks on the Hessian and the rows, which solve runs once per structure."""
        n = self.n
        if self.hessian.shape != (n, n):
            raise ValueError(f"hessian shape {self.hessian.shape} does not match n={n}")
        if self.ineq_matrix.shape[1] != n:
            raise ValueError("inequality block dimensions inconsistent")
        scale = max(1.0, float(np.max(np.abs(self.hessian))) if self.hessian.size else 1.0)
        if float(np.max(np.abs(self.hessian - self.hessian.T), initial=0.0)) > 1e-9 * scale:
            raise ValueError("hessian is not symmetric")

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.hessian @ x + self.linear_cost @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    ineq_duals: np.ndarray
    bound_duals: np.ndarray
    objective: float
    status: str  # "optimal" | "iteration-limit"
    kkt_residual: float
    iterations: int = 0
    message: str = ""
    # The final working rows as (inequality rows, variables at their lower
    # bound, variables at their upper bound), in the problem's numbering;
    # solve accepts it back as a candidate working set.
    working_set: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    warm_start: bool = False  # a candidate working set was optimal


def kkt_components(problem: QpProblem, solution: QpSolution) -> dict[str, float]:
    """Recompute KKT residual components without trusting the solver.

    bound_duals holds the net bound multiplier per variable: positive values
    push against the upper bound, negative against the lower.
    """
    x = np.asarray(solution.x, dtype=float)
    q, c = problem.hessian, problem.linear_cost
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    lo, hi = problem.lower, problem.upper
    mu = _as_vector(solution.ineq_duals, a_in.shape[0])
    beta = _as_vector(solution.bound_duals, problem.n)

    grad = q @ x + c
    if a_in.shape[0]:
        grad = grad + a_in.T @ mu
    grad = grad + beta
    slack = b_in - a_in @ x
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    gap_lo = np.where(finite_lo, x - lo, 0.0)
    gap_hi = np.where(finite_hi, hi - x, 0.0)
    return {
        "stationarity": _worst(np.abs(grad)),
        "primal": _worst(-slack, -gap_lo, -gap_hi),
        # A bound multiplier pushing against an absent (infinite) bound is a dual violation.
        "dual": _worst(-mu, np.where(finite_hi, 0.0, beta), np.where(finite_lo, 0.0, -beta)),
        "complementarity": _worst(
            np.abs(mu * slack), np.abs(np.where(beta > 0.0, beta * gap_hi, beta * gap_lo))
        ),
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
    depends only on the Hessian, the rows and which bounds are finite, and
    the factors the solves cache.

    Built from a problem, it serves every problem that holds its hessian and
    ineq_matrix, read-only copies of the problem's, and has finite bounds
    where it has (see solve). It folds the finite bounds in as rows, and
    holds their equilibration and the factor of the scaled Hessian. The
    right-hand side and the linear cost are scaled per solve with row_scale
    and col_scale.
    """

    def __init__(self, problem: QpProblem) -> None:
        """Raises ValueError for dimension errors and a Hessian that is not
        symmetric or not positive definite."""
        problem._check_matrices()
        n, m_in = problem.n, problem.ineq_matrix.shape[0]
        self.hessian = problem.hessian.copy()
        self.ineq_matrix = problem.ineq_matrix.copy()
        self.hessian.flags.writeable = self.ineq_matrix.flags.writeable = False
        self.finite_bounds = _finite_bounds(problem)
        # The variables whose lower and upper bounds are finite, so rows.
        self.finite_lo = finite_lo = np.flatnonzero(np.isfinite(problem.lower))
        self.finite_hi = finite_hi = np.flatnonzero(np.isfinite(problem.upper))
        eye = np.eye(n)
        a_all = np.vstack([self.ineq_matrix, 0.0 - eye[finite_lo], eye[finite_hi]])
        # Each row's origin and its index: the inequality row's, or the
        # variable's for a bound.
        self.kind = np.repeat(
            [_ROW_INEQ, _ROW_LOWER, _ROW_UPPER], [m_in, finite_lo.size, finite_hi.size]
        )
        self.orig_index = np.concatenate([np.arange(m_in), finite_lo, finite_hi])

        # One equilibration pass: column scales from the stacked data, then
        # unit inf-norm rows. Keeps mixed-unit problems (storage vs flow
        # columns) within a sane condition number for the dense
        # factorizations below. x_original = col_scale * x_scaled, and
        # original dual = row_scale * scaled dual.
        col_norm = np.max(np.abs(np.vstack([self.hessian, a_all])), axis=0)
        self.col_scale = 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))
        a_s = a_all * self.col_scale[None, :]
        row_norm = np.max(np.abs(a_s), axis=1, initial=0.0)
        self.row_scale = 1.0 / np.maximum(row_norm, 1e-12)
        self.a = a_s * self.row_scale[:, None]

        # y = L'x with q_s = LL' (see module docstring); a_y is a in y.
        self.q_s = self.col_scale[:, None] * self.hessian * self.col_scale[None, :]
        try:
            l_factor = np.linalg.cholesky(self.q_s)
        except np.linalg.LinAlgError:
            raise ValueError("hessian is not positive definite") from None
        self.l_inv_t = scipy.linalg.solve_triangular(l_factor, eye, lower=True).T
        self.a_y = self.a @ self.l_inv_t
        # Row of each entry of a working set: inequality row i at i, the lower
        # bound of variable j at m_in + j, its upper bound at m_in + n + j; -1
        # where that bound is infinite.
        entries = np.concatenate([np.arange(m_in), m_in + finite_lo, m_in + n + finite_hi])
        self.candidate_row = np.full(m_in + 2 * n, -1)
        self.candidate_row[entries] = np.arange(entries.size)
        # tight.tobytes() -> (working rows, Q, R) of the start (see
        # _start_factor), and the bytes of each part of a candidate working
        # set -> its rows (see _candidate_rows); at most _START_CACHE_SIZE each.
        self.starts: dict[bytes, tuple[tuple[int, ...], np.ndarray, np.ndarray]] = {}
        self.candidates: dict[tuple[bytes, ...], np.ndarray] = {}


_START_CACHE_SIZE = 128


def _finite_bounds(problem: QpProblem) -> bytes:
    """Which of the problem's lower and upper bounds are finite, as bytes."""
    return np.isfinite(problem.lower).tobytes() + np.isfinite(problem.upper).tobytes()


def _max_violation(problem: QpProblem, x: np.ndarray) -> tuple[float, str]:
    """Largest inequality-row violation at x and the row's name.

    The bounds are not checked: solve clips x into them first.
    """
    res = problem.ineq_matrix @ x - problem.ineq_rhs
    if res.size == 0:
        return 0.0, "no row"
    i = int(np.argmax(res))
    return float(res[i]), f"inequality row {i}"


def _full_rank(r: np.ndarray, tol: float) -> bool:
    """True when no diagonal entry of the triangular factor r is below tol
    times its largest one (or 1). An empty factor has full rank."""
    diag = np.abs(np.diag(r))
    return diag.size == 0 or float(np.min(diag)) > tol * max(1.0, float(np.max(diag)))


def _solve_upper(r: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with r x = b (trans 0) or r' x = b (trans 1), r upper triangular.

    scipy.linalg.solve_triangular(r, b, trans=trans, check_finite=False) bit
    for bit: the same LAPACK call, with its rule for a C-ordered r (solve the
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


def _start_factor(
    fold: Structure, tight: np.ndarray
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The initial working rows and their complete QR in y (read-only), from
    the rows tight at the start; kept in fold.starts.

    When the tight rows are independent, they are the working rows.
    Otherwise a pivoted QR picks an independent subset, which is then
    factored; L^-T is nonsingular, so independence in y is independence of
    the rows.
    """
    key = tight.tobytes()
    if key in fold.starts:
        return fold.starts[key]
    w_rows = tight
    if tight.size <= fold.a.shape[1]:
        qf, rf = np.linalg.qr(fold.a_y[tight].T, mode="complete")
    if tight.size > fold.a.shape[1] or not _full_rank(rf, 1e-8):
        _, r, piv = scipy.linalg.qr(fold.a[tight].T, pivoting=True, mode="economic")
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * max(1.0, diag[0])))
        w_rows = np.sort(tight[piv[:rank]])
        qf, rf = np.linalg.qr(fold.a_y[w_rows].T, mode="complete")
    qf.flags.writeable = False
    rf.flags.writeable = False
    start = (tuple(w_rows.tolist()), qf, rf)
    _remember(fold.starts, key, start)
    return start


def _remember(cache: dict, key, value) -> None:
    """cache[key] = value, evicting the oldest entry beyond _START_CACHE_SIZE."""
    cache[key] = value
    if len(cache) > _START_CACHE_SIZE:
        del cache[next(iter(cache))]


def _candidate_rows(problem: QpProblem, fold: Structure, working_set) -> np.ndarray:
    """The sorted rows of fold that working_set names: (inequality rows,
    lower-bound variables, upper-bound variables) in the problem's numbering.

    Raises ValueError naming an index out of range or an infinite bound.
    fold.candidates keeps the rows of each working set checked, read-only.
    """
    parts = [np.asarray(part, dtype=np.intp).reshape(-1) for part in working_set]
    key = tuple(part.tobytes() for part in parts)
    rows = fold.candidates.get(key)
    if rows is not None:
        return rows
    n, m_in = problem.n, problem.ineq_matrix.shape[0]
    names = ("inequality row", "lower bound of variable", "upper bound of variable")
    for name, index, size in zip(names, parts, (m_in, n, n)):
        if index.size and not (index.min() >= 0 and index.max() < size):
            bad = index[(index < 0) | (index >= size)][0]
            raise ValueError(f"working_set {name} {bad} is out of range [0, {size})")
    rows = np.unique(
        fold.candidate_row[np.concatenate([parts[0], parts[1] + m_in, parts[2] + (m_in + n)])]
    )
    if rows.size and rows[0] < 0:
        for name, index, offset in zip(names[1:], parts[1:], (m_in, m_in + n)):
            infinite = index[fold.candidate_row[offset + index] < 0]
            if infinite.size:
                raise ValueError(f"working_set names the {name} {infinite[0]}, which is infinite")
    rows.flags.writeable = False
    _remember(fold.candidates, key, rows)
    return rows


def solve(
    problem: QpProblem,
    initial_point: np.ndarray | Callable[[], np.ndarray],
    max_iterations: int = MAX_ITERATIONS,
    working_sets: Sequence[tuple] = (),
    structure: Structure | None = None,
) -> QpSolution:
    """Solve a dense convex QP from a feasible start and certify the result.

    structure is the Structure of a problem of the same family, whose
    caches this solve reads and extends; without one, the solve builds its
    own.

    working_sets are candidate active sets, each in the form of
    QpSolution.working_set, tried in order: the optimum on the first
    candidate's rows that meets every row and whose multipliers have the
    right sign is returned as the solution, in one iteration (see the module
    docstring). A rejected candidate costs its optimum and two tests, plus, the
    first time the structure sees it, its validation and the QR of its
    rows. Only when every candidate is rejected does the solve start from
    initial_point, an array or a function of no arguments that returns one,
    called only then. initial_point, clipped into the bounds, must meet
    every row within FEASIBILITY_TOL; the rows tight there seed the working
    set.

    Raises ValueError for a problem with no variables, a structure whose
    matrices the problem does not hold or whose finite bounds are not the
    problem's, dimension errors, a Hessian that is not symmetric or not
    positive definite, a cost or right-hand side entry that is not finite, a
    NaN bound (infinite bounds are absent bounds), a candidate that names a
    row out of range or an infinite bound (checked when the candidate is
    reached), and a start that is not of length n, not finite or not
    feasible (the message names its most violated constraint). The start is
    checked only when it is used.
    """
    problem._check_data()
    n = problem.n
    if structure is None:
        structure = Structure(problem)
    elif problem.hessian is not structure.hessian or problem.ineq_matrix is not structure.ineq_matrix:
        raise ValueError("the problem's hessian and ineq_matrix are not the structure's")
    elif _finite_bounds(problem) != structure.finite_bounds:
        raise ValueError("the problem's finite bounds are not the structure's")
    fold = structure
    m = fold.a.shape[0]
    q_s, l_inv_t, a_y = fold.q_s, fold.l_inv_t, fold.a_y
    b_s = fold.row_scale * np.concatenate(
        [problem.ineq_rhs, -problem.lower[fold.finite_lo], problem.upper[fold.finite_hi]]
    )
    c_s = fold.col_scale * problem.linear_cost
    c_y = l_inv_t.T @ c_s
    # A row holds when within this of its own scaled right-hand side.
    row_tol = 1e-9 * (1.0 + np.abs(b_s))

    def _meets_rows(x_s):
        """Whether x_s holds every row, each to its own scale; NaN fails."""
        return bool((fold.a @ x_s - b_s <= row_tol).all())

    def _scaled_grad(x_s):
        return q_s @ x_s + c_s

    def _lam_tol(g):
        """The most negative multiplier that still counts as nonnegative."""
        return -1e-9 * (1.0 + float(np.abs(g).max(initial=0.0)))

    def _finish(x_s, lam, status, iterations, message="", warm_start=False):
        x = fold.col_scale * x_s
        ineq_duals = np.zeros(problem.ineq_matrix.shape[0])
        bound_duals = np.zeros(n)
        rows = np.asarray(w_list, dtype=int)
        vals = fold.row_scale[rows] * lam
        kind, index = fold.kind[rows], fold.orig_index[rows]
        # Scrub multiplier noise: tiny negatives on working rows are
        # numerical, not meaningful. On a bound row, one would push against
        # the opposite bound, which may be absent.
        ineq = kind == _ROW_INEQ
        tiny = 1e-9 * max(1.0, float(np.abs(vals[ineq]).max(initial=0.0)))
        vals[(vals < 0.0) & (vals > -tiny)] = 0.0
        ineq_duals[index[ineq]] = vals[ineq]
        upper, lower = kind == _ROW_UPPER, kind == _ROW_LOWER
        bound_duals[index[upper]] = vals[upper]
        bound_duals[index[lower]] -= vals[lower]
        sol = QpSolution(
            x=x,
            ineq_duals=ineq_duals,
            bound_duals=bound_duals,
            objective=problem.objective_value(x),
            status=status,
            kkt_residual=np.nan,
            iterations=iterations,
            message=message,
            working_set=tuple(index[kind == k] for k in (_ROW_INEQ, _ROW_LOWER, _ROW_UPPER)),
            warm_start=warm_start,
        )
        sol.kkt_residual = kkt_residual(problem, sol)
        if status == "optimal" and not sol.kkt_residual <= KKT_TOL:
            sol.status = "iteration-limit"
            sol.message = f"converged but certification failed (kkt residual {sol.kkt_residual:.3e})"
        return sol

    def _working_optimum():
        """The exact optimum on the working rows and its multipliers, from
        the working-set factor.

        With A_w' = Q1 R in y, Z the rest of the complete Q, c_y = L^-1 c
        and t = R^-T b_w, the optimum on the rows is y = Q1 t - ZZ'c_y with
        multipliers lam = -R^-1 (t + Q1'c_y)."""
        mw = len(w_list)
        z = qf[:, mw:]
        y = -(z @ (z.T @ c_y))
        lam = np.zeros(0)
        if mw:
            r = rf[:mw]
            q1 = qf[:, :mw]
            t = _solve_upper(r, b_s[w_list], trans=1)
            y += q1 @ t
            lam = -_solve_upper(r, t + q1.T @ c_y)
        return l_inv_t @ y, lam

    for working_set in working_sets:
        w_rows, qf, rf = _start_factor(fold, _candidate_rows(problem, fold, working_set))
        w_list = list(w_rows)
        x_s, lam = _working_optimum()
        # A NaN fails both tests.
        if _meets_rows(x_s) and (lam >= _lam_tol(_scaled_grad(x_s))).all():
            return _finish(x_s, lam, "optimal", 1, warm_start=True)

    if callable(initial_point):
        initial_point = initial_point()
    initial_point = np.asarray(initial_point, dtype=float)
    if initial_point.shape != (n,):
        raise ValueError(
            f"initial_point must have length {n}, got shape {initial_point.shape}"
        )
    x0 = np.clip(initial_point, problem.lower, problem.upper)
    # A NaN would pass the violation test below, which only compares.
    if not np.isfinite(x0).all():
        j = int(np.argmin(np.isfinite(x0)))
        raise ValueError(f"initial_point is not finite at variable {j}")
    worst, label = _max_violation(problem, x0)
    if worst > FEASIBILITY_TOL:
        raise ValueError(f"initial_point is infeasible: {label} violated by {worst:.6g}")
    x_s = x0 / fold.col_scale

    # Initial working set: from the rows tight at x0.
    resid = fold.a @ x_s - b_s
    tight = np.flatnonzero(resid >= -row_tol)
    w_rows, qf, rf = _start_factor(fold, tight)
    w_list = list(w_rows)

    in_w = np.zeros(m, dtype=bool)
    in_w[w_list] = True

    # Drops are multi until a multi-drop is followed by a zero-length step;
    # from then on this solve drops one row at a time.
    single_drop = False
    multi_dropped = False
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        mw = len(w_list)
        g = _scaled_grad(x_s)
        g_y = l_inv_t.T @ g
        z = qf[:, mw:]
        p = -(l_inv_t @ (z @ (z.T @ g_y)))
        p_norm = float(np.abs(p).max(initial=0.0))
        step_tol = 1e-11 * (1.0 + float(np.abs(x_s).max(initial=0.0)))
        if p_norm <= step_tol:
            x_w, lam = _working_optimum()
            lam_tol = _lam_tol(g)
            if lam.size == 0 or lam.min() >= lam_tol:
                return _finish(x_w if _meets_rows(x_w) else x_s, lam, "optimal", iterations)
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

        denom = fold.a @ p
        slack = np.maximum(b_s - fold.a @ x_s, 0.0)
        blocking = (~in_w) & (denom > 1e-11 * max(1.0, p_norm))
        if not blocking.any():
            x_s = x_s + p
            multi_dropped = False
            continue
        ratios = np.full(m, np.inf)
        ratios[blocking] = slack[blocking] / denom[blocking]
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

    lam = _working_optimum()[1]
    return _finish(x_s, lam, "iteration-limit", iterations, "iteration limit reached")
