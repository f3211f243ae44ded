"""Dense convex quadratic programming with optimality certification.

Solves
    min 0.5 x'Qx + c'x
    s.t. A x <= b,  lower <= x <= upper

with a primal active-set method on an equilibrated copy of the data. The
Hessian must be positive definite, so the optimum is unique. There are
inequality rows and bounds only. The caller supplies a feasible start, and
the solver does not search for one: a start that, clipped into the bounds,
still violates a row by more than FEASIBILITY_TOL is rejected.

The work that depends only on the Hessian, the rows and which bounds are
finite is held by a Structure: folding the finite bounds in as rows, the
equilibration, the factor of the scaled Hessian, Q = LL' (it fails unless
the Hessian is positive definite), and the rows in y = L'x of Goldfarb &
Idnani (1983), where the Hessian is the identity. Its rows are the
inequality rows first, then one row per finite lower bound, then one per
finite upper bound, each block in variable order. A working set is a
sorted tuple of these rows, in solve's input and output alike. A caller
that re-solves one family of problems with new right-hand sides, costs and
bound values (the MPC, every hour) builds one Structure and passes it to
every solve; it and its cache (below) live as long as the caller holds it.
It keeps read-only copies of the Hessian and the row matrix, and solve
rejects a problem that does not hold those very arrays, so no factor can go
stale. Without a structure, solve builds one for that solve alone. Each
solve scales its own right-hand side and cost, checks its vectors and the
start, and certifies its result on the full problem.

A caller that solves a family of problems can first offer candidate
working sets, such as the QpSolution.working_set of earlier solves, tried
in order. For each, the solver computes the optimum on its rows
(_working_optimum, below) from the factor the structure caches for them,
and tests it first against every row: each must hold within 1e-9
(1 + |b_i|) of its own scaled right-hand side. Only an optimum that passes
gets its multipliers, which must pass the loop's sign test; on the MPC's
synthetic hourly year, 1260 of the 1270 rejected candidates fail a row.
The first candidate that passes both is returned, counted as one
iteration. Only when every candidate is rejected does the solve start from
the caller's start, which may be given as a function so that it is built
only then. Either way the result is certified as below. A candidate the
structure has seen before costs a dict lookup, the optimum and the row
test when it fails a row: about 25-30 us at the MPC's size on a shared
2-vCPU Xeon, against 125-145 us for a solve that takes its first candidate
and 520-610 us for one from the start (timeit medians over the solves of
days 104-120 from 1.08 m; the machine's speed moves by up to 2x).

With Z the null-space basis of the working rows in y, the step is the
projection p = -L^-T ZZ' L^-1 g: no reduced Hessian is formed or factored.
The working-set factor starts as the complete QR of the rows tight at the
start, or of a candidate's rows; when they are dependent (or outnumber the
variables), a pivoted QR first picks an independent subset and that is
factored instead. The structure's one cache, Structure.starts, keeps this
factor for each such tuple of rows it has seen, up to _START_CACHE_SIZE
(first in, first out; about 70 kB each at the MPC's 72 variables), so the
MPC's hours, which start from few distinct sets, pay one QR per set rather
than one per solve. The daily MPC on two jittered years uses 65 sets, so
room for 64 would cost 79 QRs on every pass over them. The cached Q and R
are read-only: the solve only replaces them. The factor is then updated by
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

Every returned solution carries a KKT residual recomputed on the original,
unscaled problem; `status == "optimal"` is only reported when that residual
passes the certification tolerance. It is computed from the structure's
unscaled stacked rows A_all = [A; -I_lo; I_hi] (Structure.a_all), their
right-hand side b_all and the m-vector of row multipliers, with one product
each way: stationarity max|Qx + c + A_all'duals| from A_all'duals, and
primal feasibility, the multipliers' sign and complementarity from the
slack b_all - A_all x. kkt_components and kkt_residual remain the
independent check, on the netted bound multipliers of QpSolution, that the
tests run against the solver; the stacked residual is never below theirs
(see _finish). Problem sizes are expected to stay small (tens of
variables, low hundreds of constraints), so all linear algebra is dense.
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
# checked, finite float arrays), and LAPACK's triangular solve.
_qr_insert = getattr(scipy.linalg.qr_insert, "__wrapped__", scipy.linalg.qr_insert)
_qr_delete = getattr(scipy.linalg.qr_delete, "__wrapped__", scipy.linalg.qr_delete)
(_trtrs,) = scipy.linalg.get_lapack_funcs(("trtrs",), dtype=np.float64)


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


def _is_float_array(value, ndim: int) -> bool:
    return type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == ndim


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
        # Arrays that are already float64 of the right rank (every MPC step's)
        # are kept as they are, which is what the conversions would do.
        if (
            _is_float_array(self.hessian, 2)
            and _is_float_array(self.linear_cost, 1)
            and _is_float_array(self.ineq_matrix, 2)
            and _is_float_array(self.ineq_rhs, 1)
            and _is_float_array(self.lower, 1)
            and _is_float_array(self.upper, 1)
            and self.ineq_matrix.shape[1] == self.linear_cost.size
        ):
            return
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
        # comparison below and in the certification. lower <= upper fails at
        # a NaN bound too, so one pass clears a valid problem, and only a
        # failing one is diagnosed entry by entry. (v == v fails only at NaN.)
        if (
            np.isfinite(self.linear_cost).all()
            and np.isfinite(self.ineq_rhs).all()
            and (self.lower <= self.upper).all()
        ):
            return
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
    # The final working rows, a sorted tuple of the Structure's rows; solve
    # accepts it back as a candidate working set.
    working_set: tuple[int, ...] | None = None
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

    grad = q @ x
    grad += c
    if a_in.shape[0]:
        grad += a_in.T @ mu
    grad += beta
    slack = b_in - a_in @ x
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    gap_lo = np.where(finite_lo, x - lo, 0.0)
    gap_hi = np.where(finite_hi, hi - x, 0.0)
    return {
        "stationarity": float(np.abs(grad, out=grad).max(initial=0.0)),
        "primal": -float(np.concatenate([slack, gap_lo, gap_hi]).min(initial=0.0)),
        # A bound multiplier pushing against an absent (infinite) bound is a dual violation.
        "dual": _worst(-mu, np.where(finite_hi, 0.0, beta), np.where(finite_lo, 0.0, -beta)),
        "complementarity": float(
            np.abs(np.concatenate([mu * slack, beta * np.where(beta > 0.0, gap_hi, gap_lo)]))
            .max(initial=0.0)
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
    where it has (see solve). Its rows are the inequality rows, then one
    per finite lower bound (of the variables finite_lo), then one per finite
    upper bound (finite_hi): unscaled and read-only, a_all = [A; -I_lo;
    I_hi] and its C-contiguous transpose a_all_t, on which each solve is
    certified. It holds their equilibration and the factor of the scaled
    Hessian, and the solves' one cache, starts (_start_factor).
    The right-hand side and the linear cost are scaled per solve with
    row_scale and col_scale.
    """

    def __init__(self, problem: QpProblem) -> None:
        """Raises ValueError for dimension errors and a Hessian that is not
        symmetric or not positive definite."""
        problem._check_matrices()
        n = problem.n
        self.hessian = problem.hessian.copy()
        self.ineq_matrix = problem.ineq_matrix.copy()
        self.hessian.flags.writeable = self.ineq_matrix.flags.writeable = False
        self.finite_bounds = _finite_bounds(problem)
        # The variables whose lower and upper bounds are finite, so rows.
        self.finite_lo = finite_lo = np.flatnonzero(np.isfinite(problem.lower))
        self.finite_hi = finite_hi = np.flatnonzero(np.isfinite(problem.upper))
        eye = np.eye(n)
        # The unscaled rows, and their transpose, certify each solve (_finish).
        self.a_all = a_all = np.vstack([self.ineq_matrix, 0.0 - eye[finite_lo], eye[finite_hi]])
        self.a_all_t = np.ascontiguousarray(a_all.T)
        a_all.flags.writeable = self.a_all_t.flags.writeable = False

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
        # The rows tight at a start, or a candidate working set -> (working
        # rows as a tuple and as an intp array, Q, R).
        self.starts: dict[tuple[int, ...], tuple] = {}


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
    fold: Structure, key: tuple[int, ...]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The working rows and their complete QR in y for the sorted rows key
    (the rows tight at a start, or a candidate working set): (the rows as a
    tuple, the rows as an intp array, Q, R), the arrays read-only. Kept in
    fold.starts, so a key seen before costs a lookup.

    When the rows are independent, they are the working rows. Otherwise a
    pivoted QR picks an independent subset, which is then factored; L^-T is
    nonsingular, so independence in y is independence of the rows.

    Raises ValueError, naming key, when a key not seen before is not a
    strictly increasing tuple of integer rows in [0, m).
    """
    start = fold.starts.get(key)
    if start is not None:
        return start
    m = fold.a.shape[0]
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
    if tight.size <= fold.a.shape[1]:
        qf, rf = np.linalg.qr(fold.a_y[tight].T, mode="complete")
    if tight.size > fold.a.shape[1] or not _full_rank(rf, 1e-8):
        _, r, piv = scipy.linalg.qr(fold.a[tight].T, pivoting=True, mode="economic")
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * max(1.0, diag[0])))
        w_rows = np.sort(tight[piv[:rank]])
        qf, rf = np.linalg.qr(fold.a_y[w_rows].T, mode="complete")
    for arr in (w_rows, qf, rf):
        arr.flags.writeable = False
    start = (tuple(w_rows.tolist()), w_rows, qf, rf)
    fold.starts[key] = start
    if len(fold.starts) > _START_CACHE_SIZE:
        del fold.starts[next(iter(fold.starts))]
    return start


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
    iteration (see the module docstring). A rejected candidate costs its
    optimum and the row test, and its multipliers and their sign test when
    it meets every row, plus, the first time the structure sees it, its
    validation and the QR of its rows. Only when every candidate is rejected
    does the solve start from initial_point, an array or a function of no
    arguments that returns one, called only then. initial_point, clipped
    into the bounds, must meet every row within FEASIBILITY_TOL; the rows
    tight there seed the working set.

    Raises ValueError for a problem with no variables, a structure whose
    matrices the problem does not hold or whose finite bounds are not the
    problem's, dimension errors, a Hessian that is not symmetric or not
    positive definite, a cost or right-hand side entry that is not finite, a
    NaN bound (infinite bounds are absent bounds), a candidate not seen
    before that is not a strictly increasing tuple of rows in [0, m) (checked
    when the candidate is reached; m counts the rows and the finite bounds),
    and a start that is not of length n, not finite or not feasible (the
    message names its most violated constraint). The start is checked only
    when it is used.
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
    m, m_in, n_lo = fold.a.shape[0], problem.ineq_matrix.shape[0], fold.finite_lo.size
    q_s, l_inv_t, a_y = fold.q_s, fold.l_inv_t, fold.a_y
    b_all = np.concatenate(
        [problem.ineq_rhs, -problem.lower[fold.finite_lo], problem.upper[fold.finite_hi]]
    )
    b_s = fold.row_scale * b_all
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

    def _finish(x_s, lam, working_set, rows, status, iterations, message="", warm_start=False):
        """The solution at x_s, lam the multipliers of the working rows, and
        its KKT residual on the stacked rows a_all: the largest of |Qx + c +
        a_all'duals|, each row's violation, each negative multiplier
        (weighted, below) and |duals * slack|, NaN when any is NaN, which is
        not certified."""
        x = fold.col_scale * x_s
        # The multiplier of every row, zero off the working set.
        duals = np.zeros(m)
        duals[rows] = fold.row_scale[rows] * lam
        # Scrub multiplier noise: tiny negatives on working rows are
        # numerical, not meaningful. On a bound row, one would push against
        # the opposite bound, which may be absent.
        tiny = 1e-9 * max(1.0, float(np.abs(duals[:m_in]).max(initial=0.0)))
        duals[(duals < 0.0) & (duals > -tiny)] = 0.0
        bound_duals = np.zeros(n)
        bound_duals[fold.finite_hi] = duals[m_in + n_lo:]
        bound_duals[fold.finite_lo] -= duals[m_in:m_in + n_lo]
        qx = fold.hessian @ x
        grad = qx + problem.linear_cost
        grad += fold.a_all_t @ duals
        slack = b_all - fold.a_all @ x
        # kkt_components nets each variable's bound multipliers, and so reads
        # a negative one as a multiplier of the opposite bound, times that
        # bound's gap. Weighing each negative multiplier by the largest bound
        # gap (at least 1) keeps this residual at least kkt_residual's; a
        # variable's two bound rows are parallel, so no working set holds both.
        weight = max(1.0, float(slack[m_in:].max(initial=0.0)))
        residual = _worst(
            np.abs(grad, out=grad), -slack, np.minimum(duals, 0.0) * -weight, np.abs(duals * slack)
        )
        sol = QpSolution(
            x=x,
            ineq_duals=duals[:m_in],
            bound_duals=bound_duals,
            objective=float(x @ (0.5 * qx + problem.linear_cost)),
            status=status,
            kkt_residual=residual,
            iterations=iterations,
            message=message,
            working_set=working_set,
            warm_start=warm_start,
        )
        if status == "optimal" and not residual <= KKT_TOL:
            sol.status = "iteration-limit"
            sol.message = f"converged but certification failed (kkt residual {sol.kkt_residual:.3e})"
        return sol

    def _working_optimum(rows, rows_first=False):
        """The exact optimum on the working rows (the rows factored in qf
        and rf, a sorted sequence) and its multipliers, from the
        working-set factor. With rows_first, the multipliers are computed
        only when the optimum meets every row, and are None otherwise.

        With A_w' = Q1 R in y, Z the rest of the complete Q, c_y = L^-1 c
        and t = R^-T b_w, the optimum on the rows is y = Q1 t - ZZ'c_y with
        multipliers lam = -R^-1 (t + Q1'c_y)."""
        mw = len(rows)
        z = qf[:, mw:]
        y = -(z @ (z.T @ c_y))
        if mw:
            r = rf[:mw]
            q1 = qf[:, :mw]
            t = _solve_upper(r, b_s[rows], trans=1)
            y += q1 @ t
        x_s = l_inv_t @ y
        if rows_first and not _meets_rows(x_s):
            return x_s, None
        return x_s, -_solve_upper(r, t + q1.T @ c_y) if mw else np.zeros(0)

    for candidate in working_sets:
        w_rows, rows, qf, rf = _start_factor(fold, candidate)
        x_s, lam = _working_optimum(rows, rows_first=True)
        # A NaN fails both tests.
        if lam is not None and (lam >= _lam_tol(_scaled_grad(x_s))).all():
            return _finish(x_s, lam, w_rows, rows, "optimal", 1, warm_start=True)

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
    w_rows, _, qf, rf = _start_factor(fold, tuple(tight.tolist()))
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
            x_w, lam = _working_optimum(w_list)
            lam_tol = _lam_tol(g)
            if lam.size == 0 or lam.min() >= lam_tol:
                x_s = x_w if _meets_rows(x_w) else x_s
                return _finish(x_s, lam, tuple(w_list), w_list, "optimal", iterations)
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

    lam = _working_optimum(w_list)[1]
    return _finish(
        x_s, lam, tuple(w_list), w_list, "iteration-limit", iterations, "iteration limit reached"
    )
