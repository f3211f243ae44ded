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
finite is done once per such structure: folding the finite bounds in as
rows, the equilibration, the factor of the scaled Hessian, Q = LL' (it
fails unless the Hessian is positive definite), and the rows in y = L'x of
Goldfarb & Idnani (1983), where the Hessian is the identity. A caller that
re-solves one structure with new right-hand sides, costs and bound values
(the MPC, every hour) marks its Hessian and row matrix read-only, and the
solver memoizes the structure on them; writable arrays are factored for
each solve. Each solve scales its own right-hand side and cost, checks its
vectors and the start, and certifies its result on the full problem.

With Z the null-space basis of the working rows in y, the step is the
projection p = -L^-T ZZ' L^-1 g: no reduced Hessian is formed or factored.
Each solve computes one complete QR, of the rows tight at the start; when
they are dependent (or outnumber the variables), a pivoted QR first picks an
independent subset and that is factored instead. The factor is then updated
by scipy's qr_insert and qr_delete (Gill, Golub, Murray & Saunders 1974).
At a stationary point every working row whose multiplier is negative
is dropped at once, highest position first. Dropping several rows can steer
the next step straight back into one of them. So when the step after such a
drop is blocked at zero length, the solve drops one row at a time from then
on, and it cannot cycle between multi-drops and re-insertions. A single
drop takes the most negative multiplier; among multipliers within a
relative 1e-9 of it (the MPC's hours are alike, so ties are exact) it takes
the row last in the working set, rather than leaving the choice to
rounding. At the end the same factor gives the exact optimum on the
working rows and its multipliers, in two triangular solves (see _snap):
that snaps x onto the rows, and no KKT matrix is formed.
Every multiplier is read from that factor, lam = -R^-1 Q1'g in y (Nocedal &
Wright, Numerical Optimization, ch. 16), at the iteration limit too. R is
tested for rank only at the start: a row enters the working set only when it
blocks the step (a.p > 0 with p in the working rows' null space), so it adds
rank, and "optimal" is still decided by the certification below.

Every returned solution carries an independently recomputed KKT residual;
`status == "optimal"` is only reported when that residual passes the
certification tolerance. Problem sizes are expected to stay small (tens of
variables, low hundreds of constraints), so all linear algebra is dense.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.linalg
# Unused here; perfbench/tracer.LAYER_FUNCTIONS wraps qp.linprog by name.
from scipy.optimize import linprog  # noqa: F401

FEASIBILITY_TOL = 1e-8
KKT_TOL = 1e-6
MAX_ITERATIONS = 10_000

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
        if np.any(self.lower > self.upper):
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
    return float(np.max(np.concatenate(terms), initial=0.0))


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Max-norm KKT residual over stationarity, feasibility, dual sign and complementarity.

    NaN when any component is NaN.
    """
    return _worst(np.fromiter(kkt_components(problem, solution).values(), dtype=float))


@dataclass(frozen=True)
class _Structure:
    """What a solve needs from the Hessian, the rows and which bounds are finite.

    The inequalities with the finite bounds folded in as rows, their
    equilibration, and the factor of the scaled Hessian. The right-hand side
    and the linear cost are scaled per solve with row_scale and col_scale.
    """

    a: np.ndarray           # (m, n) scaled rows, unit inf-norm
    kind: np.ndarray        # row origin: _ROW_INEQ / _ROW_LOWER / _ROW_UPPER
    orig_index: np.ndarray  # index into ineq rows or variable index for bounds
    finite_lo: np.ndarray   # variables whose lower bound is a row
    finite_hi: np.ndarray   # variables whose upper bound is a row
    row_scale: np.ndarray   # original dual = row_scale * scaled dual
    col_scale: np.ndarray   # x_original = col_scale * x_scaled
    q_s: np.ndarray         # scaled Hessian
    l_inv_t: np.ndarray     # L^-T with q_s = LL'
    a_y: np.ndarray         # the rows in y = L'x coordinates, a @ L^-T


_STRUCTURE_CACHE_SIZE = 8
# (id(hessian), id(ineq_matrix), finite-bound masks) -> (hessian, ineq_matrix, structure).
# An entry holds its arrays, so their ids cannot be reused while it lives.
_structures: dict[tuple, tuple[np.ndarray, np.ndarray, _Structure]] = {}


def _read_only(arr: np.ndarray) -> bool:
    """True when neither arr nor the array whose memory it views can be written."""
    base = arr.base
    return not arr.flags.writeable and (
        base is None or (isinstance(base, np.ndarray) and not base.flags.writeable)
    )


def _structure(problem: QpProblem) -> _Structure:
    """The problem's structure, memoized while its Hessian and rows are read-only.

    A caller that solves a family of problems with the same Hessian and rows
    (the MPC, hour after hour) marks them read-only and gets the folding,
    scaling and factorization once; it must not make them writable again.
    Writable arrays are never memoized.
    """
    finite_lo = np.isfinite(problem.lower)
    finite_hi = np.isfinite(problem.upper)
    if not (_read_only(problem.hessian) and _read_only(problem.ineq_matrix)):
        return _build_structure(problem, finite_lo, finite_hi)
    key = (id(problem.hessian), id(problem.ineq_matrix), finite_lo.tobytes(), finite_hi.tobytes())
    entry = _structures.get(key)
    if entry is None:
        structure = _build_structure(problem, finite_lo, finite_hi)
        entry = _structures[key] = (problem.hessian, problem.ineq_matrix, structure)
        if len(_structures) > _STRUCTURE_CACHE_SIZE:
            del _structures[next(iter(_structures))]
    return entry[2]


def _build_structure(
    problem: QpProblem, finite_lo: np.ndarray, finite_hi: np.ndarray
) -> _Structure:
    problem._check_matrices()
    n = problem.n
    finite_lo = np.flatnonzero(finite_lo)
    finite_hi = np.flatnonzero(finite_hi)
    rows = [problem.ineq_matrix]
    kind = [np.full(problem.ineq_matrix.shape[0], _ROW_INEQ)]
    oidx = [np.arange(problem.ineq_matrix.shape[0])]
    if finite_lo.size:
        lo_rows = np.zeros((finite_lo.size, n))
        lo_rows[np.arange(finite_lo.size), finite_lo] = -1.0
        rows.append(lo_rows)
        kind.append(np.full(finite_lo.size, _ROW_LOWER))
        oidx.append(finite_lo)
    if finite_hi.size:
        hi_rows = np.zeros((finite_hi.size, n))
        hi_rows[np.arange(finite_hi.size), finite_hi] = 1.0
        rows.append(hi_rows)
        kind.append(np.full(finite_hi.size, _ROW_UPPER))
        oidx.append(finite_hi)
    a_all = np.vstack(rows)

    # One equilibration pass: column scales from the stacked data, then unit
    # inf-norm rows. Keeps mixed-unit problems (storage vs flow columns)
    # within a sane condition number for the dense factorizations below.
    stacked = np.vstack([problem.hessian, a_all])
    col_norm = np.max(np.abs(stacked), axis=0)
    col_scale = 1.0 / np.sqrt(np.maximum(col_norm, 1e-12))

    a_s = a_all * col_scale[None, :]
    row_norm = np.max(np.abs(a_s), axis=1, initial=0.0)
    row_scale = 1.0 / np.maximum(row_norm, 1e-12)
    a_s = a_s * row_scale[:, None]

    # y = L'x with q_s = LL' (see module docstring).
    q_s = col_scale[:, None] * problem.hessian * col_scale[None, :]
    try:
        l_factor = np.linalg.cholesky(q_s)
    except np.linalg.LinAlgError:
        raise ValueError("hessian is not positive definite") from None
    l_inv_t = scipy.linalg.solve_triangular(l_factor, np.eye(n), lower=True).T
    return _Structure(
        a=a_s,
        kind=np.concatenate(kind),
        orig_index=np.concatenate(oidx),
        finite_lo=finite_lo,
        finite_hi=finite_hi,
        row_scale=row_scale,
        col_scale=col_scale,
        q_s=q_s,
        l_inv_t=l_inv_t,
        a_y=a_s @ l_inv_t,
    )


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


def solve(
    problem: QpProblem,
    initial_point: np.ndarray,
    max_iterations: int = MAX_ITERATIONS,
) -> QpSolution:
    """Solve a dense convex QP from a feasible start and certify the result.

    initial_point, clipped into the bounds, must meet every row within
    FEASIBILITY_TOL; the rows tight there seed the working set.

    Raises ValueError for dimension errors, a Hessian that is not positive
    definite, a cost or right-hand side entry that is not finite, a NaN
    bound (infinite bounds are absent bounds), and a start that is not of
    length n, not finite or not feasible (the message names its most
    violated constraint).
    """
    problem._check_data()
    n = problem.n
    initial_point = np.asarray(initial_point, dtype=float)
    if initial_point.shape != (n,):
        raise ValueError(
            f"initial_point must have length {n}, got shape {initial_point.shape}"
        )
    fold = _structure(problem)
    m = fold.a.shape[0]
    q_s, l_inv_t, a_y = fold.q_s, fold.l_inv_t, fold.a_y
    b_s = fold.row_scale * np.concatenate(
        [problem.ineq_rhs, -problem.lower[fold.finite_lo], problem.upper[fold.finite_hi]]
    )
    c_s = fold.col_scale * problem.linear_cost

    def _scaled_grad(x_s):
        return q_s @ x_s + c_s

    def _finish(x_s, lam, status, iterations, message=""):
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
        tiny = 1e-9 * max(1.0, float(np.max(np.abs(vals[ineq]), initial=0.0)))
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
        )
        sol.kkt_residual = kkt_residual(problem, sol)
        if status == "optimal" and not sol.kkt_residual <= KKT_TOL:
            sol.status = "iteration-limit"
            sol.message = f"converged but certification failed (kkt residual {sol.kkt_residual:.3e})"
        return sol

    x0 = np.clip(initial_point, problem.lower, problem.upper)
    # A NaN would pass the violation test below, which only compares.
    if not np.all(np.isfinite(x0)):
        j = int(np.argmin(np.isfinite(x0)))
        raise ValueError(f"initial_point is not finite at variable {j}")
    worst, label = _max_violation(problem, x0)
    if worst > FEASIBILITY_TOL:
        raise ValueError(f"initial_point is infeasible: {label} violated by {worst:.6g}")
    x_s = x0 / fold.col_scale

    # Initial working set: the rows tight at x0. When they are independent,
    # their complete QR in y is the working-set factor. Otherwise a pivoted
    # QR picks an independent subset, which is then factored; L^-T is
    # nonsingular, so independence in y is independence of the rows.
    resid = fold.a @ x_s - b_s
    tight = np.flatnonzero(resid >= -1e-9 * (1.0 + np.abs(b_s)))
    w_list: list[int] = tight.tolist()
    if tight.size <= n:
        qf, rf = np.linalg.qr(a_y[tight].T, mode="complete")
    if tight.size > n or not _full_rank(rf, 1e-8):
        _, r, piv = scipy.linalg.qr(fold.a[tight].T, pivoting=True, mode="economic")
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * max(1.0, diag[0])))
        w_list = sorted(int(tight[i]) for i in piv[:rank])
        qf, rf = np.linalg.qr(a_y[w_list].T, mode="complete")

    in_w = np.zeros(m, dtype=bool)
    in_w[w_list] = True

    def _factor_duals(g_y):
        """The working rows' multipliers -R^-1 Q1'g_y, with A_w' = Q1 R in y."""
        mw = len(w_list)
        return scipy.linalg.solve_triangular(rf[:mw], -(qf[:, :mw].T @ g_y), check_finite=False)

    def _snap(x_cur, lam_cur):
        """The exact optimum on the working set, from the working-set factor.

        Clears drift the null-space steps inherited from the starting point,
        which otherwise shows up as a complementarity residual against large
        constraint multipliers. With A_w' = Q1 R in y, Z the rest of the
        complete Q, c_y = L^-1 c and t = R^-T b_w, the optimum on the rows is
        y = Q1 t - ZZ'c_y with multipliers lam = -R^-1 (t + Q1'c_y).

        Returns (x, multipliers of the working rows) when x is feasible, else
        (x_cur, lam_cur)."""
        mw = len(w_list)
        c_y = l_inv_t.T @ c_s
        z = qf[:, mw:]
        y = -(z @ (z.T @ c_y))
        lam = np.zeros(0)
        if mw:
            r = rf[:mw]
            q1 = qf[:, :mw]
            t = scipy.linalg.solve_triangular(r, b_s[w_list], trans="T", check_finite=False)
            y += q1 @ t
            lam = -scipy.linalg.solve_triangular(r, t + q1.T @ c_y, check_finite=False)
        x_new = l_inv_t @ y
        # A NaN in x_new fails this test too.
        viol = float(np.max(fold.a @ x_new - b_s, initial=0.0))
        if viol <= 1e-9 * (1.0 + float(np.max(np.abs(b_s), initial=0.0))):
            return x_new, lam
        return x_cur, lam_cur

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
        p_norm = float(np.max(np.abs(p), initial=0.0))
        step_tol = 1e-11 * (1.0 + float(np.max(np.abs(x_s), initial=0.0)))
        if p_norm <= step_tol:
            lam = _factor_duals(g_y)
            lam_tol = -1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0)))
            if lam.size == 0 or np.min(lam) >= lam_tol:
                return _finish(*_snap(x_s, lam), "optimal", iterations)
            if single_drop:
                lam_min = float(np.min(lam))
                drop = np.flatnonzero(lam <= lam_min + 1e-9 * abs(lam_min))[-1:]
            else:
                drop = np.flatnonzero(lam < lam_tol)
            # Highest position first, so the positions still to drop hold.
            for pos in drop[::-1]:
                in_w[w_list.pop(pos)] = False
                qf, rf = scipy.linalg.qr_delete(qf, rf, pos, which="col", check_finite=False)
            multi_dropped = drop.size > 1
            continue

        denom = fold.a @ p
        slack = np.maximum(b_s - fold.a @ x_s, 0.0)
        blocking = (~in_w) & (denom > 1e-11 * max(1.0, p_norm))
        if not np.any(blocking):
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
            qf, rf = scipy.linalg.qr_insert(
                qf, rf, a_y[blocker], pos, which="col", check_finite=False
            )
        else:
            x_s = x_s + p

    lam = _factor_duals(l_inv_t.T @ _scaled_grad(x_s))
    return _finish(x_s, lam, "iteration-limit", iterations, "iteration limit reached")
