"""Dense convex quadratic programming with optimality certification.

Solves
    min 0.5 x'Qx + c'x
    s.t. A x <= b,  lower <= x <= upper

with a primal active-set method on an equilibrated copy of the data. The
Hessian must be positive definite, so the optimum is unique. There are
inequality rows and bounds only. A caller that knows a feasible point passes
it as the hint and the solver starts there; only without one does an elastic
phase-1 LP (scipy's HiGHS) search for a start.

Each solve factors the scaled Hessian once, Q = LL', and works in the
coordinates y = L'x of Goldfarb & Idnani (1983), where the Hessian is the
identity. With Z the null-space basis of the working rows in y, the step is
the projection p = -L^-T ZZ' L^-1 g: no reduced Hessian is formed or
factored. The complete QR of the working rows is computed once and then
updated by one scipy qr_insert or qr_delete per iteration (Gill, Golub,
Murray & Saunders 1974). Multipliers are often exactly tied (the MPC's
hours are alike), so among those within a relative 1e-9 of the most
negative the solver drops the one last in the working set, rather than
leaving the choice to rounding; that also shortens long solves. At the end
one dense KKT solve on the working set snaps x onto its rows and gives the
final multipliers.

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
from scipy.optimize import linprog

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

    def validate(self) -> None:
        """Raise ValueError on bad dimensions or a Hessian that is not positive definite."""
        n = self.n
        if self.hessian.shape != (n, n):
            raise ValueError(f"hessian shape {self.hessian.shape} does not match n={n}")
        if self.ineq_matrix.shape[1] != n or self.ineq_rhs.shape != (self.ineq_matrix.shape[0],):
            raise ValueError("inequality block dimensions inconsistent")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bound vectors must have length n")
        scale = max(1.0, float(np.max(np.abs(self.hessian))) if self.hessian.size else 1.0)
        if float(np.max(np.abs(self.hessian - self.hessian.T), initial=0.0)) > 1e-9 * scale:
            raise ValueError("hessian is not symmetric")
        if n > 0:
            sym = 0.5 * (self.hessian + self.hessian.T)
            diag = np.diag(sym)
            if not np.any(sym - np.diag(diag)):
                definite = bool(np.min(diag) > 0.0)
            else:
                try:
                    np.linalg.cholesky(sym)
                    definite = True
                except np.linalg.LinAlgError:
                    definite = False
            if not definite:
                raise ValueError("hessian is not positive definite")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower bound exceeds upper bound at variable {j}")

    def objective_value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.hessian @ x + self.linear_cost @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    ineq_duals: np.ndarray
    bound_duals: np.ndarray
    objective: float
    status: str  # "optimal" | "infeasible" | "iteration-limit"
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
    stationarity = float(np.max(np.abs(grad), initial=0.0))

    primal = 0.0
    slack = b_in - a_in @ x if a_in.shape[0] else np.zeros(0)
    if slack.size:
        primal = max(primal, float(np.max(-slack, initial=0.0)))
    primal = max(primal, float(np.max(np.where(np.isfinite(lo), lo - x, 0.0), initial=0.0)))
    primal = max(primal, float(np.max(np.where(np.isfinite(hi), x - hi, 0.0), initial=0.0)))

    dual = float(np.max(-mu, initial=0.0))
    # A bound multiplier pushing against an absent (infinite) bound is a dual violation.
    dual = max(dual, float(np.max(np.where(np.isfinite(hi), 0.0, np.maximum(beta, 0.0)), initial=0.0)))
    dual = max(dual, float(np.max(np.where(np.isfinite(lo), 0.0, np.maximum(-beta, 0.0)), initial=0.0)))

    comp = 0.0
    if slack.size:
        comp = max(comp, float(np.max(np.abs(mu * slack), initial=0.0)))
    gap_hi = np.where(np.isfinite(hi), hi - x, 0.0)
    gap_lo = np.where(np.isfinite(lo), x - lo, 0.0)
    comp = max(comp, float(np.max(np.abs(np.where(beta > 0.0, beta * gap_hi, beta * gap_lo)), initial=0.0)))

    return {
        "stationarity": stationarity,
        "primal": primal,
        "dual": dual,
        "complementarity": comp,
    }


def kkt_residual(problem: QpProblem, solution: QpSolution) -> float:
    """Max-norm KKT residual over stationarity, feasibility, dual sign and complementarity."""
    return max(kkt_components(problem, solution).values())


@dataclass
class _Folded:
    """Inequalities with finite bounds folded in as rows, plus the scaling used."""

    a: np.ndarray          # (m, n) scaled rows, unit inf-norm
    b: np.ndarray          # (m,) scaled rhs
    kind: np.ndarray       # row origin: _ROW_INEQ / _ROW_LOWER / _ROW_UPPER
    orig_index: np.ndarray  # index into ineq rows or variable index for bounds
    row_scale: np.ndarray  # original dual = row_scale * scaled dual
    col_scale: np.ndarray  # x_original = col_scale * x_scaled


def _fold_and_scale(problem: QpProblem) -> _Folded:
    n = problem.n
    rows = [problem.ineq_matrix]
    rhs = [problem.ineq_rhs]
    kind = [np.full(problem.ineq_matrix.shape[0], _ROW_INEQ)]
    oidx = [np.arange(problem.ineq_matrix.shape[0])]
    finite_lo = np.where(np.isfinite(problem.lower))[0]
    finite_hi = np.where(np.isfinite(problem.upper))[0]
    if finite_lo.size:
        lo_rows = np.zeros((finite_lo.size, n))
        lo_rows[np.arange(finite_lo.size), finite_lo] = -1.0
        rows.append(lo_rows)
        rhs.append(-problem.lower[finite_lo])
        kind.append(np.full(finite_lo.size, _ROW_LOWER))
        oidx.append(finite_lo)
    if finite_hi.size:
        hi_rows = np.zeros((finite_hi.size, n))
        hi_rows[np.arange(finite_hi.size), finite_hi] = 1.0
        rows.append(hi_rows)
        rhs.append(problem.upper[finite_hi])
        kind.append(np.full(finite_hi.size, _ROW_UPPER))
        oidx.append(finite_hi)
    a_all = np.vstack(rows)
    b_all = np.concatenate(rhs)
    kind_all = np.concatenate(kind)
    oidx_all = np.concatenate(oidx)

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
    b_s = b_all * row_scale

    return _Folded(
        a=a_s,
        b=b_s,
        kind=kind_all,
        orig_index=oidx_all,
        row_scale=row_scale,
        col_scale=col_scale,
    )


def _max_violation(problem: QpProblem, x: np.ndarray) -> tuple[float, str]:
    """Largest constraint violation at x and a human-readable culprit."""
    worst, label = 0.0, "none"
    if problem.ineq_matrix.shape[0]:
        res = problem.ineq_matrix @ x - problem.ineq_rhs
        i = int(np.argmax(res))
        if res[i] > worst:
            worst, label = float(res[i]), f"inequality row {i}"
    lo_gap = np.where(np.isfinite(problem.lower), problem.lower - x, -np.inf)
    if lo_gap.size and np.max(lo_gap) > worst:
        j = int(np.argmax(lo_gap))
        worst, label = float(lo_gap[j]), f"lower bound of variable {j}"
    hi_gap = np.where(np.isfinite(problem.upper), x - problem.upper, -np.inf)
    if hi_gap.size and np.max(hi_gap) > worst:
        j = int(np.argmax(hi_gap))
        worst, label = float(hi_gap[j]), f"upper bound of variable {j}"
    return worst, label


def _phase1(problem: QpProblem, feasibility_tol: float) -> tuple[np.ndarray | None, str]:
    """Elastic LP: minimize total constraint violation under the native bounds.

    Returns (feasible point, "") or (least-infeasible point, diagnostic). The
    point counts as feasible by the test a hint must pass: no row or bound
    violated by more than feasibility_tol.
    """
    n = problem.n
    mi = problem.ineq_matrix.shape[0]
    cost = np.concatenate([np.zeros(n), np.ones(mi)])
    a_ub = None
    b_ub = None
    if mi:
        a_ub = np.hstack([problem.ineq_matrix, -np.eye(mi)])
        b_ub = problem.ineq_rhs
    bounds = [(problem.lower[j], problem.upper[j]) for j in range(n)]
    bounds += [(0.0, None)] * mi
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    x = np.clip(res.x[:n], problem.lower, problem.upper)
    worst, label = _max_violation(problem, x)
    if worst <= feasibility_tol:
        return x, ""
    return x, (
        f"infeasible: at the least-infeasible point the most violated constraint "
        f"is {label} (violation {worst:.6g})"
    )


def _working_duals(a_w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Least-squares multipliers for A_w' lam = -g."""
    if a_w.shape[0] == 0:
        return np.zeros(0)
    lam, *_ = np.linalg.lstsq(a_w.T, -g, rcond=None)
    return lam


def solve(
    problem: QpProblem,
    initial_point: np.ndarray | None = None,
    max_iterations: int = MAX_ITERATIONS,
    feasibility_tol: float = FEASIBILITY_TOL,
    kkt_tol: float = KKT_TOL,
) -> QpSolution:
    """Solve a dense convex QP and certify the result.

    initial_point is only a hint: it is used (after clipping into the bounds)
    when it is feasible, which also seeds the working set; otherwise a
    phase-1 LP finds a starting point. On infeasible problems the returned
    solution carries the least-infeasible point and a diagnostic message.

    Raises ValueError for dimension errors and for a Hessian that is not
    positive definite.
    """
    problem.validate()
    n = problem.n
    fold = _fold_and_scale(problem)
    m = fold.a.shape[0]

    def _finish(x_s, w_list, status, iterations, message="", lam=None):
        x = fold.col_scale * x_s
        ineq_duals = np.zeros(problem.ineq_matrix.shape[0])
        bound_duals = np.zeros(n)
        if status != "infeasible":
            if lam is None:
                lam = _working_duals(fold.a[w_list], _scaled_grad(x_s))
            for pos, row in enumerate(w_list):
                val = fold.row_scale[row] * lam[pos]
                if fold.kind[row] == _ROW_INEQ:
                    ineq_duals[fold.orig_index[row]] += val
                elif fold.kind[row] == _ROW_UPPER:
                    bound_duals[fold.orig_index[row]] += val
                else:
                    bound_duals[fold.orig_index[row]] -= val
            # Scrub multiplier noise: tiny negatives on inequality rows are
            # numerical, not meaningful.
            tiny = 1e-9 * max(1.0, float(np.max(np.abs(ineq_duals), initial=0.0)))
            ineq_duals[(ineq_duals < 0.0) & (ineq_duals > -tiny)] = 0.0
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
        if status == "optimal" and sol.kkt_residual > kkt_tol:
            sol.status = "iteration-limit"
            sol.message = f"converged but certification failed (kkt residual {sol.kkt_residual:.3e})"
        return sol

    q_s = fold.col_scale[:, None] * problem.hessian * fold.col_scale[None, :]
    c_s = fold.col_scale * problem.linear_cost

    def _scaled_grad(x_s):
        return q_s @ x_s + c_s

    # Starting point: feasible hint if offered, phase-1 LP otherwise.
    x0 = None
    if initial_point is not None:
        cand = np.clip(np.asarray(initial_point, dtype=float), problem.lower, problem.upper)
        if cand.shape == (n,) and _max_violation(problem, cand)[0] <= feasibility_tol:
            x0 = cand
    if x0 is None:
        x0, diagnostic = _phase1(problem, feasibility_tol)
        if diagnostic:
            x_s = x0 / fold.col_scale
            sol = _finish(x_s, [], "infeasible", 0, diagnostic)
            return sol
    x_s = x0 / fold.col_scale

    # Initial working set: independent subset of the rows tight at x0.
    resid = fold.a @ x_s - fold.b
    tight = np.where(resid >= -1e-9 * (1.0 + np.abs(fold.b)))[0]
    w_list: list[int] = []
    if tight.size:
        _, r, piv = scipy.linalg.qr(fold.a[tight].T, pivoting=True, mode="economic")
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * max(1.0, diag[0])))
        w_list = sorted(int(tight[i]) for i in piv[:rank])

    in_w = np.zeros(m, dtype=bool)
    in_w[w_list] = True

    def _snap(x_cur, w_cur):
        """Exact solve on the final working set; clears drift the null-space
        steps inherited from the starting point, which otherwise shows up as
        a complementarity residual against large constraint multipliers.

        Returns (x, multipliers of the working rows): the solved pair when
        x is feasible, else (x_cur, None) and _finish computes them."""
        a_w = fold.a[w_cur]
        mw = a_w.shape[0]
        kkt = np.zeros((n + mw, n + mw))
        kkt[:n, :n] = q_s
        if mw:
            kkt[:n, n:] = a_w.T
            kkt[n:, :n] = a_w
        rhs = np.concatenate([-c_s, fold.b[w_cur]])
        try:
            sol = np.linalg.solve(kkt, rhs)
            bad = not np.all(np.isfinite(sol)) or float(
                np.max(np.abs(kkt @ sol - rhs), initial=0.0)
            ) > 1e-8 * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))
        except np.linalg.LinAlgError:
            bad = True
        if bad:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x_new = sol[:n]
        if not np.all(np.isfinite(x_new)):
            return x_cur, None
        viol = float(np.max(fold.a @ x_new - fold.b, initial=0.0))
        if viol <= 1e-9 * (1.0 + float(np.max(np.abs(fold.b), initial=0.0))):
            return x_new, sol[n:]
        return x_cur, None

    # y = L'x with q_s = LL' (see module docstring); l_inv_t is L^-T.
    l_inv_t = scipy.linalg.solve_triangular(np.linalg.cholesky(q_s), np.eye(n), lower=True).T
    a_y = fold.a @ l_inv_t
    qf, rf = np.linalg.qr(a_y[w_list].T, mode="complete")

    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        mw = len(w_list)
        g = _scaled_grad(x_s)
        g_y = l_inv_t.T @ g
        z = qf[:, mw:]
        p = -(l_inv_t @ (z @ (z.T @ g_y)))
        p_norm = float(np.max(np.abs(p), initial=0.0))
        if p_norm <= 1e-11 * (1.0 + float(np.max(np.abs(x_s), initial=0.0))):
            if mw == 0:
                lam = np.zeros(0)
            else:
                diag_r = np.abs(np.diag(rf[:mw]))
                if float(np.min(diag_r)) > 1e-12 * max(1.0, float(np.max(diag_r))):
                    lam = scipy.linalg.solve_triangular(rf[:mw], -(qf[:, :mw].T @ g_y))
                else:
                    lam = _working_duals(fold.a[w_list], g)
            if lam.size == 0 or np.min(lam) >= -1e-9 * (1.0 + float(np.max(np.abs(g), initial=0.0))):
                x_s, lam = _snap(x_s, w_list)
                return _finish(x_s, w_list, "optimal", iterations, lam=lam)
            lam_min = float(np.min(lam))
            pos = int(np.flatnonzero(lam <= lam_min + 1e-9 * abs(lam_min))[-1])
            in_w[w_list.pop(pos)] = False
            qf, rf = scipy.linalg.qr_delete(qf, rf, pos, which="col", check_finite=False)
            continue

        denom = fold.a @ p
        slack = np.maximum(fold.b - fold.a @ x_s, 0.0)
        blocking = (~in_w) & (denom > 1e-11 * max(1.0, p_norm))
        if not np.any(blocking):
            x_s = x_s + p
            continue
        ratios = np.full(m, np.inf)
        ratios[blocking] = slack[blocking] / denom[blocking]
        blocker = int(np.argmin(ratios))
        alpha = float(ratios[blocker])
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

    return _finish(x_s, w_list, "iteration-limit", iterations, "iteration limit reached")
