"""Independent oracles and instance builders shared by the test modules.

Everything here recomputes expected values by brute force (active-set
enumeration, exhaustive action sequences, dense grid search) or by another
solver (a feasibility LP) so the tests never trust the code paths they are
checking.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog, minimize

from lakempc import qp
from lakempc.ddp import DdpConfig, stage_cost
from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    release_bounds,
    saturate_release,
)
from lakempc.mpc import MpcConfig


def enumeration_oracle(problem: qp.QpProblem) -> tuple[float, np.ndarray]:
    """Global optimum of a strictly convex QP by enumerating active sets.

    Every subset of the inequality rows (finite bounds folded in) is solved
    as an equality-constrained problem; the best feasible candidate is the
    optimum. Exponential in the row count, so only for tiny instances.
    """
    n = problem.n
    rows: list[tuple[np.ndarray, float]] = [
        (problem.ineq_matrix[i], float(problem.ineq_rhs[i]))
        for i in range(problem.ineq_matrix.shape[0])
    ]
    for j in range(n):
        if np.isfinite(problem.lower[j]):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append((e, -float(problem.lower[j])))
        if np.isfinite(problem.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append((e, float(problem.upper[j])))
    a_all = np.array([r[0] for r in rows]).reshape(len(rows), n)
    b_all = np.array([r[1] for r in rows])
    best_val, best_x = np.inf, None
    for size in range(len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            idx = list(subset)
            a_act = a_all[idx]
            b_act = b_all[idx]
            m = a_act.shape[0]
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = problem.hessian
            if m:
                kkt[:n, n:] = a_act.T
                kkt[n:, :n] = a_act
            rhs = np.concatenate([-problem.linear_cost, b_act])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            x = sol[:n]
            if len(rows) and np.max(a_all @ x - b_all) > 1e-8:
                continue
            value = problem.objective_value(x)
            if value < best_val - 1e-12:
                best_val, best_x = value, x
    return best_val, best_x


def phase1_point(problem: qp.QpProblem) -> np.ndarray | None:
    """A feasible point of the QP's constraints, or None when there is none.

    An elastic LP (scipy's HiGHS) minimizes the total violation of the
    inequality rows under the native bounds. Its point, clipped into the
    bounds, counts as feasible by the test qp.solve applies to a start: no
    row violated by more than qp.FEASIBILITY_TOL.
    """
    n = problem.n
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    mi = a_in.shape[0]
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(mi)]),
        A_ub=np.hstack([a_in, -np.eye(mi)]) if mi else None,
        b_ub=b_in if mi else None,
        bounds=[(problem.lower[j], problem.upper[j]) for j in range(n)] + [(0.0, None)] * mi,
        method="highs",
    )
    assert res.success, res.message
    x = np.clip(res.x[:n], problem.lower, problem.upper)
    return x if np.max(a_in @ x - b_in, initial=0.0) <= qp.FEASIBILITY_TOL else None


def random_qp(rng: np.random.Generator) -> tuple[qp.QpProblem, np.ndarray]:
    """Random strictly convex QP with n <= 6 and at most 8 constraint rows,
    and a point that meets every row and bound with some slack."""
    n = int(rng.integers(1, 7))
    m_total = int(rng.integers(0, 9))
    m_ineq = int(rng.integers(0, m_total + 1))
    n_bound = m_total - m_ineq
    basis = rng.standard_normal((n, n))
    hessian = basis.T @ basis + (0.3 + rng.random()) * np.eye(n)
    cost = rng.standard_normal(n)
    feas = rng.standard_normal(n)
    a_in = rng.standard_normal((m_ineq, n)) if m_ineq else None
    b_in = a_in @ feas + np.abs(rng.standard_normal(m_ineq)) + 0.05 if m_ineq else None
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for _ in range(n_bound):
        j = int(rng.integers(0, n))
        if rng.random() < 0.5:
            lower[j] = feas[j] - abs(rng.standard_normal()) - 0.05
        else:
            upper[j] = feas[j] + abs(rng.standard_normal()) + 0.05
    problem = qp.QpProblem(
        hessian=hessian,
        linear_cost=cost,
        ineq_matrix=a_in,
        ineq_rhs=b_in,
        lower=lower,
        upper=upper,
    )
    return problem, feas


def direct_cost_minimum(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow,
    demand,
    u_bounds,
    grid_points: int = 41,
) -> float:
    """Minimum of the piecewise-quadratic cost by dense grid search plus polish.

    The cost is the nonlinear form of the controller objective (no slack
    variables, no tie-break):

        sum ((h_t - h_F)+ / flood_slack_ref)^2 + lam * sum ((w - u)+ / demand_ref)^2

    minimized over the same feasible set as the QP (release box and the hard
    dry storage rows). The objective is convex, so the SLSQP polish from the
    best grid point is a global minimizer.
    """
    h = config.horizon
    inflow = np.asarray(inflow, dtype=float)
    demand = np.asarray(demand, dtype=float)
    u_bounds = np.asarray(u_bounds, dtype=float).reshape(h, 2)
    area = params.surface_area
    s_floor = config.s_min + area * config.dry_margin

    def cost(u_flat: np.ndarray) -> float:
        u = np.asarray(u_flat, dtype=float).reshape(-1, h)
        storages = s0 + HOUR_SECONDS * np.cumsum(inflow[None, :] - u, axis=1)
        levels = storages / area + params.level_offset
        flood = np.maximum(levels - params.flood_threshold, 0.0) / config.flood_slack_ref
        deficit = np.maximum(demand[None, :] - u, 0.0) / config.demand_ref
        return np.sum(flood**2, axis=1) + config.lam * np.sum(deficit**2, axis=1)

    def feasible(u_flat: np.ndarray) -> np.ndarray:
        u = np.asarray(u_flat, dtype=float).reshape(-1, h)
        storages = s0 + HOUR_SECONDS * np.cumsum(inflow[None, :] - u, axis=1)
        return np.all(storages >= s_floor - 1e-6, axis=1)

    axes = [np.linspace(u_bounds[t, 0], u_bounds[t, 1], grid_points) for t in range(h)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = cost(mesh)
    values[~feasible(mesh)] = np.inf
    seed = mesh[int(np.argmin(values))]

    constraints = [
        {
            "type": "ineq",
            "fun": lambda u, t=t: (
                s0 + HOUR_SECONDS * (np.sum(inflow[: t + 1]) - np.sum(u[: t + 1])) - s_floor
            )
            / area,
        }
        for t in range(h)
    ]
    result = minimize(
        lambda u: float(cost(u)[0]),
        seed,
        method="SLSQP",
        bounds=[(u_bounds[t, 0], u_bounds[t, 1]) for t in range(h)],
        constraints=constraints,
        options={"ftol": 1e-14, "maxiter": 500},
    )
    best = min(float(values.min()), float(result.fun)) if result.success else float(values.min())
    return best


def exact_grid_ddp_instance() -> tuple[LakeParams, DdpConfig, np.ndarray]:
    """Lake and grid where every candidate transition lands on a grid node.

    With zero inflow, a near-constant rating curve (tiny exponent) and two
    action samples, the candidate releases at every wet node are {0, ~25}:
    storage moves down exactly one grid spacing (3600 * 25 m^3) or stays.
    The bottom node sits at the gauge offset where both bounds are zero, so
    it is absorbing and nothing can leave the grid.
    """
    params = LakeParams(mef=0.0, sat_k=25.0, sat_n=2.5, sat_e=1e-12)
    spacing = HOUR_SECONDS * 25.0
    config = DdpConfig(
        w_flood=0.4,
        w_demand=0.6,
        w_dry=0.0,
        grid_points=3,
        storage_range=(0.0, 2.0 * spacing),
        action_samples=2,
    )
    grid = np.linspace(0.0, 2.0 * spacing, 3)
    return params, config, grid


def brute_force_ddp_value(
    params: LakeParams, config: DdpConfig, storage: float, inflow, demand, t: int = 0
) -> float:
    """Min total cost from a state by exhausting every candidate action sequence.

    Uses the true plant (no grid, no interpolation): candidates are the same
    uniform samples of the physical bounds the DP uses, the transition is the
    exact mass balance, and the stage cost is charged on the post-step level.
    """
    inflow = np.asarray(inflow, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if t == len(inflow):
        return 0.0
    level = level_of_storage(params, storage)
    r_min, r_max = release_bounds(params, level)
    best = np.inf
    for release in np.linspace(r_min, r_max, config.action_samples):
        applied = saturate_release((r_min, r_max), release)
        nxt = max(storage + HOUR_SECONDS * (inflow[t] - applied), 0.0)
        value = stage_cost(
            params, config, level_of_storage(params, nxt), applied, float(demand[t])
        ) + brute_force_ddp_value(params, config, nxt, inflow, demand, t + 1)
        best = min(best, value)
    return best
