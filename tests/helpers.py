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

from lakempc import mpc, qp
from lakempc.ddp import DdpConfig, ValueTable, stage_cost
from lakempc.hydrology import (
    DEMAND_REF,
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    mass_balance,
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


def dense_kkt_solution(
    problem: qp.QpProblem, solution: qp.QpSolution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The optimum on the rows whose returned multiplier is nonzero, by one
    dense KKT solve on the unscaled data.

    The rows are the inequality rows with a nonzero ineq_dual and, for each
    variable with a nonzero bound_dual, its upper bound (positive dual) or
    its lower bound (negative dual). Returns (x, ineq_duals, bound_duals) in
    QpSolution's conventions; rows outside that set get zero multipliers.
    """
    n = problem.n
    ineq = np.flatnonzero(solution.ineq_duals)
    bound = np.flatnonzero(solution.bound_duals)
    sign = np.sign(solution.bound_duals[bound])
    rows = np.vstack([problem.ineq_matrix[ineq], sign[:, None] * np.eye(n)[bound]])
    rhs = np.concatenate(
        [problem.ineq_rhs[ineq], np.where(sign > 0, problem.upper[bound], -problem.lower[bound])]
    )
    m = rows.shape[0]
    kkt = np.block([[problem.hessian, rows.T], [rows, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-problem.linear_cost, rhs]))
    ineq_duals = np.zeros(problem.ineq_matrix.shape[0])
    ineq_duals[ineq] = sol[n:n + ineq.size]
    bound_duals = np.zeros(n)
    bound_duals[bound] = sign * sol[n + ineq.size:]
    return sol[:n], ineq_duals, bound_duals


def reference_kkt_components(problem: qp.QpProblem, solution: qp.QpSolution) -> dict[str, float]:
    """qp.kkt_components as it was written before its temporaries were
    trimmed, kept frozen: the four components, each the largest violation
    (at least 0, NaN when any entry is NaN) of its conditions on the
    unscaled problem. qp.kkt_components must reproduce it bit for bit."""

    def worst(*terms):
        return float(np.concatenate(terms).max(initial=0.0))

    x = np.asarray(solution.x, dtype=float)
    q, c = problem.hessian, problem.linear_cost
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    lo, hi = problem.lower, problem.upper
    mu = np.atleast_1d(np.asarray(solution.ineq_duals, dtype=float))
    beta = np.atleast_1d(np.asarray(solution.bound_duals, dtype=float))

    grad = q @ x + c
    if a_in.shape[0]:
        grad = grad + a_in.T @ mu
    grad = grad + beta
    slack = b_in - a_in @ x
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    gap_lo = np.where(finite_lo, x - lo, 0.0)
    gap_hi = np.where(finite_hi, hi - x, 0.0)
    return {
        "stationarity": worst(np.abs(grad)),
        "primal": worst(-slack, -gap_lo, -gap_hi),
        "dual": worst(-mu, np.where(finite_hi, 0.0, beta), np.where(finite_lo, 0.0, -beta)),
        "complementarity": worst(
            np.abs(mu * slack), np.abs(np.where(beta > 0.0, beta * gap_hi, beta * gap_lo))
        ),
    }


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


def controller_cost(params: LakeParams, config: MpcConfig, s0: float, inflow, demand, u):
    """The nonlinear form of the controller objective (no slack variables,
    no tie-break) of each plan in u, one plan per row:

        sum ((h_t - h_F)+ / FLOOD_SLACK_REF)^2 + lam * sum ((w - u)+ / DEMAND_REF)^2
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    storages = s0 + HOUR_SECONDS * np.cumsum(np.asarray(inflow, dtype=float)[None, :] - u, axis=1)
    levels = storages / params.surface_area + params.level_offset
    flood = np.maximum(levels - params.flood_threshold, 0.0) / mpc.FLOOD_SLACK_REF
    deficit = np.maximum(np.asarray(demand, dtype=float)[None, :] - u, 0.0) / DEMAND_REF
    return np.sum(flood**2, axis=1) + config.lam * np.sum(deficit**2, axis=1)


def direct_cost_minimum(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow,
    demand,
    grid_points: int = 41,
) -> float:
    """Minimum of controller_cost by dense grid search plus polish.

    The feasible set is the release box, the rating-curve bounds at s0's
    level (hydrology.release_bounds) in every step, and the hard dry storage rows,
    s(t) >= s_min + A * DRY_MARGIN. When the minimum-release plan breaks
    some row by more than qp.FEASIBILITY_TOL (in m), the dry bound cannot be
    held, and the set is that of the lexicographic recovery policy (the mpc
    module docstring): with k the last step whose row that plan breaks, the
    releases of steps 0..k are held at their lower bounds, and each later
    row is lifted to the plan's storage where that is lower, s(t) >=
    min(s_min + A * DRY_MARGIN, s_plan(t)). The objective is convex, so the
    SLSQP polish from the best grid point is a global minimizer. A point
    counts as feasible with 1e-3 m^3 (7e-12 m) of slack on the storage rows,
    which SLSQP's point in level units needs.
    """
    h = config.horizon
    inflow = np.asarray(inflow, dtype=float)
    u_bounds = np.tile(release_bounds(params, level_of_storage(params, s0)), (h, 1))
    area = params.surface_area
    s_floor = mpc._storage_bounds(params)[0] + area * mpc.DRY_MARGIN

    def storages(u):
        return s0 + HOUR_SECONDS * np.cumsum(inflow[None, :] - np.atleast_2d(u), axis=1)

    lower = u_bounds[:, 0]
    at_minimum = storages(lower)[0]
    broken = np.flatnonzero((s_floor - at_minimum) / area > qp.FEASIBILITY_TOL)
    fixed = int(broken[-1]) + 1 if broken.size else 0
    s_bound = np.minimum(s_floor, at_minimum) if broken.size else np.full(h, s_floor)
    if fixed == h:
        return float(controller_cost(params, config, s0, inflow, demand, lower)[0])

    def plans(free):
        free = np.atleast_2d(free)
        return np.hstack([np.tile(lower[:fixed], (free.shape[0], 1)), free])

    def cost(free):
        return controller_cost(params, config, s0, inflow, demand, plans(free))

    def feasible(free):
        return np.all(storages(plans(free))[:, fixed:] >= s_bound[fixed:] - 1e-3, axis=1)

    axes = [np.linspace(u_bounds[t, 0], u_bounds[t, 1], grid_points) for t in range(fixed, h)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    values = cost(mesh)
    values[~feasible(mesh)] = np.inf
    seed = mesh[int(np.argmin(values))]

    constraints = [
        {"type": "ineq", "fun": lambda free, t=t: (storages(plans(free))[0, t] - s_bound[t]) / area}
        for t in range(fixed, h)
    ]
    result = minimize(
        lambda free: float(cost(free)[0]),
        seed,
        method="SLSQP",
        bounds=[(u_bounds[t, 0], u_bounds[t, 1]) for t in range(fixed, h)],
        constraints=constraints,
        options={"ftol": 1e-14, "maxiter": 500},
    )
    # SLSQP can stop at its iteration limit on a point that is already
    # feasible and better than the grid: keep any feasible polish.
    polished = np.clip(result.x, u_bounds[fixed:, 0], u_bounds[fixed:, 1])
    polished_value = float(cost(polished)[0]) if feasible(polished)[0] else np.inf
    return min(float(values.min()), polished_value)


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
        storage_max=2.0 * spacing,
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


def reference_backward_induction(
    params: LakeParams, config: DdpConfig, inflow, demand
) -> ValueTable:
    """The DDP backward pass as one plain loop: every stage from scratch.

    Each hour moves every (node, action) pair through the plant's mass
    balance, clamps to both ends of the grid (the bottom, the empty lake,
    never binds), charges the stage cost and interpolates the
    cost-to-go with ``np.interp``; nothing is carried from one hour to the
    next. ``ddp.backward_induction`` must reproduce its tables bit for bit.
    """
    inflow = np.asarray(inflow, dtype=float)
    demand = np.asarray(demand, dtype=float)
    t_end = inflow.size
    grid = np.linspace(0.0, config.storage_max, config.grid_points)
    n_nodes, n_act = config.grid_points, config.action_samples
    actions = np.zeros((n_nodes, n_act))
    for i in range(n_nodes):
        r_min, r_max = release_bounds(params, level_of_storage(params, grid[i]))
        actions[i] = np.linspace(r_min, r_max, n_act)
    values = np.zeros((t_end + 1, n_nodes))
    policy = np.zeros((t_end, n_nodes))
    node_range = np.arange(n_nodes)
    out_of_grid = 0
    for t in range(t_end - 1, -1, -1):
        next_s, released = mass_balance(grid[:, None], inflow[t], actions)
        outside = (next_s < grid[0]) | (next_s > grid[-1])
        out_of_grid += int(np.sum(outside))
        next_s = np.clip(next_s, grid[0], grid[-1])
        level = next_s / params.surface_area + params.level_offset
        stage = stage_cost(params, config, level, released, demand[t])
        total = stage + np.interp(next_s.ravel(), grid, values[t + 1]).reshape(n_nodes, n_act)
        best = np.argmin(total, axis=1)
        values[t] = total[node_range, best]
        policy[t] = actions[node_range, best]
    return ValueTable(values=values, policy=policy, grid=grid, out_of_grid=out_of_grid)


def assert_rerun_reuses_structure(monkeypatch, params, config, scenario, s0, n_steps):
    """Run config's hourly loop again and check that it makes no QR and
    checks no candidate working set again: the solver structure that
    mpc._qp_structure keeps still holds every start factor and candidate's
    rows the run needs, as the same arrays. Returns the run's trace."""
    structure = mpc._qp_structure(config.horizon, params.surface_area, config.lam)
    candidates = dict(structure.candidates)
    assert candidates
    qr_calls = []
    inner = np.linalg.qr

    def counting(*args, **kwargs):
        qr_calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    trace = mpc.run_hourly(params, config, scenario, s0, n_steps=n_steps)
    monkeypatch.undo()
    assert qr_calls == []
    assert mpc._qp_structure(config.horizon, params.surface_area, config.lam) is structure
    assert_same_entries(structure.candidates, candidates)
    return trace


def assert_same_entries(cache: dict, before: dict) -> None:
    """cache holds the entries of before and no other, as the same objects."""
    assert cache.keys() == before.keys()
    assert all(cache[key] is value for key, value in before.items())
