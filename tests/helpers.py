"""Independent oracles and instance builders shared by the test modules.

Everything here recomputes expected values by brute force (active-set
enumeration, exhaustive action sequences, dense grid search) or by another
solver (a feasibility LP) so the tests never trust the code paths they are
checking.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, minimize

from lakempc import mpc, qp
from lakempc.cli import _fmt
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
from lakempc.trace import ClosedLoopTrace


def box_rows(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """The box lower <= x <= upper as rows A x <= b: one row -x_j <= -lower_j
    per finite lower bound, then one row x_j <= upper_j per finite upper
    bound, each block in variable order (the order of mpc._qp_structure's
    release-bound rows, and of its flood slack's lower bounds in
    six_block_problem). An infinite entry is an absent bound and gets no
    row; a NaN entry gets a row whose right-hand side is NaN."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    lo, hi = np.flatnonzero(lower != -np.inf), np.flatnonzero(upper != np.inf)
    eye = np.eye(lower.size)
    return np.vstack([0.0 - eye[lo], eye[hi]]), np.concatenate([-lower[lo], upper[hi]])


def bounded_qp(
    hessian, linear_cost, ineq_matrix=None, ineq_rhs=None, lower=None, upper=None
) -> qp.QpProblem:
    """A QpProblem with the box lower <= x <= upper (None: no bound)
    appended to its rows by box_rows: the inequality rows first, then the
    finite lower bounds, then the finite upper bounds."""
    base = qp.QpProblem(hessian, linear_cost, ineq_matrix, ineq_rhs)
    n = base.n
    rows, rhs = box_rows(
        np.full(n, -np.inf) if lower is None else lower,
        np.full(n, np.inf) if upper is None else upper,
    )
    return qp.QpProblem(
        base.hessian,
        base.linear_cost,
        np.vstack([base.ineq_matrix, rows]),
        np.concatenate([base.ineq_rhs, rhs]),
    )


def release_bounds_of(problem: qp.QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """The release bounds (lower, upper) of an mpc.assemble_qp problem, read
    off its bound rows by mpc._row_blocks. The upper bounds are views, so a
    recovery lift shows."""
    rows = mpc._row_blocks(problem.ineq_rhs)
    return -rows.neg_lower, rows.upper


def feasible_point(params, problem, s0, inflow, demand, u_hint) -> np.ndarray:
    """mpc._feasible_point of an mpc.assemble_qp problem, handed its dry
    right-hand sides and release bounds as solve_step hands them."""
    dry_rhs = mpc._row_blocks(problem.ineq_rhs).dry
    return mpc._feasible_point(
        params, problem, s0, inflow, demand, u_hint, dry_rhs, *release_bounds_of(problem)
    )


def six_block_problem(problem: qp.QpProblem) -> qp.QpProblem:
    """An mpc.assemble_qp problem with a sixth block of rows, the flood
    slacks' lower bounds -slack_flood <= -0.0, appended by bounded_qp: the
    problem as it was built before those rows were dropped as redundant."""
    n = problem.n
    h = n // 3
    lower = np.full(n, -np.inf)
    lower[h:2 * h] = 0.0
    return bounded_qp(
        problem.hessian, problem.linear_cost, problem.ineq_matrix, problem.ineq_rhs, lower=lower
    )


def enumeration_oracle(problem: qp.QpProblem) -> tuple[float, np.ndarray]:
    """Global optimum of a strictly convex QP by enumerating active sets.

    Every subset of the rows is solved as an equality-constrained problem;
    the best feasible candidate is the optimum. Exponential in the row
    count, so only for tiny instances.
    """
    n = problem.n
    a_all, b_all = problem.ineq_matrix, problem.ineq_rhs
    m = a_all.shape[0]
    best_val, best_x = np.inf, None
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            idx = list(subset)
            a_act = a_all[idx]
            b_act = b_all[idx]
            k = a_act.shape[0]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = problem.hessian
            if k:
                kkt[:n, n:] = a_act.T
                kkt[n:, :n] = a_act
            rhs = np.concatenate([-problem.linear_cost, b_act])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            x = sol[:n]
            if m and np.max(a_all @ x - b_all) > 1e-8:
                continue
            value = problem.objective_value(x)
            if value < best_val - 1e-12:
                best_val, best_x = value, x
    return best_val, best_x


def phase1_point(problem: qp.QpProblem) -> np.ndarray | None:
    """A feasible point of the QP's rows, or None when there is none.

    An elastic LP (scipy's HiGHS) minimizes the total violation of the
    rows. Its point counts as feasible by the test qp.solve applies to a
    start: no row violated by more than qp.FEASIBILITY_TOL.
    """
    n = problem.n
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    mi = a_in.shape[0]
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(mi)]),
        A_ub=np.hstack([a_in, -np.eye(mi)]) if mi else None,
        b_ub=b_in if mi else None,
        bounds=[(None, None)] * n + [(0.0, None)] * mi,
        method="highs",
    )
    assert res.success, res.message
    x = res.x[:n]
    return x if np.max(a_in @ x - b_in, initial=0.0) <= qp.FEASIBILITY_TOL else None


def dense_kkt_solution(
    problem: qp.QpProblem, solution: qp.QpSolution
) -> tuple[np.ndarray, np.ndarray]:
    """The optimum on the rows whose returned multiplier is nonzero, by one
    dense KKT solve on the unscaled data: (x, duals), with zero multipliers
    on the other rows."""
    n = problem.n
    active = np.flatnonzero(solution.duals)
    rows = problem.ineq_matrix[active]
    m = rows.shape[0]
    kkt = np.block([[problem.hessian, rows.T], [rows, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-problem.linear_cost, problem.ineq_rhs[active]]))
    duals = np.zeros(problem.ineq_matrix.shape[0])
    duals[active] = sol[n:]
    return sol[:n], duals


def reference_kkt_components(problem: qp.QpProblem, solution: qp.QpSolution) -> dict[str, float]:
    """qp.kkt_components written out plainly and kept frozen: the four
    components, each the largest violation (at least 0, NaN when any entry
    is NaN) of its conditions on the unscaled problem. qp.kkt_components
    must reproduce it bit for bit."""

    def worst(*terms):
        return float(np.concatenate(terms).max(initial=0.0))

    x = np.asarray(solution.x, dtype=float)
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    mu = np.atleast_1d(np.asarray(solution.duals, dtype=float))

    grad = problem.hessian @ x + problem.linear_cost
    if a_in.shape[0]:
        grad = grad + a_in.T @ mu
    slack = b_in - a_in @ x
    return {
        "stationarity": worst(np.abs(grad)),
        "primal": worst(-slack),
        "dual": worst(-mu),
        "complementarity": worst(np.abs(mu * slack)),
    }


def random_qp(rng: np.random.Generator) -> tuple[qp.QpProblem, np.ndarray]:
    """Random strictly convex QP with n <= 6 and at most 8 rows, some of
    them bounds on one variable, and a point that meets every row with
    some slack."""
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
    return bounded_qp(hessian, cost, a_in, b_in, lower, upper), feas


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
    releases of steps 0..k are held at their lower bounds. Each row after
    k (every row when none breaks) is lifted to the plan's storage where
    that is lower, s(t) >= min(s_min + A * DRY_MARGIN, s_plan(t)), as
    solve_step lifts a row the plan misses by less than the tolerance. The
    objective is convex, so the SLSQP polish from the best grid point is a
    global minimizer. A point counts as feasible with 1e-3 m^3 (7e-12 m) of
    slack on the storage rows, which SLSQP's point in level units needs.
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
    s_bound = np.minimum(s_floor, at_minimum)
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
    mpc._qp_structure keeps still holds every factor the run needs, of its
    starts and its candidates, as the same entries. Returns the run's
    trace."""
    structure = mpc._qp_structure(config.horizon, params.surface_area, config.lam)
    starts = dict(structure.starts)
    assert starts
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
    assert_same_entries(structure.starts, starts)
    return trace


def assert_same_entries(cache: dict, before: dict) -> None:
    """cache holds the entries of before and no other, as the same objects."""
    assert cache.keys() == before.keys()
    assert all(cache[key] is value for key, value in before.items())


def reference_write_trace_csv(path, trace: ClosedLoopTrace) -> None:
    """cli.write_trace_csv as one csv.writer row of _fmt strings per hour:
    the hour, the plant columns, then each solver column the trace has.
    The CLI's writer must produce the same bytes."""
    columns = [
        trace.inflows, trace.demands, trace.commands, trace.releases,
        trace.storages[:-1], trace.storages[1:], trace.levels,
    ]
    names = [
        "inflow_m3s", "demand_m3s", "command_m3s", "release_m3s",
        "storage_start_m3", "storage_end_m3", "level_m",
    ]
    for name, series in (
        ("slack_flood_m", trace.slack_flood),
        ("slack_demand_m3s", trace.slack_demand),
        ("kkt_residual", trace.kkt_residuals),
        ("qp_iterations", trace.solve_iterations),
        ("warm_start", trace.warm_starts),
        ("recovery", trace.recovery),
    ):
        if series is not None:
            names.append(name)
            columns.append(series)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + names)
        for t in range(trace.n_hours):
            writer.writerow([t] + [_fmt(series[t]) for series in columns])


def reference_write_level_plotdata(path, trace: ClosedLoopTrace, params: LakeParams) -> None:
    """cli.write_level_plotdata as one csv.writer row of _fmt strings per
    hour: the hour, its level and the two thresholds."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "level_m", "flood_threshold_m", "dry_threshold_m"])
        flood, dry = _fmt(params.flood_threshold), _fmt(params.dry_threshold)
        for t in range(trace.n_hours):
            writer.writerow([t, _fmt(trace.levels[t]), flood, dry])
