"""Receding-horizon control of the lake.

Each decision step assembles a convex QP over the release plan u and two
soft-constraint slacks: flood exceedance (in level units) and demand deficit
(in flow units). Storage variables are eliminated by forward substitution of
the mass balance, and the storage constraints are carried in level units so
absolute feasibility tolerances are meaningful.

Cost per step of the horizon, after nondimensionalization:

    (slack_flood / flood_slack_ref)^2
    + lam * (slack_demand / demand_ref)^2
    + tie_break_weight * (u - w)^2

The tie-break term selects the demand-tracking point of the optimal set
(the slack costs alone leave u flat wherever no constraint is near) and is
small enough to leave the two real objectives untouched. lam and the
tie-break weight must be positive so the Hessian is positive definite.

qp.solve requires a feasible start, and each step builds one close to its
optimum, so the solver usually needs only a few active-set iterations.
Every coefficient of u in the hard dry rows is nonnegative (they
cap the cumulative release, sum_{tau<=t} u <= c_t), so lowering a release
never breaks one: the hard problem is feasible exactly when the
minimum-release plan u = lower bound meets them. The flood and demand rows
hold once their slacks take their binding values. Two guesses are tried: the
previous step's plan (shifted by an hour in hourly mode) and the demand. A
guess, clipped into the bounds, that crosses a dry row is trimmed onto the
rows: its cumulative release is cut to the budget C_t, the tightest later
cap less the minimum releases still to come. That leaves it between the
lower bound and the guess, and it meets the rows whenever the
minimum-release plan does. Of the feasible candidates the one with the lower
objective is the start. The minimum-release plan is only the witness of
infeasibility: when no candidate meets the dry rows, its first failing row
is reported, and the step goes straight to the softened recovery problem,
where a slacked start is always feasible.

The QP's Hessian and row matrix depend only on the horizon, the surface
area, the cost weights and whether the dry rows are softened, so they are
built once per such configuration and shared read-only by every step; the
solver then folds, scales and factors them once per run, and each step
supplies only its right-hand side, linear cost and bounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qp
from .hydrology import HOUR_SECONDS, LakeParams, level_of_storage, release_bounds
from .scenario import HOURS_PER_DAY, Scenario
from .trace import ClosedLoopTrace, closed_loop

# Storage bounds matching the default LakeParams thresholds mapped through
# the level-storage relation.
DEFAULT_S_MIN = 29_180_000.0
DEFAULT_S_MAX = 218_850_000.0


class MpcInfeasibleError(RuntimeError):
    """A decision step had no feasible release plan and recovery was disabled."""

    def __init__(self, message: str, hour: int | None = None):
        super().__init__(message)
        self.hour = hour


@dataclass
class MpcConfig:
    """Controller configuration.

    s_min is the hard dry storage bound, s_max the storage at the flood
    threshold (exceedance above it is soft). flood_slack_ref (m) and
    demand_ref (m^3/s) are the unit normalizations making the two slack
    costs commensurate at lam = 1: a 1 m flood exceedance costs as much as a
    100 m^3/s deficit. dry_margin (m, in level units) backs the hard bound
    off by a hair so plant arithmetic cannot land a whisker below it.
    """

    horizon: int = 24
    lam: float = 1.0
    s_min: float = DEFAULT_S_MIN
    s_max: float = DEFAULT_S_MAX
    tie_break_weight: float = 1e-6
    feasibility_recovery: bool = True
    flood_slack_ref: float = 1.0
    demand_ref: float = 100.0
    dry_penalty_weight: float = 1e6
    dry_margin: float = 1e-9

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if not self.s_min < self.s_max:
            raise ValueError("s_min must lie below s_max")
        if self.tie_break_weight <= 0.0:
            raise ValueError("tie_break_weight must be positive")
        if self.flood_slack_ref <= 0.0 or self.demand_ref <= 0.0:
            raise ValueError("slack normalizations must be positive")
        if self.dry_penalty_weight <= 0.0:
            raise ValueError("dry_penalty_weight must be positive")
        if self.dry_margin < 0.0:
            raise ValueError("dry_margin must be nonnegative")

    @classmethod
    def for_lake(cls, params: LakeParams, **overrides) -> "MpcConfig":
        """Config with storage bounds derived from the lake's thresholds."""
        area = params.surface_area
        return cls(
            s_min=(params.dry_threshold - params.level_offset) * area,
            s_max=(params.flood_threshold - params.level_offset) * area,
            **overrides,
        )


@dataclass(frozen=True)
class SolveInfo:
    status: str
    kkt_residual: float
    iterations: int = 0


@dataclass
class MpcStepResult:
    planned_releases: np.ndarray
    slack_max: np.ndarray
    slack_demand: np.ndarray
    objective: float
    recovery_used: bool
    solve_diagnostics: SolveInfo
    dry_slack: np.ndarray | None = None


def interpret_demand_slack(u: float, w: float) -> float:
    """Optimal demand slack for a release u against demand w: min(u - w, 0)."""
    return min(u - w, 0.0)


def _check_horizon_inputs(config, s0, inflow_forecast, demand, u_bounds):
    h = config.horizon
    if s0 < 0.0:
        raise ValueError(f"s0 must be nonnegative, got {s0}")
    inflow_forecast = np.asarray(inflow_forecast, dtype=float)
    demand = np.asarray(demand, dtype=float)
    u_bounds = np.asarray(u_bounds, dtype=float).reshape(-1, 2)
    if inflow_forecast.shape != (h,) or demand.shape != (h,) or u_bounds.shape != (h, 2):
        raise ValueError(
            f"horizon mismatch: expected {h} forecast/demand/bound entries, got "
            f"{inflow_forecast.size}/{demand.size}/{u_bounds.shape[0]}"
        )
    if np.any(u_bounds[:, 0] > u_bounds[:, 1]):
        raise ValueError("u_bounds must be ordered (lower <= upper)")
    return inflow_forecast, demand, u_bounds


def assemble_qp(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow_forecast,
    demand,
    u_bounds,
    soften_dry: bool = False,
) -> qp.QpProblem:
    """Build the decision-step QP.

    Decision vector: (u[0..H-1], slack_flood[0..H-1], slack_demand[0..H-1])
    plus a dry-recovery slack block when soften_dry is set. slack_flood[t]
    refers to the storage reached after step t. Constraint rows:

        storage lower (hard):  s(t)/A >= (s_min)/A + dry_margin
        storage upper (soft):  s(t)/A <= s_max/A + slack_flood(t)
        demand:                u(t) >= w(t) + slack_demand(t)

    with s(t) = s0 + 3600 * sum_{tau<t} (q - u). When soften_dry is set the
    hard rows gain a heavily penalized nonnegative slack (in level units)
    so the problem is always feasible.

    The Hessian and the row matrix are read-only and shared by every call
    with the same horizon, surface area, cost weights and soften_dry.
    """
    h = config.horizon
    inflow_forecast, demand, u_bounds = _check_horizon_inputs(
        config, s0, inflow_forecast, demand, u_bounds
    )
    area = params.surface_area
    hessian, ineq_matrix = _qp_matrices(
        h,
        area,
        config.tie_break_weight,
        config.flood_slack_ref,
        config.lam,
        config.demand_ref,
        config.dry_penalty_weight,
        soften_dry,
    )
    n_var = hessian.shape[0]
    linear = np.zeros(n_var)
    linear[:h] = -2.0 * config.tie_break_weight * demand

    # s(t) for t=1..H before releases, all divided by the surface area.
    inflow_volume = HOUR_SECONDS * np.cumsum(inflow_forecast)
    stored_q = (s0 + inflow_volume) / area
    rhs = [
        # Dry: 3600/A sum u (- dry slack) <= (s(t)_inflow - s_min)/A - margin.
        # s0 - s_min first: near the dry bound it is exact, and the cap does
        # not lose its digits to the cancellation of two large storages.
        (s0 - config.s_min + inflow_volume) / area - config.dry_margin,
        # Flood: -3600/A sum u - slack_flood <= (s_max - s(t)_inflow)/A
        config.s_max / area - stored_q,
        # Demand: -u + slack_demand <= -w
        -demand,
    ]

    lower = np.full(n_var, -np.inf)
    upper = np.full(n_var, np.inf)
    lower[:h] = u_bounds[:, 0]
    upper[:h] = u_bounds[:, 1]
    lower[h:2 * h] = 0.0
    if soften_dry:
        lower[3 * h:] = 0.0

    return qp.QpProblem(
        hessian=hessian,
        linear_cost=linear,
        ineq_matrix=ineq_matrix,
        ineq_rhs=np.concatenate(rhs),
        lower=lower,
        upper=upper,
    )


@functools.lru_cache(maxsize=16)
def _qp_matrices(
    h, area, tie_break_weight, flood_slack_ref, lam, demand_ref, dry_penalty_weight, soften_dry
):
    """The read-only Hessian and row matrix of assemble_qp's QP.

    They depend only on the arguments, so every hour of a run shares one
    copy, and qp.solve factors it once (it memoizes on read-only arrays).
    """
    n_var = 4 * h if soften_dry else 3 * h
    iu, iem, ied, idry = 0, h, 2 * h, 3 * h

    diag = np.zeros(n_var)
    diag[iu:iem] = 2.0 * tie_break_weight
    diag[iem:ied] = 2.0 / flood_slack_ref**2
    diag[ied:ied + h] = 2.0 * lam / demand_ref**2
    if soften_dry:
        diag[idry:] = 2.0 * dry_penalty_weight / flood_slack_ref**2
    hessian = np.diag(diag)

    lower_tri = np.tril(np.ones((h, h))) * (HOUR_SECONDS / area)
    dry_rows = np.zeros((h, n_var))
    dry_rows[:, iu:iem] = lower_tri
    if soften_dry:
        dry_rows[:, idry:] = -np.eye(h)
    flood_rows = np.zeros((h, n_var))
    flood_rows[:, iu:iem] = -lower_tri
    flood_rows[:, iem:ied] = -np.eye(h)
    demand_rows = np.zeros((h, n_var))
    demand_rows[:, iu:iem] = -np.eye(h)
    demand_rows[:, ied:ied + h] = np.eye(h)
    ineq_matrix = np.vstack([dry_rows, flood_rows, demand_rows])

    hessian.flags.writeable = False
    ineq_matrix.flags.writeable = False
    return hessian, ineq_matrix


def _with_slacks(config, s0, inflow_forecast, demand, u, area, soften_dry):
    """The plan u with every slack set to its binding value."""
    storage = (s0 + HOUR_SECONDS * np.cumsum(inflow_forecast - u)) / area
    em = np.maximum(storage - config.s_max / area, 0.0)
    ed = np.minimum(u - demand, 0.0)
    parts = [u, em, ed]
    if soften_dry:
        parts.append(np.maximum(config.s_min / area + config.dry_margin - storage, 0.0))
    return np.concatenate(parts)


def _trim_to_dry_rows(u, lower, cap):
    """The plan u with its cumulative release cut onto the caps sum u <= cap.

    The budget C_t = L_t + min_{k>=t}(cap_k - L_k), with L the cumulative
    minimum release, is the tightest later cap less the minimum releases in
    between; the trimmed cumulative release is U + min(0, running min of
    C - U), U = cumsum(u). The result lies in [lower, u] and meets every cap
    whenever the minimum-release plan does; otherwise the clip leaves a row
    that still fails.
    """
    floor = np.cumsum(lower)
    budget = floor + np.minimum.accumulate((cap - floor)[::-1])[::-1]
    total = np.cumsum(u)
    total += np.minimum(np.minimum.accumulate(budget - total), 0.0)
    return np.clip(np.diff(total, prepend=0.0), lower, u)


def _feasible_point(config, problem, s0, inflow_forecast, demand, u_hint, area):
    """A feasible start for the hard problem, or the dry row that rules one out.

    The guesses are u_hint (when given) and the demand, each clipped into
    the bounds. A guess that fails a dry row (the first H rows of the
    problem) by more than qp.FEASIBILITY_TOL is replaced by its trim onto
    the dry rows (_trim_to_dry_rows). Returns (x, None) with x the feasible
    candidate of lower objective, u_hint's on a tie. When neither is
    feasible, neither is the minimum-release plan, and the result is
    (None, (t, shortfall)): the first horizon step t whose dry row that plan
    fails, and by how much, in m.
    """
    h = config.horizon
    lower, upper = problem.lower[:h], problem.upper[:h]
    dry_matrix, dry_rhs = problem.ineq_matrix[:h], problem.ineq_rhs[:h]
    cap = dry_rhs * area / HOUR_SECONDS

    def with_excess(u):
        x = _with_slacks(config, s0, inflow_forecast, demand, u, area, False)
        return x, dry_matrix @ x - dry_rhs

    starts = []
    for guess in (demand,) if u_hint is None else (u_hint, demand):
        u = np.clip(guess, lower, upper)
        x, excess = with_excess(u)
        if np.max(excess) > qp.FEASIBILITY_TOL:
            x, excess = with_excess(_trim_to_dry_rows(u, lower, cap))
        if np.max(excess) <= qp.FEASIBILITY_TOL:
            starts.append(x)
    if starts:
        return min(starts, key=problem.objective_value), None
    _, excess = with_excess(lower)
    t = int(np.argmax(excess > qp.FEASIBILITY_TOL))
    return None, (t, float(excess[t]))


def step_objective(config: MpcConfig, u, slack_max, slack_demand, demand, dry_slack=None) -> float:
    """The interpretable soft cost of a horizon plan (see module docstring)."""
    u = np.asarray(u, dtype=float)
    cost = float(np.sum((np.asarray(slack_max) / config.flood_slack_ref) ** 2))
    cost += config.lam * float(np.sum((np.asarray(slack_demand) / config.demand_ref) ** 2))
    cost += config.tie_break_weight * float(np.sum((u - np.asarray(demand)) ** 2))
    if dry_slack is not None:
        cost += config.dry_penalty_weight * float(
            np.sum((np.asarray(dry_slack) / config.flood_slack_ref) ** 2)
        )
    return cost


def solve_step(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow_forecast,
    demand,
    u_bounds,
    u_hint=None,
    hour: int | None = None,
) -> MpcStepResult:
    """Assemble and solve one decision step, with the recovery fallback.

    u_hint is a guess at the plan (the shifted previous plan in closed
    loop). The solver starts from whichever of it and the demand, each
    clipped into the bounds and, where it crosses a dry row, trimmed onto
    the dry rows, has the lower objective (see _feasible_point). In
    recovery the slacked start is built from u_hint, or the demand when
    u_hint is absent.
    """
    h = config.horizon
    inflow_forecast = np.asarray(inflow_forecast, dtype=float)
    demand = np.asarray(demand, dtype=float)
    area = params.surface_area
    problem = assemble_qp(params, config, s0, inflow_forecast, demand, u_bounds)
    guess = demand if u_hint is None else np.asarray(u_hint, dtype=float)
    hint, dry_failure = _feasible_point(
        config, problem, s0, inflow_forecast, demand, u_hint, area
    )
    recovery_used = dry_failure is not None
    if recovery_used:
        if not config.feasibility_recovery:
            t, shortfall = dry_failure
            where = f" at hour {hour}" if hour is not None else ""
            raise MpcInfeasibleError(
                f"decision step infeasible{where}: the dry bound at horizon step {t} "
                f"fails even at minimum release, short by {shortfall:.6g} m",
                hour=hour,
            )
        problem = assemble_qp(
            params, config, s0, inflow_forecast, demand, u_bounds, soften_dry=True
        )
        u = np.clip(guess, problem.lower[:h], problem.upper[:h])
        hint = _with_slacks(config, s0, inflow_forecast, demand, u, area, True)
    solution = qp.solve(problem, initial_point=hint)
    dry_slack = solution.x[3 * h:] if recovery_used else None
    u = solution.x[:h]
    slack_max = solution.x[h:2 * h]
    slack_demand = solution.x[2 * h:3 * h]
    return MpcStepResult(
        planned_releases=u,
        slack_max=slack_max,
        slack_demand=slack_demand,
        objective=step_objective(config, u, slack_max, slack_demand, demand, dry_slack),
        recovery_used=recovery_used,
        solve_diagnostics=SolveInfo(
            status=solution.status,
            kkt_residual=solution.kkt_residual,
            iterations=solution.iterations,
        ),
        dry_slack=dry_slack,
    )


def _frozen_bounds(params: LakeParams, storage: float, n: int) -> np.ndarray:
    """The release bounds at the storage's level, repeated over n hours."""
    return np.tile(release_bounds(params, level_of_storage(params, storage)), (n, 1))


def run_hourly(
    params: LakeParams,
    config: MpcConfig,
    scenario: Scenario,
    s0: float,
    n_steps: int | None = None,
) -> ClosedLoopTrace:
    """Receding-horizon closed loop: solve, apply the first action, repeat.

    The forecast handed to each step is the true future inflow slice
    (deterministic control). Every step needs a full horizon of lookahead,
    so at most scenario.n_hours - horizon steps can be simulated.
    """
    h = config.horizon
    limit = scenario.n_hours - h
    if limit < 1:
        raise ValueError(f"scenario too short: {scenario.n_hours} hours for horizon {h}")
    n_steps = limit if n_steps is None else int(n_steps)
    if not 1 <= n_steps <= limit:
        raise ValueError(f"n_steps must lie in [1, {limit}], got {n_steps}")
    hint = None

    def decide(t, storage):
        nonlocal hint
        step = solve_step(
            params,
            config,
            storage,
            scenario.inflow_hourly[t:t + h],
            scenario.demand_hourly[t:t + h],
            _frozen_bounds(params, storage, h),
            u_hint=hint,
            hour=t,
        )
        hint = np.append(step.planned_releases[1:], step.planned_releases[-1])
        return step.planned_releases[:1], step

    return closed_loop(
        params,
        scenario.inflow_hourly[:n_steps],
        scenario.demand_hourly[:n_steps],
        s0,
        decide,
        f"mpc-hourly(lam={config.lam:g})",
    )


def run_daily(
    params: LakeParams,
    config: MpcConfig,
    scenario: Scenario,
    s0: float,
    n_steps: int | None = None,
) -> ClosedLoopTrace:
    """Daily open-loop mode: solve once per day, apply all 24 actions.

    The release bounds are frozen at the level measured when the day's
    problem is assembled, and the forecast is the day's inflow at daily
    resolution (scenario.inflow_daily when available, otherwise the day's
    mean), held constant over the 24 hours. The plant still saturates every
    applied action at its true hourly bounds.

    The day's QP is degenerate under a constant forecast (weakly active
    rows, tied multipliers), so the last bits of its plan, duals and KKT
    residual depend on the solver's rounding path: a change to the solver's
    arithmetic can move daily traces by about 1e-14 relative.
    """
    if config.horizon != HOURS_PER_DAY:
        raise ValueError("daily mode requires a 24-hour horizon")
    n_steps = scenario.n_hours if n_steps is None else int(n_steps)
    if n_steps < HOURS_PER_DAY or n_steps % HOURS_PER_DAY != 0:
        raise ValueError(f"n_steps must be a positive multiple of 24, got {n_steps}")
    if n_steps > scenario.n_hours:
        raise ValueError(f"n_steps {n_steps} exceeds scenario length {scenario.n_hours}")
    hint = None

    def decide(t0, storage):
        nonlocal hint
        if scenario.inflow_daily is not None:
            day_inflow = float(scenario.inflow_daily[t0 // HOURS_PER_DAY])
        else:
            day_inflow = float(np.mean(scenario.inflow_hourly[t0:t0 + HOURS_PER_DAY]))
        step = solve_step(
            params,
            config,
            storage,
            np.full(HOURS_PER_DAY, day_inflow),
            scenario.demand_hourly[t0:t0 + HOURS_PER_DAY],
            _frozen_bounds(params, storage, HOURS_PER_DAY),
            u_hint=hint,
            hour=t0,
        )
        hint = step.planned_releases
        return step.planned_releases, step

    return closed_loop(
        params,
        scenario.inflow_hourly[:n_steps],
        scenario.demand_hourly[:n_steps],
        s0,
        decide,
        f"mpc-daily(lam={config.lam:g})",
    )
