"""Receding-horizon control of the lake.

Each decision step assembles a convex QP over the release plan u and two
soft-constraint slacks: flood exceedance (in level units) and demand deficit
(in flow units). Storage variables are eliminated by forward substitution of
the mass balance, and the storage constraints are carried in level units so
absolute feasibility tolerances are meaningful. The flood slack needs no
bound row: it enters only its flood row and its own cost, and the least
slack^2 over slack >= e is at max(e, 0), so every optimum holds it >= 0.

Cost per step of the horizon, after nondimensionalization:

    (slack_flood / FLOOD_SLACK_REF)^2
    + lam * (slack_demand / DEMAND_REF)^2
    + TIE_BREAK_WEIGHT * (u - w)^2

FLOOD_SLACK_REF = 1 m and DEMAND_REF = 100 m^3/s make the two slack costs
commensurate at lam = 1: a 1 m flood exceedance costs as much as a
100 m^3/s deficit. The tie-break term (TIE_BREAK_WEIGHT = 1e-6) selects the
demand-tracking point of the optimal set (the slack costs alone leave u
flat wherever no constraint is near) and is small enough to leave the two
real objectives untouched. lam must be positive so the Hessian is positive
definite.

The storage bounds come from the LakeParams the controller runs on: s_min
and s_max are the storages at the dry and flood thresholds
(_storage_bounds). The hard dry rows are backed off by DRY_MARGIN (m) so
plant arithmetic cannot land a whisker below the bound.

Every coefficient of u in the hard dry rows is nonnegative (they cap the
cumulative release, sum_{tau<=t} u <= c_t), so lowering a release never
breaks one: the hard problem is feasible exactly when the minimum-release
plan u = lower bound meets them. When it does not, the step is a recovery
step, and every step that needs one recovers, with a lexicographic policy:
release the minimum until the lake can be held at the dry bound again, then
minimize the usual cost (prioritized infeasibility handling). With k the
last horizon step whose dry row that plan fails beyond qp.FEASIBILITY_TOL
(-1 when none does), the releases of steps 0..k are fixed at their lower
bounds (their upper-bound rows take r_min), the dry rows up to k are lifted
to the plan's value at k and the later rows to the plan's values. Only
right-hand sides change, so recovery steps share the factorization of every
other step. The trace marks each hour whose step recovered (k >= 0).

Each step first offers qp.solve candidates for its optimal active set.
Between steps only the right-hand side and the cost move, so the optimum
is affine in the data on each active set, and the same few sets come back
(the critical regions of explicit MPC): the structure keeps each offered
set's affine law, and a candidate costs one product with it. An hourly
step offers first the final set that followed the last hour's final set
the last time that set was final, then the last _RECENT_SETS distinct
final working sets of the run, each shifted by an hour and then as it is,
in that fixed order (see run_hourly); a daily step offers the previous
day's set. When a candidate is optimal, its law's optimum is the step's
solution (a warm start).

Otherwise qp.solve needs a feasible start, and the step builds one close
to its optimum, so the solver usually needs only a few active-set
iterations. It is passed as a function, built only when every candidate
fails.
The flood and demand rows hold once their slacks take their binding
values, so the start is a release plan: the demand, clipped into the
bounds, and in daily mode also the previous day's plan, of which the one
with the lower objective is kept. A plan that crosses a dry row is trimmed
onto the rows: its cumulative release is cut to the budget C_t, the
tightest later cap less the minimum releases still to come. That leaves it
between the lower bound and the plan, and it meets the rows whenever the
minimum-release plan does, which after the lift is always.

The QP's Hessian and row matrix depend only on the horizon, the surface
area and lam, so _qp_structure builds them, as a qp.Structure that also
holds their factors and the solver's cache, once per such configuration.
Every step's problem holds the structure's read-only matrices, and the
step passes the structure to qp.solve. Only the latest configuration's
structure is kept: a lambda sweep drops each weight's when it moves on.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import qp
from .hydrology import (
    DEMAND_REF,
    HOUR_SECONDS,
    LakeParams,
    _finite,
    _integer,
    level_of_storage,
    release_bounds,
    storage_of_level,
)
from .scenario import HOURS_PER_DAY, Scenario
from .trace import ClosedLoopTrace, closed_loop

# The constant scalings of the cost (see the module docstring).
TIE_BREAK_WEIGHT = 1e-6
FLOOD_SLACK_REF = 1.0  # m
DRY_MARGIN = 1e-9  # m
# The distinct final working sets an hourly run keeps as candidates.
_RECENT_SETS = 8
# assemble_qp's five row blocks of h, in its docstring's order; neg_lower holds -r_min.
_RowBlocks = namedtuple("_RowBlocks", "dry flood demand neg_lower upper")


@dataclass
class MpcConfig:
    """Controller configuration.

    horizon is the prediction horizon in hours and lam the weight of the
    demand-deficit cost (the module docstring gives the cost, whose other
    scalings are module constants). A step whose dry rows no release plan
    meets always recovers (see the module docstring). The storage bounds
    come from LakeParams: s_min and s_max are the storages at its dry and
    flood thresholds.
    """

    horizon: int = 24
    lam: float = 1.0

    def __post_init__(self) -> None:
        self.horizon = _integer("horizon", self.horizon)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        _finite("lam", self.lam)
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")


@dataclass
class MpcStepResult:
    planned_releases: np.ndarray
    slack_max: np.ndarray
    slack_demand: np.ndarray
    recovery_used: bool
    solve_diagnostics: qp.QpSolution


def _storage_bounds(params: LakeParams) -> tuple[float, float]:
    """(s_min, s_max): the storages at the lake's dry and flood thresholds."""
    return (
        storage_of_level(params, params.dry_threshold),
        storage_of_level(params, params.flood_threshold),
    )


def _row_blocks(rhs: np.ndarray) -> _RowBlocks:
    """The right-hand side of assemble_qp's rows in its five blocks, as views."""
    return _RowBlocks._make(rhs.reshape(len(_RowBlocks._fields), -1))


def assemble_qp(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow_forecast,
    demand,
    hour: int | None = None,
) -> qp.QpProblem:
    """Build the decision-step QP.

    Decision vector: (u[0..H-1], slack_flood[0..H-1], slack_demand[0..H-1]).
    slack_flood[t] refers to the storage reached after step t. The release
    bounds of every step are hydrology.release_bounds at s0's level, the
    level measured when the step is decided. Constraint rows:

        storage lower (hard):  s(t)/A >= s_min/A + DRY_MARGIN
        storage upper (soft):  s(t)/A <= s_max/A + slack_flood(t)
        demand:                u(t) >= w(t) + slack_demand(t)
        releases:              r_min <= u(t) <= r_max

    with s(t) = s0 + 3600 * sum_{tau<t} (q - u) and s_min, s_max the
    storages at the lake's dry and flood thresholds (slack_flood needs no
    bound: see the module docstring). The problem may be infeasible: when
    the minimum-release plan fails a dry row, solve_step fixes the leading
    releases and lifts the dry rows before solving it.

    The Hessian and the row matrix are those of _qp_structure, read-only
    and shared by every call with the same horizon, surface area and lam.

    Raises ValueError for a negative or non-finite s0, arrays whose length
    is not the horizon and a forecast or demand entry that is not finite
    (the message names the series and the horizon step).
    Each message names the hour when one is given.
    """
    h = config.horizon
    where = f" at hour {hour}" if hour is not None else ""
    if not 0.0 <= s0 < np.inf:
        raise ValueError(f"s0 must be finite and nonnegative{where}, got {s0}")
    inflow_forecast = np.asarray(inflow_forecast, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if inflow_forecast.shape != (h,) or demand.shape != (h,):
        raise ValueError(
            f"horizon mismatch{where}: expected {h} forecast/demand entries, got "
            f"{inflow_forecast.size}/{demand.size}"
        )
    # One pass clears finite series; only a failing one is diagnosed.
    if not (np.isfinite(inflow_forecast).all() and np.isfinite(demand).all()):
        for name, series in (("inflow forecast", inflow_forecast), ("demand", demand)):
            finite = np.isfinite(series)
            if not finite.all():
                t = int(np.argmin(finite))
                raise ValueError(f"{name} is {series[t]} at horizon step {t}{where}")
    area = params.surface_area
    s_min, s_max = _storage_bounds(params)
    structure = _qp_structure(h, area, config.lam)
    n_var = structure.hessian.shape[0]
    linear = np.zeros(n_var)
    linear[:h] = -2.0 * TIE_BREAK_WEIGHT * demand

    # s(t) for t=1..H before releases, all divided by the surface area.
    inflow_volume = HOUR_SECONDS * np.cumsum(inflow_forecast)
    r_min, r_max = release_bounds(params, level_of_storage(params, s0))
    rhs = np.empty(structure.ineq_matrix.shape[0])
    rows = _row_blocks(rhs)
    # Dry: 3600/A sum u <= (s(t)_inflow - s_min)/A - margin.
    # s0 - s_min first: near the dry bound it is exact, and the cap does
    # not lose its digits to the cancellation of two large storages.
    rows.dry[:] = (s0 - s_min + inflow_volume) / area - DRY_MARGIN
    # Flood: -3600/A sum u - slack_flood <= (s_max - s(t)_inflow)/A
    rows.flood[:] = s_max / area - (s0 + inflow_volume) / area
    # Demand: -u + slack_demand <= -w
    rows.demand[:] = -demand
    # Releases: -u <= -r_min, u <= r_max
    rows.neg_lower[:], rows.upper[:] = -r_min, r_max
    return qp.QpProblem(
        hessian=structure.hessian,
        linear_cost=linear,
        ineq_matrix=structure.ineq_matrix,
        ineq_rhs=rhs,
    )


@functools.lru_cache(maxsize=1)
def _qp_structure(h: int, area: float, lam: float) -> qp.Structure:
    """The qp.Structure of assemble_qp's QP: its read-only Hessian and row
    matrix, their factors, and the working-set factors that qp.solve
    caches. Every step of a run, and of any later run of the same
    configuration while it is the last one asked for, shares it. Its rows
    fall in the five blocks of h of _RowBlocks, one row per horizon step,
    which _shifted and _row_blocks rely on: dry, flood, demand, the lower
    bounds of u (-I) and the upper bounds of u (I).
    """
    n_var = 3 * h
    iu, iem, ied = 0, h, 2 * h

    diag = np.zeros(n_var)
    diag[iu:iem] = 2.0 * TIE_BREAK_WEIGHT
    diag[iem:ied] = 2.0 / FLOOD_SLACK_REF**2
    diag[ied:] = 2.0 * lam / DEMAND_REF**2
    hessian = np.diag(diag)

    lower_tri = np.tril(np.ones((h, h))) * (HOUR_SECONDS / area)
    dry_rows = np.zeros((h, n_var))
    dry_rows[:, iu:iem] = lower_tri
    flood_rows = np.zeros((h, n_var))
    flood_rows[:, iu:iem] = -lower_tri
    flood_rows[:, iem:ied] = -np.eye(h)
    demand_rows = np.zeros((h, n_var))
    demand_rows[:, iu:iem] = -np.eye(h)
    demand_rows[:, ied:] = np.eye(h)
    eye = np.eye(h, n_var)
    ineq_matrix = np.vstack([dry_rows, flood_rows, demand_rows, 0.0 - eye, eye])
    return qp.Structure(qp.QpProblem(hessian, np.zeros(n_var), ineq_matrix))


def _with_slacks(params, s0, inflow_forecast, demand, u):
    """The plan u with both slacks set to their binding values."""
    area = params.surface_area
    s_max = _storage_bounds(params)[1]
    storage = (s0 + HOUR_SECONDS * np.cumsum(inflow_forecast - u)) / area
    em = np.maximum(storage - s_max / area, 0.0)
    ed = np.minimum(u - demand, 0.0)
    return np.concatenate([u, em, ed])


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


def _feasible_point(params, problem, s0, inflow_forecast, demand, u_hint, dry_rhs, lower, upper):
    """A start for a problem whose minimum-release plan meets the dry rows.

    dry_rhs, lower and upper are the problem's dry right-hand sides and
    release bounds (_row_blocks). The guesses are u_hint (when given) and
    the demand, each clipped into the release bounds. A guess that fails a
    dry row by more than qp.FEASIBILITY_TOL is replaced by its trim onto
    the dry rows (_trim_to_dry_rows). Returns the feasible candidate of
    lower objective, u_hint's on a tie. The trim meets the rows whenever
    the minimum-release plan does, so that plan is returned only when
    rounding leaves neither trimmed guess within tolerance.
    """
    dry_matrix = problem.ineq_matrix[:demand.size]
    cap = dry_rhs * params.surface_area / HOUR_SECONDS

    def with_excess(u):
        x = _with_slacks(params, s0, inflow_forecast, demand, u)
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
        return min(starts, key=problem.objective_value)
    return _with_slacks(params, s0, inflow_forecast, demand, lower)


def solve_step(
    params: LakeParams,
    config: MpcConfig,
    s0: float,
    inflow_forecast,
    demand,
    u_hint=None,
    hour: int | None = None,
    working_sets=(),
) -> MpcStepResult:
    """Assemble and solve one decision step.

    When the minimum-release plan fails a dry row, the step is a recovery
    step (recovery_used): it holds the minimum release through the last
    failing row and lifts the dry rows (see the module docstring).

    working_sets are candidates for the optimal active set, each in the form
    of qp.QpSolution.working_set, which qp.solve tries in order. When none
    is optimal, the solver starts from the demand or, when given, u_hint, a
    guess at the plan (the previous day's plan in daily mode): whichever,
    clipped into the bounds and, where it crosses a dry row, trimmed onto
    the dry rows, has the lower objective (see _feasible_point). That point
    is built only then.
    """
    h = config.horizon
    inflow_forecast = np.asarray(inflow_forecast, dtype=float)
    demand = np.asarray(demand, dtype=float)
    problem = assemble_qp(params, config, s0, inflow_forecast, demand, hour=hour)
    # dry_rhs and upper are views of problem.ineq_rhs: the lift edits the problem.
    rows = _row_blocks(problem.ineq_rhs)
    dry_rhs, lower, upper = rows.dry, -rows.neg_lower, rows.upper
    # The dry rows of the minimum-release plan: no plan reaches lower values.
    floor = problem.ineq_matrix[:h, :h] @ lower
    failing = np.flatnonzero(floor - dry_rhs > qp.FEASIBILITY_TOL)
    # k = -1 when no row fails beyond the tolerance; rows missed by less are lifted.
    k = int(failing[-1]) if failing.size else -1
    recovery_used = k >= 0
    if recovery_used:
        upper[:k + 1] = lower[:k + 1]
        dry_rhs[:k + 1] = np.maximum(dry_rhs[:k + 1], floor[k])
    dry_rhs[k + 1:] = np.maximum(dry_rhs[k + 1:], floor[k + 1:])
    solution = qp.solve(
        problem,
        initial_point=lambda: _feasible_point(
            params, problem, s0, inflow_forecast, demand, u_hint, dry_rhs, lower, upper
        ),
        working_sets=working_sets,
        structure=_qp_structure(h, params.surface_area, config.lam),
    )
    return MpcStepResult(
        planned_releases=solution.x[:h],
        slack_max=solution.x[h:2 * h],
        slack_demand=solution.x[2 * h:],
        recovery_used=recovery_used,
        solve_diagnostics=solution,
    )


def _shifted(working_set: tuple[int, ...], h: int) -> tuple[int, ...]:
    """The working set one hour later. The structure's rows fall in five
    blocks of h, one row per horizon step (see _qp_structure): in every
    block, position p moves to p - 1, position 0 leaves, and position h - 1
    also stays (the next plan's guess repeats the last release)."""
    moved = [i - 1 for i in working_set if i % h] + [i for i in working_set if i % h == h - 1]
    return tuple(sorted(moved))


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

    Each step offers the solver candidates for its active set in one fixed
    order, without repeats. First, as it is, the set that followed the last
    hour's final set the last time that set was final (the run keeps the
    latest such transition of each set). Then the last _RECENT_SETS
    distinct final working sets of the run, most recent first, each shifted
    by an hour (_shifted, computed once when the set enters the list) and
    then as it is. On the flood window the final sets cycle through the
    same sequence with a period of about ten hours, so the set that
    followed the current one last time is usually the next one: on days
    104-120 from 1.08 m an hour rejects 0.45 candidates before the one it
    takes, against 1.57 with the list alone.
    """
    h = config.horizon
    limit = scenario.n_hours - h
    if limit < 1:
        raise ValueError(f"scenario too short: {scenario.n_hours} hours for horizon {h}")
    n_steps = limit if n_steps is None else _integer("n_steps", n_steps)
    if not 1 <= n_steps <= limit:
        raise ValueError(f"n_steps must lie in [1, {limit}], got {n_steps}")
    # Each recent final set -> its shifted form, least recent first.
    recent = {}
    # A final set -> the final set of the hour after it, the last time it
    # was final; and the last hour's final set.
    successor = {}
    last = None

    def decide(t, storage):
        nonlocal last
        offered = [successor[last]] if last in successor else []
        for rows, shifted in reversed(recent.items()):
            offered += (shifted, rows)
        step = solve_step(
            params,
            config,
            storage,
            scenario.inflow_hourly[t:t + h],
            scenario.demand_hourly[t:t + h],
            hour=t,
            working_sets=list(dict.fromkeys(offered)),
        )
        final = step.solve_diagnostics.working_set
        successor[last] = final
        last = final
        recent[final] = recent.pop(final) if final in recent else _shifted(final, h)
        if len(recent) > _RECENT_SETS:
            del recent[next(iter(recent))]
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
    problem is assembled, and the forecast is the day's mean hourly inflow,
    held constant over the 24 hours. The plant still saturates every
    applied action at its true hourly bounds.

    The day's QP is degenerate under a constant forecast (weakly active
    rows, tied multipliers), so the last bits of its plan, duals and KKT
    residual depend on the solver's rounding path: a change to the solver's
    arithmetic can move daily traces by about 1e-14 relative.

    Each day offers the solver one candidate, the previous day's final
    working set, not run_hourly's list: a day that takes no candidate pays
    for every one it rejects, and 82 of the synthetic year's 366 days take
    none.
    """
    if config.horizon != HOURS_PER_DAY:
        raise ValueError("daily mode requires a 24-hour horizon")
    n_steps = scenario.n_hours if n_steps is None else _integer("n_steps", n_steps)
    if n_steps < HOURS_PER_DAY or n_steps % HOURS_PER_DAY != 0:
        raise ValueError(f"n_steps must be a positive multiple of 24, got {n_steps}")
    if n_steps > scenario.n_hours:
        raise ValueError(f"n_steps {n_steps} exceeds scenario length {scenario.n_hours}")
    hint = previous = None

    def decide(t0, storage):
        nonlocal hint, previous
        day_inflow = float(np.mean(scenario.inflow_hourly[t0:t0 + HOURS_PER_DAY]))
        step = solve_step(
            params,
            config,
            storage,
            np.full(HOURS_PER_DAY, day_inflow),
            scenario.demand_hourly[t0:t0 + HOURS_PER_DAY],
            u_hint=hint,
            hour=t0,
            working_sets=() if previous is None else (previous,),
        )
        hint = step.planned_releases
        previous = step.solve_diagnostics.working_set
        return step.planned_releases, step

    return closed_loop(
        params,
        scenario.inflow_hourly[:n_steps],
        scenario.demand_hourly[:n_steps],
        s0,
        decide,
        f"mpc-daily(lam={config.lam:g})",
    )
