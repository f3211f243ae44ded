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

Otherwise qp.solve needs a feasible start, built only then (it is passed
as a function) and read off the problem's own rows, lifted as they are:
no storage is recomputed from s0 and the forecast. The flood and demand
rows hold once their slacks take their binding values, so a start is a
release plan. The candidates are the demand (the demand rows' -rhs) and,
in daily mode, first the previous day's plan, each clipped into the bounds
and kept only when it meets the dry rows, and then the minimum-release
plan, which after the lift always meets them. One product with the dry
rows' release columns gives a plan's dry rows and, negated, its flood
rows' release part, so its binding flood slack. The start is the
candidate of lowest objective (_feasible_point).

The QP's Hessian and row matrix depend only on the horizon, the surface
area and lam, so _qp_structure builds them once per such configuration, as
a qp.Structure that also holds the solver's scaled copies of them, its
cache and a contiguous copy of the dry rows' release columns. The Hessian
is diagonal, and is kept as the vector of its diagonal: the solver's
products with it, and with the transform that makes it the identity, are
elementwise. Only the latest
configuration's structure is kept: a lambda sweep drops each weight's when
it moves on. The five row blocks are named once, as slices of the rows for
each horizon (_block_slices).

So a step builds only vectors. assemble_qp writes the cost and the
right-hand side block by block, in place, into one array each, and wraps
them with the structure's read-only matrices in a QpProblem; solve_step
lifts the dry rows in place and hands the problem and the structure to
qp.solve. Each input is checked once, where it enters: assemble_qp checks
s0, the shapes and the finiteness of the forecast and the demand (the
message names the series, the horizon step and the hour); qp.solve checks
the cost and the right-hand side it is handed, each candidate the first
time the structure sees it, and the start only when it builds one.
solve_step adds no check of its own, and the lift keeps the right-hand
side finite.
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


@functools.lru_cache(maxsize=None)
def _block_slices(h: int) -> _RowBlocks:
    """The slices of assemble_qp's rows that hold its five blocks, for horizon h."""
    return _RowBlocks._make(slice(i * h, (i + 1) * h) for i in range(len(_RowBlocks._fields)))


def _at(hour: int | None) -> str:
    """The end of an error message that names the hour, when one is given."""
    return "" if hour is None else f" at hour {hour}"


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

    The Hessian (the 1-d array of its diagonal) and the row matrix are
    those of _qp_structure, read-only and shared by every call with the
    same horizon, surface area and lam.

    Raises ValueError for a negative or non-finite s0, a forecast or demand
    that is not a 1-d array of horizon length (the message names the series
    and its shape) and a forecast or demand entry that is not finite (the
    message names the series and the horizon step).
    Each message names the hour when one is given.
    """
    h = config.horizon
    if not 0.0 <= s0 < np.inf:
        raise ValueError(f"s0 must be finite and nonnegative{_at(hour)}, got {s0}")
    inflow_forecast = np.asarray(inflow_forecast, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if inflow_forecast.shape != (h,) or demand.shape != (h,):
        got = ", ".join(
            f"{name} shape {series.shape}"
            for name, series in (("inflow forecast", inflow_forecast), ("demand", demand))
            if series.shape != (h,)
        )
        raise ValueError(f"horizon mismatch{_at(hour)}: expected shape ({h},), got {got}")
    # One pass clears finite series; only a failing one is diagnosed.
    if not (qp._every(np.isfinite(inflow_forecast)) and qp._every(np.isfinite(demand))):
        for name, series in (("inflow forecast", inflow_forecast), ("demand", demand)):
            finite = np.isfinite(series)
            if not finite.all():
                t = int(np.argmin(finite))
                raise ValueError(f"{name} is {series[t]} at horizon step {t}{_at(hour)}")
    area = params.surface_area
    s_min, s_max = _storage_bounds(params)
    structure = _qp_structure(h, area, config.lam)
    # The cost and each block of b are written in place, one operation at a
    # time in the order of the formula beside it, so the bits are its bits.
    linear = np.zeros(structure.hessian.size)
    np.multiply(-2.0 * TIE_BREAK_WEIGHT, demand, out=linear[:h])

    # s(t) for t=1..H before releases, all divided by the surface area.
    inflow_volume = HOUR_SECONDS * inflow_forecast.cumsum()
    r_min, r_max = release_bounds(params, level_of_storage(params, s0))
    rhs = np.empty(structure.ineq_matrix.shape[0])
    blocks = _block_slices(h)
    # Dry: 3600/A sum u <= (s(t)_inflow - s_min)/A - margin.
    # s0 - s_min first: near the dry bound it is exact, and the cap does
    # not lose its digits to the cancellation of two large storages.
    dry = rhs[blocks.dry]
    np.add(s0 - s_min, inflow_volume, out=dry)
    np.divide(dry, area, out=dry)
    np.subtract(dry, DRY_MARGIN, out=dry)
    # Flood: -3600/A sum u - slack_flood <= (s_max - s(t)_inflow)/A
    flood = rhs[blocks.flood]
    np.add(s0, inflow_volume, out=flood)
    np.divide(flood, area, out=flood)
    np.subtract(s_max / area, flood, out=flood)
    # Demand: -u + slack_demand <= -w
    np.negative(demand, out=rhs[blocks.demand])
    # Releases: -u <= -r_min, u <= r_max
    rhs[blocks.neg_lower], rhs[blocks.upper] = -r_min, r_max
    return qp.QpProblem(structure.hessian, linear, structure.ineq_matrix, rhs)


class _StepStructure(qp.Structure):
    """A qp.Structure that also holds dry_releases, a C-contiguous,
    read-only copy of the dry rows' release columns: its product with the
    minimum-release plan is the plan's dry rows, which every step reads."""

    def __init__(self, problem: qp.QpProblem, h: int) -> None:
        super().__init__(problem)
        self.dry_releases = np.ascontiguousarray(self.ineq_matrix[_block_slices(h).dry, :h])
        self.dry_releases.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _qp_structure(h: int, area: float, lam: float) -> _StepStructure:
    """The _StepStructure of assemble_qp's QP: its read-only Hessian
    diagonal and row matrix, the solver's scaled copies of them, the
    working-set factors that qp.solve caches, and the dry rows' release
    columns. Every step of a run, and of
    any later run of the same configuration while it is the last one asked
    for, shares it. Its rows fall in the five blocks of h of _RowBlocks,
    one row per horizon step, which _shifted and _block_slices rely on:
    dry, flood, demand, the lower bounds of u (-I) and the upper bounds of
    u (I).
    """
    n_var = 3 * h
    iu, iem, ied = 0, h, 2 * h

    diag = np.zeros(n_var)
    diag[iu:iem] = 2.0 * TIE_BREAK_WEIGHT
    diag[iem:ied] = 2.0 / FLOOD_SLACK_REF**2
    diag[ied:] = 2.0 * lam / DEMAND_REF**2

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
    return _StepStructure(qp.QpProblem(diag, np.zeros(n_var), ineq_matrix), h)


def _feasible_point(problem, structure, h, u_hint, lower, upper):
    """A start for a problem whose minimum-release plan meets the dry rows,
    read off the problem's own rows (_block_slices), lifted as they are.

    lower and upper are the release bounds. The candidates are the guesses,
    u_hint (when given) and the demand (the demand rows' -rhs), each clipped
    into the bounds, then the minimum-release plan lower. A plan's drawn
    level, structure.dry_releases times it, is its dry rows' left-hand side
    and the negative of its flood rows' release part, so the flood slack
    takes max(-rhs_flood - drawn, 0) and the demand slack min(u - demand,
    0). A guess is kept when it meets every dry row within
    qp.FEASIBILITY_TOL; the minimum-release plan is always kept, since after
    the lift it meets them (qp.solve's start check names the row if it ever
    does not). Returns the kept candidate of lowest objective, the first on
    a tie; the objectives are computed only when two or more are kept.
    """
    rhs, blocks = problem.ineq_rhs, _block_slices(h)
    demand, above_flood, rhs_dry = -rhs[blocks.demand], -rhs[blocks.flood], rhs[blocks.dry]
    starts = []
    for guess in ((demand,) if u_hint is None else (u_hint, demand)) + (lower,):
        u = np.minimum(np.maximum(guess, lower), upper)
        drawn = structure.dry_releases.dot(u)
        if guess is lower or (drawn - rhs_dry).max() <= qp.FEASIBILITY_TOL:
            slacks = (np.maximum(above_flood - drawn, 0.0), np.minimum(u - demand, 0.0))
            starts.append(np.concatenate([u, *slacks]))
    return starts[0] if len(starts) == 1 else min(starts, key=problem.objective_value)


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
    is optimal, the solver starts from the candidate of lowest objective
    among u_hint, a guess at the plan (the previous day's plan in daily
    mode), and the demand, each clipped into the bounds and kept only where
    it meets the dry rows, and the minimum-release plan (_feasible_point).
    That point is built only then, from the lifted problem's rows alone.
    """
    h = config.horizon
    problem = assemble_qp(params, config, s0, inflow_forecast, demand, hour=hour)
    structure = _qp_structure(h, params.surface_area, config.lam)
    rhs, blocks = problem.ineq_rhs, _block_slices(h)
    # dry_rhs and upper are views of problem.ineq_rhs: the lift edits the problem.
    dry_rhs, lower, upper = rhs[blocks.dry], -rhs[blocks.neg_lower], rhs[blocks.upper]
    # The dry rows of the minimum-release plan: no plan reaches lower values.
    floor = structure.dry_releases.dot(lower)
    failing = (floor - dry_rhs > qp.FEASIBILITY_TOL).nonzero()[0]
    # k = -1 when no row fails beyond the tolerance; rows missed by less are lifted.
    k = int(failing[-1]) if failing.size else -1
    recovery_used = k >= 0
    if recovery_used:
        upper[:k + 1] = lower[:k + 1]
        dry_rhs[:k + 1] = np.maximum(dry_rhs[:k + 1], floor[k])
    lifted = dry_rhs[k + 1:]
    np.maximum(lifted, floor[k + 1:], out=lifted)
    solution = qp.solve(
        problem,
        initial_point=lambda: _feasible_point(problem, structure, h, u_hint, lower, upper),
        working_sets=working_sets,
        structure=structure,
    )
    x = solution.x
    # planned_releases, slack_max, slack_demand, recovery_used, solve_diagnostics
    return MpcStepResult(x[:h], x[h:2 * h], x[2 * h:], recovery_used, solution)


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

    So the daily plan holds the hard dry bound when the inflow is constant
    within each day. Otherwise the lake runs below the day-mean path by the
    day's cumulative shortfall: under an intra-day bell q_tau of mean q_bar
    the deepest point is 3600 * max_t sum_{tau<=t} (q_bar - q_tau) / A -
    DRY_MARGIN below the bound, A the surface area.

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
