"""Deterministic dynamic programming benchmark.

Backward induction over a discretized storage grid with the disturbance
(inflow) perfectly known over the whole run, giving the offline-optimal
release policy the online controller is measured against. Cost-to-go is
interpolated linearly between grid nodes; the forward pass looks the policy
up at the nearest node and runs it through the same closed-loop engine and
plant as the controllers.

One stage is one hour. The backward pass moves every distinct (node,
release) pair through :func:`hydrology.mass_balance`, the plant's own
transition, so a release that would overdraw the lake empties it to exactly
0 here too. A node whose release bounds collapse (at the empty lake, above
the flood threshold, and wherever the rating curve falls below the minimum
environmental flow) has one release, not action_samples equal copies of
it, and costs one pair; on the default grid 135 of the 201 nodes do.
The actions and the grid are fixed for the run, so the transition depends
only on the hour's (inflow, demand) pair: it is computed once per run of
equal hours (a daily-held series repeats it 24 times), and the repeated
hours interpolate from a cached grid locator that reproduces ``np.interp``
bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hydrology import DEMAND_REF, LakeParams, level_of_storage, mass_balance, release_bounds
from .hydrology import _finite, _integer
from .scenario import _check_flows
from .trace import ClosedLoopTrace, closed_loop


@dataclass
class DdpConfig:
    """Weights, grid and action sampling for the backward optimization.

    hydrology.DEMAND_REF (m^3/s) normalizes the deficit term so the published
    weights act on commensurate quantities; the flood and dry terms are
    already in meters. The grid spans storages from the empty lake to
    storage_max, by default three times the flood-threshold storage.
    """

    w_flood: float = 0.4
    w_demand: float = 0.6
    w_dry: float = 0.0
    grid_points: int = 201
    storage_max: float = 656_550_000.0
    action_samples: int = 101

    def __post_init__(self) -> None:
        for name in ("w_flood", "w_demand", "w_dry", "storage_max"):
            _finite(name, getattr(self, name))
        self.grid_points = _integer("grid_points", self.grid_points)
        self.action_samples = _integer("action_samples", self.action_samples)
        if min(self.w_flood, self.w_demand, self.w_dry) < 0.0:
            raise ValueError("objective weights must be nonnegative")
        if self.w_flood + self.w_demand + self.w_dry <= 0.0:
            raise ValueError("objective weights must sum to a positive number")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if self.action_samples < 2:
            raise ValueError("action_samples must be at least 2")
        if not self.storage_max > 0.0:
            raise ValueError(f"storage_max must be positive, got {self.storage_max}")


@dataclass
class ValueTable:
    """Cost-to-go and optimal release per (time, storage node).

    values[t][i] is the optimal cost from node i with t..T-1 still to play;
    the terminal layer values[T] is identically zero. out_of_grid counts
    transitions that rose above the grid and were clamped to its top node.
    """

    values: np.ndarray
    policy: np.ndarray
    grid: np.ndarray
    out_of_grid: int = 0

    @property
    def n_steps(self) -> int:
        return self.policy.shape[0]


def stage_cost(params: LakeParams, config: DdpConfig, level, release, demand):
    """Weighted quadratic-hinge cost of one step, element-wise over arrays.

    The level is the one reached at the end of the step, matching how the
    closed-loop trace records levels. Terms are summed flood, dry, demand;
    the dry term is skipped at zero weight, where it adds exactly 0.
    """
    cost = config.w_flood * np.maximum(level - params.flood_threshold, 0.0) ** 2
    if config.w_dry:
        cost += config.w_dry * np.maximum(params.dry_threshold - level, 0.0) ** 2
    cost += config.w_demand * np.maximum((demand - release) / DEMAND_REF, 0.0) ** 2
    return cost


def trace_cost(params: LakeParams, config: DdpConfig, trace: ClosedLoopTrace) -> float:
    """Total stage cost of a recorded trace under the DDP objective."""
    return float(np.sum(stage_cost(params, config, trace.levels, trace.releases, trace.demands)))


class _GridLocator:
    """Cached cells of fixed points on a grid, for repeated ``np.interp`` calls.

    ``np.interp(x, grid, fp)`` returns ``slope * (x - grid[j]) + fp[j]`` in the
    cell ``grid[j] < x < grid[j + 1]``, with ``slope = (fp[j + 1] - fp[j]) /
    (grid[j + 1] - grid[j])``, and ``fp[j]`` itself where ``x == grid[j]``, the
    top node included. :meth:`interp` evaluates the same expressions from the
    cached cell, offset and on-node points, so for finite ``fp`` it equals
    ``np.interp`` bit for bit. The points must lie within the grid.
    """

    def __init__(self, grid: np.ndarray, x: np.ndarray) -> None:
        upper = np.searchsorted(grid, x)  # first node >= x, at most the top node
        self.cell = np.maximum(upper - 1, 0)
        self.offset = x - grid[self.cell]
        self.on_node = np.flatnonzero(grid[upper] == x)
        self.node = upper[self.on_node]
        self.spacing = np.diff(grid)

    def interp(self, fp: np.ndarray) -> np.ndarray:
        slopes = np.diff(fp) / self.spacing
        out = slopes.take(self.cell)
        out *= self.offset
        out += fp.take(self.cell)
        out[self.on_node] = fp[self.node]
        return out


def backward_induction(params: LakeParams, config: DdpConfig, inflow, demand) -> ValueTable:
    """Solve the finite-horizon problem backwards over the storage grid.

    Each node's candidates are action_samples releases uniform in its
    physical bounds; the next storage and the discharged release follow the
    plant's mass balance, the cost-to-go is interpolated linearly, and ties
    go to the smaller release. A node whose bounds collapse (r_min ==
    r_max) has action_samples copies of one release, whose totals are equal,
    so it is evaluated once and takes that release: the values and the
    policy are those of trying every copy, bit for bit. The grid starts at
    the empty lake, below which the mass balance never goes; transitions
    above its top are clamped to the top node without extra penalty, and
    out_of_grid counts them on every hour, repeated hours included, a
    collapsed node's one transition as action_samples of them.

    A stage's transition (next storages, discharged releases, stage costs
    and out-of-grid count) is computed once per run of hours with equal
    (inflow, demand) pairs and reused for the rest of the run. The first
    hour of a run interpolates with ``np.interp``; the others reuse a grid
    locator built on the second hour, which gives the same bits.

    Raises:
        ValueError: if the series differ in length or are empty, or if an
            inflow or demand is negative or not finite (naming the first such
            hour).
    """
    inflow = np.asarray(inflow, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if inflow.shape != demand.shape or inflow.ndim != 1 or inflow.size == 0:
        raise ValueError("inflow and demand must be equal-length nonempty 1-d arrays")
    _check_flows("inflow", inflow, "hour")
    _check_flows("demand", demand, "hour")
    t_end = inflow.size
    grid = np.linspace(0.0, config.storage_max, config.grid_points)
    area = params.surface_area
    level_offset = params.level_offset

    n_nodes, n_act = config.grid_points, config.action_samples
    bounds = np.array([release_bounds(params, level_of_storage(params, s)) for s in grid])
    free = np.flatnonzero(bounds[:, 0] < bounds[:, 1])
    collapsed = np.flatnonzero(bounds[:, 0] == bounds[:, 1])
    free_actions = np.zeros((free.size, n_act))
    for row, (r_min, r_max) in enumerate(bounds[free]):
        free_actions[row] = np.linspace(r_min, r_max, n_act)
    # One flat array of the distinct (node, release) pairs: the free nodes'
    # samples row by row, then one pair per collapsed node.
    n_free_pairs = free_actions.size
    pair_storage = np.concatenate([np.repeat(grid[free], n_act), grid[collapsed]])
    pair_release = np.concatenate([free_actions.ravel(), bounds[collapsed, 0]])

    values = np.zeros((t_end + 1, n_nodes))
    policy = np.zeros((t_end, n_nodes))
    policy[:, collapsed] = bounds[collapsed, 0]
    free_range = np.arange(free.size)
    out_of_grid = 0
    for t in range(t_end - 1, -1, -1):
        if t == t_end - 1 or inflow[t] != inflow[t + 1] or demand[t] != demand[t + 1]:
            next_s, released = mass_balance(pair_storage, inflow[t], pair_release)
            outside = next_s > grid[-1]
            # A collapsed node stands for its action_samples equal releases.
            n_outside = int(np.count_nonzero(outside[:n_free_pairs])) + n_act * int(
                np.count_nonzero(outside[n_free_pairs:])
            )
            if n_outside:
                next_s = np.minimum(next_s, grid[-1])
            stage = stage_cost(params, config, next_s / area + level_offset, released, demand[t])
            locator = None
            cost_to_go = np.interp(next_s, grid, values[t + 1])
        else:
            if locator is None:
                locator = _GridLocator(grid, next_s)
            cost_to_go = locator.interp(values[t + 1])
        out_of_grid += n_outside
        total = cost_to_go
        total += stage
        choice = total[:n_free_pairs].reshape(free.size, n_act)
        best = np.argmin(choice, axis=1)  # first minimum: ties go to the smaller release
        values[t, free] = choice[free_range, best]
        policy[t, free] = free_actions[free_range, best]
        values[t, collapsed] = total[n_free_pairs:]
    if out_of_grid:
        warnings.warn(
            f"{out_of_grid} grid transitions were clamped to the storage grid's top node",
            stacklevel=2,
        )
    return ValueTable(values=values, policy=policy, grid=grid, out_of_grid=out_of_grid)


def simulate_policy(
    params: LakeParams, table: ValueTable, inflow, demand, s0: float
) -> ClosedLoopTrace:
    """Forward pass: apply the tabulated policy from the nearest storage node.

    The commanded release still passes through the physical saturation at
    the true (off-grid) level and the plant's mass balance, so the trace
    obeys the same plant model as every other run. Raises ValueError for
    series not of the table's length, and for a negative or non-finite
    inflow or demand, naming the first such hour.
    """
    inflow = np.asarray(inflow, dtype=float)
    demand = np.asarray(demand, dtype=float)
    t_end = table.n_steps
    if inflow.shape != (t_end,) or demand.shape != (t_end,):
        raise ValueError(f"inflow/demand must have length {t_end} to match the value table")
    _check_flows("inflow", inflow, "hour")
    _check_flows("demand", demand, "hour")
    grid = table.grid

    def decide(t, storage):
        pos = int(np.searchsorted(grid, storage))
        if pos <= 0:
            node = 0
        elif pos >= grid.size:
            node = grid.size - 1
        else:
            node = pos if grid[pos] - storage < storage - grid[pos - 1] else pos - 1
        return table.policy[t, node:node + 1], None

    return closed_loop(params, inflow, demand, s0, decide, "ddp")
