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
The nodes with a choice (the free nodes, r_min < r_max) are one run of the
grid: :func:`hydrology.release_bounds` leaves a choice exactly where the
level lies above the gauge offset and at or below the flood threshold, and
the rating curve there exceeds the minimum environmental flow. Levels rise
with the nodes and the rating curve never falls as the level rises, so each
of the three conditions holds on one run of nodes, and so do all three.

The actions and the grid are fixed for the run, so the transition depends
only on the hour's (inflow, demand) pair. The pass walks the series in runs
of equal pairs (a daily-held series repeats each pair 24 times) and computes
each run's transition once. A run of one hour interpolates with
``np.interp``; a longer run finds the cells of its next storages once, by
arithmetic on the uniform grid (:class:`_GridLocator`), and every hour of
it interpolates from them, bit for bit as ``np.interp`` would.

Stage t reads only the cost-to-go of hour t + 1, and the forward pass
reads only one release per hour, so the pass keeps one row of cost-to-go,
overwritten hour by hour, and the releases of the free nodes per hour; a
collapsed node's one release is kept once. On the default year this is
4.6 MB of releases, where the full (T + 1) x 201 values and T x 201 policy
took 14.1 MB each.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
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
    weights act on commensurate quantities; the flood term is already in
    meters. The grid spans storages from the empty lake to storage_max,
    by default 656,550,000 m^3: three times the flood-threshold storage of
    the default lake (LakeParams(): 145.9 km^2, flood threshold 1.1 m above
    a level offset of -0.4 m), a grid top at level 4.1 m. The default does
    not follow the lake: with a larger surface area or a higher flood
    threshold the top may lie below the threshold, and the transitions
    that rise above it are clamped (see backward_induction), so such a lake
    needs its own storage_max.
    """

    w_flood: float = 0.4
    w_demand: float = 0.6
    grid_points: int = 201
    storage_max: float = 656_550_000.0
    action_samples: int = 101

    def __post_init__(self) -> None:
        for name in ("w_flood", "w_demand", "storage_max"):
            _finite(name, getattr(self, name))
        self.grid_points = _integer("grid_points", self.grid_points)
        self.action_samples = _integer("action_samples", self.action_samples)
        if min(self.w_flood, self.w_demand) < 0.0:
            raise ValueError("objective weights must be nonnegative")
        if self.w_flood + self.w_demand <= 0.0:
            raise ValueError("objective weights must sum to a positive number")
        if self.grid_points < 3:
            raise ValueError("grid_points must be at least 3")
        if self.action_samples < 2:
            raise ValueError("action_samples must be at least 2")
        if not self.storage_max > 0.0:
            raise ValueError(f"storage_max must be positive, got {self.storage_max}")


@dataclass(frozen=True)
class ValueTable:
    """What the forward pass reads of the backward pass: the release per
    (hour, storage node), and the hour-0 cost-to-go.

    values[i] is the optimal cost from node i over the whole run (the
    cost-to-go of hour 0; the later hours' rows are dropped as the
    backward pass moves on, and the terminal row is identically zero).
    The free nodes are one run of the grid (see the module docstring),
    first_free to first_free + n - 1 for a T x n policy: policy[t, j] is
    node first_free + j's release at hour t. A node outside the run has
    one release for every hour, collapsed_release[i] (an entry inside the
    run is never read). :meth:`release` reads either. The table stores
    releases, not indices of the sampled actions, so it holds any release
    a node may take. On the default grid nodes 1 to 66 are free: a year's
    policy takes 4.6 MB, where a T x 201 one took 14.1 MB. out_of_grid
    counts transitions that rose above the grid and were clamped to its
    top node. The table is frozen, so no field can be swapped past these
    checks.

    Raises:
        ValueError: naming the field, for a grid that is not a nonempty
            1-d strictly increasing array, values or collapsed releases
            not of the grid's shape, a first_free that is not an integer in
            [0, n_nodes], a policy not of shape (T, n) with T >= 1 and
            first_free + n <= n_nodes, or a release that is not finite.
    """

    values: np.ndarray
    grid: np.ndarray
    first_free: int
    policy: np.ndarray
    collapsed_release: np.ndarray
    out_of_grid: int = 0

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or not np.all(grid[1:] > grid[:-1]):
            raise ValueError("grid must be a nonempty 1-d strictly increasing array")
        n_nodes = grid.size
        values = np.asarray(self.values, dtype=float)
        collapsed_release = np.asarray(self.collapsed_release, dtype=float)
        for name, array in (("values", values), ("collapsed_release", collapsed_release)):
            if array.shape != (n_nodes,):
                raise ValueError(f"{name} must have shape ({n_nodes},), got {array.shape}")
        first_free = _integer("first_free", self.first_free)
        if not 0 <= first_free <= n_nodes:
            raise ValueError(f"first_free must lie in [0, {n_nodes}], got {first_free}")
        policy = np.asarray(self.policy, dtype=float)
        room = n_nodes - first_free
        if policy.ndim != 2 or policy.shape[0] < 1 or policy.shape[1] > room:
            shape = policy.shape
            raise ValueError(f"policy must have shape (T, n), T >= 1, n <= {room}, got {shape}")
        for name, array in (("policy", policy), ("collapsed_release", collapsed_release)):
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must hold finite releases")
        coerced = dict(grid=grid, values=values, policy=policy, collapsed_release=collapsed_release)
        for name, value in (*coerced.items(), ("first_free", first_free)):
            object.__setattr__(self, name, value)  # the dataclass is frozen

    @property
    def n_steps(self) -> int:
        return self.policy.shape[0]

    def release(self, t: int, node: int) -> float:
        """The release the table commands from node at hour t. ValueError
        for an hour outside [0, n_steps) or a node outside the grid, which
        an index would wrap or fail on without naming."""
        if not 0 <= t < self.policy.shape[0]:
            raise ValueError(f"hour {t} is outside the table's hours [0, {self.policy.shape[0]})")
        if not 0 <= node < self.grid.size:
            raise ValueError(f"node {node} is outside the grid's nodes [0, {self.grid.size})")
        column = node - self.first_free
        if 0 <= column < self.policy.shape[1]:
            return float(self.policy[t, column])
        return float(self.collapsed_release[node])


def stage_cost(params: LakeParams, config: DdpConfig, level, release, demand):
    """Weighted quadratic-hinge cost of one step, element-wise over arrays.

    The level is the one reached at the end of the step, matching how the
    closed-loop trace records levels. Terms are summed flood, then demand;
    no term charges a level below the dry threshold.
    """
    cost = config.w_flood * np.maximum(level - params.flood_threshold, 0.0) ** 2
    cost += config.w_demand * np.maximum((demand - release) / DEMAND_REF, 0.0) ** 2
    return cost


def trace_cost(params: LakeParams, config: DdpConfig, trace: ClosedLoopTrace) -> float:
    """Total stage cost of a recorded trace under the DDP objective."""
    return float(np.sum(stage_cost(params, config, trace.levels, trace.releases, trace.demands)))


class _GridLocator:
    """Cached cells of fixed points on a uniform grid, for repeated ``np.interp`` calls.

    ``np.interp(x, grid, fp)`` returns ``slope * (x - grid[j]) + fp[j]`` in the
    cell ``grid[j] < x < grid[j + 1]``, with ``slope = (fp[j + 1] - fp[j]) /
    (grid[j + 1] - grid[j])``, and ``fp[j]`` itself where ``x == grid[j]``, the
    top node included. :meth:`interp` evaluates the same expressions from the
    cached cell, offset and on-node points, into buffers the locator owns, so
    for finite ``fp`` it equals ``np.interp`` bit for bit (until the next call
    overwrites the result). The points must lie within the grid.

    The grid must be ``np.linspace(0, top, n)``: its node k is ``k * grid[1]``
    rounded once (the top is exact), so the truncated quotient ``x /
    grid[1]`` is the last node at or below x, or one off either way where x
    lies within rounding of a node. One comparison each way against ``grid``
    itself then lands on the node ``np.interp``'s own search finds. A grid
    that does not start at 0, or is not evenly spaced, breaks that bound.
    The quotient divides, because the reciprocal of a subnormal spacing (a
    top below about 4e-306 on 201 nodes) overflows. On the default grid's
    6,801 points of a stage this takes about 60 µs, where a locator built
    on ``np.searchsorted`` took about 90 µs; each :meth:`interp` then takes
    about 18 µs, against about 40 µs for ``np.interp`` (Intel Xeon, numpy
    2.4).
    """

    def __init__(self, grid: np.ndarray, x: np.ndarray) -> None:
        last = grid.size - 1
        node = (x / grid[1]).astype(np.intp)
        np.minimum(node, last - 1, out=node)
        node -= grid.take(node) > x
        node += grid.take(node + 1) <= x  # last node <= x: the top for x == grid[-1]
        self.cell = np.minimum(node, last - 1)
        self.offset = x - grid.take(self.cell)
        self.on_node = np.flatnonzero(grid.take(node) == x)
        self.node = node.take(self.on_node)
        self.spacing = np.diff(grid)
        self._slopes = np.empty(last)
        self._base = np.empty(x.size)
        self._out = np.empty(x.size)

    def interp(self, fp: np.ndarray) -> np.ndarray:
        slopes = np.subtract(fp[1:], fp[:-1], out=self._slopes)
        slopes /= self.spacing
        # mode="clip" (the cells are in range): with out=, the default "raise"
        # gathers through a temporary copy.
        out = slopes.take(self.cell, out=self._out, mode="clip")
        out *= self.offset
        out += fp.take(self.cell, out=self._base, mode="clip")
        out[self.on_node] = fp.take(self.node)
        return out


def backward_induction(params: LakeParams, config: DdpConfig, inflow, demand) -> ValueTable:
    """Solve the finite-horizon problem backwards over the storage grid.

    Each node's candidates are action_samples releases uniform in its
    physical bounds, the free nodes' built by one ``np.linspace`` over
    their run; the next storage and the discharged release follow the
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
    and out-of-grid count) depends only on the hour's (inflow, demand)
    pair. The pass walks back over runs of hours with equal pairs, found by
    comparing the pairs as Python floats once per hour, and computes each
    run's transition once. A run of one hour interpolates with
    ``np.interp``, which is cheaper than locating its points once; a longer
    run builds one :class:`_GridLocator` on its transition and interpolates
    every hour from it, with the same bits. Each free node's first minimum
    is one flat pick (row argmin plus row offset). On the daily-held year
    (366 runs of 24 hours) a stage takes about 36 µs, against 47 µs with
    ``np.interp`` on a run's first hour and a ``np.searchsorted`` locator on
    the rest; a year of one-hour runs (intra-day inflow) spends its stage
    in ``np.interp`` and :func:`stage_cost` as before.

    The pass keeps what :class:`ValueTable` holds and no more: one row of
    cost-to-go, which the stage reads as hour t + 1's and then overwrites
    with hour t's in place, and each hour's releases of the free nodes,
    written into one contiguous row. On the default year its traced
    allocations peak at 6.3 MB, where keeping the full values and policy
    tables (14.1 MB each) peaked at 29.6 MB.

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
    # The free nodes are one run (module docstring); were a collapsed node
    # inside it, it would take action_samples equal samples and its release.
    choice = np.flatnonzero(bounds[:, 0] < bounds[:, 1])
    free = slice(choice[0], choice[-1] + 1) if choice.size else slice(0, 0)
    collapsed = np.delete(np.arange(n_nodes), free)
    free_actions = np.linspace(bounds[free, 0], bounds[free, 1], n_act, axis=1)
    # One flat array of the distinct (node, release) pairs: the free nodes'
    # samples row by row, then one pair per collapsed node.
    n_free_pairs = free_actions.size
    pair_storage = np.concatenate([np.repeat(grid[free], n_act), grid[collapsed]])
    pair_release = np.concatenate([free_actions.ravel(), bounds[collapsed, 0]])

    cost_to_go = np.zeros(n_nodes)  # of hour t + 1, overwritten with hour t's
    policy = np.empty((t_end, len(free_actions)))
    collapsed_release = np.zeros(n_nodes)
    collapsed_release[collapsed] = bounds[collapsed, 0]
    row_offsets = np.arange(0, n_free_pairs, n_act)
    inflows, demands = inflow.tolist(), demand.tolist()
    out_of_grid = 0
    end = t_end  # the run of equal hours is first..end-1
    while end:
        q, w = inflows[end - 1], demands[end - 1]
        first = end - 1
        while first and inflows[first - 1] == q and demands[first - 1] == w:
            first -= 1
        next_s, released = mass_balance(pair_storage, q, pair_release)
        outside = next_s > grid[-1]
        # A collapsed node stands for its action_samples equal releases.
        n_outside = int(np.count_nonzero(outside[:n_free_pairs])) + n_act * int(
            np.count_nonzero(outside[n_free_pairs:])
        )
        if n_outside:
            next_s = np.minimum(next_s, grid[-1])
        out_of_grid += (end - first) * n_outside
        stage = stage_cost(params, config, next_s / area + level_offset, released, w)
        locator = _GridLocator(grid, next_s) if end - first > 1 else None
        for t in range(end - 1, first - 1, -1):
            if locator is None:
                total = np.interp(next_s, grid, cost_to_go)
            else:
                total = locator.interp(cost_to_go)
            total += stage
            # First minimum of each free node's row: ties go to the smaller release.
            pick = total[:n_free_pairs].reshape(-1, n_act).argmin(axis=1)
            pick += row_offsets
            policy[t] = pair_release.take(pick)
            cost_to_go[free] = total.take(pick)
            cost_to_go[collapsed] = total[n_free_pairs:]
        end = first
    if out_of_grid:
        top = level_of_storage(params, grid[-1])
        message = (
            f"{out_of_grid} grid transitions were clamped to the storage grid's top node"
            f" (storage_max {config.storage_max:g} m^3, level {top:.6g} m)"
        )
        warnings.warn(message, stacklevel=2)
    return ValueTable(
        values=cost_to_go,
        grid=grid,
        first_free=free.start,
        policy=policy,
        collapsed_release=collapsed_release,
        out_of_grid=out_of_grid,
    )


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
    nodes = table.grid.tolist()
    top = len(nodes) - 1

    def decide(t, storage):
        pos = bisect_left(nodes, storage)  # first node >= storage
        if pos == 0:
            node = 0
        elif pos > top:
            node = top
        else:  # the nearer node; midway goes to the lower one
            node = pos if nodes[pos] - storage < storage - nodes[pos - 1] else pos - 1
        return (table.release(t, node),), None

    return closed_loop(params, inflow, demand, s0, decide, "ddp")
