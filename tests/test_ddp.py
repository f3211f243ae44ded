"""Dynamic-programming benchmark tests: DP optimality on exact-grid instances."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_ddp_value,
    exact_grid_ddp_instance,
    reference_backward_induction,
    reference_nearest_node,
)
from lakempc import ddp
from lakempc.ddp import (
    DdpConfig,
    ValueTable,
    backward_induction,
    simulate_policy,
    stage_cost,
    trace_cost,
)
from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    mass_balance,
    rating_curve,
    release_bounds,
    storage_of_level,
)
from lakempc.scenario import GaussianInflowParams, expand_daily, synthetic_year
from lakempc.trace import mass_balance_error

PARAMS = LakeParams()


def _release_table(table: ValueTable) -> np.ndarray:
    """The T x n_nodes releases of a table, built from its compact fields."""
    releases = np.tile(table.collapsed_release, (table.n_steps, 1))
    releases[:, table.first_free : table.first_free + table.policy.shape[1]] = table.policy
    return releases


def _all_free_table(policy, grid) -> ValueTable:
    """A hand-built table whose free nodes start at node 0 (every node when
    the policy has a column per node)."""
    grid = np.asarray(grid, dtype=float)
    return ValueTable(
        values=np.zeros(grid.size),
        grid=grid,
        first_free=0,
        policy=policy,
        collapsed_release=np.zeros(grid.size),
    )


class TestStageCost:
    def test_no_violation_is_free(self):
        config = DdpConfig()
        assert stage_cost(PARAMS, config, level=1.0, release=120.0, demand=100.0) == 0.0

    def test_flood_term_hand_value(self):
        config = DdpConfig(w_flood=0.4, w_demand=0.6)
        # 0.4 * (1.6 - 1.1)^2 = 0.1
        value = stage_cost(PARAMS, config, level=1.6, release=200.0, demand=100.0)
        assert value == pytest.approx(0.1, rel=1e-12)

    def test_dry_term_silent_at_zero_weight(self):
        # The DDP has no dry term: a level below the dry threshold costs nothing.
        config = DdpConfig(w_flood=0.4, w_demand=0.6)
        assert stage_cost(PARAMS, config, level=-0.3, release=50.0, demand=10.0) == 0.0

    def test_demand_normalization(self):
        config = DdpConfig(w_flood=0.0, w_demand=1.0)
        value = stage_cost(PARAMS, config, level=0.0, release=50.0, demand=150.0)
        assert value == pytest.approx(1.0, rel=1e-12)


class TestBackwardInduction:
    def test_single_stage_policy_clips_demand(self):
        # T = 1: for an interior level the cost reduces to the demand term, so
        # the best grid action is the demand clipped into the bounds (the
        # demand value sits on the sampled action grid here).
        params, config, grid = exact_grid_ddp_instance()
        demand = 12.5  # == actions midpoint? action set is {0, 25}: pick 25.
        table = backward_induction(params, config, [0.0], [25.0])
        wet = [1, 2]  # bottom node is dry/absorbing with zero bounds
        for node in wet:
            r_min, r_max = release_bounds(params, level_of_storage(params, grid[node]))
            assert table.release(0, node) == pytest.approx(
                min(max(25.0, r_min), r_max), rel=1e-9
            )
        assert table.release(0, 0) == 0.0
        # The terminal cost-to-go is zero: one stage costs its stage cost alone.
        for node in range(3):
            next_s, released = mass_balance(grid[node], 0.0, table.release(0, node))
            level = level_of_storage(params, next_s)
            assert table.values[node] == stage_cost(params, config, level, released, 25.0)

    def test_two_stage_matches_exhaustive_enumeration(self):
        params, config, grid = exact_grid_ddp_instance()
        inflow = [0.0, 0.0]
        demand = [30.0, 10.0]
        table = backward_induction(params, config, inflow, demand)
        assert table.out_of_grid == 0
        for node in range(3):
            expected = brute_force_ddp_value(params, config, grid[node], inflow, demand)
            assert table.values[node] == pytest.approx(expected, abs=1e-9)

    def test_three_stage_matches_exhaustive_enumeration(self):
        params, config, grid = exact_grid_ddp_instance()
        inflow = [0.0, 0.0, 0.0]
        demand = [30.0, 25.0, 5.0]
        table = backward_induction(params, config, inflow, demand)
        for node in range(3):
            expected = brute_force_ddp_value(params, config, grid[node], inflow, demand)
            assert table.values[node] == pytest.approx(expected, abs=1e-9)

    def test_flat_cost_ties_break_to_smaller_release(self):
        # No demand and no flood exposure: every action costs the same, so
        # the documented tie-break picks the smallest.
        params, config, grid = exact_grid_ddp_instance()
        table = backward_induction(params, config, [0.0], [0.0])
        assert np.all(_release_table(table)[0] == 0.0)

    def test_values_nonnegative_terminal_zero(self):
        config = DdpConfig(grid_points=21, action_samples=11)
        scn = synthetic_year(3, first_day=100)
        inflow, demand = scn.inflow_hourly, scn.demand_hourly
        table = backward_induction(PARAMS, config, inflow, demand)
        assert np.all(table.values >= 0.0)
        # Hour t's cost-to-go is the hour-0 cost-to-go of the run from hour t
        # on, so each hour's row is checked through the table of its suffix.
        for t in range(1, scn.n_hours):
            suffix = backward_induction(PARAMS, config, inflow[t:], demand[t:])
            assert np.all(suffix.values >= 0.0)
        # The last hour plays against a zero terminal cost-to-go: each node's
        # one-hour value is the stage cost of its release alone, and the
        # releases are the whole run's last-hour releases.
        grid = suffix.grid
        for node in range(grid.size):
            next_s, released = mass_balance(grid[node], inflow[-1], suffix.release(0, node))
            level = level_of_storage(PARAMS, next_s)
            assert suffix.values[node] == stage_cost(PARAMS, config, level, released, demand[-1])
        assert np.array_equal(_release_table(table)[-1], _release_table(suffix)[0])

    def test_out_of_grid_transitions_counted(self):
        # A grid far too small for the flows: transitions clamp and warn.
        config = DdpConfig(grid_points=3, storage_max=1e5, action_samples=3)
        with pytest.warns(UserWarning, match="clamped"):
            table = backward_induction(PARAMS, config, [500.0] * 2, [0.0] * 2)
        assert table.out_of_grid > 0

    def test_clamp_warning_names_the_grid_top(self):
        # The default storage_max fits the default lake only, so the warning
        # says where the grid ends.
        config = DdpConfig(grid_points=3, storage_max=1e5, action_samples=3)
        top = level_of_storage(PARAMS, 1e5)
        with pytest.warns(UserWarning, match=rf"\(storage_max 100000 m\^3, level {top:.6g} m\)"):
            backward_induction(PARAMS, config, [500.0] * 2, [0.0] * 2)

    def test_grid_starts_at_the_empty_lake(self):
        # Demand far above inflow for two days: no node holds enough water,
        # so every node pays a deficit. A grid bottom above the empty lake
        # once lifted the low storages onto it for free, and every
        # cost-to-go came out 0.
        config = DdpConfig(grid_points=11, storage_max=2e6, action_samples=21)
        table = backward_induction(PARAMS, config, [5.0] * 48, [100.0] * 48)
        assert table.grid[0] == 0.0
        assert table.out_of_grid == 0
        assert np.all(table.values > 0.0)

    def test_year_allocates_less_than_one_full_table(self):
        # The pass keeps one row of cost-to-go and the free nodes' releases,
        # about 6.3 MB on the default year; the full value and policy tables
        # it once kept peaked at 29.6 MB.
        scn = synthetic_year(366)
        config = DdpConfig()
        one_table = (scn.n_hours + 1) * config.grid_points * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            table = backward_induction(PARAMS, config, scn.inflow_hourly, scn.demand_hourly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_steps == scn.n_hours
        assert peak < one_table

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            backward_induction(PARAMS, DdpConfig(), [1.0, 2.0], [1.0])

    @pytest.mark.parametrize(
        ("inflow", "demand", "message"),
        [
            ([100.0, np.nan, 100.0], [50.0] * 3, "inflow .* got nan at hour 1"),
            ([100.0, -50.0, 100.0], [50.0] * 3, "inflow .* got -50.0 at hour 1"),
            ([100.0, 100.0, np.inf], [50.0] * 3, "inflow .* got inf at hour 2"),
            ([100.0] * 3, [50.0, 50.0, np.inf], "demand .* got inf at hour 2"),
            ([100.0] * 3, [np.nan, 50.0, 50.0], "demand .* got nan at hour 0"),
            ([100.0] * 3, [50.0, -1.0, 50.0], "demand .* got -1.0 at hour 1"),
        ],
    )
    def test_poisoned_series_rejected_naming_the_hour(self, inflow, demand, message):
        config = DdpConfig(grid_points=21, action_samples=11)
        with pytest.raises(ValueError, match=message):
            backward_induction(PARAMS, config, inflow, demand)


class TestFreeRun:
    @settings(max_examples=300, deadline=None)
    @given(
        surface_area=st.floats(1e5, 1e10),
        level_offset=st.floats(-3.0, 0.0),
        dry_rise=st.floats(1e-3, 2.0),
        flood_rise=st.floats(1e-3, 2.0),
        mef=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
        sat_k=st.floats(1e-2, 100.0),
        # sat_n below -level_offset: the rating curve is 0 at low levels.
        sat_n=st.floats(-2.0, 5.0),
        sat_e=st.floats(0.1, 3.0),
        n=st.integers(3, 300),
        # A share below 1 puts the grid's top below the flood storage.
        top_share=st.floats(0.01, 3.0),
    )
    def test_free_nodes_form_one_run(
        self, surface_area, level_offset, dry_rise, flood_rise, mef, sat_k, sat_n, sat_e, n, top_share
    ):
        # ValueTable reads a node's release by its offset from first_free,
        # so the nodes with a choice of release must be one run of the grid.
        params = LakeParams(
            surface_area=surface_area,
            level_offset=level_offset,
            dry_threshold=level_offset + dry_rise,
            flood_threshold=level_offset + dry_rise + flood_rise,
            mef=mef,
            sat_k=sat_k,
            sat_n=sat_n,
            sat_e=sat_e,
        )
        top = top_share * storage_of_level(params, params.flood_threshold)
        grid = np.linspace(0.0, top, n)
        bounds = [release_bounds(params, level_of_storage(params, s)) for s in grid]
        free = np.array([r_min < r_max for r_min, r_max in bounds])
        assert np.count_nonzero(free[1:] & ~free[:-1]) + free[0] <= 1

    def test_default_grid_run(self):
        # Node 0, the empty lake, has no choice, and nor do the nodes above
        # the flood threshold, from node 67 on.
        scn = synthetic_year(1)
        table = backward_induction(PARAMS, DdpConfig(), scn.inflow_hourly, scn.demand_hourly)
        assert (table.first_free, table.policy.shape) == (1, (24, 66))
        levels = [level_of_storage(PARAMS, s) for s in table.grid]
        assert levels[66] <= PARAMS.flood_threshold < levels[67]


def _clamping_instance():
    """A 2-day daily-held input on a grid that every hour leaves at the top.

    The top node's smallest release does not outrun the inflow, so the top
    clamp occurs on every hour, repeated hours included.
    """
    config = DdpConfig(grid_points=11, storage_max=2e6, action_samples=21)
    inflow = expand_daily([50.0, 60.0])
    top = level_of_storage(PARAMS, config.storage_max)
    assert release_bounds(PARAMS, top)[0] < inflow.min()
    return PARAMS, config, inflow, expand_daily([40.0, 45.0])


def _flood_clamping_instance():
    """A grid whose top nodes lie above the flood threshold, under an inflow
    that outruns their full discharge: their release bounds collapse onto
    the rating curve, so one pair per node stands for action_samples
    clamped transitions in out_of_grid."""
    config = DdpConfig(grid_points=21, storage_max=2.4e8, action_samples=11)
    inflow = expand_daily([600.0, 700.0])
    top = level_of_storage(PARAMS, config.storage_max)
    assert top > PARAMS.flood_threshold
    assert release_bounds(PARAMS, top) == (rating_curve(PARAMS, top),) * 2
    assert rating_curve(PARAMS, top) < inflow.min()
    return PARAMS, config, inflow, expand_daily([50.0, 60.0])


def _mef_above_rating_instance():
    """A minimum environmental flow the rating curve cannot pass at low
    levels: there the release bounds collapse onto the rating curve, below
    the flood threshold."""
    params = LakeParams(mef=200.0)
    low = level_of_storage(params, 1e7)
    assert rating_curve(params, low) < params.mef
    assert release_bounds(params, low) == (rating_curve(params, low),) * 2
    window = synthetic_year(5, first_day=180)
    return params, DdpConfig(), window.inflow_hourly, window.demand_hourly


def _bit_identity_cases():
    """Inputs on which the backward pass must match the stage-by-stage reference.

    The daily-held window repeats each hour's transition 23 times a day; the
    intra-day window never repeats one. On the exact grid the next storages
    land on interior nodes and on the top node, and with these demands the
    cell formula alone would miss some node values by an ulp.
    """
    window = synthetic_year(10, first_day=130)
    intraday = synthetic_year(10, first_day=130, intraday=GaussianInflowParams())
    exact_params, exact_config, _ = exact_grid_ddp_instance()
    return {
        "daily-held-window": (PARAMS, DdpConfig(), window.inflow_hourly, window.demand_hourly),
        "intraday-window": (PARAMS, DdpConfig(), intraday.inflow_hourly, intraday.demand_hourly),
        "clamped-at-top": _clamping_instance(),
        "exact-grid": (exact_params, exact_config, [0.0] * 6, [30.0] * 3 + [7.0] * 3),
        "flood-clamped-at-top": _flood_clamping_instance(),
        "mef-above-rating": _mef_above_rating_instance(),
        # Every hour leaves this grid at the top; its spacing is subnormal.
        "subnormal-spacing": (
            PARAMS, DdpConfig(storage_max=1e-310), window.inflow_hourly[:48], window.demand_hourly[:48]
        ),
    }


def _assert_tables_match_reference(params, config, inflow, demand) -> ValueTable:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped instances warn
        table = backward_induction(params, config, inflow, demand)
    expected = reference_backward_induction(params, config, inflow, demand)
    assert np.array_equal(table.values, expected.values[0])
    assert np.array_equal(_release_table(table), expected.policy)
    assert table.out_of_grid == expected.out_of_grid
    releases = [[table.release(t, i) for i in range(table.grid.size)] for t in range(table.n_steps)]
    assert np.array_equal(releases, expected.policy)
    return table


class TestTransitionReuse:
    @pytest.mark.parametrize("case", sorted(_bit_identity_cases()))
    def test_tables_bit_identical_to_stagewise_reference(self, case):
        table = _assert_tables_match_reference(*_bit_identity_cases()[case])
        if case in ("clamped-at-top", "flood-clamped-at-top", "subnormal-spacing"):
            assert table.out_of_grid > 0

    @settings(max_examples=60, deadline=None)
    @given(
        grid_points=st.integers(3, 12),
        action_samples=st.integers(2, 6),
        storage_max=st.floats(1e5, 5e8),
        mef=st.floats(0.0, 300.0),
        hours=st.lists(
            st.tuples(st.floats(0.0, 800.0), st.floats(0.0, 400.0), st.integers(1, 3)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_small_instances_match_stagewise_reference(
        self, grid_points, action_samples, storage_max, mef, hours
    ):
        # Small grids with any mix of free nodes and nodes whose release
        # bounds collapse (the empty lake, above the flood threshold, where
        # the rating curve falls below mef), and runs of equal hours.
        config = DdpConfig(
            grid_points=grid_points, action_samples=action_samples, storage_max=storage_max
        )
        inflow = np.repeat([q for q, _, _ in hours], [n for _, _, n in hours])
        demand = np.repeat([w for _, w, _ in hours], [n for _, _, n in hours])
        _assert_tables_match_reference(LakeParams(mef=mef), config, inflow, demand)

    def test_locator_interp_equals_np_interp(self):
        # Node values spread over six decades, so the cell formula evaluated at
        # a node (or the top node from the cell below) would differ in the
        # last bits from the node value np.interp returns there.
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 656_550_000.0, 201)
        x = np.concatenate([rng.uniform(grid[0], grid[-1], 2000), grid, grid[-1:]])
        locator = ddp._GridLocator(grid, x)
        for _ in range(5):
            fp = rng.random(grid.size) * 10.0 ** rng.uniform(-3.0, 3.0, grid.size)
            assert np.array_equal(locator.interp(fp), np.interp(x, grid, fp))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 1000),
        storage_max=st.floats(1e5, 1e10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arithmetic_locator_equals_np_interp(self, n, storage_max, seed):
        # The cell is estimated from x / grid[1] and corrected against the
        # grid: on every node, on both floating-point neighbours of every
        # node, at the ends and between nodes it must match np.interp's own
        # search, and so its values, bit for bit.
        grid = np.linspace(0.0, storage_max, n)
        rng = np.random.default_rng(seed)
        x = np.concatenate(
            [
                grid,
                np.nextafter(grid[1:], -np.inf),
                np.nextafter(grid[:-1], np.inf),
                [0.0, storage_max],
                rng.uniform(0.0, storage_max, 500),
            ]
        )
        rng.shuffle(x)
        locator = ddp._GridLocator(grid, x)
        for _ in range(3):
            fp = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            assert np.array_equal(locator.interp(fp), np.interp(x, grid, fp))

    @pytest.mark.parametrize(("intraday", "calls"), [(None, 3), (GaussianInflowParams(), 72)])
    def test_transition_evaluated_once_per_run_of_equal_hours(self, monkeypatch, intraday, calls):
        counted = []

        def counting_mass_balance(*args):
            counted.append(args)
            return mass_balance(*args)

        monkeypatch.setattr(ddp, "mass_balance", counting_mass_balance)
        scn = synthetic_year(3, first_day=100, intraday=intraday)
        backward_induction(PARAMS, DdpConfig(), scn.inflow_hourly, scn.demand_hourly)
        assert len(counted) == calls


class TestSimulatePolicy:
    def test_forward_cost_matches_root_value_on_exact_grid(self):
        params, config, grid = exact_grid_ddp_instance()
        inflow = [0.0, 0.0]
        demand = [30.0, 10.0]
        table = backward_induction(params, config, inflow, demand)
        for node in range(3):
            trace = simulate_policy(params, table, inflow, demand, grid[node])
            assert trace_cost(params, config, trace) == pytest.approx(
                table.values[node], abs=1e-6
            )

    def test_single_stage_policy_reproduced(self):
        params, config, grid = exact_grid_ddp_instance()
        table = backward_induction(params, config, [0.0], [25.0])
        trace = simulate_policy(params, table, [0.0], [25.0], grid[2])
        assert trace.commands[0] == pytest.approx(table.release(0, 2))

    def test_forward_trace_conserves_mass(self):
        config = DdpConfig(grid_points=31, action_samples=15)
        scn = synthetic_year(4, first_day=50)
        table = backward_induction(PARAMS, config, scn.inflow_hourly, scn.demand_hourly)
        trace = simulate_policy(
            PARAMS, table, scn.inflow_hourly, scn.demand_hourly, 1.2e8
        )
        assert mass_balance_error(trace) <= 1e-6

    def test_overdraw_empties_lake_and_conserves_mass(self):
        # 100 m^3/s lies within the release bounds at 1e5 m^3, but the lake
        # holds only 27.78 m^3/s for the hour: the plant cuts the release.
        grid = np.array([0.0, 1e5, 2e5])
        table = _all_free_table(np.full((1, 3), 100.0), grid)
        trace = simulate_policy(PARAMS, table, [0.0], [0.0], 1e5)
        assert trace.commands[0] == 100.0
        assert trace.releases[0] == pytest.approx(1e5 / HOUR_SECONDS, rel=1e-15)
        assert trace.storages[-1] == 0.0
        assert mass_balance_error(trace) <= 1e-15

    def test_length_mismatch_rejected(self):
        params, config, grid = exact_grid_ddp_instance()
        table = backward_induction(params, config, [0.0], [0.0])
        with pytest.raises(ValueError, match="length"):
            simulate_policy(params, table, [0.0, 1.0], [0.0, 1.0], grid[0])

    @pytest.mark.parametrize(
        "series, hour, value",
        # A NaN inflow once wrote NaN storages from its hour on.
        [("inflow", 1, np.nan), ("inflow", 2, np.inf), ("demand", 0, -1.0), ("demand", 2, np.nan)],
    )
    def test_unusable_flow_names_its_hour(self, series, hour, value):
        params, config, grid = exact_grid_ddp_instance()
        flows = {"inflow": [0.0] * 3, "demand": [30.0] * 3}
        table = backward_induction(params, config, flows["inflow"], flows["demand"])
        flows[series][hour] = value
        with pytest.raises(
            ValueError, match=f"^{series} must be finite and nonnegative, got {value} at hour {hour}$"
        ):
            simulate_policy(params, table, flows["inflow"], flows["demand"], grid[1])


    @pytest.mark.parametrize(
        ("storage", "node"),
        [
            (0.0, 0),
            (1e6, 1),
            (2e6, 2),
            (4e6, 4),
            (1.5e6, 1),  # exactly midway: the lower node
            (np.nextafter(1.5e6, np.inf), 2),
            (np.nextafter(1.5e6, -np.inf), 1),
            (3.7e6, 4),
            (4e6 + 1.0, 4),  # above the top: the top node
            (9e9, 4),
        ],
    )
    def test_policy_read_at_the_nearest_node(self, storage, node):
        # Each node's policy is its own index, so the command names the node.
        grid = np.linspace(0.0, 4e6, 5)
        table = _all_free_table(np.arange(5.0)[None, :], grid)
        trace = simulate_policy(PARAMS, table, [0.0], [0.0], storage)
        assert trace.commands[0] == node == reference_nearest_node(grid, storage)

    def test_nearest_node_matches_searchsorted_rule(self):
        # Midpoints and their neighbours, nodes and random storages on the
        # default grid, each as the first storage of a one-hour run.
        grid = np.linspace(0.0, DdpConfig().storage_max, DdpConfig().grid_points)
        mid = 0.5 * (grid[:-1] + grid[1:])
        rng = np.random.default_rng(5)
        storages = np.concatenate(
            [
                grid,
                mid,
                np.nextafter(mid, np.inf),
                np.nextafter(mid, -np.inf),
                rng.uniform(0.0, 1.1 * grid[-1], 200),
            ]
        )
        table = _all_free_table(np.arange(float(grid.size))[None, :], grid)
        for storage in storages:
            trace = simulate_policy(PARAMS, table, [0.0], [0.0], storage)
            assert trace.commands[0] == reference_nearest_node(grid, storage), storage


class TestValueTableValidation:
    """A hand-built table is checked on construction, naming the field: a
    3-column policy on a 5-node grid once failed only in the forward pass,
    with "policy returned no command at hour 0"."""

    GRID = np.linspace(0.0, 4e6, 5)

    def _table(self, **fields):
        table = {
            "values": np.zeros(5),
            "grid": self.GRID,
            "first_free": 1,
            "policy": np.ones((2, 3)),
            "collapsed_release": np.zeros(5),
        }
        table.update(fields)
        return ValueTable(**table)

    def test_valid_table_reads_free_and_collapsed_nodes(self):
        table = self._table(
            policy=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            collapsed_release=np.array([7.0, 0.0, 0.0, 0.0, 8.0]),
        )
        assert table.n_steps == 2
        assert [table.release(1, node) for node in range(5)] == [7.0, 4.0, 5.0, 6.0, 8.0]
        # The run may also end at the top node, or hold no node at all.
        table = self._table(first_free=2, collapsed_release=np.arange(5.0))
        assert [table.release(0, node) for node in range(5)] == [0.0, 1.0, 1.0, 1.0, 1.0]
        table = self._table(first_free=5, policy=np.ones((2, 0)), collapsed_release=np.arange(5.0))
        assert [table.release(1, node) for node in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_fields_cannot_be_reassigned(self):
        # The table is frozen: a first_free swapped in afterwards would skip
        # the checks against the policy's shape.
        table = self._table()
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.first_free = 3
        assert type(self._table(first_free=np.int64(1)).first_free) is int

    @pytest.mark.parametrize(
        "grid",
        [np.zeros((1, 5)), np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.array([0.0, 2.0, 1.0, 3.0, 4.0])],
        ids=["2-d", "repeated-node", "decreasing"],
    )
    def test_grid_not_strictly_increasing_rejected(self, grid):
        with pytest.raises(ValueError, match="^grid must be"):
            self._table(grid=grid)

    def test_values_not_of_the_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^values must have shape \(5,\)"):
            self._table(values=np.zeros((2, 5)))

    @pytest.mark.parametrize(
        ("first_free", "message"),
        [
            (-1, r"must lie in \[0, 5\], got -1$"),
            (6, r"must lie in \[0, 5\], got 6$"),
            (1.0, "must be an integer, got 1.0$"),
            (True, "must be an integer, got True$"),
        ],
        ids=["negative", "past-the-top", "float", "bool"],
    )
    def test_first_free_not_a_node_index_rejected(self, first_free, message):
        with pytest.raises(ValueError, match="^first_free " + message):
            self._table(first_free=first_free)

    @pytest.mark.parametrize(
        "policy", [np.ones((1, 5)), np.ones((0, 3)), np.ones(3)], ids=["5-columns", "no-hours", "1-d"]
    )
    def test_policy_not_hours_by_free_nodes_rejected(self, policy):
        # From node 1 on a 5-node grid, the run holds at most 4 free nodes.
        with pytest.raises(ValueError, match=r"^policy must have shape \(T, n\), T >= 1, n <= 4, got "):
            self._table(policy=policy)

    def test_run_past_the_top_node_rejected(self):
        # Three free nodes from node 3 would end past the top node, 4.
        with pytest.raises(ValueError, match=r"^policy must .* n <= 2, got \(2, 3\)$"):
            self._table(first_free=3)

    def test_collapsed_releases_not_of_the_grid_rejected(self):
        with pytest.raises(ValueError, match=r"^collapsed_release must have shape \(5,\)"):
            self._table(collapsed_release=np.zeros(3))

    @pytest.mark.parametrize(
        ("name", "value"),
        [("policy", np.nan), ("policy", np.inf), ("collapsed_release", -np.inf)],
    )
    def test_non_finite_release_rejected(self, name, value):
        fields = {"policy": np.ones((2, 3)), "collapsed_release": np.zeros(5)}
        fields[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{name} must hold finite releases$"):
            self._table(**fields)


class TestGridRefinement:
    def test_refining_never_worsens_forward_cost_materially(self):
        scn = synthetic_year(10, first_day=130)  # flood season slice
        s0 = 2.0e8
        costs = {}
        for points, samples in ((51, 26), (101, 51)):
            config = DdpConfig(grid_points=points, action_samples=samples)
            table = backward_induction(
                PARAMS, config, scn.inflow_hourly, scn.demand_hourly
            )
            trace = simulate_policy(
                PARAMS, table, scn.inflow_hourly, scn.demand_hourly, s0
            )
            costs[points] = trace_cost(PARAMS, config, trace)
        assert costs[101] <= costs[51] * 1.02 + 1e-9


class TestConfigValidation:
    def test_default_weights(self):
        config = DdpConfig()
        assert (config.w_flood, config.w_demand) == (0.4, 0.6)
        assert config.grid_points == 201
        assert config.action_samples == 101

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_flood": -0.1},
            {"w_flood": 0.0, "w_demand": 0.0},
            {"grid_points": 2},
            {"action_samples": 1},
            {"storage_max": 0.0},
            {"storage_max": -1.0},
            {"storage_max": np.nan},
            {"storage_max": np.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DdpConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            # These once passed; grid_points 3.5 then failed in the backward
            # pass with a TypeError.
            ("w_flood", np.nan),
            ("w_flood", np.inf),
            ("grid_points", 3.5),
            ("w_demand", "0"),
            ("action_samples", True),
            ("storage_max", np.nan),
        ],
    )
    def test_unusable_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            DdpConfig(**{name: value})

    def test_integer_counts_of_another_type_are_ints(self):
        config = DdpConfig(grid_points=np.int64(5), action_samples=np.int32(3))
        assert type(config.grid_points) is int and type(config.action_samples) is int
