"""Dynamic-programming benchmark tests: DP optimality on exact-grid instances."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_ddp_value,
    exact_grid_ddp_instance,
    reference_backward_induction,
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
)
from lakempc.scenario import GaussianInflowParams, expand_daily, synthetic_year
from lakempc.trace import mass_balance_error

PARAMS = LakeParams()


class TestStageCost:
    def test_no_violation_is_free(self):
        config = DdpConfig()
        assert stage_cost(PARAMS, config, level=1.0, release=120.0, demand=100.0) == 0.0

    def test_flood_term_hand_value(self):
        config = DdpConfig(w_flood=0.4, w_demand=0.6, w_dry=0.0)
        # 0.4 * (1.6 - 1.1)^2 = 0.1
        value = stage_cost(PARAMS, config, level=1.6, release=200.0, demand=100.0)
        assert value == pytest.approx(0.1, rel=1e-12)

    def test_dry_term_silent_at_zero_weight(self):
        config = DdpConfig(w_flood=0.4, w_demand=0.6, w_dry=0.0)
        assert stage_cost(PARAMS, config, level=-0.3, release=50.0, demand=10.0) == 0.0

    def test_dry_term_active_when_weighted(self):
        config = DdpConfig(w_flood=0.0, w_demand=0.0, w_dry=2.0)
        value = stage_cost(PARAMS, config, level=-0.3, release=50.0, demand=10.0)
        assert value == pytest.approx(2.0 * 0.1**2, rel=1e-12)

    def test_demand_normalization(self):
        config = DdpConfig(w_flood=0.0, w_demand=1.0, w_dry=0.0)
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
            assert table.policy[0, node] == pytest.approx(
                min(max(25.0, r_min), r_max), rel=1e-9
            )
        assert table.policy[0, 0] == 0.0
        assert np.all(table.values[-1] == 0.0)

    def test_two_stage_matches_exhaustive_enumeration(self):
        params, config, grid = exact_grid_ddp_instance()
        inflow = [0.0, 0.0]
        demand = [30.0, 10.0]
        table = backward_induction(params, config, inflow, demand)
        assert table.out_of_grid == 0
        for node in range(3):
            expected = brute_force_ddp_value(params, config, grid[node], inflow, demand)
            assert table.values[0, node] == pytest.approx(expected, abs=1e-9)

    def test_three_stage_matches_exhaustive_enumeration(self):
        params, config, grid = exact_grid_ddp_instance()
        inflow = [0.0, 0.0, 0.0]
        demand = [30.0, 25.0, 5.0]
        table = backward_induction(params, config, inflow, demand)
        for node in range(3):
            expected = brute_force_ddp_value(params, config, grid[node], inflow, demand)
            assert table.values[0, node] == pytest.approx(expected, abs=1e-9)

    def test_flat_cost_ties_break_to_smaller_release(self):
        # No demand, no flood or dry exposure, zero dry weight: every action
        # is free, so the documented tie-break picks the smallest.
        params, config, grid = exact_grid_ddp_instance()
        table = backward_induction(params, config, [0.0], [0.0])
        assert np.all(table.policy[0] == 0.0)

    def test_values_nonnegative_terminal_zero(self):
        config = DdpConfig(grid_points=21, action_samples=11)
        scn = synthetic_year(3, first_day=100)
        table = backward_induction(PARAMS, config, scn.inflow_hourly, scn.demand_hourly)
        assert np.all(table.values >= 0.0)
        assert np.all(table.values[-1] == 0.0)

    def test_out_of_grid_transitions_counted(self):
        # A grid far too small for the flows: transitions clamp and warn.
        config = DdpConfig(grid_points=3, storage_max=1e5, action_samples=3)
        with pytest.warns(UserWarning, match="clamped"):
            table = backward_induction(PARAMS, config, [500.0] * 2, [0.0] * 2)
        assert table.out_of_grid > 0

    def test_grid_starts_at_the_empty_lake(self):
        # Demand far above inflow for two days: no node holds enough water,
        # so every node pays a deficit. A grid bottom above the empty lake
        # once lifted the low storages onto it for free, and every
        # cost-to-go came out 0.
        config = DdpConfig(grid_points=11, storage_max=2e6, action_samples=21)
        table = backward_induction(PARAMS, config, [5.0] * 48, [100.0] * 48)
        assert table.grid[0] == 0.0
        assert table.out_of_grid == 0
        assert np.all(table.values[0] > 0.0)

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
    }


def _assert_tables_match_reference(params, config, inflow, demand) -> ValueTable:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped instances warn
        table = backward_induction(params, config, inflow, demand)
    expected = reference_backward_induction(params, config, inflow, demand)
    assert np.array_equal(table.values, expected.values)
    assert np.array_equal(table.policy, expected.policy)
    assert table.out_of_grid == expected.out_of_grid
    return table


class TestTransitionReuse:
    @pytest.mark.parametrize("case", sorted(_bit_identity_cases()))
    def test_tables_bit_identical_to_stagewise_reference(self, case):
        table = _assert_tables_match_reference(*_bit_identity_cases()[case])
        if case in ("clamped-at-top", "flood-clamped-at-top"):
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
                table.values[0, node], abs=1e-6
            )

    def test_single_stage_policy_reproduced(self):
        params, config, grid = exact_grid_ddp_instance()
        table = backward_induction(params, config, [0.0], [25.0])
        trace = simulate_policy(params, table, [0.0], [25.0], grid[2])
        assert trace.commands[0] == pytest.approx(table.policy[0, 2])

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
        table = ValueTable(values=np.zeros((2, 3)), policy=np.full((1, 3), 100.0), grid=grid)
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
        assert (config.w_flood, config.w_demand, config.w_dry) == (0.4, 0.6, 0.0)
        assert config.grid_points == 201
        assert config.action_samples == 101

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"w_flood": -0.1},
            {"w_flood": 0.0, "w_demand": 0.0, "w_dry": 0.0},
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
            ("w_dry", "0"),
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
