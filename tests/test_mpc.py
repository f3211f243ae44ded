"""Controller tests: QP assembly, slack semantics, closed-loop behavior."""

import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import phase1_point
from lakempc import mpc, qp
from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    release_bounds,
    storage_of_level,
)
from lakempc.mpc import (
    DEFAULT_S_MAX,
    DEFAULT_S_MIN,
    MpcConfig,
    MpcInfeasibleError,
    assemble_qp,
    interpret_demand_slack,
    run_daily,
    run_hourly,
    solve_step,
)
from lakempc.scenario import Scenario, constant_scenario, expand_daily, synthetic_year
from lakempc.trace import mass_balance_error

PARAMS = LakeParams()
TIE = 1e-6


class TestAssembly:
    def test_single_step_tie_break_pulls_to_lower_bound(self):
        # q = w = 0: nothing to do, tie-break wants u = 0, the MEF-style lower
        # bound stops it at 10. Objective is the tie-break cost alone.
        config = MpcConfig(horizon=1)
        step = solve_step(PARAMS, config, 1.2e8, [0.0], [0.0], [(10.0, 440.0)])
        assert step.planned_releases[0] == pytest.approx(10.0, abs=1e-9)
        assert step.slack_demand[0] == pytest.approx(0.0, abs=1e-9)
        assert step.slack_max[0] == pytest.approx(0.0, abs=1e-9)
        assert step.objective == pytest.approx(TIE * 100.0, rel=1e-6)

    def test_single_step_deficit_slack(self):
        # Demand 100 but the release is capped at 50: slack carries the deficit.
        config = MpcConfig(horizon=1)
        step = solve_step(PARAMS, config, 1.2e8, [0.0], [100.0], [(10.0, 50.0)])
        assert step.planned_releases[0] == pytest.approx(50.0, abs=1e-8)
        assert step.slack_demand[0] == pytest.approx(-50.0, abs=1e-8)

    def test_flood_slack_zero_below_threshold(self):
        config = MpcConfig(horizon=6)
        step = solve_step(
            PARAMS,
            config,
            1.2e8,
            np.full(6, 100.0),
            np.full(6, 100.0),
            np.tile((10.0, 400.0), (6, 1)),
        )
        assert step.slack_max == pytest.approx(np.zeros(6), abs=1e-9)

    def test_horizon_mismatch_rejected(self):
        config = MpcConfig(horizon=4)
        with pytest.raises(ValueError, match="horizon"):
            assemble_qp(PARAMS, config, 1e8, [1.0, 2.0], [0.0] * 4, [(0.0, 1.0)] * 4)

    def test_unordered_bounds_rejected(self):
        config = MpcConfig(horizon=1)
        with pytest.raises(ValueError, match="ordered"):
            assemble_qp(PARAMS, config, 1e8, [0.0], [0.0], [(10.0, 5.0)])

    def test_negative_storage_rejected(self):
        config = MpcConfig(horizon=1)
        with pytest.raises(ValueError, match="s0"):
            assemble_qp(PARAMS, config, -1.0, [0.0], [0.0], [(0.0, 10.0)])

    def test_decision_vector_layout(self):
        config = MpcConfig(horizon=3)
        problem = assemble_qp(
            PARAMS, config, 1e8, [50.0] * 3, [80.0] * 3, [(10.0, 400.0)] * 3
        )
        assert problem.n == 9
        assert problem.lower[:3] == pytest.approx([10.0] * 3)
        assert problem.upper[:3] == pytest.approx([400.0] * 3)
        assert problem.lower[3:6] == pytest.approx([0.0] * 3)  # flood slack >= 0
        assert np.all(np.isinf(problem.lower[6:9]))  # demand slack free below

    def test_dry_rows_right_hand_side_keeps_its_digits(self):
        # Just above the dry bound each right-hand side is a small difference
        # of two storages near 3e7 m^3. Against exact rational arithmetic on
        # the same floats it must hold to a few units in the last place.
        config = MpcConfig()
        h, area = config.horizon, PARAMS.surface_area
        bounds = np.tile((0.0, 1.0), (h, 1))
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            s0 = config.s_min + float(rng.uniform(0.0, 5e4))
            inflow = rng.uniform(0.0, 5.0, h)
            rhs = assemble_qp(PARAMS, config, s0, inflow, np.zeros(h), bounds).ineq_rhs[:h]
            volume = Fraction(s0) - Fraction(config.s_min)
            for t in range(h):
                volume += Fraction(HOUR_SECONDS) * Fraction(float(inflow[t]))
                exact = volume / Fraction(area) - Fraction(config.dry_margin)
                worst = max(worst, abs(float((Fraction(float(rhs[t])) - exact) / exact)))
        assert worst <= 4e-15


class TestMatricesPerConfiguration:
    def test_matrices_are_shared_and_read_only(self):
        config = MpcConfig(horizon=3)
        args = ([50.0] * 3, [80.0] * 3, [(10.0, 400.0)] * 3)
        first = assemble_qp(PARAMS, config, 1e8, *args)
        second = assemble_qp(PARAMS, config, 1.1e8, *args)
        for name in ("hessian", "ineq_matrix"):
            matrix = getattr(first, name)
            assert matrix is getattr(second, name)
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0

    def test_one_factorization_per_run(self, monkeypatch):
        # A weight no other test uses, so the run starts with nothing memoized.
        calls = []
        inner = np.linalg.cholesky

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        trace = run_hourly(
            PARAMS, MpcConfig(lam=0.37), constant_scenario(100.0, 90.0, 4), 1.2e8, n_steps=48
        )
        assert set(trace.solve_statuses) == {"optimal"}
        assert len(calls) <= 2

    def test_writable_copies_give_the_same_bits(self):
        # A flood-window step from the demand start, which takes 7
        # iterations. The copies are writable, so the solver cannot use the
        # factorization it memoized for the shared matrices.
        config = MpcConfig()
        h = config.horizon
        scn = synthetic_year(3, first_day=104)
        s0 = storage_of_level(PARAMS, 1.08)
        inflow, demand = scn.inflow_hourly[12:12 + h], scn.demand_hourly[12:12 + h]
        bounds = np.tile(release_bounds(PARAMS, level_of_storage(PARAMS, s0)), (h, 1))
        problem = assemble_qp(PARAMS, config, s0, inflow, demand, bounds)
        hint, _ = mpc._feasible_point(
            config, problem, s0, inflow, demand, None, PARAMS.surface_area
        )
        copied = qp.QpProblem(
            hessian=problem.hessian.copy(),
            linear_cost=problem.linear_cost,
            ineq_matrix=problem.ineq_matrix.copy(),
            ineq_rhs=problem.ineq_rhs,
            lower=problem.lower,
            upper=problem.upper,
        )
        shared = qp.solve(problem, initial_point=hint)
        alone = qp.solve(copied, initial_point=hint)
        assert shared.status == alone.status == "optimal"
        assert shared.iterations == alone.iterations > 1
        for name in ("x", "ineq_duals", "bound_duals"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name))


class TestDemandSlack:
    def test_met(self):
        assert interpret_demand_slack(120.0, 100.0) == 0.0

    def test_deficit(self):
        assert interpret_demand_slack(80.0, 100.0) == -20.0

    def test_boundary(self):
        assert interpret_demand_slack(100.0, 100.0) == 0.0


class TestSlackOptimality:
    def test_slacks_match_closed_forms(self):
        # Force a genuine flood inside the horizon: high start, huge inflow,
        # narrow release capacity. At the optimum the slacks must equal their
        # closed-form values implied by the plan.
        config = MpcConfig(horizon=8)
        s0 = DEFAULT_S_MAX - 5e6
        inflow = np.full(8, 900.0)
        demand = np.full(8, 150.0)
        level = level_of_storage(PARAMS, s0)
        bounds = release_bounds(PARAMS, level)
        step = solve_step(PARAMS, config, s0, inflow, demand, np.tile(bounds, (8, 1)))
        u = step.planned_releases
        storages = s0 + 3600.0 * np.cumsum(inflow - u)
        levels = storages / PARAMS.surface_area + PARAMS.level_offset
        expected_flood = np.maximum(levels - PARAMS.flood_threshold, 0.0)
        expected_demand = np.minimum(u - demand, 0.0)
        assert step.slack_max == pytest.approx(expected_flood, abs=1e-6)
        assert step.slack_demand == pytest.approx(expected_demand, abs=1e-6)
        assert np.min(step.slack_max) >= -1e-8


class TestClosedLoop:
    def test_constant_scenario_fixed_point(self):
        scn = constant_scenario(100.0, 100.0, 4)
        trace = run_hourly(PARAMS, MpcConfig(), scn, 1.2e8, n_steps=48)
        assert trace.commands == pytest.approx(np.full(48, 100.0), abs=1e-9)
        assert np.max(np.abs(trace.levels - trace.levels[0])) <= 1e-9
        assert trace.recovery_hours == 0

    def test_receding_horizon_consistency(self):
        # With a time-invariant scenario and inactive constraints the applied
        # action must not depend on the step index.
        scn = constant_scenario(150.0, 120.0, 4)
        trace = run_hourly(PARAMS, MpcConfig(), scn, 1.5e8, n_steps=24)
        assert np.ptp(trace.commands) <= 1e-9

    def test_conservation_on_varied_scenario(self):
        rng = np.random.default_rng(5)
        days = 6
        scn = Scenario(
            inflow_hourly=rng.uniform(20.0, 300.0, days * 24),
            demand_hourly=expand_daily(rng.uniform(30.0, 200.0, days)),
        )
        trace = run_hourly(PARAMS, MpcConfig(), scn, 1.3e8, n_steps=(days - 1) * 24)
        assert mass_balance_error(trace) <= 1e-6

    def test_applied_action_is_first_planned(self):
        scn = constant_scenario(80.0, 90.0, 3)
        trace = run_hourly(PARAMS, MpcConfig(), scn, 1.2e8, n_steps=12)
        assert trace.releases == pytest.approx(trace.commands)  # no saturation here

    def test_hard_dry_bound_holds(self):
        # Demand far above inflow drags the lake to the dry bound; the hard
        # constraint must stop it there, releases capped at the dry budget.
        scn = constant_scenario(20.0, 300.0, 10)
        config = MpcConfig()
        trace = run_hourly(PARAMS, config, scn, DEFAULT_S_MIN + 3e6, n_steps=216)
        assert np.min(trace.storages) >= config.s_min - 1e-6 * config.s_min
        assert trace.recovery_hours == 0
        assert np.min(trace.levels) >= PARAMS.dry_threshold - 1e-9

    def test_trace_records_solver_iterations(self, monkeypatch):
        iterations = []
        inner = mpc.solve_step

        def recording(*args, **kwargs):
            step = inner(*args, **kwargs)
            iterations.append(step.solve_diagnostics.iterations)
            return step

        monkeypatch.setattr(mpc, "solve_step", recording)
        trace = run_hourly(PARAMS, MpcConfig(), constant_scenario(80.0, 90.0, 3), 1.2e8, n_steps=12)
        assert trace.solve_iterations.dtype.kind == "i"
        assert trace.solve_iterations.tolist() == iterations
        assert min(iterations) >= 1
        iterations.clear()
        daily = run_daily(PARAMS, MpcConfig(), constant_scenario(80.0, 90.0, 2), 1.2e8)
        assert daily.solve_iterations.tolist() == np.repeat(iterations, 24).tolist()

    def test_flood_window_solves_stay_short(self):
        # The demand start holds every demand row tight while the optimum
        # releases more than the demand; the solver drops those rows together.
        scn = synthetic_year(3, first_day=104)
        trace = run_hourly(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, 1.08), n_steps=30)
        assert set(trace.solve_statuses) == {"optimal"}
        assert max(trace.solve_iterations) <= 10

    def test_scenario_too_short_rejected(self):
        scn = constant_scenario(10.0, 10.0, 1)
        with pytest.raises(ValueError, match="too short"):
            run_hourly(PARAMS, MpcConfig(), scn, 1e8)


class TestRecovery:
    def test_recovery_exercised_when_mef_conflicts_with_dry_bound(self):
        # Lake a hair above the dry storage bound, no inflow: the MEF lower
        # bound forces a release the hard constraint cannot absorb.
        scn = constant_scenario(0.0, 0.0, 2)
        trace = run_hourly(PARAMS, MpcConfig(), scn, DEFAULT_S_MIN + 100.0, n_steps=2)
        assert trace.recovery_hours == 2
        assert trace.commands == pytest.approx([10.0, 10.0], abs=1e-8)

    def test_recovery_disabled_raises_with_hour(self):
        scn = constant_scenario(0.0, 0.0, 2)
        config = MpcConfig(feasibility_recovery=False)
        with pytest.raises(
            MpcInfeasibleError, match=r"hour 0: the dry bound at horizon step 0 .*short by"
        ) as info:
            run_hourly(PARAMS, config, scn, DEFAULT_S_MIN + 100.0, n_steps=2)
        # The 10 m^3/s minimum release drains 36000 m^3 against 100 m^3 to spare.
        expected = (36_000.0 - 100.0) / PARAMS.surface_area + config.dry_margin
        shortfall = float(re.search(r"short by (\S+) m", str(info.value)).group(1))
        assert shortfall == pytest.approx(expected, rel=1e-5)


def _no_linprog(*args, **kwargs):
    raise AssertionError("the MPC reached the phase-1 LP")


class TestFeasibleStart:
    def test_dry_bound_and_recovery_runs_never_call_phase1(self):
        # From day 182 at 0.29 m the summer demand drags the lake down. From
        # about hour 100 on, the clipped demand would cross the dry bound
        # within the 24-hour horizon, and a plan trimmed onto the dry rows
        # must supply the start.
        summer = synthetic_year(6, first_day=182)
        dry = constant_scenario(0.0, 0.0, 2)
        with mock.patch.object(qp, "linprog", _no_linprog):
            trace = run_hourly(
                PARAMS, MpcConfig(), summer, storage_of_level(PARAMS, 0.29), n_steps=108
            )
            recovery = run_hourly(PARAMS, MpcConfig(), dry, DEFAULT_S_MIN + 100.0, n_steps=2)
        assert np.min(trace.levels) >= PARAMS.dry_threshold - 1e-9
        assert set(trace.solve_statuses) == {"optimal"}
        assert recovery.recovery_hours == 2

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(-DEFAULT_S_MIN, 2e5),
        inflow=st.lists(st.floats(0.0, 20.0), min_size=4, max_size=4),
        demand=st.lists(st.floats(0.0, 300.0), min_size=4, max_size=4),
    )
    # Short of the dry bound by 2.7e-5 m at the last step: an LP tolerance
    # scaled by the 300 m^3/s demand once called this feasible.
    @example(offset=7999.03, inflow=[17.28, 14.42, 2.5, 2.5], demand=[0.0, 178.5, 299.0, 50.0])
    def test_feasibility_verdict_matches_phase1(self, offset, inflow, demand):
        config = MpcConfig(horizon=4)
        s0 = DEFAULT_S_MIN + offset
        bounds = np.tile(release_bounds(PARAMS, level_of_storage(PARAMS, s0)), (4, 1))
        step = solve_step(PARAMS, config, s0, inflow, demand, bounds)
        reference = phase1_point(assemble_qp(PARAMS, config, s0, inflow, demand, bounds))
        assert step.recovery_used == (reference is None)
        assert step.solve_diagnostics.status == "optimal"


def _minimum_release_start(config, problem, s0, inflow, demand, u_hint, area):
    u = problem.lower[:config.horizon]
    return mpc._with_slacks(config, s0, inflow, demand, u, area, False), None


class TestStartFromGuesses:
    @settings(max_examples=100, deadline=None)
    @given(
        horizon=st.integers(1, 24),
        offset=st.floats(0.0, 3e6),
        inflow=st.lists(st.floats(0.0, 60.0), min_size=24, max_size=24),
        guess=st.lists(st.floats(0.0, 500.0), min_size=24, max_size=24),
    )
    @example(horizon=24, offset=100.0, inflow=[0.0] * 24, guess=[300.0] * 24)
    def test_trim_meets_the_dry_rows_whenever_minimum_release_does(
        self, horizon, offset, inflow, guess
    ):
        config = MpcConfig(horizon=horizon)
        s0 = DEFAULT_S_MIN + offset
        bounds = np.tile(release_bounds(PARAMS, level_of_storage(PARAMS, s0)), (horizon, 1))
        problem = assemble_qp(PARAMS, config, s0, inflow[:horizon], np.zeros(horizon), bounds)
        lower, upper = problem.lower[:horizon], problem.upper[:horizon]
        rows, rhs = problem.ineq_matrix[:horizon, :horizon], problem.ineq_rhs[:horizon]
        u = np.clip(guess[:horizon], lower, upper)
        cap = rhs * PARAMS.surface_area / HOUR_SECONDS
        trimmed = mpc._trim_to_dry_rows(u, lower, cap)

        def meets(plan):
            return np.max(rows @ plan - rhs) <= qp.FEASIBILITY_TOL

        assert np.all(lower <= trimmed) and np.all(trimmed <= u)
        assert meets(trimmed) == meets(lower)
        if np.all(rows @ u <= rhs):
            assert trimmed == pytest.approx(u, rel=1e-12, abs=1e-9)

    def test_start_is_the_feasible_candidate_of_lower_objective(self):
        config = MpcConfig(horizon=6)
        h, area = config.horizon, PARAMS.surface_area
        inflow, demand = np.full(h, 20.0), np.full(h, 150.0)

        def start(s0, u_hint):
            bounds = np.tile(release_bounds(PARAMS, level_of_storage(PARAMS, s0)), (h, 1))
            problem = assemble_qp(PARAMS, config, s0, inflow, demand, bounds)
            x, failure = mpc._feasible_point(config, problem, s0, inflow, demand, u_hint, area)
            assert failure is None
            assert np.max(problem.ineq_matrix[:h] @ x - problem.ineq_rhs[:h]) <= qp.FEASIBILITY_TOL
            minimum = mpc._with_slacks(config, s0, inflow, demand, problem.lower[:h], area, False)
            return problem, x, minimum

        # Far above the dry bound both guesses meet the dry rows as they are,
        # and the demand beats a hint at minimum release.
        problem, x, _ = start(1.2e8, np.full(h, 10.0))
        assert np.array_equal(x[:h], np.clip(demand, problem.lower[:h], problem.upper[:h]))
        # Just above it both guesses cross a dry row, and their trims beat
        # the minimum-release plan.
        problem, x, minimum = start(DEFAULT_S_MIN + 2e6, np.full(h, 300.0))
        assert problem.objective_value(x) < problem.objective_value(minimum)

    @pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize(
        "first_day, days, level, n_steps",
        # The summer run of TestFeasibleStart, and a flood window in which
        # the lake crosses the flood threshold and falls back below it.
        [(182, 6, 0.29, 108), (104, 3, 1.08, 30)],
    )
    def test_start_changes_the_path_not_the_answer(self, lam, first_day, days, level, n_steps):
        scn = synthetic_year(days, first_day=first_day)
        s0 = storage_of_level(PARAMS, level)
        config = MpcConfig(lam=lam)
        trace = run_hourly(PARAMS, config, scn, s0, n_steps=n_steps)
        with mock.patch.object(mpc, "_feasible_point", _minimum_release_start):
            reference = run_hourly(PARAMS, config, scn, s0, n_steps=n_steps)
        for run in (trace, reference):
            assert set(run.solve_statuses) == {"optimal"}
            assert run.recovery_hours == 0
        assert trace.releases == pytest.approx(reference.releases, rel=1e-9, abs=0.0)
        assert trace.solve_iterations.sum() < reference.solve_iterations.sum()


class TestDailyMode:
    def test_constant_scenario_matches_hourly(self):
        scn = constant_scenario(120.0, 100.0, 5)
        hourly = run_hourly(PARAMS, MpcConfig(), scn, 1.4e8, n_steps=96)
        daily = run_daily(PARAMS, MpcConfig(), scn, 1.4e8, n_steps=96)
        assert daily.commands == pytest.approx(hourly.commands, abs=1e-6)
        assert daily.storages == pytest.approx(hourly.storages, rel=1e-12)

    def test_requires_24h_horizon(self):
        scn = constant_scenario(10.0, 10.0, 2)
        with pytest.raises(ValueError, match="24"):
            run_daily(PARAMS, MpcConfig(horizon=12), scn, 1e8)

    def test_steps_must_cover_whole_days(self):
        scn = constant_scenario(10.0, 10.0, 2)
        with pytest.raises(ValueError, match="multiple of 24"):
            run_daily(PARAMS, MpcConfig(), scn, 1e8, n_steps=30)

    def test_plant_saturation_can_clip_frozen_plan(self):
        # Daily plan is cut against the bounds at the day's first level; with
        # a falling lake the true capacity drops below the frozen upper bound
        # late in the day, so some applied releases are clipped.
        inflow = np.zeros(48)
        demand = np.full(48, 400.0)
        scn = Scenario(inflow_hourly=inflow, demand_hourly=demand)
        s0 = storage_of_level(PARAMS, 0.35)
        daily = run_daily(PARAMS, MpcConfig(), scn, s0, n_steps=48)
        assert np.any(daily.releases < daily.commands - 1e-9)

    def test_daily_forecast_prefers_daily_metadata(self):
        # Hourly inflow carries an intra-day swing; the daily values are flat.
        # With metadata the day plan sees the flat series, so planned releases
        # are flat too; without it the plan still uses the day mean (equal
        # here), so both runs agree, while an hourly run reacts to the swing.
        swing = np.tile(np.concatenate([np.full(12, 50.0), np.full(12, 150.0)]), 3)
        daily_info = np.full(3, 100.0)
        with_meta = Scenario(
            inflow_hourly=swing, demand_hourly=np.full(72, 100.0), inflow_daily=daily_info
        )
        without_meta = Scenario(inflow_hourly=swing, demand_hourly=np.full(72, 100.0))
        s0 = 1.3e8
        a = run_daily(PARAMS, MpcConfig(), with_meta, s0, n_steps=72)
        b = run_daily(PARAMS, MpcConfig(), without_meta, s0, n_steps=72)
        assert a.commands == pytest.approx(b.commands, abs=1e-9)


class TestConfig:
    def test_default_storage_bounds_match_thresholds(self):
        config = MpcConfig.for_lake(PARAMS)
        assert config.s_min == pytest.approx(DEFAULT_S_MIN)
        assert config.s_max == pytest.approx(DEFAULT_S_MAX)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0},
            {"lam": -1.0},
            {"s_min": 3e8, "s_max": 2e8},
            {"tie_break_weight": -1e-9},
            {"flood_slack_ref": 0.0},
            {"demand_ref": 0.0},
            {"lam": 0.0},
            {"tie_break_weight": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MpcConfig(**kwargs)
