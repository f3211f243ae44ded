"""Controller tests: QP assembly, slack semantics, closed-loop behavior."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_rerun_reuses_structure,
    controller_cost,
    direct_cost_minimum,
    feasible_point,
    phase1_point,
    reference_step,
    release_bounds_of,
    row_blocks,
    with_slacks,
)
from lakempc import mpc, qp
from lakempc.ddp import DdpConfig, trace_cost
from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    release_bounds,
    storage_of_level,
)
from lakempc.metrics import compute_report
from lakempc.mpc import (
    MpcConfig,
    assemble_qp,
    run_daily,
    run_hourly,
    solve_step,
)
from lakempc.scenario import (
    GaussianInflowParams,
    Scenario,
    constant_scenario,
    expand_daily,
    synthetic_year,
)
from lakempc.trace import mass_balance_error

PARAMS = LakeParams()
S_MIN, S_MAX = mpc._storage_bounds(PARAMS)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """One entry per np.linalg.cholesky call made during the test."""
    calls = []
    inner = np.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


class TestAssembly:
    def test_single_step_tie_break_pulls_to_lower_bound(self):
        # q = w = 0: nothing to do, tie-break wants u = 0, the MEF-style lower
        # bound stops it at 10.
        config = MpcConfig(horizon=1)
        step = solve_step(PARAMS, config, 1.2e8, [0.0], [0.0])
        assert step.planned_releases[0] == pytest.approx(10.0, abs=1e-9)
        assert step.slack_demand[0] == pytest.approx(0.0, abs=1e-9)
        assert step.slack_max[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_step_deficit_slack(self):
        # Demand 100 but the rating curve caps the release at 50: slack
        # carries the deficit.
        params = LakeParams(sat_k=50.0, sat_e=1e-12)
        bounds = release_bounds(params, level_of_storage(params, 1.2e8))
        assert bounds == pytest.approx((10.0, 50.0))
        step = solve_step(params, MpcConfig(horizon=1), 1.2e8, [0.0], [100.0])
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
        )
        assert step.slack_max == pytest.approx(np.zeros(6), abs=1e-9)

    def test_horizon_mismatch_rejected(self):
        config = MpcConfig(horizon=4)
        with pytest.raises(ValueError, match="horizon"):
            assemble_qp(PARAMS, config, 1e8, [1.0, 2.0], [0.0] * 4)

    def test_horizon_mismatch_names_each_series_and_its_shape(self):
        # Both series hold 6 entries; the message once said "expected 6
        # forecast/demand entries, got 6/6".
        config = MpcConfig(horizon=6)
        message = (
            r"^horizon mismatch at hour 0: expected shape \(6,\), got inflow forecast shape "
            r"\(6, 1\), demand shape \(2, 3\)$"
        )
        with pytest.raises(ValueError, match=message):
            solve_step(PARAMS, config, 1.2e8, np.full((6, 1), 100.0), np.full((2, 3), 50.0), hour=0)
        with pytest.raises(ValueError, match=r"got demand shape \(5,\)$"):
            assemble_qp(PARAMS, config, 1.2e8, np.full(6, 100.0), np.full(5, 50.0))

    def test_negative_storage_rejected(self):
        config = MpcConfig(horizon=1)
        with pytest.raises(ValueError, match="s0"):
            assemble_qp(PARAMS, config, -1.0, [0.0], [0.0])

    @pytest.mark.parametrize("s0", [np.nan, np.inf])
    def test_non_finite_storage_rejected(self, s0):
        config = MpcConfig(horizon=1)
        with pytest.raises(ValueError, match=r"^s0 must be finite and nonnegative at hour 3, got"):
            solve_step(PARAMS, config, s0, [0.0], [0.0], hour=3)

    @pytest.mark.parametrize(
        "series, step, value",
        [("inflow forecast", 5, np.nan), ("demand", 7, np.inf), ("demand", 0, -np.inf)],
    )
    def test_non_finite_forecast_named_with_step_and_hour(self, series, step, value):
        # These used to surface as a non-finite start at some QP variable.
        config = MpcConfig()
        h = config.horizon
        inflow, demand = np.full(h, 50.0), np.full(h, 80.0)
        (inflow if series == "inflow forecast" else demand)[step] = value
        message = f"^{series} is {value} at horizon step {step}"
        with pytest.raises(ValueError, match=message + " at hour 17$"):
            solve_step(PARAMS, config, 1.2e8, inflow, demand, hour=17)
        with pytest.raises(ValueError, match=message + "$"):
            assemble_qp(PARAMS, config, 1.2e8, inflow, demand)

    def test_poisoned_scenario_fails_at_the_first_hour_that_sees_it(self):
        # Hour 7's 24-hour forecast is the first to reach index 30.
        scn = constant_scenario(80.0, 90.0, 3)
        scn.inflow_hourly[30] = np.nan
        with pytest.raises(ValueError, match=r"^inflow forecast is nan at horizon step 23 at hour 7$"):
            run_hourly(PARAMS, MpcConfig(), scn, 1.2e8, n_steps=12)

    def test_decision_vector_layout(self):
        # (u, slack_flood, slack_demand), h each; 5h rows in blocks of h.
        config = MpcConfig(horizon=3)
        problem = assemble_qp(PARAMS, config, 1e8, [50.0] * 3, [80.0] * 3)
        assert problem.n == 9
        assert problem.ineq_matrix.shape == (15, 9) and problem.ineq_rhs.shape == (15,)
        assert mpc._qp_structure(24, PARAMS.surface_area, 1.0).ineq_matrix.shape == (120, 72)
        # Neither slack is bounded alone: no row has its only nonzero in a
        # slack column.
        for row in problem.ineq_matrix:
            assert np.any(row[:3])

    @pytest.mark.parametrize("level", [-0.4, 0.0, 0.4, 1.5])
    def test_last_rows_are_the_release_bounds_at_s0s_level(self, level):
        # The last 2h rows bound u from below and from above, one row per
        # horizon step, at release_bounds of s0's level: -u <= -r_min,
        # u <= r_max. row_blocks reads them as views of the right-hand side.
        h = 4
        s0 = storage_of_level(PARAMS, level)
        problem = assemble_qp(PARAMS, MpcConfig(horizon=h), s0, [50.0] * h, [80.0] * h)
        r_min, r_max = release_bounds(PARAMS, level_of_storage(PARAMS, s0))
        eye = np.eye(h, 3 * h)
        assert np.array_equal(problem.ineq_matrix[3 * h:], np.vstack([-eye, eye]))
        rows = row_blocks(problem)
        assert rows.neg_lower.tolist() == [-r_min] * h and rows.upper.tolist() == [r_max] * h
        assert all(np.shares_memory(block, problem.ineq_rhs) for block in rows)
        assert np.array_equal(np.concatenate(rows), problem.ineq_rhs)
        assert [b.tolist() for b in release_bounds_of(problem)] == [[r_min] * h, [r_max] * h]

    def test_dry_rows_right_hand_side_keeps_its_digits(self):
        # Just above the dry bound each right-hand side is a small difference
        # of two storages near 3e7 m^3. Against exact rational arithmetic on
        # the same floats it must hold to a few units in the last place.
        config = MpcConfig()
        h, area = config.horizon, PARAMS.surface_area
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(200):
            s0 = S_MIN + float(rng.uniform(0.0, 5e4))
            inflow = rng.uniform(0.0, 5.0, h)
            rhs = assemble_qp(PARAMS, config, s0, inflow, np.zeros(h)).ineq_rhs[:h]
            volume = Fraction(s0) - Fraction(S_MIN)
            for t in range(h):
                volume += Fraction(HOUR_SECONDS) * Fraction(float(inflow[t]))
                exact = volume / Fraction(area) - Fraction(mpc.DRY_MARGIN)
                worst = max(worst, abs(float((Fraction(float(rhs[t])) - exact) / exact)))
        assert worst <= 4e-15


class TestMatricesPerConfiguration:
    def test_matrices_are_shared_and_read_only(self):
        # They are the configuration's solver structure's.
        config = MpcConfig(horizon=3)
        args = ([50.0] * 3, [80.0] * 3)
        first = assemble_qp(PARAMS, config, 1e8, *args)
        second = assemble_qp(PARAMS, config, 1.1e8, *args)
        structure = mpc._qp_structure(3, PARAMS.surface_area, 1.0)
        for name in ("hessian", "ineq_matrix"):
            matrix = getattr(first, name)
            assert matrix is getattr(second, name) is getattr(structure, name)
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0

    def test_one_factorization_per_run(self, cholesky_calls, no_qp_structure):
        trace = run_hourly(
            PARAMS, MpcConfig(lam=0.37), constant_scenario(100.0, 90.0, 4), 1.2e8, n_steps=48
        )
        assert set(trace.solve_statuses) == {"optimal"}
        assert len(cholesky_calls) == 1

    def test_second_run_factors_and_checks_nothing(self, monkeypatch, no_qp_structure):
        # The structure outlives the run: a second run of the configuration
        # in the process finds every start factor and candidate it needs.
        config, scn = MpcConfig(horizon=6), synthetic_year(2, first_day=104)
        s0 = storage_of_level(PARAMS, 1.08)
        first = run_hourly(PARAMS, config, scn, s0, n_steps=24)
        second = assert_rerun_reuses_structure(monkeypatch, PARAMS, config, scn, s0, n_steps=24)
        assert np.array_equal(second.releases, first.releases)

    def test_writable_copies_give_the_same_bits(self):
        # A flood-window step from the demand start, which takes 7
        # iterations. The copies are writable and not the structure's
        # matrices, so the solver builds them a structure of their own.
        config = MpcConfig()
        h = config.horizon
        scn = synthetic_year(3, first_day=104)
        s0 = storage_of_level(PARAMS, 1.08)
        inflow, demand = scn.inflow_hourly[12:12 + h], scn.demand_hourly[12:12 + h]
        problem = assemble_qp(PARAMS, config, s0, inflow, demand)
        hint = feasible_point(PARAMS, config, problem)
        copied = qp.QpProblem(
            hessian=problem.hessian.copy(),
            linear_cost=problem.linear_cost,
            ineq_matrix=problem.ineq_matrix.copy(),
            ineq_rhs=problem.ineq_rhs,
        )
        shared = qp.solve(
            problem, initial_point=hint, structure=mpc._qp_structure(h, PARAMS.surface_area, 1.0)
        )
        alone = qp.solve(copied, initial_point=hint)
        assert shared.status == alone.status == "optimal"
        assert shared.iterations == alone.iterations > 1
        for name in ("x", "duals"):
            assert np.array_equal(getattr(shared, name), getattr(alone, name))


def _demand_slack(u, w):
    """The binding demand slack of _feasible_point's start for release u
    against demand w: a one-hour step far above the dry bound whose release
    bounds are pinned at u, so every candidate is the plan u."""
    config = MpcConfig(horizon=1)
    problem = assemble_qp(PARAMS, config, 1.2e8, np.zeros(1), np.array([w]))
    structure = mpc._qp_structure(1, PARAMS.surface_area, config.lam)
    x = mpc._feasible_point(problem, structure, 1, None, np.array([u]), np.array([u]))
    assert x[0] == u
    return x[2]


class TestDemandSlack:
    def test_met(self):
        assert _demand_slack(120.0, 100.0) == 0.0

    def test_deficit(self):
        assert _demand_slack(80.0, 100.0) == -20.0

    def test_boundary(self):
        assert _demand_slack(100.0, 100.0) == 0.0


class TestSlackOptimality:
    def test_slacks_match_closed_forms(self):
        # Force a genuine flood inside the horizon: high start, huge inflow,
        # narrow release capacity. At the optimum the slacks must equal their
        # closed-form values implied by the plan.
        config = MpcConfig(horizon=8)
        s0 = S_MAX - 5e6
        inflow = np.full(8, 900.0)
        demand = np.full(8, 150.0)
        step = solve_step(PARAMS, config, s0, inflow, demand)
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
        trace = run_hourly(PARAMS, config, scn, S_MIN + 3e6, n_steps=216)
        assert np.min(trace.storages) >= S_MIN - 1e-6 * S_MIN
        assert trace.recovery_hours == 0
        assert np.min(trace.levels) >= PARAMS.dry_threshold - 1e-9

    def test_trace_records_solver_iterations(self, monkeypatch):
        iterations, warm_starts = [], []
        inner = mpc.solve_step

        def recording(*args, **kwargs):
            step = inner(*args, **kwargs)
            iterations.append(step.solve_diagnostics.iterations)
            warm_starts.append(step.solve_diagnostics.warm_start)
            return step

        monkeypatch.setattr(mpc, "solve_step", recording)
        trace = run_hourly(PARAMS, MpcConfig(), constant_scenario(80.0, 90.0, 3), 1.2e8, n_steps=12)
        assert trace.solve_iterations.dtype.kind == "i"
        assert trace.solve_iterations.tolist() == iterations
        assert min(iterations) >= 1
        assert trace.warm_starts.dtype.kind == "b"
        assert trace.warm_starts.tolist() == warm_starts
        assert not warm_starts[0] and any(warm_starts)
        iterations.clear()
        warm_starts.clear()
        daily = run_daily(PARAMS, MpcConfig(), constant_scenario(80.0, 90.0, 2), 1.2e8)
        assert daily.solve_iterations.tolist() == np.repeat(iterations, 24).tolist()
        assert daily.warm_starts.tolist() == np.repeat(warm_starts, 24).tolist()

    def test_flood_window_solves_stay_short(self):
        # The demand start holds every demand row tight while the optimum
        # releases more than the demand; the solver drops those rows together.
        scn = synthetic_year(3, first_day=104)
        trace = run_hourly(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, 1.08), n_steps=30)
        assert set(trace.solve_statuses) == {"optimal"}
        assert max(trace.solve_iterations) <= 10

    def test_longer_horizon_costs_less_and_floods_no_more(self):
        # The paper's tuning: days 100-239 from 0.4 m, the first 3312 hours
        # (what H = 48 can run), priced at w_flood = w_demand = 1. H = 6 / 24
        # / 48 cost 4552.520 / 4532.686 / 4496.327 with 992 / 978 / 940
        # flood hours. A shorter window is not monotone (on the first 1200
        # hours H = 12 costs more than H = 6), so it is not shortened.
        scn = synthetic_year(140, first_day=100)
        s0 = storage_of_level(PARAMS, 0.4)
        weights = DdpConfig(w_flood=1.0, w_demand=1.0)
        costs, flood_hours = [], []
        for horizon in (6, 24, 48):
            trace = run_hourly(PARAMS, MpcConfig(horizon=horizon), scn, s0, n_steps=3312)
            assert set(trace.solve_statuses) == {"optimal"}
            costs.append(trace_cost(PARAMS, weights, trace))
            flood_hours.append(compute_report(PARAMS, trace).flood.hours)
        assert costs[0] > costs[1] > costs[2]
        assert flood_hours[0] >= flood_hours[1] >= flood_hours[2]

    def test_scenario_too_short_rejected(self):
        scn = constant_scenario(10.0, 10.0, 1)
        with pytest.raises(ValueError, match="too short"):
            run_hourly(PARAMS, MpcConfig(), scn, 1e8)


class TestRecovery:
    def test_recovery_exercised_when_mef_conflicts_with_dry_bound(self):
        # Lake a hair above the dry storage bound, no inflow: the MEF lower
        # bound forces a release the hard constraint cannot absorb.
        scn = constant_scenario(0.0, 0.0, 2)
        trace = run_hourly(PARAMS, MpcConfig(), scn, S_MIN + 100.0, n_steps=2)
        assert trace.recovery_hours == 2
        assert trace.commands == pytest.approx([10.0, 10.0], abs=1e-8)

    @pytest.mark.parametrize("run", [run_hourly, run_daily], ids=["hourly", "daily"])
    def test_recovery_solves_are_certified(self, run):
        # From -0.30 m in the summer the lake starts below the dry bound and
        # the demand keeps it there for days. A dry slack with a 1e6 weight
        # once left one daily solve uncertified (KKT 2.6e-6) and 51 hourly
        # solves above 1e-9.
        scn = synthetic_year(20, first_day=182)
        trace = run(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, -0.30))
        assert trace.recovery_hours > 0
        assert set(trace.solve_statuses) == {"optimal"}
        assert np.max(trace.kkt_residuals) <= 1e-9

    @pytest.mark.parametrize("run", [run_hourly, run_daily], ids=["hourly", "daily"])
    def test_recovery_steps_take_the_hint(self, monkeypatch, run):
        # The run of test_recovery_solves_are_certified: recovery changes
        # bounds and right-hand sides, and the previous step's working set
        # is still optimal for some recovery steps.
        steps = []
        inner = mpc.solve_step

        def recording(*args, **kwargs):
            steps.append(inner(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(mpc, "solve_step", recording)
        run(PARAMS, MpcConfig(), synthetic_year(20, first_day=182), storage_of_level(PARAMS, -0.30))
        recovery = [step.solve_diagnostics for step in steps if step.recovery_used]
        assert any(solution.warm_start for solution in recovery)
        for solution in recovery:
            assert solution.status == "optimal" and solution.kkt_residual <= 1e-9

    @pytest.mark.parametrize("run", [run_hourly, run_daily], ids=["hourly", "daily"])
    def test_trace_marks_the_hours_of_recovery_steps(self, monkeypatch, run):
        # The run of test_recovery_solves_are_certified: each applied hour
        # carries the recovery flag of the step behind it, all 24 of a day.
        steps = []
        inner = mpc.solve_step

        def recording(*args, **kwargs):
            steps.append(inner(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(mpc, "solve_step", recording)
        scn = synthetic_year(20, first_day=182)
        trace = run(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, -0.30))
        hours_per_step = trace.n_hours // len(steps)
        expected = np.repeat([step.recovery_used for step in steps], hours_per_step)
        assert trace.recovery.dtype == bool
        assert trace.recovery.tolist() == expected.tolist()
        assert 0 < trace.recovery_hours == trace.recovery.sum() < trace.n_hours

    def test_recovery_steps_share_the_factorization(self, cholesky_calls, no_qp_structure):
        # Recovery hours change only bounds and right-hand sides.
        trace = run_hourly(
            PARAMS,
            MpcConfig(lam=0.43),
            constant_scenario(50.0, 30.0, 2),
            storage_of_level(PARAMS, -0.21),
            n_steps=24,
        )
        assert trace.recovery_hours == 10
        assert set(trace.solve_statuses) == {"optimal"}
        assert len(cholesky_calls) == 1

    def test_recovery_releases_the_minimum_until_the_bound_can_hold(self):
        # Below the dry bound with inflow above the 10 m^3/s minimum release:
        # the plan releases the minimum through the last step whose dry row
        # that plan fails, and the lake sits on the bound after it.
        config = MpcConfig(horizon=12)
        h = config.horizon
        s0 = storage_of_level(PARAMS, -0.2005)
        inflow, demand = np.full(h, 30.0), np.full(h, 200.0)
        r_min = release_bounds(PARAMS, level_of_storage(PARAMS, s0))[0]
        step = solve_step(PARAMS, config, s0, inflow, demand)
        assert step.recovery_used
        assert step.solve_diagnostics.kkt_residual <= 1e-9

        def levels(u):
            storages = s0 + HOUR_SECONDS * np.cumsum(inflow - u)
            return storages / PARAMS.surface_area + PARAMS.level_offset

        at_minimum = levels(np.full(h, r_min))
        k = int(np.flatnonzero(at_minimum < PARAMS.dry_threshold + mpc.DRY_MARGIN)[-1])
        assert step.planned_releases[:k + 1] == pytest.approx(np.full(k + 1, r_min), abs=1e-9)
        assert np.min(levels(step.planned_releases)[k + 1:]) >= PARAMS.dry_threshold
        assert step.planned_releases[k + 1] > r_min

    def test_lift_sets_the_upper_bound_rows_through_k_to_the_minimum(self, monkeypatch):
        # The setting above from 0.5 mm lower, where the minimum-release plan
        # fails the dry rows of steps 0..5: the lift writes r_min into the
        # upper-bound rows of u[0..5] and leaves r_max in the later ones.
        config = MpcConfig(horizon=12)
        h = config.horizon
        s0 = storage_of_level(PARAMS, -0.203)
        inflow, demand = np.full(h, 30.0), np.full(h, 200.0)
        r_min, r_max = release_bounds(PARAMS, level_of_storage(PARAMS, s0))
        problems = []
        inner = qp.solve

        def recording(problem, *args, **kwargs):
            problems.append(problem)
            return inner(problem, *args, **kwargs)

        monkeypatch.setattr(qp, "solve", recording)
        assert solve_step(PARAMS, config, s0, inflow, demand).recovery_used
        (problem,) = problems
        lower, upper = release_bounds_of(problem)
        k = 5
        assert upper.tolist() == [r_min] * (k + 1) + [r_max] * (h - k - 1)
        assert lower.tolist() == [r_min] * h
        assert r_min < r_max

    @settings(max_examples=30, deadline=None)
    @given(
        horizon=st.integers(2, 3),
        offset=st.floats(-1e5, 1e5),
        inflow=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
        demand=st.lists(st.floats(0.0, 200.0), min_size=3, max_size=3),
        lam=st.sampled_from([0.1, 1.0, 10.0]),
    )
    # A recovery step that holds the minimum release for two hours, a normal
    # step whose dry rows cap the releases, one that starts on the bound,
    # where SLSQP stops at its iteration limit, and a recovery step whose
    # minimum-release plan ends DRY_MARGIN below the bound, so that only the
    # lifted row admits it.
    @example(horizon=3, offset=-5e4, inflow=[12.0, 20.0, 40.0], demand=[150.0] * 3, lam=1.0)
    @example(horizon=3, offset=1e5, inflow=[5.0] * 3, demand=[150.0] * 3, lam=1.0)
    @example(horizon=2, offset=0.0, inflow=[39.25, 25.0, 0.0], demand=[39.25, 25.0, 0.0], lam=10.0)
    @example(horizon=2, offset=0.0, inflow=[0.0, 20.0, 0.0], demand=[0.0, 0.0, 0.0], lam=0.1)
    # On the dry bound with inflow equal to the minimum release, that plan
    # misses each row by DRY_MARGIN, inside the tolerance: no recovery, but
    # the rows are lifted, so the plan is feasible.
    @example(horizon=2, offset=0.0, inflow=[10.0, 10.0, 0.0], demand=[0.0, 0.0, 0.0], lam=0.1)
    def test_plan_cost_matches_the_oracle(self, horizon, offset, inflow, demand, lam):
        config = MpcConfig(horizon=horizon, lam=lam)
        s0 = S_MIN + offset
        inflow, demand = inflow[:horizon], demand[:horizon]
        step = solve_step(PARAMS, config, s0, inflow, demand)
        assert step.solve_diagnostics.status == "optimal"
        cost = controller_cost(PARAMS, config, s0, inflow, demand, step.planned_releases)[0]
        best = direct_cost_minimum(PARAMS, config, s0, inflow, demand)
        assert cost == pytest.approx(best, rel=1e-6, abs=1e-12)


class TestFeasibleStart:
    def test_drawdown_holds_the_dry_bound_and_a_dry_lake_recovers(self):
        # From day 182 at 0.29 m the summer demand drags the lake down. From
        # about hour 100 on, the clipped demand would cross the dry bound
        # within the 24-hour horizon, and the start falls back to the
        # minimum-release plan.
        summer = synthetic_year(6, first_day=182)
        dry = constant_scenario(0.0, 0.0, 2)
        trace = run_hourly(PARAMS, MpcConfig(), summer, storage_of_level(PARAMS, 0.29), n_steps=108)
        recovery = run_hourly(PARAMS, MpcConfig(), dry, S_MIN + 100.0, n_steps=2)
        assert np.min(trace.levels) >= PARAMS.dry_threshold - 1e-9
        assert set(trace.solve_statuses) == {"optimal"}
        assert recovery.recovery_hours == 2

    @pytest.mark.parametrize(
        "run, days, level",
        # A dry summer that recovers for 98 hours (44 iterations once), and
        # the daily synthetic year (31 once): a start trimmed onto the dry
        # rows spent their budget early and sat on a full vertex.
        [(run_hourly, (182, 20), -0.30), (run_daily, (0, 366), 0.4)],
    )
    def test_cold_solves_stay_short(self, run, days, level):
        first_day, n_days = days
        scn = synthetic_year(n_days, first_day=first_day)
        trace = run(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, level))
        assert set(trace.solve_statuses) == {"optimal"}
        assert trace.solve_iterations.max() <= 10

    @settings(max_examples=40, deadline=None)
    @given(
        offset=st.floats(-S_MIN, 2e5),
        inflow=st.lists(st.floats(0.0, 20.0), min_size=4, max_size=4),
        demand=st.lists(st.floats(0.0, 300.0), min_size=4, max_size=4),
    )
    # Short of the dry bound by 2.7e-5 m at the last step: an LP tolerance
    # scaled by the 300 m^3/s demand once called this feasible.
    @example(offset=7999.03, inflow=[17.28, 14.42, 2.5, 2.5], demand=[0.0, 178.5, 299.0, 50.0])
    # On the dry bound, the minimum-release plan misses a dry row by less
    # than qp.FEASIBILITY_TOL: no recovery, but the row must be lifted, or
    # the start meets it only within tolerance and the solve stops
    # uncertified at the iteration limit.
    @example(offset=0.0, inflow=[10.0] * 4, demand=[0.0, 0.0, 0.0, 133.0])
    def test_feasibility_verdict_matches_phase1(self, offset, inflow, demand):
        config = MpcConfig(horizon=4)
        s0 = S_MIN + offset
        step = solve_step(PARAMS, config, s0, inflow, demand)
        reference = phase1_point(assemble_qp(PARAMS, config, s0, inflow, demand))
        assert step.recovery_used == (reference is None)
        assert step.solve_diagnostics.status == "optimal"


def _minimum_release_start(problem, structure, h, u_hint, lower, upper):
    """A stand-in for _feasible_point: the minimum-release plan with its
    binding slacks, read off the problem's flood and demand rows."""
    rows = row_blocks(problem)
    drawn = problem.ineq_matrix[:h, :h] @ lower
    slacks = np.maximum(-rows.flood - drawn, 0.0), np.minimum(lower + rows.demand, 0.0)
    return np.concatenate([lower, *slacks])


class TestStartFromGuesses:
    def test_start_is_the_feasible_candidate_of_lower_objective(self):
        config = MpcConfig(horizon=6)
        h = config.horizon
        inflow, demand = np.full(h, 20.0), np.full(h, 150.0)

        def start(s0, u_hint):
            problem = assemble_qp(PARAMS, config, s0, inflow, demand)
            x = feasible_point(PARAMS, config, problem, u_hint)
            assert np.max(problem.ineq_matrix[:h] @ x - problem.ineq_rhs[:h]) <= qp.FEASIBILITY_TOL
            minimum = with_slacks(PARAMS, s0, inflow, demand, release_bounds_of(problem)[0])
            return problem, x, minimum

        # Far above the dry bound both guesses meet the dry rows as they are,
        # and the demand beats a hint at minimum release.
        problem, x, _ = start(1.2e8, np.full(h, 10.0))
        assert np.array_equal(x[:h], np.clip(demand, *release_bounds_of(problem)))
        # Just above it both guesses cross a dry row, and the start is the
        # minimum-release plan.
        _, x, minimum = start(S_MIN + 2e6, np.full(h, 300.0))
        assert np.array_equal(x, minimum)
        # A hint that meets the rows is kept while the demand crosses one.
        hint = np.full(h, 100.0)
        problem, x, minimum = start(S_MIN + 2e6, hint)
        lower, upper = release_bounds_of(problem)
        rows, rhs = problem.ineq_matrix[:h, :h], problem.ineq_rhs[:h]
        assert np.max(rows @ np.clip(demand, lower, upper) - rhs) > qp.FEASIBILITY_TOL
        assert np.array_equal(x[:h], np.clip(hint, lower, upper))
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


def _recorded_steps(monkeypatch, run, *args, **kwargs):
    """(args, kwargs, result) of every mpc.solve_step call of run(*args, **kwargs)."""
    steps = []
    inner = mpc.solve_step

    def recording(*step_args, **step_kwargs):
        step = inner(*step_args, **step_kwargs)
        steps.append((step_args, step_kwargs, step))
        return step

    monkeypatch.setattr(mpc, "solve_step", recording)
    run(*args, **kwargs)
    monkeypatch.undo()
    return steps


class TestSameBitsAsTheCheckedPath:
    """solve_step against helpers.reference_step, built from the public
    assemble_qp, the documented lift and qp.solve: the same bits."""

    @staticmethod
    def _assert_same_bits(step, args, kwargs):
        reference, recovered = reference_step(*args, **kwargs)
        solution = step.solve_diagnostics
        h = args[1].horizon
        assert np.array_equal(step.planned_releases, reference.x[:h])
        assert np.array_equal(solution.duals, reference.duals)
        assert solution.kkt_residual == reference.kkt_residual
        assert solution.working_set == reference.working_set
        assert solution.warm_start == reference.warm_start
        assert step.recovery_used == recovered

    @pytest.mark.parametrize("first_day, level, warm", [(104, 1.08, 44), (182, 0.29, 47)])
    def test_every_decision_of_an_hourly_window(self, monkeypatch, first_day, level, warm):
        steps = _recorded_steps(
            monkeypatch, run_hourly, PARAMS, MpcConfig(), synthetic_year(3, first_day=first_day),
            storage_of_level(PARAMS, level), n_steps=48,
        )
        assert len(steps) == 48
        assert sum(step.solve_diagnostics.warm_start for _, _, step in steps) == warm
        for args, kwargs, step in steps:
            self._assert_same_bits(step, args, kwargs)

    def test_every_decision_of_a_daily_run(self, monkeypatch):
        # Days after the first also hand the solver the previous plan as u_hint.
        steps = _recorded_steps(
            monkeypatch, run_daily, PARAMS, MpcConfig(), synthetic_year(3),
            storage_of_level(PARAMS, 0.4),
        )
        assert len(steps) == 3 and steps[1][1]["u_hint"] is not None
        for args, kwargs, step in steps:
            self._assert_same_bits(step, args, kwargs)

    def test_cold_days_that_start_from_the_hint(self, monkeypatch):
        # Days 104-107 from 1.08 m: no day takes a candidate, and the last
        # two start from the previous day's plan, clipped into the bounds.
        steps = _recorded_steps(
            monkeypatch, run_daily, PARAMS, MpcConfig(), synthetic_year(4, first_day=104),
            storage_of_level(PARAMS, 1.08),
        )
        assert not any(step.solve_diagnostics.warm_start for _, _, step in steps)
        for args, kwargs, step in steps:
            self._assert_same_bits(step, args, kwargs)

    @pytest.mark.parametrize(
        "offset, inflow, recovers",
        # 100 m^3 above the dry bound with no inflow, the step recovers. On
        # the bound with inflow equal to the minimum release, that plan
        # misses every dry row by DRY_MARGIN, inside the tolerance: no
        # recovery, but every row is lifted.
        [(100.0, 0.0, True), (0.0, 10.0, False)],
    )
    def test_lifted_step_cold_and_warm(self, offset, inflow, recovers):
        # First from its start, then from its own final working set.
        h = MpcConfig().horizon
        args = (PARAMS, MpcConfig(), S_MIN + offset, np.full(h, inflow), np.full(h, 50.0))
        cold = solve_step(*args)
        assert cold.recovery_used == recovers and not cold.solve_diagnostics.warm_start
        self._assert_same_bits(cold, args, {})
        kwargs = {"working_sets": [cold.solve_diagnostics.working_set]}
        warm = solve_step(*args, **kwargs)
        assert warm.solve_diagnostics.warm_start
        self._assert_same_bits(warm, args, kwargs)


class TestWorkingSetHints:
    def test_shift_moves_every_block_by_an_hour(self):
        # Blocks of 6: position 0 leaves, 5 moves to 4 and also stays. Row 20
        # is the lower bound of u[2].
        assert mpc._shifted((0, 5, 6, 11, 14, 20), 6) == (4, 5, 10, 11, 13, 19)

    def test_structure_rows_fall_in_blocks_of_the_horizon(self, no_qp_structure):
        # What _shifted relies on: row r of the hourly structure belongs to
        # horizon step r % h. Its blocks, those of _block_slices, are the dry,
        # flood and demand rows and the lower and upper bounds of u.
        h = 6
        structure = mpc._qp_structure(h, PARAMS.surface_area, 1.0)
        rows = structure.ineq_matrix
        assert rows.shape == (len(mpc._RowBlocks._fields) * h, 3 * h)
        # A row's step is the last release it holds.
        steps = [int(np.flatnonzero(row[:h]).max()) for row in rows]
        assert steps == [r % h for r in range(rows.shape[0])]

    def test_hit_builds_no_start(self):
        config = MpcConfig()
        h = config.horizon
        scn = synthetic_year(2, first_day=182)
        s0 = storage_of_level(PARAMS, 0.29)
        args = (PARAMS, config, s0, scn.inflow_hourly[:h], scn.demand_hourly[:h])
        with mock.patch.object(mpc, "_feasible_point", wraps=mpc._feasible_point) as start:
            cold = solve_step(*args)
            assert start.call_count == 1
            warm = solve_step(*args, working_sets=[cold.solve_diagnostics.working_set])
            assert start.call_count == 1
        assert warm.solve_diagnostics.warm_start and not cold.solve_diagnostics.warm_start
        assert warm.planned_releases == pytest.approx(cold.planned_releases, rel=1e-12)

    def test_candidates_are_the_recent_final_sets_in_both_forms(self, monkeypatch):
        # Five flood days. Each hour first offers, as it is, the final set
        # that followed the last hour's final set the last time that set was
        # final. Then it offers the last 8 distinct final working sets, most
        # recent first, each shifted and then as it is, and no candidate
        # twice. The start is built only for an hour that takes none.
        h = MpcConfig().horizon
        offered, solutions = [], []
        inner = mpc.solve_step

        def recording(*args, **kwargs):
            offered.append(list(kwargs["working_sets"]))
            step = inner(*args, **kwargs)
            solutions.append(step.solve_diagnostics)
            return step

        monkeypatch.setattr(mpc, "solve_step", recording)
        with mock.patch.object(mpc, "_feasible_point", wraps=mpc._feasible_point) as start:
            trace = run_hourly(
                PARAMS, MpcConfig(), synthetic_year(6, first_day=104),
                storage_of_level(PARAMS, 1.08), n_steps=120,
            )

        recent, successor, last = [], {}, None
        taken_forms, taken_older, distinct = set(), 0, set()
        successor_taken = rejected = 0
        for candidates, solution in zip(offered, solutions):
            # candidate -> whether it is a shifted form, None for the successor
            expected = {}
            if last in successor:
                expected[successor[last]] = None
            for rows in recent:
                expected.setdefault(mpc._shifted(rows, h), True)
                expected.setdefault(rows, False)
            assert candidates == list(expected)
            final = solution.working_set
            if solution.warm_start:
                rejected += list(expected).index(final)
                if expected[final] is None:
                    successor_taken += 1
                else:
                    taken_forms.add(expected[final])
                    taken_older += final not in (recent[0], mpc._shifted(recent[0], h))
            else:
                rejected += len(candidates)
            if last is not None:
                successor[last] = final
            last = final
            distinct.add(final)
            if final in recent:
                recent.remove(final)
            recent = [final, *recent][:8]
        assert taken_forms == {True, False}
        assert taken_older > 0
        # Most warm hours take the successor, and an hour rejects fewer
        # than one candidate on average.
        assert successor_taken > trace.warm_starts.sum() / 2
        assert rejected < len(offered)
        # The list fills, and on the flood the shifted form of one set is
        # often an older set as it is, so no hour offers 17 candidates.
        assert len(recent) == 8 and len(distinct) > 8
        assert max(len(c) for c in offered) < 17
        assert start.call_count == int(np.sum(~trace.warm_starts)) < 10


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


    def test_daily_forecast_is_the_day_mean(self):
        # Hourly inflow with an intra-day swing around 100 m^3/s, 1e6 m^3
        # above the dry bound, where the dry rows cap the plan: the day's
        # plan sees only the mean, so it is the plan of a flat 100 m^3/s.
        # A forecast of the first hour's 50 m^3/s would cap it 50 lower.
        swing = np.tile(np.concatenate([np.full(12, 50.0), np.full(12, 150.0)]), 3)
        demand = np.full(72, 150.0)
        s0 = S_MIN + 1e6
        flat = run_daily(PARAMS, MpcConfig(), Scenario(np.full(72, 100.0), demand), s0, n_steps=72)
        daily = run_daily(PARAMS, MpcConfig(), Scenario(swing, demand), s0, n_steps=72)
        assert daily.commands == pytest.approx(flat.commands, abs=1e-9)

    @pytest.mark.parametrize("amplitude, decay", [(0.0, 0.06), (25.0, 0.06), (100.0, 0.6)])
    def test_dry_bound_holds_only_under_a_flat_day(self, amplitude, decay):
        # The day's plan rides the dry bound on the day-mean inflow, so the
        # lake falls below it by the day's largest cumulative shortfall.
        bell = GaussianInflowParams(amplitude=amplitude, decay=decay)
        scn = synthetic_year(15, intraday=bell, first_day=182)
        trace = run_daily(PARAMS, MpcConfig(), scn, storage_of_level(PARAMS, 0.29))
        day = bell.intraday()
        shortfall = HOUR_SECONDS * np.max(np.cumsum(day.mean() - day)) / PARAMS.surface_area
        lowest = np.min(trace.levels)
        if amplitude == 0.0:
            assert lowest >= PARAMS.dry_threshold - 1e-9
        else:
            assert lowest == pytest.approx(
                PARAMS.dry_threshold - (shortfall - mpc.DRY_MARGIN), rel=0.0, abs=1e-12
            )


class TestConfig:
    def test_default_storage_bounds_match_thresholds(self):
        # The storages at Lake Como's dry and flood thresholds, to the bit.
        assert mpc._storage_bounds(PARAMS) == (29_180_000.0, 218_850_000.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0},
            # These once passed and failed later on a slice index, or ran 1 hour.
            {"horizon": 6.0},
            {"horizon": "6"},
            {"horizon": True},
            {"lam": -1.0},
            {"lam": 0.0},
            # These once passed and failed inside the solver without naming lam.
            {"lam": np.nan},
            {"lam": np.inf},
            # These once raised TypeError or passed as the weight 1.
            {"lam": "1"},
            {"lam": True},
        ],
    )
    def test_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            MpcConfig(**kwargs)

    @pytest.mark.parametrize("run", [run_hourly, run_daily])
    @pytest.mark.parametrize("n_steps", [10.7, 24.0, True, "12"])
    def test_step_count_must_be_an_integer(self, run, n_steps):
        # These once ran int(n_steps) hours, or a bool's one.
        scn = constant_scenario(10.0, 10.0, 3)
        with pytest.raises(ValueError, match=r"^n_steps must be an integer, got "):
            run(PARAMS, MpcConfig(), scn, 1e8, n_steps=n_steps)

    def test_integer_step_count_of_another_type_runs(self):
        scn = constant_scenario(10.0, 10.0, 3)
        trace = run_daily(PARAMS, MpcConfig(), scn, 1e8, n_steps=np.int64(24))
        assert trace.releases.size == 24

    def test_integer_horizon_of_another_type_is_an_int(self):
        config = MpcConfig(horizon=np.int64(6))
        assert type(config.horizon) is int and config.horizon == 6
