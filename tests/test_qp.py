"""QP solver tests: certification against the active-set enumeration oracle."""

import collections
import re

import numpy as np
import pytest
import scipy.linalg

from helpers import dense_kkt_solution, enumeration_oracle, phase1_point, random_qp
from lakempc import mpc, qp
from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    release_bounds,
    storage_of_level,
)
from lakempc.scenario import synthetic_year


class TestTrivialProblems:
    def test_active_lower_bound(self):
        # min x^2 s.t. x >= 1
        problem = qp.QpProblem(hessian=[[2.0]], linear_cost=[0.0], lower=[1.0])
        solution = qp.solve(problem, [2.0])
        assert solution.status == "optimal"
        assert solution.x[0] == pytest.approx(1.0, abs=1e-10)
        assert solution.objective == pytest.approx(1.0, abs=1e-10)

    def test_clamped_unconstrained_optimum(self):
        # min (x-2)^2 s.t. 0 <= x <= 1 -> x = 1
        problem = qp.QpProblem(
            hessian=[[2.0]], linear_cost=[-4.0], lower=[0.0], upper=[1.0]
        )
        solution = qp.solve(problem, [0.5])
        assert solution.x[0] == pytest.approx(1.0, abs=1e-10)


def _vertex_qp(hessian, tight_rows, lam, vertex, slack_rows, slack):
    """A QP whose vertex has the given multipliers on its tight rows.

    tight_rows hold with equality at vertex, slack_rows with the given
    slacks. The linear cost makes vertex stationary with multipliers lam on
    tight_rows; negative ones pull the optimum off those rows."""
    tight_rows = np.asarray(tight_rows, dtype=float)
    slack_rows = np.asarray(slack_rows, dtype=float).reshape(-1, tight_rows.shape[1])
    return qp.QpProblem(
        hessian=hessian,
        linear_cost=-hessian @ vertex - tight_rows.T @ lam,
        ineq_matrix=np.vstack([tight_rows, slack_rows]),
        ineq_rhs=np.concatenate([tight_rows @ vertex, slack_rows @ vertex + slack]),
    )


def _degenerate_vertex_qp(rng):
    """n independent rows tight at a vertex with negative multipliers, all
    equal in half the draws, plus two duplicated or scaled copies of them
    (tight too, zero multiplier) and random slack rows: 9 rows in all."""
    n = int(rng.integers(2, 5))
    basis = rng.standard_normal((n, n))
    hessian = basis.T @ basis + 0.5 * np.eye(n)
    vertex = rng.standard_normal(n)
    rows = rng.standard_normal((n, n))
    lam = -np.ones(n) if rng.random() < 0.5 else -rng.uniform(0.2, 2.0, n)
    copies = [
        rows[i] * (1.0 if rng.random() < 0.5 else rng.uniform(0.5, 3.0))
        for i in rng.choice(n, size=2, replace=False)
    ]
    k = 9 - n - len(copies)
    problem = _vertex_qp(
        hessian,
        np.vstack([rows, *copies]),
        np.concatenate([lam, np.zeros(len(copies))]),
        vertex,
        rng.standard_normal((k, n)),
        rng.uniform(0.05, 1.0, k),
    )
    return problem, vertex


def _cone_qp(rng):
    """Up to 10 rows with small integer entries, all tight at the origin, so
    that many are degenerate there and multipliers tie."""
    n = int(rng.integers(3, 6))
    while True:
        rows = rng.integers(-2, 3, (int(rng.integers(n + 1, 11)), n)).astype(float)
        rows = rows[np.any(rows != 0.0, axis=1)]
        if np.linalg.matrix_rank(rows) == n:
            break
    problem = qp.QpProblem(
        hessian=np.eye(n),
        linear_cost=rng.integers(-3, 4, n).astype(float),
        ineq_matrix=rows,
        ineq_rhs=np.zeros(rows.shape[0]),
    )
    return problem, np.zeros(n)


def _check_from_vertex(problem, vertex):
    solution = qp.solve(problem, initial_point=vertex)
    assert solution.status == "optimal"
    _, oracle_x = enumeration_oracle(problem)
    assert solution.x == pytest.approx(oracle_x, abs=1e-6)
    assert solution.iterations <= 12


class TestAgainstOracle:
    def test_random_strictly_convex(self):
        rng = np.random.default_rng(202406)
        for _ in range(120):
            problem, feasible = random_qp(rng)
            solution = qp.solve(problem, feasible)
            assert solution.status == "optimal"
            oracle_value, oracle_x = enumeration_oracle(problem)
            assert solution.objective == pytest.approx(oracle_value, abs=1e-6)
            assert solution.x == pytest.approx(oracle_x, abs=1e-6)
            assert solution.kkt_residual <= 1e-6

    # Degenerate vertex starts: several working rows carry negative
    # multipliers, so the solver drops them together; some of these steps
    # stall at zero length and the solve goes on one drop at a time.
    def test_vertex_start_with_copied_rows_and_tied_multipliers(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            _check_from_vertex(*_degenerate_vertex_qp(rng))

    def test_vertex_start_on_a_degenerate_cone(self):
        # Instance 11 cycles forever if drops stay multi after a zero-length
        # step.
        rng = np.random.default_rng(2)
        for _ in range(20):
            _check_from_vertex(*_cone_qp(rng))

    def test_vertex_start_whose_drop_steps_back_across_a_dropped_row(self):
        # x1 <= 0 and -x1 + 0.1 x2 <= 0 tight at 0 with multipliers -0.1 and
        # -1: with both dropped, the step crosses x1 <= 0 at once.
        problem = _vertex_qp(
            np.eye(2), [[1.0, 0.0], [-1.0, 0.1]], [-0.1, -1.0], np.zeros(2), [[0.0, 1.0]], [5.0]
        )
        _check_from_vertex(problem, np.zeros(2))


class TestInvariants:
    def test_objective_recomputed_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            problem, feasible = random_qp(rng)
            solution = qp.solve(problem, feasible)
            recomputed = 0.5 * solution.x @ problem.hessian @ solution.x
            recomputed += problem.linear_cost @ solution.x
            assert solution.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            problem, feasible = random_qp(rng)
            base = qp.solve(problem, feasible)
            alpha = 10.0 ** rng.uniform(-2, 2)
            scaled = qp.QpProblem(
                hessian=alpha * problem.hessian,
                linear_cost=alpha * problem.linear_cost,
                ineq_matrix=problem.ineq_matrix,
                ineq_rhs=problem.ineq_rhs,
                lower=problem.lower,
                upper=problem.upper,
            )
            again = qp.solve(scaled, feasible)
            assert again.x == pytest.approx(base.x, abs=1e-6)
            assert again.objective == pytest.approx(alpha * base.objective, rel=1e-6, abs=1e-9)

    def test_ineq_duals_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            problem, feasible = random_qp(rng)
            solution = qp.solve(problem, feasible)
            if solution.ineq_duals.size:
                assert np.min(solution.ineq_duals) >= -1e-9


class TestKktResidual:
    def test_exact_solution_near_zero(self):
        problem = qp.QpProblem(hessian=[[2.0]], linear_cost=[0.0], lower=[1.0])
        solution = qp.QpSolution(
            x=np.array([1.0]),
            ineq_duals=np.zeros(0),
            bound_duals=np.array([-2.0]),  # pushes against the lower bound
            objective=1.0,
            status="optimal",
            kkt_residual=0.0,
        )
        assert qp.kkt_residual(problem, solution) <= 1e-12

    def test_perturbed_free_coordinate_detected(self):
        problem = qp.QpProblem(hessian=2.0 * np.eye(2), linear_cost=[-2.0, -2.0])
        solution = qp.solve(problem, np.zeros(2))
        assert solution.kkt_residual <= 1e-9
        nudged = qp.QpSolution(
            x=solution.x + np.array([1e-3, 0.0]),
            ineq_duals=solution.ineq_duals,
            bound_duals=solution.bound_duals,
            objective=solution.objective,
            status="optimal",
            kkt_residual=0.0,
        )
        components = qp.kkt_components(problem, nudged)
        assert components["stationarity"] > 1e-6

    def test_infeasible_point_primal_residual_is_max_violation(self):
        problem = qp.QpProblem(
            hessian=2.0 * np.eye(2),
            linear_cost=np.zeros(2),
            ineq_matrix=[[1.0, 0.0], [0.0, 1.0]],
            ineq_rhs=[1.0, 1.0],
        )
        point = qp.QpSolution(
            x=np.array([2.5, 1.2]),
            ineq_duals=np.zeros(2),
            bound_duals=np.zeros(2),
            objective=0.0,
            status="optimal",
            kkt_residual=0.0,
        )
        assert qp.kkt_components(problem, point)["primal"] == pytest.approx(1.5)


    def test_nan_component_makes_the_residual_nan(self):
        # max() drops a NaN that is not its first argument; the residual
        # must not.
        problem = qp.QpProblem(
            hessian=np.eye(2), linear_cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[np.nan]
        )
        solution = qp.QpSolution(
            x=np.ones(2), ineq_duals=np.zeros(1), bound_duals=np.zeros(2),
            objective=-1.0, status="optimal", kkt_residual=0.0,
        )
        assert np.isnan(qp.kkt_components(problem, solution)["primal"])
        assert np.isnan(qp.kkt_residual(problem, solution))
        finite = qp.QpProblem(hessian=np.eye(2), linear_cost=[-1.0, -1.0])
        solution.x = np.array([1.0, np.nan])
        assert np.isnan(qp.kkt_residual(finite, solution))

    def test_nan_residual_is_not_certified(self, monkeypatch):
        monkeypatch.setattr(qp, "kkt_residual", lambda problem, solution: float("nan"))
        problem = qp.QpProblem(hessian=[[2.0]], linear_cost=[0.0], lower=[1.0])
        solution = qp.solve(problem, [2.0])
        assert solution.status == "iteration-limit"
        assert "certification failed" in solution.message


class TestNonFiniteData:
    @staticmethod
    def _problem():
        return qp.QpProblem(
            hessian=np.eye(2),
            linear_cost=[-1.0, -1.0],
            ineq_matrix=[[1.0, 1.0]],
            ineq_rhs=[1.0],
            lower=[-np.inf, 0.0],
            upper=[np.inf, 5.0],
        )

    def test_nan_row_bound_rejected_not_certified(self):
        # Certified as optimal at x = (1, 1) with a zero residual before the
        # data was checked.
        problem = qp.QpProblem(
            hessian=np.eye(2), linear_cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[np.nan]
        )
        with pytest.raises(ValueError, match=r"^ineq_rhs is nan at row 0$"):
            qp.solve(problem, np.zeros(2))

    @pytest.mark.parametrize(
        "field, index, value, message",
        [
            ("linear_cost", 1, np.nan, "linear_cost is nan at variable 1"),
            ("linear_cost", 0, np.inf, "linear_cost is inf at variable 0"),
            ("linear_cost", 1, -np.inf, "linear_cost is -inf at variable 1"),
            ("ineq_rhs", 0, np.inf, "ineq_rhs is inf at row 0"),
            ("lower", 1, np.nan, "lower bound is nan at variable 1"),
            ("upper", 0, np.nan, "upper bound is nan at variable 0"),
        ],
    )
    def test_non_finite_entry_named(self, field, index, value, message):
        # A non-finite cost used to run all MAX_ITERATIONS iterations.
        problem = self._problem()
        getattr(problem, field)[index] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qp.solve(problem, np.zeros(2))

    def test_infinite_bounds_are_absent_bounds(self):
        problem = self._problem()
        problem.upper[1] = np.inf
        problem.lower[1] = -np.inf
        solution = qp.solve(problem, np.zeros(2))
        assert solution.status == "optimal"
        assert solution.x == pytest.approx([0.5, 0.5], abs=1e-12)


class TestEdgesAndErrors:
    def test_infeasible_diagnostic(self):
        # x <= 0 and x >= 1: no start is feasible.
        problem = qp.QpProblem(
            hessian=[[2.0]],
            linear_cost=[0.0],
            ineq_matrix=[[1.0], [-1.0]],
            ineq_rhs=[0.0, -1.0],
        )
        assert phase1_point(problem) is None
        with pytest.raises(
            ValueError, match=r"^initial_point is infeasible: inequality row 1 violated by 1$"
        ):
            qp.solve(problem, [0.0])

    def test_start_infeasibility_judged_with_the_feasibility_tolerance(self):
        # x <= -2e-5 against x >= 0 misses by 2e-5, far above FEASIBILITY_TOL.
        # A large but slack right-hand side elsewhere must not hide that, and
        # the clip into x >= 0 must not either.
        problem = qp.QpProblem(
            hessian=[[2.0]],
            linear_cost=[0.0],
            ineq_matrix=[[1.0], [-1.0]],
            ineq_rhs=[-2e-5, 1e3],
            lower=[0.0],
        )
        assert phase1_point(problem) is None
        with pytest.raises(ValueError, match=r"inequality row 0 violated by 2e-05$"):
            qp.solve(problem, [-2e-5])

    def test_crossed_bounds_rejected(self):
        problem = qp.QpProblem(
            hessian=[[2.0]], linear_cost=[0.0], lower=[1.0], upper=[0.0]
        )
        with pytest.raises(ValueError, match="bound"):
            qp.solve(problem, [0.5])

    def test_dimension_mismatch_rejected(self):
        problem = qp.QpProblem(
            hessian=np.eye(2), linear_cost=[0.0, 0.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0]
        )
        with pytest.raises(ValueError, match="inequality"):
            qp.solve(problem, np.zeros(2))

    def test_asymmetric_hessian_rejected(self):
        problem = qp.QpProblem(hessian=[[1.0, 0.5], [0.0, 1.0]], linear_cost=[0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            qp.solve(problem, np.zeros(2))

    def test_indefinite_hessian_rejected(self):
        # Singular counts too: the solver needs a positive-definite Hessian.
        for hessian in ([[-1.0]], [[0.0]], [[1.0, 1.0], [1.0, 1.0]]):
            problem = qp.QpProblem(hessian=hessian, linear_cost=np.zeros(len(hessian)))
            with pytest.raises(ValueError, match="not positive definite"):
                qp.solve(problem, np.zeros(len(hessian)))

    def test_iteration_limit_status(self):
        # The solve from this start takes more than 30 iterations. Stopped
        # after 3, it still reads its multipliers off the working-set factor.
        problem, feasible = _dense_qp(0)
        solution = qp.solve(problem, feasible, max_iterations=3)
        assert (solution.status, solution.iterations) == ("iteration-limit", 3)
        duals = np.concatenate([solution.ineq_duals, solution.bound_duals])
        assert np.all(np.isfinite(duals))
        assert np.count_nonzero(duals) >= 1

    def test_feasible_hint_is_used(self):
        problem = qp.QpProblem(
            hessian=2.0 * np.eye(2),
            linear_cost=np.zeros(2),
            ineq_matrix=[[-1.0, -1.0]],
            ineq_rhs=[-2.0],
        )
        solution = qp.solve(problem, initial_point=np.array([3.0, 3.0]))
        assert solution.status == "optimal"
        assert solution.x == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_hint_of_wrong_length_rejected(self):
        problem = qp.QpProblem(
            hessian=2.0 * np.eye(3), linear_cost=np.zeros(3), lower=np.zeros(3), upper=np.ones(3)
        )
        for hint in ([0.5], [0.5, 0.5], np.zeros(4), np.full((3, 1), 0.5)):
            with pytest.raises(ValueError, match="initial_point must have length 3"):
                qp.solve(problem, initial_point=hint)

    def test_non_finite_start_rejected(self):
        # A NaN compares false against every row, so it would otherwise count
        # as feasible and run the solver to its iteration limit.
        problem = qp.QpProblem(
            hessian=2.0 * np.eye(2),
            linear_cost=np.zeros(2),
            ineq_matrix=[[1.0, 0.0]],
            ineq_rhs=[1.0],
            lower=[-np.inf, 0.0],
            upper=[np.inf, 1.0],
        )
        for start in ([np.nan, 0.5], [0.0, np.nan], [-np.inf, 0.5]):
            with pytest.raises(ValueError, match="initial_point is not finite at variable"):
                qp.solve(problem, start)
        # An infinite entry that the bounds clip is a finite start.
        assert qp.solve(problem, [0.0, np.inf]).status == "optimal"

    def test_infeasible_start_of_a_feasible_problem_rejected(self):
        # The problem is feasible, but the start is not: the solver rejects
        # it rather than searching for another.
        problem = qp.QpProblem(
            hessian=2.0 * np.eye(2),
            linear_cost=np.zeros(2),
            ineq_matrix=[[-1.0, -1.0]],
            ineq_rhs=[-2.0],
        )
        assert phase1_point(problem) is not None
        with pytest.raises(ValueError, match=r"inequality row 0 violated by 2$"):
            qp.solve(problem, initial_point=np.array([0.0, 0.0]))


def _dense_qp(seed, n=40, m=80):
    """A strictly convex QP at MPC scale: dense Hessian of condition 1e4, m
    inequality rows and box bounds, with a known feasible point. The
    unconstrained optimum lies far outside, so many rows end up active."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hessian = (basis * np.logspace(0, 4, n)) @ basis.T
    hessian = 0.5 * (hessian + hessian.T)
    a = rng.standard_normal((m, n))
    x_feasible = rng.uniform(-0.5, 0.5, n)
    b = a @ x_feasible + rng.uniform(0.0, 1.0, m)
    problem = qp.QpProblem(
        hessian=hessian,
        linear_cost=-hessian @ rng.uniform(-5.0, 5.0, n),
        ineq_matrix=a,
        ineq_rhs=b,
        lower=-np.ones(n),
        upper=np.ones(n),
    )
    return problem, x_feasible


def _assert_matches_dense_kkt(problem, solution):
    """x within 1e-10 and the multipliers within 1e-8 of the dense KKT
    oracle on the rows the solution holds active, relative to their largest
    entries."""
    x, ineq_duals, bound_duals = dense_kkt_solution(problem, solution)
    assert np.max(np.abs(solution.x - x)) <= 1e-10 * np.max(np.abs(x))
    duals = np.concatenate([solution.ineq_duals, solution.bound_duals])
    oracle = np.concatenate([ineq_duals, bound_duals])
    assert np.max(np.abs(duals - oracle), initial=0.0) <= 1e-8 * np.max(np.abs(oracle), initial=0.0)


# (first day, start level in m, starts whose tight rows are dependent).
# Days 104-105 from 1.08 m cross the flood threshold: solves of up to 7
# iterations, and three starts whose 72 tight rows have rank 48. Days
# 182-183 from 0.29 m: one-iteration solves.
HOURLY_WINDOWS = [(104, 1.08, 3), (182, 0.29, 0)]
FACTOR_CALLS = ((np.linalg, "qr"), (scipy.linalg, "qr"), (np.linalg, "solve"), (np.linalg, "lstsq"))


def _count_calls(monkeypatch, functions):
    """A Counter of the calls of each (owner, name) in functions, keyed
    "module.name", for as long as the monkeypatch lasts."""
    counts = collections.Counter()
    for owner, name in functions:
        def counting(*args, _inner=getattr(owner, name), _label=f"{owner.__name__}.{name}", **kwargs):
            counts[_label] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return counts


def _hourly_window(monkeypatch, first_day, level, counted=()):
    """Every qp.solve of 48 closed-loop MPC hours from first_day at level m:
    (problem, start, solution, calls of each (owner, name) in counted)."""
    counts = _count_calls(monkeypatch, counted)
    steps = []
    inner = qp.solve

    def recording(problem, initial_point, **kwargs):
        counts.clear()
        solution = inner(problem, initial_point, **kwargs)
        steps.append((problem, initial_point, solution, dict(counts)))
        return solution

    monkeypatch.setattr(qp, "solve", recording)
    params = LakeParams()
    trace = mpc.run_hourly(
        params, mpc.MpcConfig(), synthetic_year(3, first_day=first_day),
        storage_of_level(params, level), n_steps=48,
    )
    monkeypatch.undo()
    assert set(trace.solve_statuses) == {"optimal"}
    assert len(steps) == 48
    return steps


def _tight_rows(problem, start):
    """The rows (finite bounds folded in) tight at the clipped start."""
    n = problem.n
    lo, hi = np.flatnonzero(np.isfinite(problem.lower)), np.flatnonzero(np.isfinite(problem.upper))
    rows = np.vstack([problem.ineq_matrix, -np.eye(n)[lo], np.eye(n)[hi]])
    rhs = np.concatenate([problem.ineq_rhs, -problem.lower[lo], problem.upper[hi]])
    x = np.clip(start, problem.lower, problem.upper)
    return rows[rhs - rows @ x <= 1e-9 * (np.abs(rhs) + np.abs(rows) @ np.abs(x))]


def _independent(rows, n):
    """Whether rows number at most n and are linearly independent."""
    k = rows.shape[0]
    return k == 0 or (k <= n and np.linalg.matrix_rank(rows) == k)


def _minimum_release_at_a_dry_cap(demand):
    """The MPC problem, and its minimum-release plan as the start, for a
    lake that plan takes exactly onto the dry bound in the first hour: the
    lake starts one hour of minimum release (10 m^3/s) above the bound, and
    that hour has no inflow. The tight dry row is then a multiple of the
    first release's lower-bound row. With the demand above the minimum
    release every demand row is tight too: 73 tight rows for 72 variables."""
    params, config = LakeParams(), mpc.MpcConfig()
    h, area = config.horizon, params.surface_area
    inflow = np.full(h, 20.0)
    inflow[0] = 0.0
    demand = np.full(h, demand)
    bounds = np.tile([10.0, 400.0], (h, 1))
    s0 = mpc._storage_bounds(params)[0] + area * mpc.DRY_MARGIN + HOUR_SECONDS * 10.0
    problem = mpc.assemble_qp(params, config, s0, inflow, demand, bounds)
    start = mpc._with_slacks(params, s0, inflow, demand, bounds[:, 0])
    return problem, start


class TestSnapAgainstDenseKkt:
    """qp.solve's x and multipliers against one dense KKT solve on the rows
    its multipliers mark active."""

    def test_random_strictly_convex(self):
        rng = np.random.default_rng(202406)
        for _ in range(120):
            problem, feasible = random_qp(rng)
            _assert_matches_dense_kkt(problem, qp.solve(problem, feasible))

    def test_dense_mpc_scale(self):
        problem, x_feasible = _dense_qp(0)
        _assert_matches_dense_kkt(problem, qp.solve(problem, x_feasible))

    @pytest.mark.parametrize("first_day, level", [window[:2] for window in HOURLY_WINDOWS])
    def test_every_step_of_an_hourly_window(self, monkeypatch, first_day, level):
        for problem, _, solution, _ in _hourly_window(monkeypatch, first_day, level):
            _assert_matches_dense_kkt(problem, solution)


class TestMpcScale:
    def test_dense_hessian_long_solve_from_hint_and_phase1(self):
        problem, x_feasible = _dense_qp(0)
        hinted = qp.solve(problem, initial_point=x_feasible)
        cold = qp.solve(problem, initial_point=phase1_point(problem))
        for solution in (hinted, cold):
            assert solution.status == "optimal"
            assert solution.kkt_residual <= 1e-9
            assert solution.iterations >= 30
        assert hinted.x == pytest.approx(cold.x, abs=1e-8)

    def test_factorizations_per_solve_not_per_iteration(self, monkeypatch):
        # The first step of the hard dry-bound run: demand 300 against inflow
        # 20, 3e6 m^3 above the dry storage, started from the minimum-release
        # plan, not the MPC's own start, so that the solve stays long enough
        # to run many row insertions and deletions.
        counts = collections.Counter()

        def counting(label, inner):
            def wrapper(*args, **kwargs):
                counts[label] += 1
                return inner(*args, **kwargs)
            return wrapper

        for owner, name in (
            (np.linalg, "qr"), (scipy.linalg, "qr"), (np.linalg, "cholesky"), (scipy.linalg, "cho_factor")
        ):
            monkeypatch.setattr(owner, name, counting(f"{owner.__name__}.{name}", getattr(owner, name)))
        params, config = LakeParams(), mpc.MpcConfig()
        h = config.horizon
        s0 = mpc._storage_bounds(params)[0] + 3e6
        inflow, demand = np.full(h, 20.0), np.full(h, 300.0)
        bounds = np.tile(release_bounds(params, level_of_storage(params, s0)), (h, 1))
        problem = mpc.assemble_qp(params, config, s0, inflow, demand, bounds)
        hint = mpc._with_slacks(params, s0, inflow, demand, problem.lower[:h])
        counts.clear()
        solution = qp.solve(problem, initial_point=hint)
        assert solution.status == "optimal"
        assert solution.iterations <= 69
        assert sum(counts.values()) <= 4, dict(counts)

    @pytest.mark.parametrize("first_day, level, n_dependent", HOURLY_WINDOWS)
    def test_one_qr_per_hourly_solve(self, monkeypatch, first_day, level, n_dependent):
        # Tight rows that are independent are factored once and that factor
        # serves the whole solve, snap included. Dependent ones are first
        # thinned by a pivoted QR. No step solves a dense system.
        dependent = 0
        for problem, start, _, counts in _hourly_window(
            monkeypatch, first_day, level, FACTOR_CALLS
        ):
            tight = _tight_rows(problem, start)
            if _independent(tight, problem.n):
                assert counts == {"numpy.linalg.qr": 1}
            else:
                dependent += 1
                # The first QR is skipped when the rows outnumber the variables.
                np_qr_calls = 1 if tight.shape[0] > problem.n else 2
                assert counts == {"scipy.linalg.qr": 1, "numpy.linalg.qr": np_qr_calls}
        assert dependent == n_dependent

    @pytest.mark.parametrize(
        "demand, n_tight, np_qr_calls", [(300.0, 73, 1), (5.0, 49, 2)]
    )
    def test_dependent_tight_rows_take_the_pivoted_path(
        self, monkeypatch, demand, n_tight, np_qr_calls
    ):
        # More tight rows than variables skip the first QR; fewer but
        # dependent ones fail its rank test. Either way one pivoted QR picks
        # the working set and one complete QR factors it.
        problem, start = _minimum_release_at_a_dry_cap(demand)
        tight = _tight_rows(problem, start)
        assert tight.shape[0] == n_tight
        assert not _independent(tight, problem.n)
        counts = _count_calls(monkeypatch, FACTOR_CALLS)
        solution = qp.solve(problem, start)
        monkeypatch.undo()
        assert counts == {"scipy.linalg.qr": 1, "numpy.linalg.qr": np_qr_calls}
        assert solution.status == "optimal"
        assert solution.kkt_residual <= 1e-9
        _assert_matches_dense_kkt(problem, solution)
