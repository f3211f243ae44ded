"""QP solver tests: certification against the active-set enumeration oracle."""

import collections

import numpy as np
import pytest
import scipy.linalg

from helpers import enumeration_oracle, phase1_point, random_qp
from lakempc import mpc, qp
from lakempc.hydrology import LakeParams, level_of_storage, release_bounds


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

    def test_phase1_judges_with_the_hint_tolerance(self):
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
        rng = np.random.default_rng(3)
        problem, feasible = random_qp(rng)
        solution = qp.solve(problem, feasible, max_iterations=1)
        assert solution.status in ("optimal", "iteration-limit")
        if solution.status == "iteration-limit":
            assert solution.iterations == 1

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

    def test_infeasible_hint_falls_back(self):
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
        s0 = mpc.DEFAULT_S_MIN + 3e6
        inflow, demand = np.full(h, 20.0), np.full(h, 300.0)
        bounds = np.tile(release_bounds(params, level_of_storage(params, s0)), (h, 1))
        problem = mpc.assemble_qp(params, config, s0, inflow, demand, bounds)
        hint = mpc._with_slacks(
            config, s0, inflow, demand, problem.lower[:h], params.surface_area, False
        )
        counts.clear()
        solution = qp.solve(problem, initial_point=hint)
        assert solution.status == "optimal"
        assert solution.iterations <= 69
        assert sum(counts.values()) <= 4, dict(counts)
