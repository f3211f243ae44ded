"""QP solver tests: certification against the active-set enumeration oracle."""

import collections
import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    assert_same_entries,
    bounded_qp,
    dense_kkt_solution,
    dense_transform,
    enumeration_oracle,
    phase1_point,
    random_qp,
    reference_affine_law,
    reference_kkt_components,
    release_bounds_of,
    six_block_problem,
    with_slacks,
)
from lakempc import mpc, qp
from lakempc.hydrology import LakeParams, storage_of_level
from lakempc.scenario import synthetic_year


class TestTrivialProblems:
    def test_active_lower_bound(self):
        # min x^2 s.t. x >= 1
        problem = bounded_qp(hessian=[2.0], linear_cost=[0.0], lower=[1.0])
        solution = qp.solve(problem, [2.0])
        assert solution.status == "optimal"
        assert solution.x[0] == pytest.approx(1.0, abs=1e-10)
        assert solution.objective == pytest.approx(1.0, abs=1e-10)

    def test_clamped_unconstrained_optimum(self):
        # min (x-2)^2 s.t. 0 <= x <= 1 -> x = 1
        problem = bounded_qp(hessian=[2.0], linear_cost=[-4.0], lower=[0.0], upper=[1.0])
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
        linear_cost=-hessian * vertex - tight_rows.T @ lam,
        ineq_matrix=np.vstack([tight_rows, slack_rows]),
        ineq_rhs=np.concatenate([tight_rows @ vertex, slack_rows @ vertex + slack]),
    )


def _degenerate_vertex_qp(rng):
    """n independent rows tight at a vertex with negative multipliers, all
    equal in half the draws, plus two duplicated or scaled copies of them
    (tight too, zero multiplier) and random slack rows: 9 rows in all. The
    Hessian's diagonal is that of basis'basis + 0.5 for a random basis."""
    n = int(rng.integers(2, 5))
    basis = rng.standard_normal((n, n))
    hessian = (basis**2).sum(axis=0) + 0.5
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
        hessian=np.ones(n),
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
            np.ones(2), [[1.0, 0.0], [-1.0, 0.1]], [-0.1, -1.0], np.zeros(2), [[0.0, 1.0]], [5.0]
        )
        _check_from_vertex(problem, np.zeros(2))


class TestInvariants:
    def test_objective_recomputed_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            problem, feasible = random_qp(rng)
            solution = qp.solve(problem, feasible)
            recomputed = 0.5 * solution.x @ np.diag(problem.hessian) @ solution.x
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
            )
            again = qp.solve(scaled, feasible)
            assert again.x == pytest.approx(base.x, abs=1e-6)
            assert again.objective == pytest.approx(alpha * base.objective, rel=1e-6, abs=1e-9)

    def test_ineq_duals_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            problem, feasible = random_qp(rng)
            solution = qp.solve(problem, feasible)
            if solution.duals.size:
                assert np.min(solution.duals) >= -1e-9


class TestKktResidual:
    @pytest.mark.parametrize("n", [4, 6])
    def test_zero_residual_is_positive_zero(self, n):
        # min |x|^2/2 over x <= 0, from the candidate of all n rows: every
        # term of the residual is a zero, the negated multipliers -0.0, and
        # numpy's max over such terms returns -0.0 at these lengths, which
        # a trace would write as "-0".
        problem = qp.QpProblem(np.ones(n), np.zeros(n), np.eye(n), np.zeros(n))
        solution = qp.solve(problem, np.zeros(n), working_sets=[tuple(range(n))])
        assert solution.warm_start and solution.status == "optimal"
        assert solution.kkt_residual == 0.0 and not np.signbit(solution.kkt_residual)

    def test_exact_solution_near_zero(self):
        problem = bounded_qp(hessian=[2.0], linear_cost=[0.0], lower=[1.0])
        solution = qp.QpSolution(
            x=np.array([1.0]),
            duals=np.array([2.0]),  # the lower bound's row, -x <= -1
            objective=1.0,
            status="optimal",
            kkt_residual=0.0,
        )
        assert qp.kkt_residual(problem, solution) <= 1e-12

    def test_perturbed_free_coordinate_detected(self):
        problem = qp.QpProblem(hessian=np.full(2, 2.0), linear_cost=[-2.0, -2.0])
        solution = qp.solve(problem, np.zeros(2))
        assert solution.kkt_residual <= 1e-9
        nudged = qp.QpSolution(
            x=solution.x + np.array([1e-3, 0.0]),
            duals=solution.duals,
            objective=solution.objective,
            status="optimal",
            kkt_residual=0.0,
        )
        components = qp.kkt_components(problem, nudged)
        assert components["stationarity"] > 1e-6

    def test_infeasible_point_primal_residual_is_max_violation(self):
        problem = qp.QpProblem(
            hessian=np.full(2, 2.0),
            linear_cost=np.zeros(2),
            ineq_matrix=[[1.0, 0.0], [0.0, 1.0]],
            ineq_rhs=[1.0, 1.0],
        )
        point = qp.QpSolution(
            x=np.array([2.5, 1.2]),
            duals=np.zeros(2),
            objective=0.0,
            status="optimal",
            kkt_residual=0.0,
        )
        assert qp.kkt_components(problem, point)["primal"] == pytest.approx(1.5)


    def test_nan_component_makes_the_residual_nan(self):
        # max() drops a NaN that is not its first argument; the residual
        # must not.
        problem = qp.QpProblem(
            hessian=np.ones(2), linear_cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[np.nan]
        )
        solution = qp.QpSolution(
            x=np.ones(2), duals=np.zeros(1), objective=-1.0, status="optimal", kkt_residual=0.0
        )
        assert np.isnan(qp.kkt_components(problem, solution)["primal"])
        assert np.isnan(qp.kkt_residual(problem, solution))
        finite = qp.QpProblem(hessian=np.ones(2), linear_cost=[-1.0, -1.0])
        solution.x = np.array([1.0, np.nan])
        assert np.isnan(qp.kkt_residual(finite, solution))

    def test_nan_residual_is_not_certified(self, monkeypatch):
        # A NaN among the terms _finish's stacked pass reduces.
        worst = qp._worst
        monkeypatch.setattr(qp, "_worst", lambda *terms: worst(*terms, np.array([np.nan])))
        problem = bounded_qp(hessian=[2.0], linear_cost=[0.0], lower=[1.0])
        solution = qp.solve(problem, [2.0])
        assert solution.status == "iteration-limit"
        assert "certification failed" in solution.message


class TestNonFiniteData:
    @staticmethod
    def _problem():
        return bounded_qp(
            hessian=np.ones(2),
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
            hessian=np.ones(2), linear_cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[np.nan]
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
        ],
    )
    def test_non_finite_entry_named(self, field, index, value, message):
        # A non-finite cost used to run all MAX_ITERATIONS iterations.
        problem = self._problem()
        getattr(problem, field)[index] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qp.solve(problem, np.zeros(2))


class TestEdgesAndErrors:
    def test_float_arrays_are_held_as_given_and_an_empty_row_block_is_shaped(self):
        # A structure serves only problems that hold its very arrays, so
        # building a problem must not copy float64 arrays. An empty row
        # block of the wrong shape still becomes (0, n).
        arrays = {
            "hessian": np.ones(2), "linear_cost": np.zeros(2), "ineq_matrix": np.ones((1, 2)),
            "ineq_rhs": np.ones(1),
        }
        problem = qp.QpProblem(**arrays)
        assert all(getattr(problem, name) is value for name, value in arrays.items())
        empty = qp.QpProblem(**{**arrays, "ineq_matrix": np.zeros((0, 0)), "ineq_rhs": np.zeros(0)})
        assert empty.ineq_matrix.shape == (0, 2)
        assert qp.solve(empty, np.ones(2)).status == "optimal"

    def test_problem_is_rows_only(self):
        # min 0.5 x'Qx + c'x s.t. A x <= b and nothing else: a bound is a row.
        assert [field.name for field in dataclasses.fields(qp.QpProblem)] == [
            "hessian", "linear_cost", "ineq_matrix", "ineq_rhs"
        ]
        with pytest.raises(TypeError, match="lower"):
            qp.QpProblem(hessian=[1.0], linear_cost=[0.0], lower=[0.0])

    def test_infeasible_diagnostic(self):
        # x <= 0 and x >= 1: no start is feasible.
        problem = qp.QpProblem(
            hessian=[2.0],
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
        # x <= -2e-5 against x >= 0 (row 2) misses by 2e-5, far above
        # FEASIBILITY_TOL. A large but slack right-hand side elsewhere must
        # not hide that.
        problem = bounded_qp(
            hessian=[2.0],
            linear_cost=[0.0],
            ineq_matrix=[[1.0], [-1.0]],
            ineq_rhs=[-2e-5, 1e3],
            lower=[0.0],
        )
        assert phase1_point(problem) is None
        with pytest.raises(ValueError, match=r"inequality row 2 violated by 2e-05$"):
            qp.solve(problem, [-2e-5])

    @pytest.mark.parametrize(
        "start, message",
        [
            ([1.5, 0.5], "inequality row 2 violated by 0.5"),
            ([0.5, -0.25], "inequality row 1 violated by 0.25"),
        ],
    )
    def test_start_outside_a_bound_row_rejected(self, start, message):
        # A bound is a row like any other: a start that breaks one is
        # rejected, naming that row.
        problem = bounded_qp(
            hessian=np.ones(2), linear_cost=np.zeros(2), lower=[0.0, 0.0], upper=[1.0, 1.0]
        )
        message = f"^initial_point is infeasible: {re.escape(message)}$"
        with pytest.raises(ValueError, match=message):
            qp.solve(problem, start)

    def test_crossed_bounds_rejected(self):
        # 1 <= x <= 0 leaves no feasible point: every start breaks a row.
        problem = bounded_qp(hessian=[2.0], linear_cost=[0.0], lower=[1.0], upper=[0.0])
        assert phase1_point(problem) is None
        with pytest.raises(ValueError, match=r"inequality row 0 violated by 0.5$"):
            qp.solve(problem, [0.5])

    def test_problem_without_variables_rejected(self):
        problem = qp.QpProblem(hessian=np.zeros(0), linear_cost=np.zeros(0))
        with pytest.raises(ValueError, match="no variables"):
            qp.solve(problem, np.zeros(0))

    def test_dimension_mismatch_rejected(self):
        problem = qp.QpProblem(
            hessian=np.ones(2), linear_cost=[0.0, 0.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0]
        )
        with pytest.raises(ValueError, match="inequality"):
            qp.solve(problem, np.zeros(2))

    def test_asymmetric_hessian_rejected(self):
        # The Hessian is the 1-d array of its diagonal: a matrix, symmetric
        # or not, is rejected by its shape, and so is a diagonal of another
        # length.
        for hessian in ([[1.0, 0.5], [0.0, 1.0]], np.eye(2), [1.0, 1.0, 1.0]):
            problem = qp.QpProblem(hessian=hessian, linear_cost=[0.0, 0.0])
            message = f"hessian must be the diagonal, of shape (2,), got {np.shape(hessian)}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                qp.solve(problem, np.zeros(2))

    def test_indefinite_hessian_rejected(self):
        # Singular counts too: the solver needs a positive-definite Hessian,
        # a diagonal of positive, finite entries. The first other entry is named.
        for hessian, first in (
            ([-1.0], "-1.0 at variable 0"),
            ([1.0, 0.0], "0.0 at variable 1"),
            ([1.0, -0.0, -2.0], "-0.0 at variable 1"),
            ([np.nan, 1.0], "nan at variable 0"),
            ([1.0, np.inf], "inf at variable 1"),
        ):
            problem = qp.QpProblem(hessian=hessian, linear_cost=np.zeros(len(hessian)))
            message = f"hessian is {first}, not positive and finite"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                qp.solve(problem, np.zeros(len(hessian)))

    def test_iteration_limit_status(self):
        # The solve from this start takes more than 30 iterations. Stopped
        # after 3, it still reads its multipliers off the working-set factor.
        problem, feasible = _dense_qp(0)
        solution = qp.solve(problem, feasible, max_iterations=3)
        assert (solution.status, solution.iterations) == ("iteration-limit", 3)
        assert np.all(np.isfinite(solution.duals))
        assert np.count_nonzero(solution.duals) >= 1

    def test_feasible_hint_is_used(self):
        problem = qp.QpProblem(
            hessian=np.full(2, 2.0),
            linear_cost=np.zeros(2),
            ineq_matrix=[[-1.0, -1.0]],
            ineq_rhs=[-2.0],
        )
        solution = qp.solve(problem, initial_point=np.array([3.0, 3.0]))
        assert solution.status == "optimal"
        assert solution.x == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_hint_of_wrong_length_rejected(self):
        problem = bounded_qp(
            hessian=np.full(3, 2.0), linear_cost=np.zeros(3), lower=np.zeros(3), upper=np.ones(3)
        )
        for hint in ([0.5], [0.5, 0.5], np.zeros(4), np.full((3, 1), 0.5)):
            with pytest.raises(ValueError, match="initial_point must have length 3"):
                qp.solve(problem, initial_point=hint)

    def test_non_finite_start_rejected(self):
        # A NaN compares false against every row, so it would otherwise count
        # as feasible and run the solver to its iteration limit.
        problem = bounded_qp(
            hessian=np.full(2, 2.0),
            linear_cost=np.zeros(2),
            ineq_matrix=[[1.0, 0.0]],
            ineq_rhs=[1.0],
            lower=[-np.inf, 0.0],
            upper=[np.inf, 1.0],
        )
        # An infinite entry is not finite, whatever row bounds it.
        for start in ([np.nan, 0.5], [0.0, np.nan], [-np.inf, 0.5], [0.0, np.inf]):
            with pytest.raises(ValueError, match="initial_point is not finite at variable"):
                qp.solve(problem, start)

    def test_infeasible_start_of_a_feasible_problem_rejected(self):
        # The problem is feasible, but the start is not: the solver rejects
        # it rather than searching for another.
        problem = qp.QpProblem(
            hessian=np.full(2, 2.0),
            linear_cost=np.zeros(2),
            ineq_matrix=[[-1.0, -1.0]],
            ineq_rhs=[-2.0],
        )
        assert phase1_point(problem) is not None
        with pytest.raises(ValueError, match=r"inequality row 0 violated by 2$"):
            qp.solve(problem, initial_point=np.array([0.0, 0.0]))


def _dense_qp(seed, n=40, m=80):
    """A strictly convex QP at MPC scale: m dense general rows and the rows
    of a box, with a known feasible point, and a Hessian of condition 1e4,
    its curvatures spread over four decades in random order. The
    unconstrained optimum lies far outside, so many rows end up active."""
    rng = np.random.default_rng(seed)
    hessian = rng.permutation(np.logspace(0, 4, n))
    a = rng.standard_normal((m, n))
    x_feasible = rng.uniform(-0.5, 0.5, n)
    b = a @ x_feasible + rng.uniform(0.0, 1.0, m)
    problem = bounded_qp(
        hessian=hessian,
        linear_cost=-hessian * rng.uniform(-5.0, 5.0, n),
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
    x, oracle = dense_kkt_solution(problem, solution)
    assert np.max(np.abs(solution.x - x)) <= 1e-10 * np.max(np.abs(x))
    assert np.max(np.abs(solution.duals - oracle), initial=0.0) <= 1e-8 * np.max(np.abs(oracle), initial=0.0)


# (first day, start level in m, starts whose tight rows are dependent).
# Days 104-105 from 1.08 m cross the flood threshold: 44 of the 48 solves
# take a candidate working set, and the other 4 take up to 7 iterations
# from their starts, one of whose 72 tight rows have rank 48. The
# candidates tried and the starts use 23 distinct sets of rows. Days
# 182-183 from 0.29 m: 47 optimal candidates and one one-iteration solve,
# all on one set.
HOURLY_WINDOWS = [(104, 1.08, 1), (182, 0.29, 0)]
START_SETS = {104: 23, 182: 1}
WARM_STARTS = {104: 44, 182: 47}
# The nonzero duals of the windows' solutions, by row block (mpc._block_slices).
# On day 182 the optimum meets the demand exactly, so its working rows, the
# demand rows, all have zero multipliers.
NONZERO_DUALS = {104: {"flood": 773, "neg_lower": 72}, 182: {}}
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
    (problem, start, candidate working sets, solution, calls of each (owner,
    name) in counted). The start is the MPC's, built after the solve, so it
    is there also for a solve that did not use it."""
    counts = _count_calls(monkeypatch, counted)
    steps = []
    inner = qp.solve

    def recording(problem, initial_point, working_sets=(), structure=None):
        counts.clear()
        solution = inner(problem, initial_point, working_sets=working_sets, structure=structure)
        calls = dict(counts)
        steps.append((problem, initial_point(), list(working_sets), solution, calls))
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
    """The rows tight at the start."""
    rows, rhs = problem.ineq_matrix, problem.ineq_rhs
    return rows[rhs - rows @ start <= 1e-9 * (np.abs(rhs) + np.abs(rows) @ np.abs(start))]


def _tried(candidates, solution):
    """The candidates a solve tried: up to the one it took, or all of them."""
    if not solution.warm_start:
        return candidates
    return candidates[:candidates.index(solution.working_set) + 1]


def _independent(rows, n):
    """Whether rows number at most n and are linearly independent."""
    k = rows.shape[0]
    return k == 0 or (k <= n and np.linalg.matrix_rank(rows) == k)


def _recovery_start(monkeypatch, demand):
    """The MPC problem of a recovery step, lifted as solve_step lifts it,
    and its minimum-release plan as the start. The lake is 100 m^3 above
    the dry bound with no inflow, so the step holds every release at its
    minimum (10 m^3/s): both bound rows of every release are tight, and so
    is the last dry row. With the demand above the minimum release every
    demand row is tight too, 73 rows for 72 variables; with it below, the
    49 tight rows are fewer but dependent."""
    params, config = LakeParams(), mpc.MpcConfig()
    h = config.horizon
    inflow, demand = np.zeros(h), np.full(h, demand)
    s0 = mpc._storage_bounds(params)[0] + 100.0
    problems = []
    inner = qp.solve

    def recording(problem, *args, **kwargs):
        problems.append(problem)
        return inner(problem, *args, **kwargs)

    monkeypatch.setattr(qp, "solve", recording)
    assert mpc.solve_step(params, config, s0, inflow, demand).recovery_used
    monkeypatch.undo()
    (problem,) = problems
    start = with_slacks(params, s0, inflow, demand, release_bounds_of(problem)[0])
    return problem, start


def _dry_bound_step():
    """The first step of the hard dry-bound run, and the minimum-release
    plan as its start, not the MPC's own: demand 300 against inflow 20, 3e6
    m^3 above the dry storage. Its solve inserts and drops rows."""
    params, config = LakeParams(), mpc.MpcConfig()
    h = config.horizon
    s0 = mpc._storage_bounds(params)[0] + 3e6
    inflow, demand = np.full(h, 20.0), np.full(h, 300.0)
    problem = mpc.assemble_qp(params, config, s0, inflow, demand)
    return problem, with_slacks(params, s0, inflow, demand, release_bounds_of(problem)[0])


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
        for problem, _, _, solution, _ in _hourly_window(monkeypatch, first_day, level):
            _assert_matches_dense_kkt(problem, solution)


def _assert_same_components(problem, solution):
    """qp.kkt_components equals the frozen reference bit for bit: the same
    keys in the same order, and each value with the same bytes (NaN where
    the reference is NaN, whatever its sign bit)."""
    components = qp.kkt_components(problem, solution)
    reference = reference_kkt_components(problem, solution)
    assert list(components) == list(reference)
    for key, expected in reference.items():
        if np.isnan(expected):
            assert np.isnan(components[key]), key
        else:
            assert np.float64(components[key]).tobytes() == np.float64(expected).tobytes(), key


class TestKktComponentsAgainstReference:
    """qp.kkt_components against a frozen copy of its earlier form."""

    @pytest.mark.parametrize("first_day, level", [window[:2] for window in HOURLY_WINDOWS])
    def test_every_solve_of_an_hourly_window(self, monkeypatch, first_day, level):
        # Each certified solution, and a copy moved off the optimum with its
        # multipliers flipped, so that every component is nonzero somewhere.
        rng = np.random.default_rng(first_day)
        for problem, _, _, solution, _ in _hourly_window(monkeypatch, first_day, level):
            _assert_same_components(problem, solution)
            moved = dataclasses.replace(
                solution,
                x=solution.x + rng.normal(scale=1e-3 * np.abs(solution.x).max(), size=problem.n),
                duals=-solution.duals,
            )
            _assert_same_components(problem, moved)

    @pytest.mark.parametrize(
        "x, ineq_duals, bound_duals, rhs, lower, upper",
        [
            # At both finite bounds and on the row: every slack is 0.
            ([0.0, 1.0], [0.0], [1.0, 0.0], 1.0, [0.0, -np.inf], [np.inf, 1.0]),
            # Every bound infinite, so absent: no bound rows.
            ([0.5, 0.5], [0.0], [], 1.0, [-np.inf, -np.inf], [np.inf, np.inf]),
            # Negative multipliers on the row and a bound row.
            ([0.5, 0.5], [-1.0], [-2.0, 3.0], 1.0, [-np.inf, 0.0], [1.0, np.inf]),
            # A point far out, which no bound row limits.
            ([-1e300, 1e300], [0.0], [], 1.0, [-np.inf, -np.inf], [np.inf, np.inf]),
            # NaN in the point, a multiplier, the right-hand side, a bound.
            ([np.nan, 0.5], [0.0], [0.0] * 4, 1.0, [0.0, 0.0], [1.0, 1.0]),
            ([0.5, 0.5], [np.nan], [0.0] * 4, 1.0, [0.0, 0.0], [1.0, 1.0]),
            ([0.5, 0.5], [0.0], [0.0, np.nan], 1.0, [0.0, -np.inf], [1.0, np.inf]),
            ([0.5, 0.5], [0.0], [0.0] * 4, np.nan, [0.0, 0.0], [1.0, 1.0]),
            ([0.5, 0.5], [0.0], [1.0, 0.0, 0.0], 1.0, [np.nan, 0.0], [1.0, np.inf]),
        ],
    )
    def test_nan_and_infinite_bounds(self, x, ineq_duals, bound_duals, rhs, lower, upper):
        # The box becomes rows by box_rows (an infinite bound is absent, a
        # NaN one a row with a NaN right-hand side); bound_duals are the
        # multipliers of those rows.
        problem = bounded_qp(
            hessian=np.ones(2), linear_cost=[-1.0, -1.0], ineq_matrix=[[1.0, 1.0]],
            ineq_rhs=[rhs], lower=lower, upper=upper,
        )
        solution = qp.QpSolution(
            x=np.array(x), duals=np.array(ineq_duals + bound_duals), objective=0.0,
            status="optimal", kkt_residual=0.0,
        )
        assert solution.duals.shape == problem.ineq_rhs.shape
        _assert_same_components(problem, solution)

    def test_no_rows(self):
        problem = qp.QpProblem(hessian=np.ones(2), linear_cost=[-1.0, 2.0])
        solution = qp.QpSolution(
            x=np.array([0.5, -2.0]), duals=np.zeros(0), objective=0.0, status="optimal",
            kkt_residual=0.0,
        )
        _assert_same_components(problem, solution)


PARAMS = LakeParams()


def _every_solve(monkeypatch, run):
    """(problem, solution) of every qp.solve that run() makes and, after each
    one offered candidate working sets, of the same problem solved cold from
    its start (with a structure of its own, so the run is not disturbed)."""
    solves = []
    inner = qp.solve

    def recording(problem, initial_point, working_sets=(), structure=None):
        solution = inner(problem, initial_point, working_sets=working_sets, structure=structure)
        solves.append((problem, solution))
        if working_sets:
            solves.append((problem, inner(problem, initial_point)))
        return solution

    monkeypatch.setattr(qp, "solve", recording)
    run()
    monkeypatch.undo()
    return solves


# The MPC runs whose every solve the certificate and affine-law tests check.
MPC_RUNS = {
    "hourly-104": lambda: mpc.run_hourly(
        PARAMS, mpc.MpcConfig(), synthetic_year(3, first_day=104),
        storage_of_level(PARAMS, 1.08), n_steps=48,
    ),
    "hourly-182": lambda: mpc.run_hourly(
        PARAMS, mpc.MpcConfig(), synthetic_year(3, first_day=182),
        storage_of_level(PARAMS, 0.29), n_steps=48,
    ),
    # A lake 100 m^3 above the dry bound with no inflow cannot release the
    # minimum, so the step recovers.
    "recovery": lambda: mpc.solve_step(
        PARAMS, mpc.MpcConfig(horizon=6), mpc._storage_bounds(PARAMS)[0] + 100.0,
        np.zeros(6), np.zeros(6),
    ),
    "daily-104": lambda: mpc.run_daily(
        PARAMS, mpc.MpcConfig(), synthetic_year(3, first_day=104),
        storage_of_level(PARAMS, 1.08),
    ),
}


class TestStackedCertificate:
    """The residual that solve certifies, computed on the structure's
    stacked rows, against the independent qp.kkt_residual."""

    @pytest.mark.parametrize("run", MPC_RUNS.values(), ids=MPC_RUNS.keys())
    def test_equals_kkt_residual_on_every_solve(self, monkeypatch, run):
        # A hit is certified from its affine law's slack and Qx, a solve
        # from the start from its own; kkt_components checks both.
        solves = _every_solve(monkeypatch, run)
        assert solves
        for problem, solution in solves:
            assert solution.status == "optimal"
            assert abs(solution.kkt_residual - qp.kkt_residual(problem, solution)) <= 1e-15
            if solution.warm_start:
                assert max(qp.kkt_components(problem, solution).values()) <= qp.KKT_TOL

    @pytest.mark.parametrize(
        "linear_cost, start, upper",
        [
            # The lower bound's multiplier is negative, and the upper bound
            # is 10 or 0.5 away; then the upper bound's multiplier is
            # negative, the lower bound 10 away.
            (-1.0, 0.0, 10.0),
            (-1.0, 0.0, 0.5),
            (1.0, 10.0, 10.0),
        ],
    )
    def test_negative_bound_multiplier_reports_at_least_kkt_components(
        self, linear_cost, start, upper
    ):
        # With no iteration, the solution is the start with the multiplier
        # of its tight bound row (row 0 the lower, row 1 the upper), which
        # has the wrong sign. The residual reports it as the dual violation,
        # as kkt_components does.
        problem = bounded_qp(hessian=[1.0], linear_cost=[linear_cost], lower=[0.0], upper=[upper])
        solution = qp.solve(problem, [start], max_iterations=0)
        assert solution.status == "iteration-limit"
        tight = int(start == upper)
        assert solution.duals[tight] < 0.0 and solution.duals[1 - tight] == 0.0
        components = qp.kkt_components(problem, solution)
        assert components["dual"] == -solution.duals[tight]
        assert solution.kkt_residual >= max(components.values()) > qp.KKT_TOL


class TestFloodSlackBound:
    """The MPC's QP has no row -slack_flood <= 0: the flood slack enters
    only its own flood row and its own cost term, so no optimum needs one."""

    @pytest.mark.parametrize("name", ["hourly-104", "hourly-182", "recovery"])
    def test_plans_match_the_six_block_problem(self, monkeypatch, name):
        # Every step's problem, lifted where it recovers, solved cold with
        # the bound rows back: the same plan, and a flood slack that stays
        # nonnegative without them.
        steps = []
        inner = qp.solve

        def recording(problem, initial_point, working_sets=(), structure=None):
            solution = inner(problem, initial_point, working_sets=working_sets, structure=structure)
            steps.append((problem, initial_point(), solution))
            return solution

        monkeypatch.setattr(qp, "solve", recording)
        MPC_RUNS[name]()
        monkeypatch.undo()
        assert len(steps) == (1 if name == "recovery" else 48)
        for problem, start, solution in steps:
            h = problem.n // 3
            reference = qp.solve(six_block_problem(problem), start)
            assert solution.status == reference.status == "optimal"
            plan = solution.x[:h]
            assert np.max(np.abs(plan - reference.x[:h])) <= 1e-9 * np.max(np.abs(plan))
            assert np.min(solution.x[h:2 * h]) >= -1e-12


class TestMpcScale:
    def test_long_solve_from_hint_and_phase1(self):
        problem, x_feasible = _dense_qp(0)
        hinted = qp.solve(problem, initial_point=x_feasible)
        cold = qp.solve(problem, initial_point=phase1_point(problem))
        for solution in (hinted, cold):
            assert solution.status == "optimal"
            assert solution.kkt_residual <= 1e-9
            assert solution.iterations >= 30
        assert hinted.x == pytest.approx(cold.x, abs=1e-8)

    def test_factorizations_per_solve_not_per_iteration(self, monkeypatch, no_qp_structure):
        # The dry-bound step from its minimum-release plan. The diagonal
        # Hessian needs no factor, so the working rows' QRs are all there is.
        problem, hint = _dry_bound_step()
        counts = _count_calls(monkeypatch, FACTOR_CALLS)
        solution = qp.solve(problem, initial_point=hint)
        assert solution.status == "optimal"
        assert solution.iterations <= 69
        assert sum(counts.values()) <= 4, dict(counts)

    @pytest.mark.parametrize("first_day, level, n_dependent", HOURLY_WINDOWS)
    def test_one_qr_per_hourly_solve(
        self, monkeypatch, no_qp_structure, first_day, level, n_dependent
    ):
        # A solve factors the rows of each candidate working set it tries
        # and, when none is optimal, the rows tight at its start. Independent
        # rows take one complete QR, which serves the whole solve, its optimum
        # included; dependent ones are first thinned by a pivoted QR. A set
        # of rows seen before in the window, by any candidate or start,
        # reuses its factor and takes none. No step solves a dense system.
        seen = set()
        dependent = 0
        for problem, start, candidates, solution, counts in _hourly_window(
            monkeypatch, first_day, level, FACTOR_CALLS
        ):
            row_sets = [problem.ineq_matrix[list(c)] for c in _tried(candidates, solution)]
            if not solution.warm_start:
                tight = _tight_rows(problem, start)
                dependent += not _independent(tight, problem.n)
                row_sets.append(tight)
            expected = collections.Counter()
            for rows in row_sets:
                if rows.tobytes() in seen:
                    continue
                seen.add(rows.tobytes())
                if _independent(rows, problem.n):
                    expected["numpy.linalg.qr"] += 1
                else:
                    # The first QR is skipped when the rows outnumber the variables.
                    expected["scipy.linalg.qr"] += 1
                    expected["numpy.linalg.qr"] += 1 if rows.shape[0] > problem.n else 2
            assert counts == expected
        assert dependent == n_dependent
        assert len(seen) == START_SETS[first_day]
        assert len(_only_structure().starts) == len(seen)

    @pytest.mark.parametrize(
        "demand, n_tight, np_qr_calls", [(300.0, 73, 1), (5.0, 49, 2)]
    )
    def test_dependent_tight_rows_take_the_pivoted_path(
        self, monkeypatch, no_qp_structure, demand, n_tight, np_qr_calls
    ):
        # More tight rows than variables skip the first QR; fewer but
        # dependent ones fail its rank test. Either way one pivoted QR picks
        # the working set and one complete QR factors it.
        problem, start = _recovery_start(monkeypatch, demand)
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


def _only_structure():
    """The solver structure the MPC keeps, which _hourly_window's runs
    (MpcConfig() on LakeParams()) built and used."""
    hits = mpc._qp_structure.cache_info().hits
    structure = mpc._qp_structure(24, LakeParams().surface_area, 1.0)
    assert mpc._qp_structure.cache_info().hits == hits + 1
    return structure


def _start_rows(monkeypatch):
    """The working rows' count of every start factor a solve takes (a
    _start_factor call without law), in order, for as long as the
    monkeypatch lasts."""
    counts = []
    inner = qp._start_factor

    def recording(structure, key, law=False):
        entry = inner(structure, key, law)
        if not law:
            counts.append(entry[1].size)
        return entry

    monkeypatch.setattr(qp, "_start_factor", recording)
    return counts


def _assert_same_bits(solution, reference):
    for name in ("x", "duals"):
        assert np.array_equal(getattr(solution, name), getattr(reference, name))
    assert (solution.kkt_residual, solution.iterations, solution.warm_start) == (
        reference.kkt_residual, reference.iterations, reference.warm_start
    )
    assert solution.working_set == reference.working_set


class TestStartFactorCache:
    """A structure keeps the factor of each start's tight rows."""

    def test_cap_holds_more_sets_than_a_year_meets(self, monkeypatch):
        # The cap is in bytes: an entry grows with the square of the horizon,
        # and 256 entries at 168 hours once took 1.2 GB. The budget holds
        # the jittered synthetic year's 210 sets (19.2 MB) even were each
        # as large as the largest entry of a 24-hour run, 128 kB.
        assert qp._START_CACHE_BYTES >= 210 * 128 * 1024

        def fresh():  # a six-hour MPC structure: 30 rows
            return mpc._qp_structure.__wrapped__(6, LakeParams().surface_area, 1.0)

        # Under a budget of the first 40 keys' entries (singles, then
        # pairs), each key stays, as the same entry, until the budget is
        # passed. Then the first-in entries leave until the rest fit, both
        # when an entry is built and when a packed K is added to one.
        m = fresh().a.shape[0]
        keys = [(i,) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]
        sizing = fresh()
        budget = sum(qp._entry_bytes(qp._start_factor(sizing, key)) for key in keys[:40])
        monkeypatch.setattr(qp, "_START_CACHE_BYTES", budget)
        structure = fresh()
        entries = {key: qp._start_factor(structure, key) for key in keys[:40]}
        assert_same_entries(structure.starts, entries)
        assert structure.start_bytes == budget
        held = {key: qp._entry_bytes(entry) for key, entry in entries.items()}
        for key, law in ((keys[40], False), (keys[55], True), (keys[30], True)):
            held[key] = qp._entry_bytes(qp._start_factor(structure, key, law=law))
            while sum(held.values()) > budget:
                del held[next(iter(held))]
            assert list(structure.starts) == list(held)
            assert structure.start_bytes == sum(held.values())
        assert structure.starts[keys[30]] is not entries[keys[30]]  # now with its K
        assert len(structure.starts) < 40  # each of the three made the first ones leave
        # An entry larger than the budget alone is built and handed out,
        # with its K when asked for, and not kept.
        monkeypatch.setattr(qp, "_START_CACHE_BYTES", 1)
        entry = qp._start_factor(structure, keys[60], law=True)
        assert entry[4] is not None and entry[0] == keys[60]
        assert structure.starts == {} and structure.start_bytes == 0

    def test_cold_and_warm_starts_give_the_same_bits(self, monkeypatch, no_qp_structure):
        # Every solve of the window again, with the same start and
        # candidates: from the factors the window cached, with the cache
        # cleared before each solve, and with a structure of the solve's own.
        steps = _hourly_window(monkeypatch, 104, 1.08)
        structure = _only_structure()
        assert len(structure.starts) == START_SETS[104]
        for problem, start, candidates, solution, _ in steps:
            _assert_same_bits(
                qp.solve(problem, start, working_sets=candidates, structure=structure), solution
            )
        for problem, start, candidates, solution, _ in steps:
            structure.starts.clear()
            structure.start_bytes = 0
            _assert_same_bits(
                qp.solve(problem, start, working_sets=candidates, structure=structure), solution
            )
            _assert_same_bits(qp.solve(problem, start, working_sets=candidates), solution)

    def test_writable_problem_leaves_no_cached_start(self, monkeypatch, no_qp_structure):
        # Solved without a structure, it gets one that serves that solve
        # alone, so solving it again pays the start's factorizations again
        # (here the pivoted path's three), and its own arrays stay writable.
        shared, start = _recovery_start(monkeypatch, 5.0)
        problem = qp.QpProblem(
            hessian=shared.hessian.copy(),
            linear_cost=shared.linear_cost,
            ineq_matrix=shared.ineq_matrix.copy(),
            ineq_rhs=shared.ineq_rhs,
        )
        counts = _count_calls(monkeypatch, FACTOR_CALLS)
        first = qp.solve(problem, start)
        first_counts = dict(counts)
        counts.clear()
        _assert_same_bits(qp.solve(problem, start), first)
        assert dict(counts) == first_counts == {"scipy.linalg.qr": 1, "numpy.linalg.qr": 2}
        assert problem.hessian.flags.writeable and problem.ineq_matrix.flags.writeable

    def test_cached_factor_is_read_only_and_unchanged_by_a_solve(
        self, monkeypatch, no_qp_structure
    ):
        # After the days-104 window, the dry-bound step's second solve
        # inserts and drops rows, starting from the factor its first solve
        # cached. Every solve of the window then takes or rejects its
        # candidates again by their affine laws.
        steps = _hourly_window(monkeypatch, 104, 1.08)
        structure = _only_structure()
        problem, start = _dry_bound_step()
        solution = qp.solve(problem, start, structure=structure)
        starts = structure.starts
        laws = 0
        for _, rows, q, r, law in starts.values():
            # Every entry holds its factor; a key tried as a candidate also its law.
            assert q is not None and r is not None
            assert not any(arr.flags.writeable for arr in (rows, q, r, law) if arr is not None)
            if law is not None:
                laws += 1
                size = problem.n + rows.size
                assert law.shape == (size * (size + 1) // 2,)
        assert laws > 0
        before = {key: copy_entry(entry) for key, entry in starts.items()}
        counts = _count_calls(monkeypatch, ((qp, "_qr_insert"),))
        start_rows = _start_rows(monkeypatch)
        _assert_same_bits(qp.solve(problem, start, structure=structure), solution)
        monkeypatch.undo()
        # Its drops slice the cached R or call _qr_delete; either way they
        # are the start's rows plus the inserts less the final rows.
        ((n_start,), inserts) = start_rows, counts["lakempc.qp._qr_insert"]
        assert inserts > 0 and n_start + inserts - len(solution.working_set) > 0
        for problem, start, candidates, solution, _ in steps:
            _assert_same_bits(
                qp.solve(problem, start, working_sets=candidates, structure=structure), solution
            )
        assert starts.keys() == before.keys()
        for key, entry in starts.items():
            assert entry[0] == before[key][0]
            for array, copied in zip(entry[1:], before[key][1:]):
                assert (array is None and copied is None) or (
                    array.shape == copied.shape and array.tobytes() == copied.tobytes()
                )


def _factor_of(n, mw, layout):
    """A complete QR of a random n x mw matrix: C-ordered as np.linalg.qr
    gives it, or F-ordered as _qr_insert gives it (its last column inserted)."""
    a = np.random.default_rng(n + mw).standard_normal((n, mw))
    q, r = np.linalg.qr(a, mode="complete")
    if layout == "C":
        return q, r
    return qp._qr_insert(q, r[:, :-1], a[:, -1], mw - 1, which="col", check_finite=False)


class TestLastRowDrop:
    """A drop of the last working row slices R and keeps Q, where
    _qr_delete would copy both to the same bits."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n", [6, 72, 504])
    def test_qr_delete_of_the_last_column_is_the_slice(self, n, layout):
        for mw in sorted({1, 2, n // 3, n}):
            q, r = _factor_of(n, mw, layout)
            assert (q.flags.f_contiguous, r.flags.f_contiguous) == (layout == "F",) * 2 or mw == 1
            q_del, r_del = qp._qr_delete(q, r, mw - 1, which="col", check_finite=False)
            sliced = r[:, :mw - 1]
            assert q_del.tobytes() == q.tobytes()
            assert r_del.shape == sliced.shape and r_del.tobytes() == sliced.tobytes()
            for flag in ("c_contiguous", "f_contiguous"):
                assert getattr(q_del.flags, flag) == getattr(q.flags, flag)
                assert getattr(r_del.flags, flag) == getattr(sliced.flags, flag)
            assert r_del.strides == sliced.strides or mw == 1  # an empty R's strides say nothing

    @pytest.mark.parametrize(
        "run, days, level, drops",
        [(mpc.run_daily, (0, 366), 0.4, (82, 371, 8)), (mpc.run_hourly, (104, 17), 1.08, (4, 73, 1))],
        ids=["daily-year", "hourly-104"],
    )
    def test_no_cold_decision_deletes_a_last_column(self, monkeypatch, run, days, level, drops):
        # drops: the cold solves, their drops (the start's rows plus the
        # inserts less the final rows) and the drops that call _qr_delete.
        deleted = []
        inner = qp._qr_delete

        def deleting(q, r, k, *args, **kwargs):
            deleted.append((k, r.shape[1]))
            return inner(q, r, k, *args, **kwargs)

        counts = _count_calls(monkeypatch, ((qp, "_qr_insert"),))
        start_rows = _start_rows(monkeypatch)
        solve = qp.solve

        def recording(*args, **kwargs):
            starts, inserts = len(start_rows), counts["lakempc.qp._qr_insert"]
            solution = solve(*args, **kwargs)
            if not solution.warm_start:
                assert len(start_rows) == starts + 1
                inserted = counts["lakempc.qp._qr_insert"] - inserts
                counts["cold"] += 1
                counts["drops"] += start_rows[-1] + inserted - len(solution.working_set)
            return solution

        monkeypatch.setattr(qp, "_qr_delete", deleting)
        monkeypatch.setattr(qp, "solve", recording)
        params = LakeParams()
        run(params, mpc.MpcConfig(), synthetic_year(days[1], first_day=days[0]),
            storage_of_level(params, level))
        monkeypatch.undo()
        assert all(k < columns - 1 for k, columns in deleted)
        assert (counts["cold"], counts["drops"], len(deleted)) == drops


class _Rejected(Exception):
    """Raised by a start that a solve reaches only when it rejects every
    candidate."""


def _reject():
    raise _Rejected


def _factor_path(structure, problem, rows, qf, rf):
    """The optimum on rows and its multipliers, unscaled, and whether a
    candidate on them is optimal, computed from the rows' factor as the
    solve's loop does: each row held within 1e-9 (1 + |b_i|) of its scaled
    right-hand side, each scaled multiplier at least -1e-9 (1 + the scaled
    gradient's largest entry)."""
    b_s = structure.row_scale * problem.ineq_rhs
    c_s = structure.col_scale * problem.linear_cost
    x_s, lam = qp._working_optimum(structure, qf, rf, rows, b_s, structure.l_inv * c_s)
    grad = structure.q_s * x_s + c_s
    optimal = bool(
        (structure.a @ x_s - b_s <= 1e-9 * (1.0 + np.abs(b_s))).all()
        and (lam >= -1e-9 * (1.0 + np.abs(grad).max())).all()
    )
    return structure.col_scale * x_s, structure.row_scale[rows] * lam, optimal


# Candidates (distinct within a solve) whose optimum the factor path takes
# and rejects in each of MPC_RUNS: one per solve is optimal.
AFFINE_LAW_VERDICTS = {
    "hourly-104": {True: 48, False: 343},
    "hourly-182": {True: 48},
    "recovery": {True: 1},
    "daily-104": {True: 3, False: 2},
}
# The keys of the days-104 window's start factors that no solve tried as a
# candidate: the rows tight at a cold start, 3 of its 23 keys.
COLD_ONLY_KEYS = 3


def unpacked(law):
    """The symmetric matrix whose lower triangle, row by row, is law."""
    size = int(np.sqrt(2 * law.size))
    full = np.zeros((size, size))
    full[np.tril_indices(size)] = law
    return full + np.tril(full, -1).T


class TestAffineLaw:
    """Each candidate's affine law, [x; lam] = K [-c; b[rows]] with K the
    packed inverse of its KKT matrix, against the working-set factor it was
    derived from."""

    @pytest.mark.parametrize("name", MPC_RUNS)
    def test_verdict_and_optimum_match_the_factor_path(self, monkeypatch, no_qp_structure, name):
        # Every candidate each solve is offered, tried or not, and its final
        # working set (the recovery step is offered none): the law's optimum
        # and multipliers against the factor's, and solve's verdict on the
        # candidate alone against the factor path's.
        solves = []
        inner = qp.solve

        def recording(problem, initial_point, working_sets=(), structure=None):
            solution = inner(problem, initial_point, working_sets=working_sets, structure=structure)
            solves.append((problem, structure, [*working_sets, solution.working_set]))
            return solution

        monkeypatch.setattr(qp, "solve", recording)
        MPC_RUNS[name]()
        monkeypatch.undo()
        verdicts = collections.Counter()
        for problem, structure, candidates in solves:
            n, b, c = problem.n, problem.ineq_rhs, problem.linear_cost
            for candidate in dict.fromkeys(candidates):
                _, rows, qf, rf, law = qp._start_factor(structure, candidate, law=True)
                x_lam = unpacked(law) @ np.concatenate([-c, b[rows]])
                x, lam, optimal = _factor_path(structure, problem, rows, qf, rf)
                assert np.max(np.abs(x_lam[:n] - x)) <= 1e-12 * np.max(np.abs(x))
                # Multipliers that are all round-off (day 182's) are held to
                # the scale of the cost instead.
                lam_scale = max(np.max(np.abs(lam), initial=0.0), np.max(np.abs(c)))
                assert np.max(np.abs(x_lam[n:] - lam), initial=0.0) <= 1e-12 * lam_scale
                try:
                    solution = qp.solve(
                        problem, _reject, working_sets=[candidate], structure=structure
                    )
                except _Rejected:
                    solution = None
                assert (solution is not None) == optimal
                if optimal:
                    assert solution.warm_start
                    assert np.max(np.abs(solution.x - x)) <= 1e-12 * np.max(np.abs(x))
                verdicts[optimal] += 1
        assert verdicts[True] > 0
        assert verdicts == AFFINE_LAW_VERDICTS[name]

    @pytest.mark.parametrize("h, n_steps, sets", [(6, 48, 8), (24, 48, 21), (168, 24, 3)])
    def test_law_has_the_block_assembly_bits(self, monkeypatch, no_qp_structure, h, n_steps, sets):
        # Every candidate and final working set of n_steps MPC hours from
        # day 104 at 1.08 m: K's packed bytes against the frozen np.block
        # assembly of the whole matrix.
        keys = {}
        inner = qp.solve

        def recording(problem, initial_point, working_sets=(), structure=None):
            solution = inner(problem, initial_point, working_sets=working_sets, structure=structure)
            keys.update(dict.fromkeys([*working_sets, solution.working_set], structure))
            return solution

        monkeypatch.setattr(qp, "solve", recording)
        params = LakeParams()
        mpc.run_hourly(
            params, mpc.MpcConfig(horizon=h), synthetic_year(h // 24 + 3, first_day=104),
            storage_of_level(params, 1.08), n_steps=n_steps,
        )
        monkeypatch.undo()
        assert len(keys) == sets
        for key, structure in keys.items():
            _, rows, qf, rf, _ = qp._start_factor(structure, key)
            law = qp._affine_law(structure, rows, qf, rf)
            expected = reference_affine_law(structure, rows, qf, rf)
            assert law.shape == expected.shape and law.tobytes() == expected.tobytes()

    def test_built_once_per_candidate_over_two_passes(self, monkeypatch, no_qp_structure):
        # Two passes over the days-104 window: the first builds one law for
        # each candidate a solve tried, the second none. The rows tight at a
        # start that no solve tried as a candidate get no law.
        counted = ((qp, "_affine_law"),)
        passes = [_hourly_window(monkeypatch, 104, 1.08, counted) for _ in range(2)]
        built = [sum(step[4].get("lakempc.qp._affine_law", 0) for step in steps) for steps in passes]
        tried = {
            candidate
            for _, _, candidates, solution, _ in passes[0]
            for candidate in _tried(candidates, solution)
        }
        assert built == [len(tried), 0]
        starts = _only_structure().starts
        assert {key for key, entry in starts.items() if entry[4] is not None} == tried
        assert len(starts.keys() - tried) == COLD_ONLY_KEYS
        assert all(entry[2] is not None and entry[3] is not None for entry in starts.values())

    def test_candidate_keeps_factor_and_law_and_then_starts_without_a_qr(self, monkeypatch):
        # The corner QP's optimum (1, 0) holds rows (0, 2). Offered first as
        # a candidate, the set keeps its factor and its law; as the rows
        # tight at the start (1, 0) it then costs no QR and keeps its entry.
        # Seen first as a start's rows, it keeps its factor when its law is
        # added.
        optimal = (0, 2)
        problem, structure = _corner_family()
        counts = _count_calls(monkeypatch, FACTOR_CALLS)
        assert qp.solve(problem, _reject, working_sets=[optimal], structure=structure).warm_start
        entry = structure.starts[optimal]
        assert all(part is not None for part in entry)
        assert counts == {"numpy.linalg.qr": 1}
        start = np.array([1.0, 0.0])
        assert qp.solve(problem, start, structure=structure).working_set == optimal
        assert structure.starts[optimal] is entry
        assert counts == {"numpy.linalg.qr": 1}
        problem, structure = _corner_family()
        qp.solve(problem, start, structure=structure)
        _, _, q, r, _ = structure.starts[optimal]
        qp.solve(problem, _reject, working_sets=[optimal], structure=structure)
        entry = structure.starts[optimal]
        assert entry[2] is q and entry[3] is r and entry[4] is not None


def copy_entry(entry):
    """A copy of a Structure.starts entry, its arrays copied."""
    return tuple(item.copy() if isinstance(item, np.ndarray) else item for item in entry)


def _corner_qp(upper=(3.0, 3.0), lower=(0.0, 0.0)):
    """min 0.5 |x - (2, -1)|^2 s.t. x0 + x1 <= 1 and lower <= x <= upper.
    With the default lower bounds, its rows are x0 + x1 <= 1 (0), the lower
    bounds of x0 and x1 (1, 2) and the finite upper bounds (bounded_qp),
    and the optimum (1, 0) holds row 0 (multiplier 1) and x1's lower bound
    (multiplier 2), so its working set is (0, 2)."""
    return bounded_qp(
        hessian=np.ones(2),
        linear_cost=[-2.0, 1.0],
        ineq_matrix=[[1.0, 1.0]],
        ineq_rhs=[1.0],
        lower=lower,
        upper=upper,
    )


class _CountedStart:
    """A feasible start for _corner_qp, as a function that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return np.zeros(2)


def _corner_family(upper=(3.0, 3.0)):
    """_corner_qp(upper) and its structure, whose matrices the problem holds."""
    structure = qp.Structure(_corner_qp(upper))
    problem = dataclasses.replace(
        _corner_qp(upper), hessian=structure.hessian, ineq_matrix=structure.ineq_matrix
    )
    return problem, structure


class TestStructure:
    """A structure serves only problems that hold its matrices, and its
    matrices cannot change under its factors."""

    def test_problem_with_other_matrices_rejected(self):
        # Equal values are not enough: the structure's arrays are copies.
        structure = qp.Structure(_corner_qp())
        with pytest.raises(ValueError, match="hessian and ineq_matrix are not the structure's"):
            qp.solve(_corner_qp(), np.zeros(2), structure=structure)
        problem, _ = _corner_family()
        with pytest.raises(ValueError, match="not the structure's"):
            qp.solve(problem, np.zeros(2), structure=structure)

    @pytest.mark.parametrize(
        "bound, values", [("upper", [3.0, np.inf]), ("lower", [0.0, -np.inf]), ("upper", [3.0] * 2)]
    )
    def test_problem_with_other_finite_bounds_rejected(self, bound, values):
        # Other finite bounds are other bound rows, so another row matrix,
        # even where the values of the rows they share are equal.
        problem, structure = _corner_family(upper=[np.inf, 3.0])
        other = _corner_qp(**{"upper": [np.inf, 3.0], bound: values})
        problem = dataclasses.replace(
            problem, ineq_matrix=other.ineq_matrix, ineq_rhs=other.ineq_rhs
        )
        assert problem.hessian is structure.hessian
        with pytest.raises(ValueError, match="hessian and ineq_matrix are not the structure's"):
            qp.solve(problem, np.zeros(2), structure=structure)

    def test_matrices_are_read_only_copies(self):
        source = _corner_qp()
        structure = qp.Structure(source)
        for name in ("hessian", "ineq_matrix"):
            matrix = getattr(structure, name)
            assert matrix is not getattr(source, name)
            with pytest.raises(ValueError, match="read-only"):
                matrix.flat[0] = 5.0
            getattr(source, name).flat[0] = 5.0
            assert matrix.flat[0] == 1.0

    @pytest.mark.parametrize("h", [6, 24, 168])
    def test_diagonal_transform_has_the_dense_bits(self, h):
        # The MPC's structure against the dense route, which factored
        # np.diag(hessian) by Cholesky and multiplied the rows by the dense
        # L^-T: byte for byte, so the sign of every zero counts (the negated
        # flood rows hold -0.0 entries, which the dense product wrote +0.0).
        structure = mpc._qp_structure.__wrapped__(h, LakeParams().surface_area, 1.0)
        problem = qp.QpProblem(structure.hessian, np.zeros(3 * h), structure.ineq_matrix)
        dense = dense_transform(problem)
        # The dense factors are diagonal, so their diagonals are all they hold.
        for matrix in (dense.q_s, dense.l_inv_t):
            assert np.array_equal(matrix, np.diag(np.diag(matrix)))
        assert np.any((structure.a == 0.0) & np.signbit(structure.a))
        for name, expected in [
            ("col_scale", dense.col_scale), ("row_scale", dense.row_scale), ("a", dense.a),
            ("q_s", np.diag(dense.q_s)), ("l_inv", np.diag(dense.l_inv_t)), ("a_y", dense.a_y),
        ]:
            actual = getattr(structure, name)
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name

    def test_served_problem_gives_the_one_shot_bits(self):
        # The start's tight rows are no candidate, so they get no affine law.
        problem, structure = _corner_family()
        solution = qp.solve(problem, np.zeros(2), structure=structure)
        _assert_same_bits(solution, qp.solve(_corner_qp(), np.zeros(2)))
        assert len(structure.starts) == 1
        assert next(iter(structure.starts.values()))[4] is None


class TestWorkingSetHint:
    """qp.solve tries candidate working sets, in order, before its start."""

    def test_solution_reports_its_working_set(self):
        solution = qp.solve(_corner_qp(), np.zeros(2))
        assert not solution.warm_start
        assert solution.working_set == (0, 2)

    def test_optimal_hint_is_the_solution_without_the_start(self):
        problem = _corner_qp()
        start = _CountedStart()
        cold = qp.solve(problem, np.zeros(2))
        warm = qp.solve(problem, start, working_sets=[cold.working_set])
        assert start.calls == 0
        assert (warm.warm_start, warm.iterations, warm.status) == (True, 1, "optimal")
        assert warm.x == pytest.approx([1.0, 0.0], abs=1e-12)
        # Rows: x0 + x1 <= 1, the lower bounds of x0 and x1, the upper bounds.
        assert warm.duals == pytest.approx([1.0, 0.0, 2.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "working_set",
        [
            # The optima on these rows break a row: (2, -1) and (2, -1) break
            # x1 >= 0, (2, 0) breaks x0 + x1 <= 1.
            (), (0,), (2,),
            # The optimum on these rows, (0, 0), is feasible, but x0's lower
            # bound has multiplier -2.
            (1, 2),
        ],
        ids=["no rows", "row only", "bound only", "negative multiplier"],
    )
    def test_hint_that_is_not_optimal_falls_back_to_the_start(self, working_set):
        problem = _corner_qp()
        start = _CountedStart()
        solution = qp.solve(problem, start, working_sets=[working_set])
        assert start.calls == 1
        assert not solution.warm_start
        _assert_same_bits(solution, qp.solve(problem, np.zeros(2)))

    @pytest.mark.parametrize(
        "lower, upper, working_set, m",
        [
            # No finite bound: the inequality row is the only row.
            ([-np.inf] * 2, [np.inf] * 2, (1,), 1),
            ([-np.inf] * 2, [np.inf] * 2, (-1, 0), 1),
            # No finite upper bound: x1's lower bound is the last row.
            ([0.0] * 2, [np.inf] * 2, (0, 3), 3),
            # x0's upper bound is the last row; x1's, infinite, has none.
            ([0.0] * 2, [3.0, np.inf], (4,), 4),
        ],
        # The ids keep the names these cases had when a candidate was a
        # triple of inequality rows, lower bounds and upper bounds.
        ids=[
            "working_set0-working_set inequality row 1, past the last row",
            "working_set1-working_set inequality row -1",
            "working_set2-working_set lower-bound row 3, past the last row",
            "working_set3-working_set upper-bound row 4, past the last row",
        ],
    )
    def test_hint_naming_a_missing_row_rejected(self, lower, upper, working_set, m):
        message = re.escape(
            f"working_set {working_set!r} is not a strictly increasing tuple of rows in [0, {m})"
        )
        with pytest.raises(ValueError, match=message):
            qp.solve(_corner_qp(upper, lower), np.zeros(2), working_sets=[working_set])

    @pytest.mark.parametrize(
        "working_set",
        [(0, 0), (2, 1), (1.0,), range(2)],
        ids=["repeated", "unsorted", "not integers", "not a tuple"],
    )
    def test_malformed_candidate_rejected(self, working_set):
        # x1's upper bound is infinite, so the structure has 4 rows.
        message = re.escape(
            f"working_set {working_set!r} is not a strictly increasing tuple of rows in [0, 4)"
        )
        with pytest.raises(ValueError, match=message):
            qp.solve(_corner_qp(upper=[3.0, np.inf]), np.zeros(2), working_sets=[working_set])

    def test_rejected_candidates_then_an_optimal_one_build_no_start(self):
        problem = _corner_qp()
        start = _CountedStart()
        optimal = qp.solve(problem, np.zeros(2)).working_set
        # A row broken, then a negative multiplier (see the test above).
        solution = qp.solve(problem, start, working_sets=[(), (1, 2), optimal])
        assert start.calls == 0
        assert (solution.warm_start, solution.iterations) == (True, 1)
        _assert_same_bits(solution, qp.solve(problem, start, working_sets=[optimal]))

    def test_every_rejected_candidate_falls_back_to_the_start(self):
        problem = _corner_qp()
        start = _CountedStart()
        solution = qp.solve(problem, start, working_sets=[(), (0,), (1, 2)])
        assert start.calls == 1
        _assert_same_bits(solution, qp.solve(problem, np.zeros(2)))

    def test_memoized_structure_checks_each_candidate_once(self):
        # A structure keeps each candidate's factor, read-only: offering the
        # same candidates again checks and factors none of them, so the
        # entries it holds stay the same objects. A candidate that is not
        # sorted rows in range is rejected on first sight and on every
        # later one, and the structure keeps nothing for it.
        problem, structure = _corner_family()
        candidates = [(), (1, 2), (0, 2)]
        first = qp.solve(problem, np.zeros(2), working_sets=candidates, structure=structure)
        assert first.warm_start
        memo = dict(structure.starts)
        assert list(memo) == candidates
        assert not any(arr.flags.writeable for entry in memo.values() for arr in entry[1:])
        again = qp.solve(problem, np.zeros(2), working_sets=candidates, structure=structure)
        _assert_same_bits(again, first)
        assert_same_entries(structure.starts, memo)
        for bad in ((0, 5), (2, 1)):
            message = re.escape(
                f"working_set {bad} is not a strictly increasing tuple of rows in [0, 5)"
            )
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    qp.solve(
                        problem, np.zeros(2), working_sets=[candidates[0], bad], structure=structure
                    )
        assert_same_entries(structure.starts, memo)

    def test_rows_are_held_to_their_own_scale(self):
        # The optimum on no rows, x0 = 1e-4, breaks x0 <= 0 by 1e-4: within
        # 1e-9 of the largest right-hand side (1e6) but not of its own.
        problem = qp.QpProblem(
            hessian=np.ones(2), linear_cost=[-1e-4, 0.0], ineq_matrix=np.eye(2), ineq_rhs=[0.0, 1e6]
        )
        solution = qp.solve(problem, np.zeros(2), working_sets=[()])
        assert not solution.warm_start
        assert solution.status == "optimal"
        assert solution.x == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_rows_are_held_in_their_own_units(self):
        # The optimum on no rows, x = 5e-13, breaks 1e6 x <= 0 by 5e-7:
        # within 1e-9 of the row's norm after equilibration (1e3), so the
        # candidate is taken, and certified with that violation.
        problem = qp.QpProblem(
            hessian=np.ones(1), linear_cost=[-5e-13], ineq_matrix=[[1e6]], ineq_rhs=[0.0]
        )
        solution = qp.solve(problem, np.zeros(1), working_sets=[()])
        assert solution.warm_start and solution.status == "optimal"
        assert solution.kkt_residual == qp.kkt_residual(problem, solution) == pytest.approx(5e-7)

    def test_multipliers_are_held_in_their_rows_scale(self):
        # On the row 1e6 x <= 0 the optimum is x = 0 with multiplier -5e-10:
        # -5e-7 in the row's equilibrated scale (1e-3 per unit), below the
        # sign test's -1e-9, so the candidate is rejected and the solve
        # finds x = -5e-4 off the row.
        problem = qp.QpProblem(
            hessian=np.ones(1), linear_cost=[5e-4], ineq_matrix=[[1e6]], ineq_rhs=[0.0]
        )
        solution = qp.solve(problem, np.zeros(1), working_sets=[(0,)])
        assert not solution.warm_start and solution.status == "optimal"
        assert solution.x == pytest.approx([-5e-4], rel=1e-12)

    @pytest.mark.parametrize("first_day, level", [window[:2] for window in HOURLY_WINDOWS])
    def test_optimal_hints_match_the_cold_solve(self, monkeypatch, first_day, level):
        steps = _hourly_window(monkeypatch, first_day, level)
        warm = [step for step in steps if step[3].warm_start]
        assert len(warm) == WARM_STARTS[first_day]
        for problem, start, _, solution, _ in warm:
            cold = qp.solve(problem, start)
            assert (solution.status, solution.iterations) == ("optimal", 1)
            assert solution.kkt_residual <= 1e-9
            assert np.max(np.abs(solution.x - cold.x)) <= 1e-12 * np.max(np.abs(cold.x))


    @pytest.mark.parametrize("first_day, level", [window[:2] for window in HOURLY_WINDOWS])
    def test_working_set_rows_are_tight_and_hold_every_dual(self, monkeypatch, first_day, level):
        # Every row of a solution's working set is tight at x, and every
        # nonzero dual is positive and sits on one of its rows.
        kinds = mpc._RowBlocks._fields
        nonzero = collections.Counter()
        for problem, _, _, solution, _ in _hourly_window(monkeypatch, first_day, level):
            rows, rhs = problem.ineq_matrix, problem.ineq_rhs
            working = list(solution.working_set)
            x = solution.x
            gap = rhs[working] - rows[working] @ x
            scale = 1.0 + np.abs(rhs[working]) + np.abs(rows[working]) @ np.abs(x)
            assert np.all(np.abs(gap) <= 1e-9 * scale)
            assert np.all(solution.duals >= 0.0)
            dual_rows = np.flatnonzero(solution.duals)
            assert set(dual_rows.tolist()) <= set(working)
            nonzero.update(kinds[i // (problem.n // 3)] for i in dual_rows)
        assert nonzero == NONZERO_DUALS[first_day]


def _upper_factor(layout):
    """A well-conditioned 48x48 upper-triangular factor: C-ordered,
    F-ordered, or the leading rows of an F-ordered 72x48 factor (neither),
    the shapes the solver's R takes."""
    rng = np.random.default_rng(48)
    full = np.triu(rng.standard_normal((72, 48))) + 8.0 * np.eye(72, 48)
    if layout == "C":
        return np.ascontiguousarray(full[:48])
    if layout == "F":
        return np.asfortranarray(full[:48])
    return np.asfortranarray(full)[:48]


class TestSolveUpper:
    """qp._solve_upper against scipy.linalg.solve_triangular, bit for bit."""

    @pytest.mark.parametrize("layout", ["C", "F", "F rows"])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_matches_solve_triangular(self, layout, trans):
        r = _upper_factor(layout)
        b = np.random.default_rng(7).standard_normal(48)
        expected = scipy.linalg.solve_triangular(r, b, trans=trans, check_finite=False)
        assert np.array_equal(qp._solve_upper(r, b, trans), expected)

    def test_empty_system(self):
        x = qp._solve_upper(np.zeros((0, 0)), np.zeros(0))
        expected = scipy.linalg.solve_triangular(np.zeros((0, 0)), np.zeros(0), check_finite=False)
        assert x.shape == expected.shape == (0,) and x.dtype == expected.dtype

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_zero_diagonal_raises(self, layout):
        r = _upper_factor(layout).copy(order="K")
        r[5, 5] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            qp._solve_upper(r, np.ones(48))
