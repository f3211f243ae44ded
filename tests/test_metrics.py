"""Report tests: violation-hour counts, and the table rows a report is written as."""

import numpy as np
import pytest

from helpers import assert_rerun_reuses_structure
from lakempc import metrics, mpc
from lakempc.hydrology import DEMAND_REF, LakeParams, storage_of_level
from lakempc.mpc import MpcConfig, run_hourly
from lakempc.scenario import synthetic_year
from lakempc.trace import ClosedLoopTrace


def test_report_from_rows_inverts_report_rows():
    # From 1.08 m on day 104 the lake floods, so the flood block is not all zero.
    params = LakeParams()
    scn = synthetic_year(2, first_day=104)
    trace = run_hourly(
        params, MpcConfig(horizon=6), scn, storage_of_level(params, 1.08), n_steps=36
    )
    report = metrics.compute_report(params, trace)
    assert report.flood.hours > 0
    rows = [(block, key, value) for block, key, _, value in metrics.report_rows(report)]
    assert metrics.report_from_rows(rows, label=report.label) == report


def _trace(levels, releases, demands):
    n = len(levels)
    return ClosedLoopTrace(
        levels=levels,
        storages=np.zeros(n + 1),
        releases=releases,
        commands=releases,
        inflows=np.zeros(n),
        demands=demands,
    )


def test_rounding_noise_counts_no_violation_hour():
    # Hours 0 and 1 violate for real. Hours 2 and 3 sit on the flood and dry
    # thresholds and release the demand; the noisy copy moves them by 1e-14,
    # as a plan that sits on a bound does in the last bits.
    params = LakeParams()
    levels = np.array([1.3, -0.3, params.flood_threshold, params.dry_threshold])
    releases = np.array([100.0, 140.0, 150.0, 150.0])
    demands = np.full(4, 150.0)
    noise = np.array([0.0, 0.0, 1e-14, -1e-14])
    exact = metrics.compute_report(params, _trace(levels, releases, demands))
    noisy = metrics.compute_report(
        params,
        _trace(levels + noise, releases * (1.0 - np.abs(noise)), demands),
    )
    assert (exact.flood.hours, exact.demand.hours, exact.dry.hours) == (1, 2, 1)
    for block in metrics.ALL_BLOCKS:
        a, b = getattr(exact, block), getattr(noisy, block)
        assert (a.hours, a.rmse) == (b.hours, b.rmse), block
        assert a.area == pytest.approx(b.area, rel=1e-12), block
    # The noise reaches no area either.
    assert noisy.demand.area == exact.demand.area


def test_violations_within_tolerance_are_not_counted():
    params = LakeParams()
    tol = metrics.LEVEL_TOL
    levels = params.flood_threshold + np.array([0.5 * tol, 2.0 * tol, 3.0])
    demands = np.full(3, 100.0)
    releases = demands - np.array([0.5, 2.0, 0.0]) * metrics.DEFICIT_REL_TOL * demands
    report = metrics.compute_report(params, _trace(levels, releases, demands))
    assert (report.flood.hours, report.demand.hours) == (2, 1)
    assert report.flood.rmse == pytest.approx(np.sqrt(((2.0 * tol) ** 2 + 3.0**2) / 2.0))
    assert report.flood.area == pytest.approx(2.0 * tol + 3.0, rel=0.0, abs=0.1 * tol)
    assert report.demand.area == pytest.approx(2.0 * metrics.DEFICIT_REL_TOL * 100.0)
    assert report.demand.deficit_peak == pytest.approx(-2.0 * metrics.DEFICIT_REL_TOL * 100.0)
    # Every deficit under the tolerance: no hour, no peak and no area.
    releases = demands - 0.5 * metrics.DEFICIT_REL_TOL * demands
    report = metrics.compute_report(params, _trace(levels, releases, demands))
    assert (report.demand.hours, report.demand.rmse, report.demand.deficit_peak) == (0, 0.0, 0.0)
    assert report.demand.area == 0.0


def test_areas_sum_counted_hours_only():
    # Entries at or below the tolerance, positive as solver round-off leaves
    # them, count no hour and add nothing to the area or the rmse.
    tol = 1e-9
    violation = np.array([0.0, 7.1e-15, tol, 0.5, 1e-12, 2.0, 0.999 * tol])
    rmse, hours, area = metrics._violation_stats(violation, tol)
    assert (hours, area) == (2, 2.5)
    assert rmse == pytest.approx(np.sqrt((0.5**2 + 2.0**2) / 2.0), rel=1e-15)
    # With a tolerance per hour, as the deficits have.
    rmse, hours, area = metrics._violation_stats(violation, np.full(violation.size, 1.0))
    assert (rmse, hours, area) == (2.0, 1, 2.0)
    assert metrics._violation_stats(np.full(4, 0.5 * tol), tol) == (0.0, 0, 0.0)


def test_sweep_leaves_only_the_last_weights_structure(monkeypatch, no_qp_structure):
    # Each weight has its own Hessian, so its own solver structure and its
    # cache of working-set factors; each run drops the previous weight's.
    # A repeated run of the last weight reuses its structure: no QR, and no
    # candidate working set checked again.
    params, config = LakeParams(), MpcConfig(horizon=6)
    scn = synthetic_year(2, first_day=104)
    s0 = storage_of_level(params, 1.08)
    sweep = metrics.lambda_sweep(params, config, scn, s0, [0.1, 1.0, 10.0], n_steps=24)
    assert len(sweep.reports) == 3
    assert mpc._qp_structure.cache_info().currsize == 1
    misses = mpc._qp_structure.cache_info().misses
    structure = mpc._qp_structure(6, params.surface_area, 10.0)
    assert mpc._qp_structure.cache_info().misses == misses
    assert structure.hessian[-1, -1] == 2.0 * 10.0 / DEMAND_REF**2
    assert_rerun_reuses_structure(monkeypatch, params, MpcConfig(horizon=6, lam=10.0), scn, s0, 24)


@pytest.mark.parametrize(
    "lambdas", [[], [1.0, np.nan], [0.0], [-1.0, 1.0], [1.0, np.inf]],
    ids=["empty", "nan", "zero", "negative", "infinite"],
)
def test_sweep_rejects_weights_outside_the_positive_reals(lambdas):
    scn = synthetic_year(2, first_day=104)
    with pytest.raises(ValueError, match="sweep weights must be one or more, positive and finite"):
        metrics.lambda_sweep(LakeParams(), MpcConfig(horizon=6), scn, 1e8, lambdas, n_steps=24)
