"""Report tests: violation-hour counts, and the table rows a report is written as."""

import numpy as np
import pytest

from lakempc import metrics
from lakempc.hydrology import LakeParams, storage_of_level
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
    # The areas stay exact sums, noise included.
    assert noisy.demand.area > exact.demand.area


def test_violations_within_tolerance_are_not_counted():
    params = LakeParams()
    tol = metrics.LEVEL_TOL
    levels = params.flood_threshold + np.array([0.5 * tol, 2.0 * tol, 3.0])
    demands = np.full(3, 100.0)
    releases = demands - np.array([0.5, 2.0, 0.0]) * metrics.DEFICIT_REL_TOL * demands
    report = metrics.compute_report(params, _trace(levels, releases, demands))
    assert (report.flood.hours, report.demand.hours) == (2, 1)
    assert report.flood.rmse == pytest.approx(np.sqrt(((2.0 * tol) ** 2 + 3.0**2) / 2.0))
    assert report.flood.area == pytest.approx(2.5 * tol + 3.0)
    assert report.demand.deficit_peak == pytest.approx(-2.0 * metrics.DEFICIT_REL_TOL * 100.0)
    # Every deficit under the tolerance: no hour and no peak, but the area
    # still sums them.
    releases = demands - 0.5 * metrics.DEFICIT_REL_TOL * demands
    report = metrics.compute_report(params, _trace(levels, releases, demands))
    assert (report.demand.hours, report.demand.rmse, report.demand.deficit_peak) == (0, 0.0, 0.0)
    assert report.demand.area == pytest.approx(3 * 0.5 * metrics.DEFICIT_REL_TOL * 100.0)
