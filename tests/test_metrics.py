"""Report tests: the table rows a report is written as read back to the same report."""

from lakempc import metrics
from lakempc.hydrology import LakeParams, storage_of_level
from lakempc.mpc import MpcConfig, run_hourly
from lakempc.scenario import synthetic_year


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
