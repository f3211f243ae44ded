"""Objective metrics over closed-loop traces and the experiment drivers.

A report mirrors the benchmark tables: one block per objective (flood,
demand, dry), each with an RMSE, an extreme value, a violation-hour count
and a violated area. An hour counts as a violation hour only when its
violation exceeds LEVEL_TOL (levels) or DEFICIT_REL_TOL times the demand
(deficits): a plan that sits on a threshold or meets the demand exactly
leaves rounding noise of a few units in the last place, and that noise is
no violation. RMSE, the deficit peak and the areas are taken over the
counted hours only (0 when none counts), so that noise reaches no table
cell. The demand deficit is measured against the applied release (what the
districts receive), and the deficit peak is reported with a negative sign.

Each metric is declared once, as a field of its block's dataclass: the
field's name is its key in report.csv and sweep.csv, its metadata's
"label" is its row label in report.txt and the comparison table, and its
type (int for the hour counts, float for the rest) is the type a value
read back takes. _BLOCK_TYPES lists the blocks in table order.
report_rows writes a report as rows, and report_from_rows reads them back
and rejects rows that lack, repeat or invent a metric.
"""

# No "from __future__ import annotations": report_from_rows converts each
# value with its field's type, so the annotations must be the types.
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .hydrology import LakeParams
from .mpc import MpcConfig, run_hourly
from .scenario import Scenario
from .trace import ClosedLoopTrace

REL_DIFF_FLOOR = 1e-9
# Violations up to these count no violation hour (see the module docstring).
LEVEL_TOL = 1e-9  # m
DEFICIT_REL_TOL = 1e-9  # times the hour's demand


@dataclass(frozen=True)
class FloodMetrics:
    rmse: float = field(metadata={"label": "RMSE Flood [m]"})
    peak: float = field(metadata={"label": "Lake Level Peak [m]"})
    hours: int = field(metadata={"label": "Flood Hours"})
    area: float = field(metadata={"label": "Area Flood [m*hours]"})


@dataclass(frozen=True)
class DemandMetrics:
    rmse: float = field(metadata={"label": "RMSE Demand [m3/s]"})
    deficit_peak: float = field(metadata={"label": "Deficit Peak [m3/s]"})
    hours: int = field(metadata={"label": "Deficit Hours"})
    area: float = field(metadata={"label": "Area Deficit [m3/s*hours]"})


@dataclass(frozen=True)
class DryMetrics:
    rmse: float = field(metadata={"label": "RMSE Dry [m]"})
    level_min: float = field(metadata={"label": "Lake Level Minimum [m]"})
    hours: int = field(metadata={"label": "Dry Hours"})
    area: float = field(metadata={"label": "Area Dry [m*hours]"})


@dataclass(frozen=True)
class RunReport:
    flood: FloodMetrics
    demand: DemandMetrics
    dry: DryMetrics
    label: str = ""


_BLOCK_TYPES = {"flood": FloodMetrics, "demand": DemandMetrics, "dry": DryMetrics}
ALL_BLOCKS = tuple(_BLOCK_TYPES)


def _violation_stats(violation: np.ndarray, tol) -> tuple[float, int, float]:
    """(rmse, counted hours, area) for a hinge series.

    An hour counts when its violation exceeds tol; the rmse and the area are
    taken over the counted hours only, so a violation at or below tol adds
    nothing to either.
    """
    counted = violation[violation > tol]
    hours = counted.size
    rmse = math.sqrt(float(np.mean(counted**2))) if hours else 0.0
    return rmse, hours, float(np.sum(counted))


def compute_report(params: LakeParams, trace: ClosedLoopTrace) -> RunReport:
    """Pure function of a trace; recomputation yields identical results."""
    levels = trace.levels
    flood_violation = np.maximum(levels - params.flood_threshold, 0.0)
    rmse_f, hours_f, area_f = _violation_stats(flood_violation, LEVEL_TOL)
    deficit = np.maximum(trace.demands - trace.releases, 0.0)
    deficit_tol = DEFICIT_REL_TOL * trace.demands
    rmse_d, hours_d, area_d = _violation_stats(deficit, deficit_tol)
    dry_violation = np.maximum(params.dry_threshold - levels, 0.0)
    rmse_l, hours_l, area_l = _violation_stats(dry_violation, LEVEL_TOL)
    return RunReport(
        flood=FloodMetrics(rmse=rmse_f, peak=float(np.max(levels)), hours=hours_f, area=area_f),
        demand=DemandMetrics(
            rmse=rmse_d,
            deficit_peak=-float(np.max(deficit, where=deficit > deficit_tol, initial=0.0)) + 0.0,
            hours=hours_d,
            area=area_d,
        ),
        dry=DryMetrics(rmse=rmse_l, level_min=float(np.min(levels)), hours=hours_l, area=area_l),
        label=trace.label,
    )


def report_rows(report: RunReport, blocks=ALL_BLOCKS) -> list[tuple[str, str, str, float]]:
    """(block, field, human label, value) rows in table order."""
    rows = []
    for block in blocks:
        metrics = getattr(report, block)
        for f in fields(metrics):
            rows.append((block, f.name, f.metadata["label"], float(getattr(metrics, f.name))))
    return rows


def report_from_rows(rows, label: str = "") -> RunReport:
    """Inverse of report_rows: (block, field, value) rows, in any order, one
    for each metric of every block. Each value passes through float() and
    then its field's type. ValueError naming the block and the metric for a
    row no field declares, a metric given twice or a metric missing."""
    given = {}
    for block, key, value in rows:
        if block not in _BLOCK_TYPES or key not in {f.name for f in fields(_BLOCK_TYPES[block])}:
            raise ValueError(f"unknown metric {block},{key}")
        if (block, key) in given:
            raise ValueError(f"metric {block},{key} is given twice")
        given[block, key] = value
    blocks = {}
    for block, block_type in _BLOCK_TYPES.items():
        values = {}
        for f in fields(block_type):
            if (block, f.name) not in given:
                raise ValueError(f"metric {block},{f.name} is missing")
            values[f.name] = f.type(float(given[block, f.name]))
        blocks[block] = block_type(**values)
    return RunReport(**blocks, label=label)


@dataclass
class SweepResult:
    """One hourly-MPC run per weight value, plus Fig.-style normalized columns."""

    lambdas: list[float]
    reports: list[RunReport]
    flood_hours_norm: np.ndarray
    deficit_hours_norm: np.ndarray


def lambda_sweep(
    params: LakeParams,
    base_config: MpcConfig,
    scenario: Scenario,
    s0: float,
    lambdas,
    n_steps: int | None = None,
) -> SweepResult:
    """Run the hourly controller once per demand weight and tabulate metrics.

    The normalized columns divide each hour count by its maximum over the
    sweep (zero stays zero when no run violates at all). Each weight's run
    replaces the previous weight's solver structure (mpc._qp_structure), so
    a sweep holds one at a time. Raises ValueError unless there is at least
    one weight and every weight is positive and finite.
    """
    lambdas = [float(v) for v in lambdas]
    if not lambdas or not all(0.0 < v < np.inf for v in lambdas):
        raise ValueError(f"sweep weights must be one or more, positive and finite: {lambdas}")
    reports = []
    for lam in lambdas:
        config = replace(base_config, lam=lam)
        try:
            trace = run_hourly(params, config, scenario, s0, n_steps=n_steps)
        except Exception as err:
            raise RuntimeError(f"sweep run failed at lambda={lam:g}: {err}") from err
        reports.append(compute_report(params, trace))
    flood_hours = np.array([r.flood.hours for r in reports], dtype=float)
    deficit_hours = np.array([r.demand.hours for r in reports], dtype=float)
    flood_norm = flood_hours / flood_hours.max() if flood_hours.max() > 0 else flood_hours
    deficit_norm = (
        deficit_hours / deficit_hours.max() if deficit_hours.max() > 0 else deficit_hours
    )
    return SweepResult(
        lambdas=lambdas,
        reports=reports,
        flood_hours_norm=flood_norm,
        deficit_hours_norm=deficit_norm,
    )


@dataclass
class ComparisonRow:
    label: str
    values: list[float]
    rel_diffs: list[float]  # one per non-reference column, vs the first column


@dataclass
class ComparisonTable:
    names: list[str]
    rows: list[ComparisonRow]

    def format_text(self) -> str:
        width = max(len(r.label) for r in self.rows) + 2
        header = " " * width + "".join(f"{n:>14}" for n in self.names)
        header += "".join(f"{'d(' + n + ')':>14}" for n in self.names[1:])
        lines = [header]
        for row in self.rows:
            cells = "".join(f"{v:>14.6g}" for v in row.values)
            cells += "".join(f"{d:>14.6g}" for d in row.rel_diffs)
            lines.append(f"{row.label:<{width}}" + cells)
        return "\n".join(lines) + "\n"


def relative_difference(a: float, b: float) -> float:
    """(b - a) scaled by max(|a|, |b|, 1e-9); antisymmetric in its arguments."""
    return (b - a) / max(abs(a), abs(b), REL_DIFF_FLOOR)


def compare_runs(named_reports, blocks=ALL_BLOCKS) -> ComparisonTable:
    """Side-by-side metric table with relative differences against the first run."""
    named_reports = list(named_reports)
    if len(named_reports) < 2:
        raise ValueError("compare_runs needs at least two reports")
    names = [name for name, _ in named_reports]
    per_run_rows = [report_rows(report, blocks) for _, report in named_reports]
    rows = []
    for i, (_, _, label, base_value) in enumerate(per_run_rows[0]):
        values = [run_rows[i][3] for run_rows in per_run_rows]
        rel = [relative_difference(base_value, v) for v in values[1:]]
        rows.append(ComparisonRow(label=label, values=values, rel_diffs=rel))
    return ComparisonTable(names=names, rows=rows)
