"""Objective metrics over closed-loop traces and the experiment drivers.

A report mirrors the benchmark tables: one block per objective (flood,
demand, dry), each with an RMSE, an extreme value, a violation-hour count
and a violated area. An hour counts as a violation hour only when its
violation exceeds LEVEL_TOL (levels) or DEFICIT_REL_TOL times the demand
(deficits): a plan that sits on a threshold or meets the demand exactly
leaves rounding noise of a few units in the last place, and that noise is
no violation. RMSE and the deficit peak are taken over the counted hours
(0 when none counts); the areas are exact sums over every hour. The demand
deficit is measured against the applied release (what the districts
receive), and the deficit peak is reported with a negative sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    rmse: float
    peak: float
    hours: int
    area: float


@dataclass(frozen=True)
class DemandMetrics:
    rmse: float
    deficit_peak: float
    hours: int
    area: float


@dataclass(frozen=True)
class DryMetrics:
    rmse: float
    level_min: float
    hours: int
    area: float


@dataclass(frozen=True)
class RunReport:
    flood: FloodMetrics
    demand: DemandMetrics
    dry: DryMetrics
    label: str = ""


_BLOCK_LABELS = {
    "flood": (
        ("rmse", "RMSE Flood [m]"),
        ("peak", "Lake Level Peak [m]"),
        ("hours", "Flood Hours"),
        ("area", "Area Flood [m*hours]"),
    ),
    "demand": (
        ("rmse", "RMSE Demand [m3/s]"),
        ("deficit_peak", "Deficit Peak [m3/s]"),
        ("hours", "Deficit Hours"),
        ("area", "Area Deficit [m3/s*hours]"),
    ),
    "dry": (
        ("rmse", "RMSE Dry [m]"),
        ("level_min", "Lake Level Minimum [m]"),
        ("hours", "Dry Hours"),
        ("area", "Area Dry [m*hours]"),
    ),
}
ALL_BLOCKS = ("flood", "demand", "dry")
_BLOCK_TYPES = {"flood": FloodMetrics, "demand": DemandMetrics, "dry": DryMetrics}


def _violation_stats(violation: np.ndarray, tol) -> tuple[float, int, float]:
    """(rmse over counted hours, counted hours, area) for a hinge series.

    An hour counts when its violation exceeds tol; the area sums every hour.
    """
    mask = violation > tol
    hours = int(np.sum(mask))
    area = float(np.sum(violation))
    rmse = math.sqrt(float(np.mean(violation[mask] ** 2))) if hours else 0.0
    return rmse, hours, area


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
        for key, label in _BLOCK_LABELS[block]:
            rows.append((block, key, label, float(getattr(metrics, key))))
    return rows


def report_from_rows(rows, label: str = "") -> RunReport:
    """Inverse of report_rows; missing entries raise KeyError."""
    staging: dict[str, dict[str, float]] = {b: {} for b in ALL_BLOCKS}
    for block, key, value in rows:
        staging[block][key] = float(value)
    blocks = {}
    for block, fields in _BLOCK_LABELS.items():
        values = staging[block]
        blocks[block] = _BLOCK_TYPES[block](
            **{key: int(values[key]) if key == "hours" else values[key] for key, _ in fields}
        )
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
    sweep (zero stays zero when no run violates at all).
    """
    lambdas = [float(v) for v in lambdas]
    if any(v <= 0.0 for v in lambdas):
        raise ValueError("sweep weights must be positive")
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
