"""Correctness gate: which operations of a run count as failed.

An operation is one controller decision (one ``mpc.solve_step`` call) plus
one per CLI command. A decision fails when its QP status is not "optimal" or
its KKT residual exceeds ``qp.KKT_TOL``; a CLI command fails when it exits
non-zero. Every operation of a run fails when its trace

* breaks the mass balance (``mass_balance_error`` above MASS_BALANCE_TOL),
* for controller (MPC) traces, sinks more than DRY_TOL_M below the dry
  threshold, or
* for the deterministic synthetic year, leaves the committed reference trace
  by more than REFERENCE_TOL of the series' scale.

Import this module only after :func:`source.use_checkout_source`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lakempc import hydrology, qp, trace as trace_mod

MASS_BALANCE_TOL = 1e-12
DRY_TOL_M = 1e-9
REFERENCE_TOL = 1e-9
REFERENCE_SERIES = ("releases", "storages")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, reason: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if reason and len(self.reasons) < 20:
            self.reasons.append(reason)


def load_reference(workload_name: str) -> dict[str, np.ndarray]:
    with np.load(REFERENCE_DIR / f"{workload_name}.npz") as data:
        return {key: data[key] for key in data.files}


def reference_deviation(trace, reference: dict[str, np.ndarray], label: str) -> dict[str, float]:
    """Max |trace - reference| per series, as a share of the series' scale."""
    out = {}
    for series in REFERENCE_SERIES:
        ref = reference[f"{label}.{series}"]
        got = np.asarray(getattr(trace, series), dtype=float)
        if got.shape != ref.shape:
            out[series] = np.inf
            continue
        scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
        out[series] = float(np.max(np.abs(got - ref))) / scale
    return out


def trace_violations(trace, is_mpc: bool, reference: dict | None, label: str) -> list[str]:
    params = hydrology.LakeParams()
    problems = []
    mbe = trace_mod.mass_balance_error(trace)
    if not mbe <= MASS_BALANCE_TOL:
        problems.append(f"mass balance error {mbe:.3e}")
    if is_mpc:
        low = float(np.min(trace.levels))
        if low < params.dry_threshold - DRY_TOL_M:
            problems.append(f"level {low:.12g} m below the dry threshold")
    if reference is not None:
        for series, dev in reference_deviation(trace, reference, label).items():
            if not dev <= REFERENCE_TOL:
                problems.append(f"{series} leave the reference by {dev:.3e} of scale")
    return problems


def judge_run(run, statuses, kkt, reference: dict | None, verdict: Verdict, where: str) -> None:
    """Count the operations of one run and how many of them failed."""
    statuses = statuses[run.decisions]
    kkt = np.asarray(kkt[run.decisions], dtype=float)
    attempted = len(statuses) + (run.exit_code is not None)
    if run.exit_code not in (None, 0) or run.trace is None:
        verdict.add(attempted, attempted, f"{where} {run.label}: exit code {run.exit_code}")
        return
    problems = trace_violations(run.trace, run.is_mpc, reference, run.label)
    if problems:
        verdict.add(attempted, attempted, f"{where} {run.label}: " + "; ".join(problems))
        return
    bad = np.array([s != "optimal" for s in statuses], dtype=bool) | ~(kkt <= qp.KKT_TOL)
    if np.any(bad):
        first = int(np.argmax(bad))
        verdict.add(
            attempted, int(bad.sum()),
            f"{where} {run.label}: decision {first} status {statuses[first]} kkt {kkt[first]:.3e}",
        )
        return
    verdict.add(attempted, 0)
