"""The benchmark's workloads: the paper's experiments on fixed windows.

Each workload is a closed loop in one process. A run executes a fixed list of
members: member 0 is always the paper's deterministic synthetic year, and for
a nonzero seed the other members are the same window with the daily inflow
jittered (``synthetic_year(..., jitter=JITTER, seed=...)``) from seeds drawn
from the workload seed. At seed 0 every member is the deterministic year.
Why each window was chosen is in RATIONALE.md.

Import this module only after :func:`source.use_checkout_source`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lakempc import cli, ddp, hydrology, mpc, scenario

JITTER = 0.1
# Reported by changes that claim a gain, and never used while tuning one.
HELD_OUT_SEED = 7919
LAMBDA = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "hourly": mpc.run_hourly; "cli": lakempc ddp + simulate --mode daily
    first_day: int
    n_days: int
    start_level: float  # m
    members: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hourly-drawdown", "hourly", 182, 15, 0.29, 2),
        Workload("hourly-flood", "hourly", 104, 17, 1.08, 2),
        Workload("cli-offline-year", "cli", 0, 366, 0.4, 2),
    )
}


def member_seeds(seed: int, members: int) -> list[int | None]:
    """Jitter seed per member; None is the deterministic synthetic year."""
    if seed == 0:
        return [None] * members
    return [None] + [
        int(np.random.SeedSequence([seed, j]).generate_state(1)[0]) for j in range(1, members)
    ]


@dataclass
class Member:
    jitter_seed: int | None
    scenario: scenario.Scenario
    s0: float
    inflow_csv: Path | None = None
    demand_csv: Path | None = None
    out_dir: Path | None = None


@dataclass
class Run:
    """One closed-loop run: its trace, the decisions it made, its exit code."""

    label: str
    trace: object | None
    is_mpc: bool
    decisions: slice
    exit_code: int | None = None


class DecisionLog:
    """Start, latency, status and KKT residual of every ``mpc.solve_step`` call.

    Besides the calibration timer, its wrapper is the only timer in an
    untraced run: two clock reads around each controller decision.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.statuses: list[str] = []
        self.kkt: list[float] = []

    def install(self) -> None:
        inner = mpc.solve_step
        starts, seconds, statuses, kkt = self.starts, self.seconds, self.statuses, self.kkt
        clock = time.perf_counter

        def timed_solve_step(*args, **kwargs):
            t0 = clock()
            step = inner(*args, **kwargs)
            t1 = clock()
            starts.append(t0)
            seconds.append(t1 - t0)
            statuses.append(step.solve_diagnostics.status)
            kkt.append(step.solve_diagnostics.kkt_residual)
            return step

        mpc.solve_step = timed_solve_step

    def __len__(self) -> int:
        return len(self.seconds)


class TraceCapture:
    """Keeps the trace each CLI command hands to ``cli.write_trace_csv``."""

    def __init__(self) -> None:
        self.traces: list = []

    def install(self) -> None:
        inner = cli.write_trace_csv
        traces = self.traces

        def capturing_write_trace_csv(path, trace):
            traces.append(trace)
            return inner(path, trace)

        cli.write_trace_csv = capturing_write_trace_csv


def build_members(workload: Workload, seed: int, work_dir: Path) -> list[Member]:
    """Set-up: scenarios, and for the CLI workload their CSV files."""
    params = hydrology.LakeParams()
    members = []
    for j, jitter_seed in enumerate(member_seeds(seed, workload.members)):
        scn = scenario.synthetic_year(
            n_days=workload.n_days,
            first_day=workload.first_day,
            jitter=0.0 if jitter_seed is None else JITTER,
            seed=0 if jitter_seed is None else jitter_seed,
        )
        member = Member(jitter_seed, scn, hydrology.storage_of_level(params, workload.start_level))
        if workload.kind == "cli":
            member.out_dir = work_dir / f"member{j}"
            member.out_dir.mkdir(parents=True, exist_ok=True)
            member.inflow_csv = member.out_dir / "inflow_hourly.csv"
            member.demand_csv = member.out_dir / "demand_hourly.csv"
            scenario.save_timeseries(member.inflow_csv, scn.inflow_hourly, "inflow")
            scenario.save_timeseries(member.demand_csv, scn.demand_hourly, "demand")
        members.append(member)
    return members


def run_member(
    workload: Workload, member: Member, log: DecisionLog, capture: TraceCapture
) -> list[Run]:
    """Execute one member's closed loop(s) through the public API or the CLI."""
    params = hydrology.LakeParams()
    if workload.kind == "hourly":
        first = len(log)
        config = mpc.MpcConfig(lam=LAMBDA)
        trace = mpc.run_hourly(params, config, member.scenario, member.s0)
        return [Run("mpc-hourly", trace, True, slice(first, len(log)))]
    common = [
        "--scenario", str(member.inflow_csv),
        "--demand", str(member.demand_csv),
        "--inflow-kind", "hourly",
        "--demand-kind", "hourly",
        "--s0", f"level:{workload.start_level}",
    ]
    runs = []
    for label, is_mpc, argv in (
        ("ddp", False, ["ddp", *common, "--out", str(member.out_dir / "ddp")]),
        ("mpc-daily", True,
         ["simulate", "--mode", "daily", "--lambda", str(LAMBDA), *common,
          "--out", str(member.out_dir / "daily")]),
    ):
        first, n_traces = len(log), len(capture.traces)
        code = cli.cli_main(argv)
        trace = capture.traces[-1] if len(capture.traces) > n_traces else None
        runs.append(Run(label, trace, is_mpc, slice(first, len(log)), code))
    return runs


TRACE_ARRAYS = (
    "levels", "storages", "releases", "commands", "inflows", "demands",
    "slack_flood", "slack_demand", "kkt_residuals",
)


def trace_digest(trace) -> str:
    """sha256 over every array and status of a trace: equal digests, equal bits."""
    h = hashlib.sha256()
    for name in TRACE_ARRAYS:
        value = getattr(trace, name)
        if value is not None:
            h.update(name.encode())
            h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    h.update("\n".join(trace.solve_statuses or []).encode())
    return h.hexdigest()


def control_cost(trace) -> float:
    """The paper's objective, ``ddp.trace_cost`` with the default DdpConfig."""
    return ddp.trace_cost(hydrology.LakeParams(), ddp.DdpConfig(), trace)
