"""Print one line per benchmark run, to compare closed-loop traces across checkouts.

For every member of the three benchmark workloads at seeds 0 and 7919, the
script runs the member through ``perfbench/workloads.run_member`` and prints,
per run (an hourly MPC run, or the CLI's DDP and daily MPC runs):

    workload seed member label digest rel_dev stor_dev control_cost iterations max_iter warm cold table

``digest`` is ``workloads.trace_digest`` (equal digests, equal bits),
``rel_dev`` and ``stor_dev`` the member-0 deviation of releases and storages
from ``perfbench/reference/`` as a share of scale ("-" for jittered members),
``control_cost`` the paper's objective to 17 digits, ``iterations`` the
active-set iterations of the run's decisions, summed, ``max_iter`` the
most any one decision took (a sum hides a single long solve), ``warm``
the run's hours whose decision took a candidate working set
(``trace.warm_starts.sum()``), and ``cold`` the run's decisions that took
none and so solved from the controller's feasible start; all four are "-"
for the DDP. The counts are read from the trace, which records each hour's
decision in ``solve_iterations`` and ``warm_starts``: every
``n_hours // decisions``-th entry is one decision (every hour in an hourly
run, every 24th in a daily one), so a daily decision counts once, not 24
times. ``table``, on a DDP line only ("-" on the others), is a sha256 over
the backward pass's table (the bytes of the hour-0 ``values``, of
``first_free`` as one int64, of the free nodes' ``policy`` and of the
``collapsed_release`` of the others, then ``out_of_grid`` as decimal
text), computed again with the CLI's defaults from the series
the CLI read (``scenario.load_timeseries`` of the member's CSV files):
the forward trace visits few of the table's nodes, so a change that moves
the table elsewhere shows only here. The package is imported from this
checkout's ``src/``, and the benchmark's modules are only read.

Run it in two checkouts and diff the output:

    python3 tools/trace_digests.py > a.txt   # in each checkout
    diff a.txt b.txt

``--save DIR`` also writes each run's releases and storages to DIR, one
``.npz`` file per run. ``--against DIR`` adds a last column, ``against``:
the largest |difference| of the run's releases and storages from those
saved in DIR, as a share of the saved series' scale, for every run,
jittered members included ("missing" when DIR holds no such run). So, to
compare two checkouts' traces to the last bit that moved:

    python3 tools/trace_digests.py --save /tmp/base      # in the first
    python3 tools/trace_digests.py --against /tmp/base   # in the second
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from source import use_checkout_source  # noqa: E402

use_checkout_source()

import gate  # noqa: E402
import workloads  # noqa: E402
from lakempc import ddp, hydrology, scenario  # noqa: E402

SEEDS = (0, workloads.HELD_OUT_SEED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, metavar="DIR", help="write each run's series to DIR")
    parser.add_argument(
        "--against", type=Path, metavar="DIR", help="compare each run's series with DIR's"
    )
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    log = workloads.DecisionLog()
    log.install()
    capture = workloads.TraceCapture()
    capture.install()
    with tempfile.TemporaryDirectory(prefix="trace-digests-") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            reference = gate.load_reference(name)
            for seed in SEEDS:
                work_dir = Path(tmp) / f"{name}-seed{seed}"
                for j, member in enumerate(workloads.build_members(workload, seed, work_dir)):
                    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's messages
                        runs = workloads.run_member(workload, member, log, capture)
                    for run in runs:
                        line = _line(name, seed, j, member, run, reference)
                        if run.trace is not None:
                            line += _compare(f"{name}-{seed}-{j}-{run.label}.npz", run, args)
                        print(line)
    return 0


def _compare(file_name: str, run, args) -> str:
    """Save the run's series under --save, and return its --against column
    (with its leading space), or ""."""
    series = {
        f"{run.label}.{key}": np.asarray(getattr(run.trace, key), dtype=float)
        for key in gate.REFERENCE_SERIES
    }
    if args.save is not None:
        np.savez(args.save / file_name, **series)
    if args.against is None:
        return ""
    path = args.against / file_name
    if not path.is_file():
        return " missing"
    with np.load(path) as saved:
        deviation = gate.reference_deviation(run.trace, dict(saved), run.label)
    return f" {max(deviation.values()):.3e}"


def _line(name, seed, j, member, run, reference) -> str:
    trace = run.trace
    if trace is None:
        return f"{name} {seed} {j} {run.label} exit={run.exit_code}"
    deviation = ["-", "-"]
    if member.jitter_seed is None:
        dev = gate.reference_deviation(trace, reference, run.label)
        deviation = [f"{dev[series]:.3e}" for series in gate.REFERENCE_SERIES]
    total = worst = warm = cold = "-"
    if run.is_mpc:
        every = trace.n_hours // (run.decisions.stop - run.decisions.start)
        counts = trace.solve_iterations[::every]
        total, worst = str(counts.sum()), str(counts.max())
        warm = str(int(trace.warm_starts.sum()))
        cold = str(int((~trace.warm_starts[::every]).sum()))
    cost = f"{workloads.control_cost(trace):.17g}"
    digest = workloads.trace_digest(trace)
    table = _table_digest(member) if run.label == "ddp" else "-"
    fields = [
        name, str(seed), str(j), run.label, digest, *deviation, cost, total, worst, warm, cold, table
    ]
    return " ".join(fields)


def _table_digest(member) -> str:
    """sha256 over the DDP table of the member's CSV series, as ``lakempc ddp``
    builds it with no config file."""
    inflow = scenario.load_timeseries(member.inflow_csv, "inflow_hourly")
    demand = scenario.load_timeseries(member.demand_csv, "demand_hourly")
    table = ddp.backward_induction(hydrology.LakeParams(), ddp.DdpConfig(), inflow, demand)
    h = hashlib.sha256()
    for field in (table.values, np.int64(table.first_free), table.policy, table.collapsed_release):
        h.update(np.ascontiguousarray(field).tobytes())
    h.update(str(table.out_of_grid).encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
