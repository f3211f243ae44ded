"""Print one line per benchmark run, to compare closed-loop traces across checkouts.

For every member of the three benchmark workloads at seeds 0 and 7919, the
script runs the member through ``perfbench/workloads.run_member`` and prints,
per run (an hourly MPC run, or the CLI's DDP and daily MPC runs):

    workload seed member label digest rel_dev stor_dev control_cost iterations warm

``digest`` is ``workloads.trace_digest`` (equal digests, equal bits),
``rel_dev`` and ``stor_dev`` the member-0 deviation of releases and storages
from ``perfbench/reference/`` as a share of scale ("-" for jittered members),
``control_cost`` the paper's objective to 17 digits, ``iterations`` the
active-set iterations of the run's decisions, summed, and ``warm`` the
run's hours whose decision took a candidate working set
(``trace.warm_starts.sum()``); both are "-" for the DDP. The package is
imported from this checkout's ``src/``, and the benchmark's modules are
only read.

Run it in two checkouts and diff the output:

    python3 tools/trace_digests.py > a.txt   # in each checkout
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.dont_write_bytecode = True  # leave no cache under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from source import use_checkout_source  # noqa: E402

use_checkout_source()

import gate  # noqa: E402
import workloads  # noqa: E402
from lakempc import mpc  # noqa: E402

SEEDS = (0, workloads.HELD_OUT_SEED)


def main() -> int:
    log = workloads.DecisionLog()
    log.install()
    capture = workloads.TraceCapture()
    capture.install()
    iterations = _count_iterations()
    with tempfile.TemporaryDirectory(prefix="trace-digests-") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            reference = gate.load_reference(name)
            for seed in SEEDS:
                work_dir = Path(tmp) / f"{name}-seed{seed}"
                for j, member in enumerate(workloads.build_members(workload, seed, work_dir)):
                    with contextlib.redirect_stdout(io.StringIO()):  # the CLI's messages
                        runs = workloads.run_member(workload, member, log, capture)
                    for run in runs:
                        print(_line(name, seed, j, member, run, reference, iterations))
    return 0


def _count_iterations() -> list[int]:
    """Wrap mpc.solve_step (over the benchmark's own wrapper) to record each
    decision's active-set iterations, in the order of the benchmark's log."""
    inner = mpc.solve_step
    counts = []

    def counting(*args, **kwargs):
        step = inner(*args, **kwargs)
        counts.append(step.solve_diagnostics.iterations)
        return step

    mpc.solve_step = counting
    return counts


def _line(name, seed, j, member, run, reference, iterations) -> str:
    trace = run.trace
    if trace is None:
        return f"{name} {seed} {j} {run.label} exit={run.exit_code}"
    deviation = ["-", "-"]
    if member.jitter_seed is None:
        dev = gate.reference_deviation(trace, reference, run.label)
        deviation = [f"{dev[series]:.3e}" for series in gate.REFERENCE_SERIES]
    total = str(sum(iterations[run.decisions])) if run.is_mpc else "-"
    warm = str(int(trace.warm_starts.sum())) if run.is_mpc else "-"
    cost = f"{workloads.control_cost(trace):.17g}"
    digest = workloads.trace_digest(trace)
    return " ".join([name, str(seed), str(j), run.label, digest, *deviation, cost, total, warm])


if __name__ == "__main__":
    sys.exit(main())
