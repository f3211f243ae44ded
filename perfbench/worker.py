"""One measured process of the benchmark; started by run.py, not by hand.

Builds the workload's inputs (set-up), runs its members in the timed region,
applies the correctness gate and writes its raw figures as JSON to --result.

With --trace 1 every member runs twice in a row, first plain and then with
the layer functions wrapped by tracer.Tracer; alternating member by member
keeps drift in the machine's speed out of the tracing overhead. The spans
are written next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from source import OUT, use_checkout_source  # noqa: E402

use_checkout_source()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        if tracer is not None:
            tracer.install()
        members = workloads.build_members(workload, args.seed, work_dir)
        if tracer is not None:
            tracer.uninstall()
        ready = time.monotonic()
        setup_scale = calibrate.speed_factor()
        result = {} if args.setup_only else measure(args, workload, members, tracer)
        result["ready_monotonic"] = ready
        result["setup_scale"] = setup_scale
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def measure(args, workload, members, tracer) -> dict:
    log = workloads.DecisionLog()
    log.install()
    capture = workloads.TraceCapture()
    capture.install()
    if tracer is None:
        cycles, result = run_timed(args.seconds, workload, members, log, capture)
    else:
        cycles, result = run_traced(tracer, workload, members, log, capture)
        result["spans_file"] = str(OUT / f"spans-{workload.name}-seed{args.seed}.json")
        tracer.dump(result["spans_file"])

    reference = gate.load_reference(workload.name)
    verdict = gate.Verdict()
    hours = 0
    for c, cycle in enumerate(cycles):
        for j, (member, runs) in enumerate(zip(members, cycle)):
            ref = reference if member.jitter_seed is None else None
            for run in runs:
                gate.judge_run(run, log.statuses, log.kkt, ref, verdict, f"cycle {c} member {j}")
                hours += run.trace.n_hours if run.trace is not None else 0
    first = {run.label: run.trace for run in cycles[0][0]}
    result.update({
        "held_out_seed": workloads.HELD_OUT_SEED,
        "cycles": len(cycles),
        "members": len(members),
        "member_jitter_seeds": [m.jitter_seed for m in members],
        "hours": hours,
        "decisions": len(log),
        "control_cost": workloads.control_cost(first["mpc-daily" if "ddp" in first else "mpc-hourly"]),
        "ddp_cost": workloads.control_cost(first["ddp"]) if "ddp" in first else None,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "failures": verdict.reasons,
    })
    if tracer is not None:
        result["layers"]["ddp.trace_cost"] = (result["ddp_cost"] or 0.0, "1")
    return result


def run_timed(seconds, workload, members, log, capture):
    """Whole cycles over the members until the next one would overrun
    ``seconds``; always at least one. Times are also given at reference speed."""
    cycles = []
    wall = 0.0
    with calibrate.Calibrator() as calibrator:
        while True:
            t0 = time.perf_counter()
            cycles.append([workloads.run_member(workload, m, log, capture) for m in members])
            last = time.perf_counter() - t0
            if len(cycles) == 1:
                # Later cycles repeat the same work; only the traces they keep add memory.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall += last
            if wall + last > seconds:
                break
    timed_s, calibrated_s = calibrator.raw_and_calibrated()
    raw_s, ref_s = calibrator.calibrate_intervals(log.starts, log.seconds)
    kernel_s = np.subtract(calibrator.ends, calibrator.starts)
    return cycles, {
        "timed_s": timed_s,
        "calibrated_s": calibrated_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_samples": int(kernel_s.size),
        "kernel_ms_p50": 1e3 * float(np.median(kernel_s)),
        "decision_ms_p50": 1e3 * float(np.percentile(raw_s, 50)),
        "decision_ms_p95": 1e3 * float(np.percentile(raw_s, 95)),
        "calibrated_decision_ms_p50": 1e3 * float(np.percentile(ref_s, 50)),
        "calibrated_decision_ms_p95": 1e3 * float(np.percentile(ref_s, 95)),
    }


def run_traced(tracer, workload, members, log, capture):
    """Each member plain, then traced; the two traces must be bit-identical."""
    # Untimed warm-up, so that first-call costs (lazy imports inside scipy,
    # first CSV writes) do not land on the first plain run.
    workloads.run_member(workload, members[0], log, capture)
    cycles = [[], []]
    plain_s = traced_s = 0.0
    for j, member in enumerate(members):
        t0 = time.perf_counter()
        cycles[0].append(workloads.run_member(workload, member, log, capture))
        t1 = time.perf_counter()
        tracer.request = f"run:{j}"
        tracer.install()
        t2 = time.perf_counter()
        cycles[1].append(workloads.run_member(workload, member, log, capture))
        t3 = time.perf_counter()
        tracer.uninstall()
        plain_s += t1 - t0
        traced_s += t3 - t2
    plain, traced = (
        [workloads.trace_digest(run.trace) if run.trace else None
         for runs in cycle for run in runs]
        for cycle in cycles
    )
    layers, shares = tracer.layer_metrics(traced_s)
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    return cycles, {
        "timed_s": plain_s,
        "traced_s": traced_s,
        "bit_identical": plain == traced,
        "layers": layers,
        "layer_shares": shares,
    }


if __name__ == "__main__":
    sys.exit(main())
