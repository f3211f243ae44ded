"""Benchmark launcher for lakempc: the paper's experiments, end to end and per layer.

    python3 perfbench/run.py --workload hourly-drawdown --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Workloads (see RATIONALE.md): hourly-drawdown, hourly-flood, cli-offline-year.
Every measured process is a fresh worker.py with one BLAS thread.

--trace 0 runs the members for --seconds with no wrapper but the decision
timer and the calibration timer (calibrate.py), then repeats the set-up in
fresh processes, and reports the end-to-end metrics. --trace 1 runs the
members once untraced and once with every layer function wrapped, checks
that both give bit-identical traces, and reports the per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. Lines before it give each metric with
its unit and sample count, and a JSON record of the seed, the environment
and the per-run details. ``--workload all`` runs every workload in both
modes and writes .bench_out/summary.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from source import OUT, ROOT, SRC

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("hourly-drawdown", "hourly-flood", "cli-offline-year")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "sim_hours_per_s": "h/s",
    "decision_ms_p50": "ms",
    "decision_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "control_cost": "1",
}


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          *extra: str) -> tuple[dict, float]:
    """Run worker.py to completion; return its result and its spawn time."""
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result_path), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    try:
        with result_path.open(encoding="utf-8") as handle:
            return json.load(handle), started
    finally:
        result_path.unlink(missing_ok=True)


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return None
        return f"{deps.get('name')} {deps.get('version')}"

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace == 0:
        main, started = spawn(workload, seed, seconds, 0, deadline)
        probes = [(main, started)] + [
            spawn(workload, seed, seconds, 0, deadline, "--setup-only")
            for _ in range(SETUP_SAMPLES - 1)
        ]
        raw_setups = [r["ready_monotonic"] - t for r, t in probes]
        setups = [s * r["setup_scale"] for s, (r, _) in zip(raw_setups, probes)]
        # Times at the reference machine speed (calibrate.py); the raw
        # figures go to the record.
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "sim_hours_per_s": (main["hours"] / main["calibrated_s"],
                                main["cycles"] * main["members"]),
            "decision_ms_p50": (main["calibrated_decision_ms_p50"], main["decisions"]),
            "decision_ms_p95": (main["calibrated_decision_ms_p95"], main["decisions"]),
            "peak_rss_mb": (main["peak_rss_mb"], 1),
            "control_cost": (main["control_cost"], 1),
        }
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
        record["samples"] = {name: values[name][1] for name in END_TO_END}
        record["setup_samples_s"] = setups
        record["raw"] = {
            "setup_s": statistics.median(raw_setups),
            "sim_hours_per_s": main["hours"] / main["timed_s"],
            "decision_ms_p50": main["decision_ms_p50"],
            "decision_ms_p95": main["decision_ms_p95"],
        }
        identical = True
    else:
        main, _ = spawn(workload, seed, seconds, 1, deadline)
        identical = main["bit_identical"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in main["layers"].items()}
        record["layer_shares"] = main["layer_shares"]
        record["traces_bit_identical"] = identical
        record["samples"] = {"qp.solve": main["layers"]["qp.solve.calls"][0]}
    record["held_out_seed"] = main["held_out_seed"]
    for key in ("hours", "timed_s", "calibrated_s", "calibration_samples", "kernel_ms_p50",
                "traced_s", "spans_file", "cycles", "members", "member_jitter_seeds",
                "decisions", "control_cost", "ddp_cost", "failures"):
        if key in main:
            record[key] = main[key]
    record["environment"] = environment()
    attempted, failed = main["attempted"], main["failed"]
    record["failed_frac"] = failed / attempted if attempted else 1.0
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and attempted > 0 and identical,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def print_run(out: dict) -> None:
    samples = out["record"]["samples"]
    for name, metric in out["result"]["metrics"].items():
        n = samples.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{name:<34} {metric['value']:.6g} {metric['unit']}{suffix}")
    print(json.dumps({"record": out["record"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_run(out)
            print(json.dumps(out["result"]))
            return 0
        summary = {}
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                print(f"== {name} seed {args.seed} trace {trace}")
                out = run_workload(name, args.seed, args.seconds, trace)
                print_run(out)
                summary[f"{name}/trace{trace}"] = out
        path = OUT / "summary.json"
        path.write_text(json.dumps(summary, indent=1), encoding="utf-8")
        print(f"wrote {path}")
        return 0 if all(o["result"]["correct"] for o in summary.values()) else 1
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
