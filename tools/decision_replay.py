"""Time every decision of three runs again, split by solver path.

    python3 tools/decision_replay.py

The script records each decision of three runs through a wrapper on
``mpc.solve_step``: the daily year from 0.4 m (``run_daily`` on
``synthetic_year()``, the decisions of ``cli-offline-year``), days 104-120
from 1.08 m and days 182-196 from 0.29 m (``run_hourly``, the windows of
``hourly-flood`` and ``hourly-drawdown``). Then, in the same process, it
calls ``solve_step`` again with each decision's arguments REPEATS (20)
times and keeps the least wall time. The structure every run shares is warm
by then, so no replay pays a first QR or a first affine law.

A decision is warm when it took a candidate working set
(``QpSolution.warm_start``) and cold when it solved from the controller's
feasible start. For each run the script prints the count, the median and
the 95th percentile (numpy's linear percentiles) in microseconds of the
warm decisions, of the cold ones, and of the cold ones by their active-set
iterations. These per-path figures separate changes that end-to-end pairs
of benchmark runs, whose spread is wider, cannot. A replay that does not
take the recorded path (warm or cold, and its iterations) stops the script.

The package is imported from this checkout's ``src/``, with one BLAS thread
unless the environment sets another count; nothing under ``perfbench/`` is
read or changed. Run it in two checkouts and compare the lines. On a shared
machine one process's figures can sit 50 % above the next one's, so run
the two checkouts in turn several times and compare the medians of their
lines.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lakempc  # noqa: E402
from lakempc import hydrology, mpc, scenario  # noqa: E402

if Path(lakempc.__file__).resolve().parent != SRC / "lakempc":
    raise SystemExit(f"decision_replay: lakempc imported from {lakempc.__file__}, not {SRC}")

REPEATS = 20
# (name, run function, first day, days, start level in m)
RUNS = (
    ("daily-year", mpc.run_daily, 0, 366, 0.4),
    ("hourly-104", mpc.run_hourly, 104, 17, 1.08),
    ("hourly-182", mpc.run_hourly, 182, 15, 0.29),
)


def record(run, first_day: int, days: int, level: float) -> list[tuple]:
    """(args, kwargs, warm_start, iterations) of every decision of one run."""
    params = hydrology.LakeParams()
    decisions = []
    inner = mpc.solve_step

    def recording(*args, **kwargs):
        step = inner(*args, **kwargs)
        solution = step.solve_diagnostics
        decisions.append((args, kwargs, solution.warm_start, solution.iterations))
        return step

    mpc.solve_step = recording
    try:
        run(
            params, mpc.MpcConfig(), scenario.synthetic_year(days, first_day=first_day),
            hydrology.storage_of_level(params, level),
        )
    finally:
        mpc.solve_step = inner
    return decisions


def replay(decisions: list[tuple], repeats: int) -> list[float]:
    """The least of repeats wall times of each decision, in microseconds."""
    times = []
    for args, kwargs, warm, iterations in decisions:
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            step = mpc.solve_step(*args, **kwargs)
            best = min(best, time.perf_counter() - start)
        solution = step.solve_diagnostics
        if (solution.warm_start, solution.iterations) != (warm, iterations):
            raise SystemExit("decision_replay: a replay left the recorded path")
        times.append(1e6 * best)
    return times


def main() -> None:
    recorded = [(name, record(run, *window)) for name, run, *window in RUNS]
    print(f"{'run':<12} {'path':<10} {'n':>5} {'p50_us':>9} {'p95_us':>9}")
    for name, decisions in recorded:
        times = np.array(replay(decisions, REPEATS))
        warm = np.array([d[2] for d in decisions])
        iterations = np.array([d[3] for d in decisions])
        groups = [("warm", warm), ("cold", ~warm)]
        groups += [(f"cold/{k}it", ~warm & (iterations == k)) for k in np.unique(iterations[~warm])]
        for path, mask in groups:
            if mask.any():
                p50, p95 = np.percentile(times[mask], [50, 95])
                print(f"{name:<12} {path:<10} {int(mask.sum()):>5} {p50:>9.1f} {p95:>9.1f}")


if __name__ == "__main__":
    main()
