"""Run the week-long horizon on days 90-169 and print its cost and counts.

    python3 tools/long_horizon.py

The script runs ``mpc.run_hourly`` at ``MpcConfig(horizon=168)`` on
``synthetic_year(80, first_day=90)`` from 0.4 m, every one of its 1752
decisions (1920 hours less the horizon), and prints one ``name value`` line
for each of:

- ``wall_s``: the run's wall time, counters included (they wrap a few
  thousand calls, each far cheaper than the solve around it);
- ``iterations``: the active-set iterations of every decision, a
  candidate the solve took counting one; ``cold_hours``, the decisions that
  took no candidate (``trace.warm_starts``), and ``cold_iterations``, theirs;
- ``np_linalg_qr``, ``affine_law``, ``qr_insert`` and ``qr_delete``: the
  calls of ``np.linalg.qr`` (a working set's first complete QR),
  ``qp._affine_law`` (a candidate's first law) and scipy's QR updates;
- ``drops``: the working rows the cold solves dropped, each solve's start
  rows plus its inserts less its final rows, and ``last_row_slices``, those
  that took the last working row and so sliced R without a ``qr_delete``;
- ``peak_rss_mb``: the process's peak resident set (``ru_maxrss``);
- ``sha256``: of the releases' bytes, then the storages'.

The package is imported from this checkout's ``src/``, with one BLAS thread
unless the environment sets another count. Run it in two checkouts and
compare the lines: equal ``sha256`` lines are equal traces to the last bit.
On a shared machine the wall time of one run can move by a tenth, so run
the checkouts in turn a few times.
"""

from __future__ import annotations

import collections
import hashlib
import os
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lakempc  # noqa: E402
from lakempc import hydrology, mpc, qp, scenario  # noqa: E402

if Path(lakempc.__file__).resolve().parent != SRC / "lakempc":
    raise SystemExit(f"long_horizon: lakempc imported from {lakempc.__file__}, not {SRC}")

HORIZON, FIRST_DAY, DAYS, LEVEL = 168, 90, 80, 0.4
COUNTED = (
    ("np_linalg_qr", np.linalg, "qr"),
    ("affine_law", qp, "_affine_law"),
    ("qr_insert", qp, "_qr_insert"),
    ("qr_delete", qp, "_qr_delete"),
)


def counted_run() -> tuple:
    """The run's trace, its wall time in seconds and its counts."""
    counts = collections.Counter()
    for label, owner, name in COUNTED:
        def counting(*args, _inner=getattr(owner, name), _label=label, **kwargs):
            counts[_label] += 1
            return _inner(*args, **kwargs)
        setattr(owner, name, counting)

    start_rows = []
    start_factor, solve = qp._start_factor, qp.solve

    def recording_start(structure, key, law=False):
        entry = start_factor(structure, key, law)
        if not law:
            start_rows.append(entry[1].size)
        return entry

    def recording_solve(*args, **kwargs):
        inserts = counts["qr_insert"]
        solution = solve(*args, **kwargs)
        if not solution.warm_start:
            inserted = counts["qr_insert"] - inserts
            counts["drops"] += start_rows[-1] + inserted - len(solution.working_set)
        return solution

    qp._start_factor, qp.solve = recording_start, recording_solve
    params = hydrology.LakeParams()
    began = time.perf_counter()
    trace = mpc.run_hourly(
        params, mpc.MpcConfig(horizon=HORIZON),
        scenario.synthetic_year(DAYS, first_day=FIRST_DAY),
        hydrology.storage_of_level(params, LEVEL),
    )
    return trace, time.perf_counter() - began, counts


def main() -> None:
    trace, wall, counts = counted_run()
    cold = ~trace.warm_starts
    digest = hashlib.sha256(trace.releases.tobytes() + trace.storages.tobytes()).hexdigest()
    lines = [
        ("decisions", trace.releases.size),
        ("wall_s", f"{wall:.2f}"),
        ("iterations", int(trace.solve_iterations.sum())),
        ("cold_hours", int(cold.sum())),
        ("cold_iterations", int(trace.solve_iterations[cold].sum())),
        *((label, counts[label]) for label, _, _ in COUNTED),
        ("drops", counts["drops"]),
        ("last_row_slices", counts["drops"] - counts["qr_delete"]),
        ("peak_rss_mb", f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}"),
        ("sha256", digest),
    ]
    for name, value in lines:
        print(f"{name:<16} {value}")


if __name__ == "__main__":
    main()
