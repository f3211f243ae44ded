"""Record the reference traces the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs each workload's deterministic synthetic-year member once and stores the
releases and storages of every trace it produces in reference/<workload>.npz.
The committed files were recorded from the sources at commit 8814286, before
any performance work; a change that moves a trace beyond gate.REFERENCE_TOL
must explain why instead of re-recording.
"""

from __future__ import annotations

import os
import shutil

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from source import OUT, use_checkout_source  # noqa: E402

use_checkout_source()

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    log = workloads.DecisionLog()
    log.install()
    capture = workloads.TraceCapture()
    capture.install()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    work_dir = OUT / f"record-{os.getpid()}"
    try:
        for workload in workloads.WORKLOADS.values():
            member = workloads.build_members(workload, 0, work_dir)[0]
            arrays = {}
            for run in workloads.run_member(workload, member, log, capture):
                for series in gate.REFERENCE_SERIES:
                    arrays[f"{run.label}.{series}"] = np.asarray(getattr(run.trace, series))
            path = gate.REFERENCE_DIR / f"{workload.name}.npz"
            np.savez_compressed(path, **arrays)
            print(f"wrote {path} ({', '.join(sorted(arrays))})")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
