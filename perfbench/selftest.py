"""Self-test of the benchmark's gate, tracer and calibration (takes a second).

    python3 perfbench/selftest.py

Rebuilds the deterministic hourly-drawdown trace from its committed reference
and shows that the gate passes it, and that perturbing one release makes
every operation of the run count as failed. Also checks the tracer's self
times, the calibration arithmetic, and that the metrics run.py and the
tracer report are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import unittest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from source import ROOT, use_checkout_source  # noqa: E402

use_checkout_source()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import run as launcher  # noqa: E402
import workloads  # noqa: E402
from lakempc import hydrology, qp  # noqa: E402
from lakempc.trace import ClosedLoopTrace  # noqa: E402
from tracer import Tracer  # noqa: E402


def reference_run() -> tuple[workloads.Run, dict]:
    """The deterministic hourly-drawdown trace, rebuilt from the reference."""
    workload = workloads.WORKLOADS["hourly-drawdown"]
    reference = gate.load_reference(workload.name)
    scn = workloads.build_members(workload, 0, ROOT / ".bench_out")[0].scenario
    params = hydrology.LakeParams()
    storages = reference["mpc-hourly.storages"].copy()
    releases = reference["mpc-hourly.releases"].copy()
    n = releases.size
    trace = ClosedLoopTrace(
        levels=storages[1:] / params.surface_area + params.level_offset,
        storages=storages,
        releases=releases,
        commands=releases.copy(),
        inflows=scn.inflow_hourly[:n],
        demands=scn.demand_hourly[:n],
    )
    return workloads.Run("mpc-hourly", trace, True, slice(0, n)), reference


def judge(run, reference, statuses=None, kkt=None) -> gate.Verdict:
    n = run.decisions.stop
    verdict = gate.Verdict()
    gate.judge_run(
        run,
        statuses if statuses is not None else ["optimal"] * n,
        kkt if kkt is not None else [0.0] * n,
        reference,
        verdict,
        "selftest",
    )
    return verdict


class GateTest(unittest.TestCase):
    def test_reference_trace_passes(self):
        run, reference = reference_run()
        verdict = judge(run, reference)
        self.assertEqual((verdict.attempted, verdict.failed), (336, 0), verdict.reasons)

    def test_one_perturbed_release_fails_every_operation(self):
        run, reference = reference_run()
        run.trace.releases[100] += 1e-6
        for ref in (reference, None):  # the mass balance alone catches it too
            verdict = judge(run, ref)
            self.assertEqual(verdict.failed, verdict.attempted)
            self.assertIn("mass balance", verdict.reasons[0])
        self.assertIn("releases leave the reference", judge(run, reference).reasons[0])

    def test_reference_deviation_beyond_tolerance_fails(self):
        run, reference = reference_run()
        # A uniform shift leaves the mass balance intact but not the reference.
        run.trace.storages += 1e-8 * float(np.max(run.trace.storages))
        verdict = judge(run, reference)
        self.assertEqual(verdict.failed, verdict.attempted)
        self.assertIn("storages leave the reference", verdict.reasons[0])

    def test_level_below_dry_threshold_fails_mpc_trace(self):
        run, reference = reference_run()
        run.trace.levels[5] = hydrology.LakeParams().dry_threshold - 1e-8
        self.assertEqual(judge(run, None).failed, 336)
        run.is_mpc = False
        self.assertEqual(judge(run, None).failed, 0)

    def test_bad_decisions_fail_one_by_one(self):
        run, reference = reference_run()
        statuses = ["optimal"] * 336
        statuses[3] = "iteration-limit"
        kkt = [0.0] * 336
        kkt[7] = 2.0 * qp.KKT_TOL
        kkt[9] = float("nan")
        verdict = judge(run, reference, statuses, kkt)
        self.assertEqual((verdict.attempted, verdict.failed), (336, 3))

    def test_failed_command_fails_its_operations(self):
        run, reference = reference_run()
        run.exit_code = 1
        verdict = judge(run, reference)
        self.assertEqual((verdict.attempted, verdict.failed), (337, 337))


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        tracer = Tracer()
        tracer.request = "run:0:0"
        inner = tracer.wrap("test.inner", lambda: None)

        def body():
            inner()
            inner()

        outer = tracer.wrap("test.outer", body)
        outer()
        own = tracer.self_times()
        total = [(s[2] - s[1]) * 1e-9 for s in tracer.spans]
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertAlmostEqual(own[0], total[0] - total[1] - total[2], places=12)


class CalibratorTest(unittest.TestCase):
    def test_kernel_time_is_cut_out_and_stretches_are_scaled(self):
        cal = calibrate.Calibrator()
        # Kernel runs of 1 s at t = 0, 10 and 20 (2x the reference time at t = 20).
        cal.starts, cal.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 22.0]
        ref = calibrate.KERNEL_REF_S
        raw, scaled = cal.raw_and_calibrated()
        self.assertAlmostEqual(raw, 18.0)
        self.assertAlmostEqual(scaled, 9.0 * ref + 9.0 * ref / 1.5)
        raw, scaled = cal.calibrate_intervals([5.0, 12.0], [10.0, 3.0])
        np.testing.assert_allclose(raw, [9.0, 3.0])  # the first one spans a kernel run
        np.testing.assert_allclose(scaled, [9.0 * ref, 3.0 * ref / 1.5])


class DeclarationTest(unittest.TestCase):
    def test_reported_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(list(launcher.WORKLOAD_NAMES), list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, launcher.END_TO_END)
        layers, _ = Tracer().layer_metrics(1.0)
        names = set(layers) | {"ddp.trace_cost", "trace.overhead_frac"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)


if __name__ == "__main__":
    unittest.main()
