"""In-memory span recorder wrapped around lakempc's public layer functions.

The wrappers are installed from the benchmark, never inside the package:
every module attribute of ``lakempc`` that is the original function object is
replaced by a wrapper that records one span (name, start, end, parent span,
request) and, for a few functions, a small summary of the returned value.
Spans stay in memory until :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (span name, module, attribute). The attribute is looked up in the module
# at install time; every lakempc module holding the same object is patched,
# so calls through re-exports and ``from x import y`` bindings are seen too.
LAYER_FUNCTIONS = (
    ("hydrology.step_hourly", "lakempc.hydrology", "step_hourly"),
    ("mpc.run_hourly", "lakempc.mpc", "run_hourly"),
    ("mpc.run_daily", "lakempc.mpc", "run_daily"),
    ("mpc.solve_step", "lakempc.mpc", "solve_step"),
    ("mpc.assemble_qp", "lakempc.mpc", "assemble_qp"),
    ("qp.solve", "lakempc.qp", "solve"),
    ("qp.phase1", "lakempc.qp", "linprog"),
    ("ddp.backward", "lakempc.ddp", "backward_induction"),
    ("ddp.forward", "lakempc.ddp", "simulate_policy"),
    ("scenario.synthetic_year", "lakempc.scenario", "synthetic_year"),
    ("scenario.load_timeseries", "lakempc.scenario", "load_timeseries"),
    ("metrics.compute_report", "lakempc.metrics", "compute_report"),
    ("cli.cli_main", "lakempc.cli", "cli_main"),
    ("cli.write_trace_csv", "lakempc.cli", "write_trace_csv"),
    ("cli.write_report_files", "lakempc.cli", "write_report_files"),
    ("cli.write_level_plotdata", "lakempc.cli", "write_level_plotdata"),
)

CLI_WRITERS = ("cli.write_trace_csv", "cli.write_report_files", "cli.write_level_plotdata")
LOOPS = ("mpc.run_hourly", "mpc.run_daily")


def _solve_info(solution):
    return (solution.iterations, solution.kkt_residual)


def _step_info(step):
    return bool(step.recovery_used)


def _table_info(table):
    return (table.out_of_grid, table.n_steps)


RESULT_INFO = {
    "qp.solve": _solve_info,
    "mpc.solve_step": _step_info,
    "ddp.backward": _table_info,
}

# A span is a list [name, start_ns, end_ns, parent index, request, info].
NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    """Records nested spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info_of = RESULT_INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info_of is not None:
                span[INFO] = info_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS wherever lakempc binds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "lakempc"]
        for name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        """Put back every function :meth:`install` replaced."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "request", "info"],
                 "spans": self.spans},
                handle,
            )

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by direct child spans, in seconds."""
        dur = np.array([s[END] - s[START] for s in self.spans], dtype=float) * 1e-9
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        return own

    def layer_metrics(self, timed_wall_s: float) -> tuple[dict, dict]:
        """Per-layer metrics, and each wrapped function's share of the timed wall time.

        Only spans of the timed runs (request starting with "run") count.
        """
        spans = self.spans
        own = self.self_times()
        dur = np.array([s[END] - s[START] for s in spans], dtype=float) * 1e-9
        timed = np.array([s[REQUEST].startswith("run") for s in spans], dtype=bool)
        names = np.array([s[NAME] for s in spans], dtype=object)

        def pick(name):
            return np.where(timed & (names == name))[0]

        solves = pick("qp.solve")
        has_phase1 = np.zeros(len(spans), dtype=bool)
        for i in pick("qp.phase1"):
            has_phase1[spans[i][PARENT]] = True
        iters = np.array([spans[i][INFO][0] for i in solves], dtype=float)
        kkt = np.array([spans[i][INFO][1] for i in solves], dtype=float)
        solve_ms = dur[solves] * 1e3
        phase1 = pick("qp.phase1")
        assemble = pick("mpc.assemble_qp")
        steps = pick("mpc.solve_step")
        plant = pick("hydrology.step_hourly")
        backward = pick("ddp.backward")
        stages = sum(spans[i][INFO][1] for i in backward)
        loops = np.concatenate([pick(n) for n in LOOPS])
        writers = np.concatenate([pick(n) for n in CLI_WRITERS])

        def pct(values, q):
            return float(np.percentile(values, q)) if values.size else 0.0

        def per(total, count, scale):
            return float(total) / count * scale if count else 0.0

        metrics = {
            "qp.phase1.calls": (int(phase1.size), "count"),
            "qp.phase1.s": (float(dur[phase1].sum()), "s"),
            "qp.hint_accept_frac": (
                per(np.sum(~has_phase1[solves]), solves.size, 1.0), "frac"),
            "qp.solve.calls": (int(solves.size), "count"),
            "qp.solve.self_s": (float(own[solves].sum()), "s"),
            "qp.solve.ms_p50": (pct(solve_ms, 50), "ms"),
            "qp.solve.ms_p95": (pct(solve_ms, 95), "ms"),
            "qp.solve.iters_total": (int(iters.sum()), "count"),
            "qp.solve.iters_p50": (pct(iters, 50), "count"),
            "qp.solve.iters_max": (int(iters.max(initial=0)), "count"),
            "qp.solve.us_per_iter": (per(own[solves].sum(), iters.sum(), 1e6), "us"),
            "qp.solve.single_iter_frac": (per(np.sum(iters == 1), solves.size, 1.0), "frac"),
            "qp.solve.single_iter_ms_p50": (pct(solve_ms[iters == 1], 50), "ms"),
            "qp.solve.kkt_max": (float(kkt.max(initial=0.0)), "1"),
            "mpc.assemble_qp.calls": (int(assemble.size), "count"),
            "mpc.assemble_qp.us_per_call": (per(dur[assemble].sum(), assemble.size, 1e6), "us"),
            "mpc.solve_step.self_s": (float(own[steps].sum()), "s"),
            "mpc.solve_step.recovery_calls": (int(sum(spans[i][INFO] for i in steps)), "count"),
            "mpc.loop.self_s": (float(own[loops].sum()), "s"),
            "hydrology.step_hourly.calls": (int(plant.size), "count"),
            "hydrology.step_hourly.us_per_call": (per(dur[plant].sum(), plant.size, 1e6), "us"),
            "ddp.backward.s": (float(dur[backward].sum()), "s"),
            "ddp.backward.stage_us": (per(dur[backward].sum(), stages, 1e6), "us"),
            "ddp.backward.out_of_grid": (int(sum(spans[i][INFO][0] for i in backward)), "count"),
            "ddp.forward.s": (float(dur[pick("ddp.forward")].sum()), "s"),
            "scenario.load_timeseries.s": (float(dur[pick("scenario.load_timeseries")].sum()), "s"),
            "cli.write_outputs.s": (float(dur[writers].sum()), "s"),
            "metrics.compute_report.s": (float(dur[pick("metrics.compute_report")].sum()), "s"),
        }

        shares: dict[str, float] = {}
        for i in np.where(timed)[0]:
            shares[spans[i][NAME]] = shares.get(spans[i][NAME], 0.0) + own[i]
        covered = sum(shares.values())
        shares = {k: v / timed_wall_s for k, v in sorted(shares.items())}
        shares["outside spans"] = max(timed_wall_s - covered, 0.0) / timed_wall_s
        return metrics, shares
