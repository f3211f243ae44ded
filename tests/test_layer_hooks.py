"""The benchmark in perfbench/ wraps lakempc functions by module and name,
and reads a few attributes of what some of them return.

A renamed function or attribute would crash every traced benchmark run, so
both are checked here against this checkout.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lakempc import ddp, mpc, qp
from lakempc.hydrology import LakeParams, storage_of_level
from lakempc.scenario import synthetic_year

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _layer_functions():
    return [(module, attr) for _, module, attr in _tracer().LAYER_FUNCTIONS]


# workloads.py replaces these two module attributes to time decisions and
# capture CLI traces.
PATCHED = [("lakempc.mpc", "solve_step"), ("lakempc.cli", "write_trace_csv")]


@pytest.mark.parametrize("module, attr", _layer_functions() + PATCHED)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_import_leaves_scipy_optimize_unloaded():
    # qp.linprog is imported only when asked for. The check runs in a fresh
    # interpreter, because the tests' helpers import scipy.optimize.
    src = Path(qp.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", "import sys, lakempc; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


def test_unknown_qp_attribute_raises():
    with pytest.raises(AttributeError, match="'lakempc.qp' has no attribute 'no_such_name'"):
        qp.no_such_name


def test_result_readers_accept_real_results():
    # Each of the tracer's RESULT_INFO functions on a result of its layer:
    # the solution of a recovery step (a lake 100 m^3 above the dry bound
    # with no inflow cannot release the minimum), and a 1-day DDP table.
    info = _tracer().RESULT_INFO
    assert set(info) == {"qp.solve", "mpc.solve_step", "ddp.backward"}
    params = LakeParams()
    s0 = mpc._storage_bounds(params)[0] + 100.0
    step = mpc.solve_step(params, mpc.MpcConfig(horizon=6), s0, np.zeros(6), np.zeros(6))
    assert info["mpc.solve_step"](step) is True
    iterations, kkt = info["qp.solve"](step.solve_diagnostics)
    assert iterations >= 1 and 0.0 <= kkt <= qp.KKT_TOL
    scn = synthetic_year(1)
    table = ddp.backward_induction(params, ddp.DdpConfig(), scn.inflow_hourly, scn.demand_hourly)
    out_of_grid, n_steps = info["ddp.backward"](table)
    assert n_steps == 24 and out_of_grid >= 0


@pytest.mark.parametrize("mode", ["hourly", "daily"])
def test_each_decision_calls_each_wrapped_layer_once(monkeypatch, mode):
    # workloads.DecisionLog wraps mpc.solve_step, and the tracer wraps
    # mpc.assemble_qp and qp.solve, each by replacing the module attribute.
    # A decision that reached one of them by another name would leave the
    # benchmark's decision log or its layer spans short.
    events = []
    for module, attr in ((mpc, "solve_step"), (mpc, "assemble_qp"), (qp, "solve")):
        def counting(*args, _inner=getattr(module, attr), _name=attr, **kwargs):
            events.append(f"{_name} in")
            result = _inner(*args, **kwargs)
            events.append(f"{_name} out")
            return result

        monkeypatch.setattr(module, attr, counting)
    params, config = LakeParams(), mpc.MpcConfig()
    if mode == "hourly":
        scn, decisions = synthetic_year(2, first_day=104), 12
        trace = mpc.run_hourly(params, config, scn, storage_of_level(params, 1.08), n_steps=12)
    else:
        scn, decisions = synthetic_year(3), 3
        trace = mpc.run_daily(params, config, scn, storage_of_level(params, 0.4))
    assert set(trace.solve_statuses) == {"optimal"}
    decision = [
        "solve_step in", "assemble_qp in", "assemble_qp out", "solve in", "solve out",
        "solve_step out",
    ]
    assert events == decision * decisions
