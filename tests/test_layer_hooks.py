"""The benchmark in perfbench/ wraps lakempc functions by module and name,
and reads a few attributes of what some of them return.

A renamed function or attribute would crash every traced benchmark run, so
both are checked here against this checkout.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lakempc import ddp, mpc, qp
from lakempc.hydrology import LakeParams
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
