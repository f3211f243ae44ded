"""The benchmark in perfbench/ wraps lakempc functions by module and name.

A renamed function would crash every traced benchmark run, so the names are
checked here against this checkout.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr in tracer.LAYER_FUNCTIONS]


# workloads.py replaces these two module attributes to time decisions and
# capture CLI traces.
PATCHED = [("lakempc.mpc", "solve_step"), ("lakempc.cli", "write_trace_csv")]


@pytest.mark.parametrize("module, attr", _layer_functions() + PATCHED)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
