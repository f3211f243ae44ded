"""Shared fixtures. The heavy closed-loop runs are session-scoped so the
acceptance criteria can share one simulation of the synthetic year."""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from lakempc import ddp, hydrology, metrics, mpc, scenario


@pytest.fixture(scope="session")
def params() -> hydrology.LakeParams:
    return hydrology.LakeParams()


@pytest.fixture(scope="session")
def year_scenario() -> scenario.Scenario:
    # 366 days so 8760 hourly steps all see a full 24 h of lookahead.
    return scenario.synthetic_year(366)


@pytest.fixture(scope="session")
def year_mpc(params, year_scenario):
    """Hourly MPC (lam=1) over the synthetic year: 8760 steps, timed."""
    config = mpc.MpcConfig()
    s0 = hydrology.storage_of_level(params, 0.4)
    start = time.perf_counter()
    trace = mpc.run_hourly(params, config, year_scenario, s0, n_steps=8760)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(trace=trace, config=config, s0=s0, elapsed=elapsed)


@pytest.fixture(scope="session")
def year_ddp(params, year_scenario, year_mpc):
    """DDP benchmark on the same 8760 hours, default weights and grid."""
    config = ddp.DdpConfig()
    inflow = year_scenario.inflow_hourly[:8760]
    demand = year_scenario.demand_hourly[:8760]
    table = ddp.backward_induction(params, config, inflow, demand)
    trace = ddp.simulate_policy(params, table, inflow, demand, year_mpc.s0)
    return SimpleNamespace(trace=trace, config=config, table=table)


@pytest.fixture(scope="session")
def sweep_window_scenario() -> scenario.Scenario:
    # Flood season plus the demand ramp: both objectives are active here.
    return scenario.synthetic_year(140, first_day=110)


@pytest.fixture(scope="session")
def decade_sweep(params, sweep_window_scenario):
    """The 9-decade demand-weight sweep used by the trend criteria."""
    lambdas = [10.0**e for e in range(-4, 5)]
    s0 = hydrology.storage_of_level(params, 0.4)
    result = metrics.lambda_sweep(
        params, mpc.MpcConfig(), sweep_window_scenario, s0, lambdas
    )
    return SimpleNamespace(result=result, s0=s0)


@pytest.fixture(scope="session")
def gaussian_runs(params):
    """Hourly vs daily MPC under the bell-shaped intra-day inflow."""
    scn = scenario.synthetic_year(
        141, first_day=110, intraday=scenario.GaussianInflowParams()
    )
    s0 = hydrology.storage_of_level(params, 0.4)
    n_steps = 140 * 24
    hourly = mpc.run_hourly(params, mpc.MpcConfig(), scn, s0, n_steps=n_steps)
    daily = mpc.run_daily(params, mpc.MpcConfig(), scn, s0, n_steps=n_steps)
    return SimpleNamespace(scenario=scn, s0=s0, hourly=hourly, daily=daily)
