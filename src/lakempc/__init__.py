"""Simulation and control toolkit for a regulated lake.

Hourly mass-balance plant model, receding-horizon quadratic-programming
control with soft flood/demand objectives and a hard dry-level constraint,
a deterministic dynamic-programming benchmark, and the experiment harness
comparing them.
"""

from .ddp import DdpConfig, ValueTable, backward_induction, simulate_policy, stage_cost, trace_cost
from .hydrology import (
    LakeParams,
    level_of_storage,
    mass_balance,
    release_bounds,
    saturate_release,
    step_hourly,
    storage_of_level,
)
from .metrics import RunReport, compare_runs, compute_report, lambda_sweep
from .mpc import (
    MpcConfig,
    MpcInfeasibleError,
    MpcStepResult,
    assemble_qp,
    run_daily,
    run_hourly,
)
from .qp import QpProblem, QpSolution, kkt_residual
from .qp import solve as solve_qp
from .scenario import (
    GaussianInflowParams,
    Scenario,
    load_timeseries,
    synth_inflow,
    synthetic_year,
)
from .trace import ClosedLoopTrace, closed_loop, mass_balance_error

__version__ = "0.1.0"

__all__ = [
    "ClosedLoopTrace",
    "DdpConfig",
    "GaussianInflowParams",
    "LakeParams",
    "MpcConfig",
    "MpcInfeasibleError",
    "MpcStepResult",
    "QpProblem",
    "QpSolution",
    "RunReport",
    "Scenario",
    "ValueTable",
    "assemble_qp",
    "backward_induction",
    "closed_loop",
    "compare_runs",
    "compute_report",
    "kkt_residual",
    "lambda_sweep",
    "level_of_storage",
    "load_timeseries",
    "mass_balance",
    "mass_balance_error",
    "release_bounds",
    "run_daily",
    "run_hourly",
    "saturate_release",
    "simulate_policy",
    "solve_qp",
    "stage_cost",
    "step_hourly",
    "storage_of_level",
    "synth_inflow",
    "synthetic_year",
    "trace_cost",
]
