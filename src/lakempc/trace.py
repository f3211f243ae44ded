"""Closed-loop runs: the engine that drives the plant, and what it records.

:func:`closed_loop` owns the hour loop of every simulated run (hourly MPC,
daily MPC and the DDP forward pass). A run differs only in its policy,
decide(t, storage), which the engine calls at hour 0 and again whenever the
previous plan is used up, with the storage at the start of hour t. It
returns (commands, step):

* commands: the release commands (m^3/s) for hours t, t + 1, ..., applied
  in order through :func:`hydrology.step_hourly`; commands past the end of
  the run are dropped. The hourly MPC and the DDP table return one command,
  the daily MPC 24.
* step: the MpcStepResult of the QP solve behind the commands, whose slacks,
  KKT residual, iteration count, warm start, status and recovery flag are
  recorded for each applied hour, or None for a policy without solver
  diagnostics. A daily step that recovered marks all of its hours.

The result is a :class:`ClosedLoopTrace`, one row per hour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hydrology import HOUR_SECONDS, LakeParams, step_hourly


@dataclass
class ClosedLoopTrace:
    """Time series produced by one simulated run.

    storages has one more entry than the hourly arrays (initial storage
    included); levels[t] is the level reached at the end of hour t, i.e. the
    level of storages[t + 1]. commands are the controller outputs before
    plant saturation, releases the flows actually discharged.

    The controller diagnostics (slacks, KKT residuals, active-set iterations
    of the solve behind each hour, whether that solve took a candidate
    working set, whether its step was a recovery step, solver statuses) are
    None for runs that did not come from the QP controller.
    """

    levels: np.ndarray
    storages: np.ndarray
    releases: np.ndarray
    commands: np.ndarray
    inflows: np.ndarray
    demands: np.ndarray
    label: str = ""
    slack_flood: np.ndarray | None = None
    slack_demand: np.ndarray | None = None
    kkt_residuals: np.ndarray | None = None
    solve_iterations: np.ndarray | None = None
    warm_starts: np.ndarray | None = None
    recovery: np.ndarray | None = None
    solve_statuses: list[str] | None = None

    def __post_init__(self) -> None:
        for name in ("levels", "storages", "releases", "commands", "inflows", "demands"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        t = self.levels.size
        if t == 0:
            raise ValueError("empty trace")
        for name in ("releases", "commands", "inflows", "demands"):
            if getattr(self, name).size != t:
                raise ValueError(f"{name} length {getattr(self, name).size} != {t}")
        if self.storages.size != t + 1:
            raise ValueError(f"storages must have length {t + 1}, got {self.storages.size}")
        for name, dtype in (
            ("slack_flood", float), ("slack_demand", float), ("kkt_residuals", float),
            ("solve_iterations", int), ("warm_starts", bool), ("recovery", bool),
        ):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=dtype)
                setattr(self, name, value)
                if value.size != t:
                    raise ValueError(f"{name} length {value.size} != {t}")

    @property
    def n_hours(self) -> int:
        return self.levels.size

    @property
    def recovery_hours(self) -> int:
        """The hours whose step was a recovery step (0 without diagnostics)."""
        return 0 if self.recovery is None else int(self.recovery.sum())


def mass_balance_error(trace: ClosedLoopTrace) -> float:
    """Relative violation of storage(final) - storage(initial) = 3600 (sum q - sum r)."""
    ds = trace.storages[-1] - trace.storages[0]
    flux = HOUR_SECONDS * (float(np.sum(trace.inflows)) - float(np.sum(trace.releases)))
    scale = max(
        abs(float(trace.storages[0])),
        abs(float(trace.storages[-1])),
        HOUR_SECONDS * float(np.sum(np.abs(trace.inflows))),
        1.0,
    )
    return abs(ds - flux) / scale


def closed_loop(
    params: LakeParams, inflow, demand, s0: float, decide, label: str
) -> ClosedLoopTrace:
    """Run the plant over len(inflow) hours under the policy decide (see
    module docstring). Raises ValueError for an s0 that is not finite or
    is negative."""
    inflow = np.array(inflow, dtype=float)
    demand = np.array(demand, dtype=float)
    n_hours = inflow.size
    storages = np.zeros(n_hours + 1)
    releases = np.zeros(n_hours)
    commands = np.zeros(n_hours)
    slack_flood = np.zeros(n_hours)
    slack_demand = np.zeros(n_hours)
    kkt_residuals = np.zeros(n_hours)
    iterations = np.zeros(n_hours, dtype=int)
    warm_starts = np.zeros(n_hours, dtype=bool)
    recovery = np.zeros(n_hours, dtype=bool)
    statuses: list[str] = []
    storage = storages[0] = float(s0)
    if not np.isfinite(storage):
        raise ValueError(f"s0 must be finite, got {s0}")
    if storage < 0.0:
        raise ValueError(f"s0 must be nonnegative, got {storage}")
    t = 0
    while t < n_hours:
        plan, step = decide(t, storage)
        n_apply = min(len(plan), n_hours - t)
        if n_apply < 1:
            raise ValueError(f"policy returned no command at hour {t}")
        for k in range(n_apply):
            command = float(plan[k])
            storage, release = step_hourly(params, storage, float(inflow[t]), command)
            storages[t + 1] = storage
            commands[t] = command
            releases[t] = release
            if step is not None:
                slack_flood[t] = step.slack_max[k]
                slack_demand[t] = step.slack_demand[k]
                kkt_residuals[t] = step.solve_diagnostics.kkt_residual
                iterations[t] = step.solve_diagnostics.iterations
                warm_starts[t] = step.solve_diagnostics.warm_start
                statuses.append(step.solve_diagnostics.status)
            t += 1
        if step is not None:
            recovery[t - n_apply:t] = step.recovery_used
    solved = bool(statuses)
    return ClosedLoopTrace(
        levels=storages[1:] / params.surface_area + params.level_offset,
        storages=storages,
        releases=releases,
        commands=commands,
        inflows=inflow,
        demands=demand,
        label=label,
        slack_flood=slack_flood if solved else None,
        slack_demand=slack_demand if solved else None,
        kkt_residuals=kkt_residuals if solved else None,
        solve_iterations=iterations if solved else None,
        warm_starts=warm_starts if solved else None,
        recovery=recovery if solved else None,
        solve_statuses=statuses if solved else None,
    )
