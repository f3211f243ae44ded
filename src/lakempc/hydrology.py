"""Plant model of a regulated lake.

Hourly mass balance, level/storage conversion, and the nonlinear release
saturation of the dam. Storage is in m^3, levels in m relative to the gauge
zero, flows in m^3/s. One step is one hour (3600 s).

:func:`mass_balance` is the only transition: :func:`step_hourly` applies it
to one saturated command in every closed-loop run, and the DDP backward pass
applies it to its whole node x action array at once. It works element-wise
on floats or NumPy arrays. A release asking for more water than the lake
holds plus the hour's inflow empties the lake: the release is cut to the
water available and the storage ends at exactly 0, so the storage change
always equals the net flow. The other functions take plain floats.

Everything here is a pure function of value types and safe to call from
multiple threads.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

HOUR_SECONDS = 3600.0
# Normalization (m^3/s) of the demand deficit in the MPC's and the DDP's costs.
DEMAND_REF = 100.0


def _integer(name: str, value) -> int:
    """value as an int; ValueError naming it unless it is an integer (a bool is not)."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _finite(name: str, value) -> None:
    """ValueError naming value unless it is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class LakeParams:
    """Physical constants of the lake and its release actuator.

    Attributes:
        surface_area: lake surface in m^2. The regulated portion is treated
            as cylindrical, so level and storage are affinely related.
        level_offset: gauge level in m at zero regulated storage.
        flood_threshold: level in m above which the lakeside city floods.
        dry_threshold: level in m below which navigation is impaired.
        mef: minimum environmental flow in m^3/s owed to the downstream river.
        sat_k, sat_n, sat_e: rating-curve coefficients; the maximum feasible
            discharge at level h is sat_k * (h + sat_n) ** sat_e.

    Default construction gives the Lake Como constants.
    """

    surface_area: float = 145_900_000.0
    level_offset: float = -0.4
    flood_threshold: float = 1.1
    dry_threshold: float = -0.2
    mef: float = 10.0
    sat_k: float = 33.37
    sat_n: float = 2.5
    sat_e: float = 2.015

    def __post_init__(self) -> None:
        for field in fields(self):
            _finite(field.name, getattr(self, field.name))
        if self.surface_area <= 0.0:
            raise ValueError("surface_area must be positive")
        if self.sat_k <= 0.0 or self.sat_e <= 0.0:
            raise ValueError("rating-curve coefficients sat_k, sat_e must be positive")
        if self.mef < 0.0:
            raise ValueError("mef must be nonnegative")
        if not self.dry_threshold < self.flood_threshold:
            raise ValueError("dry_threshold must lie below flood_threshold")
        if not self.level_offset < self.dry_threshold:
            raise ValueError("level_offset must lie below dry_threshold")


def level_of_storage(params: LakeParams, storage: float) -> float:
    """Lake level in m for a given storage, h = s / A + h_0."""
    if storage < 0.0:
        raise ValueError(f"storage must be nonnegative, got {storage}")
    return storage / params.surface_area + params.level_offset


def storage_of_level(params: LakeParams, level: float) -> float:
    """Inverse of :func:`level_of_storage`; level must not be below the gauge offset."""
    if level < params.level_offset:
        raise ValueError(
            f"level {level} below gauge offset {params.level_offset}; no storage maps there"
        )
    return (level - params.level_offset) * params.surface_area


def rating_curve(params: LakeParams, level: float) -> float:
    """Maximum feasible discharge sat_k * (level + sat_n) ** sat_e, in m^3/s."""
    base = level + params.sat_n
    if base <= 0.0:
        return 0.0
    return params.sat_k * base**params.sat_e


def release_bounds(params: LakeParams, level: float) -> tuple[float, float]:
    """Lower and upper physical release bounds (r_min, r_max) at a lake level.

    Below the gauge offset nothing can be released. Between the offset and
    the flood threshold the lower bound is the minimum environmental flow;
    above the flood threshold both bounds collapse onto the rating curve and
    the dam is forced to discharge at capacity. The lower bound is capped by
    the upper so the pair is always ordered.
    """
    if level <= params.level_offset:
        return (0.0, 0.0)
    r_max = rating_curve(params, level)
    if level <= params.flood_threshold:
        r_min = params.mef
    else:
        r_min = r_max
    return (min(r_min, r_max), r_max)


def saturate_release(bounds: tuple[float, float], command: float) -> float:
    """Clamp a commanded release into the physical bounds."""
    r_min, r_max = bounds
    if r_min > r_max:
        raise ValueError(f"inverted release bounds ({r_min}, {r_max})")
    return min(max(command, r_min), r_max)


def mass_balance(storage, inflow, release):
    """Advance storage (m^3) by one hour of inflow and release (m^3/s).

    Element-wise over floats or broadcastable arrays. Where the release is
    more than the water available, storage / 3600 + inflow (the new storage
    would be negative), it is cut to exactly that amount and the new storage
    is exactly 0.

    Returns:
        (new storage, release actually discharged)
    """
    new_storage = storage + HOUR_SECONDS * (inflow - release)
    empty = new_storage < 0.0
    # Plain floats give the bool False here; skip the per-call cost of np.any.
    if empty is not False and np.any(empty):
        release = np.where(empty, storage / HOUR_SECONDS + inflow, release)
        new_storage = np.where(empty, 0.0, new_storage)
    return new_storage, release


def step_hourly(
    params: LakeParams, storage: float, inflow: float, command: float
) -> tuple[float, float]:
    """Apply one hourly command to the lake.

    The release bounds are evaluated at the pre-step level (explicit-Euler
    convention), the command is saturated to them, and the result goes
    through :func:`mass_balance`. A negative storage, a negative or
    non-finite inflow and a non-finite command raise ValueError.

    Returns:
        (new storage in m^3, release actually discharged in m^3/s)
    """
    if not 0.0 <= inflow < math.inf:
        raise ValueError(f"inflow must be finite and nonnegative, got {inflow}")
    if not -math.inf < command < math.inf:
        raise ValueError(f"command must be finite, got {command}")
    level = level_of_storage(params, storage)
    release = saturate_release(release_bounds(params, level), command)
    new_storage, release = mass_balance(storage, inflow, release)
    return float(new_storage), float(release)

