"""Scenario construction: inflow and demand series for the simulator.

A scenario is a pair of hourly series (inflow q, demand w) whose length is a
whole number of days. Builders cover a documented synthetic year, the
bell-shaped intra-day inflow perturbation, and CSV ingestion of external
daily or hourly records.

The synthetic year is NOT observed data. It is a smooth two-peak seasonal
profile (snowmelt peak in spring, rain peak in autumn) chosen so that flood,
demand and dry episodes all occur at realistic magnitudes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hydrology import _finite, _integer

HOURS_PER_DAY = 24

TIMESERIES_KINDS = ("inflow_daily", "inflow_hourly", "demand_daily", "demand_hourly")
_HEADERS = {"inflow": "t,q_m3s", "demand": "t,w_m3s"}


@dataclass(frozen=True)
class GaussianInflowParams:
    """Bell-shaped intra-day inflow perturbation added on top of daily values:
    amplitude * exp(-decay * (hour - mid_hour)**2). The exponent is at most
    0, so the perturbation lies in [0, amplitude] and cannot overflow.
    """

    amplitude: float = 50.0
    decay: float = 0.06
    mid_hour: float = 12.0

    def __post_init__(self) -> None:
        # Written so that NaN fails each test.
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if not 0.0 < self.decay < math.inf:
            raise ValueError(f"decay must be positive and finite, got {self.decay}")
        if not 0.0 <= self.mid_hour <= 23.0:
            raise ValueError("mid_hour must lie in [0, 23]")

    def intraday(self) -> np.ndarray:
        """The 24 perturbation values for hours 0..23 of a day."""
        tau = np.arange(HOURS_PER_DAY, dtype=float)
        return self.amplitude * np.exp(-self.decay * (tau - self.mid_hour) ** 2)


@dataclass
class Scenario:
    """Hourly inflow/demand trajectories and a label.

    A series that is not 1-d, and a flow that is negative or not finite,
    raise ValueError naming the series (and its shape or the hour).
    """

    inflow_hourly: np.ndarray
    demand_hourly: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("inflow_hourly", "demand_hourly"):
            series = np.asarray(getattr(self, name), dtype=float)
            if series.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {series.shape}")
            setattr(self, name, series)
        t = self.inflow_hourly.size
        if t == 0 or t % HOURS_PER_DAY != 0:
            raise ValueError(f"scenario length {t} is not a positive multiple of 24")
        if self.demand_hourly.size != t:
            raise ValueError("inflow and demand series must have equal length")
        _check_flows("inflow_hourly", self.inflow_hourly, "hour")
        _check_flows("demand_hourly", self.demand_hourly, "hour")

    @property
    def n_hours(self) -> int:
        return self.inflow_hourly.size

    @property
    def n_days(self) -> int:
        return self.n_hours // HOURS_PER_DAY


def _check_flows(name: str, flows: np.ndarray, unit: str) -> None:
    """ValueError naming the series and the first entry, a day or an hour
    (unit), that is negative or not finite."""
    ok = (flows >= 0.0) & (flows < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        where = f"on day {i}" if unit == "day" else f"at hour {i}"
        raise ValueError(f"{name} must be finite and nonnegative, got {flows[i]} {where}")


def expand_daily(daily_values) -> np.ndarray:
    """Hold each daily value constant over its 24 hours."""
    arr = np.asarray(daily_values, dtype=float)
    return np.repeat(arr, HOURS_PER_DAY)


def synth_inflow(daily_values, g: GaussianInflowParams) -> np.ndarray:
    """Hourly inflow: daily values held constant plus the intra-day perturbation.

    The perturbation repeats every day. It is a nonnegative amplitude times
    a positive exponential, so the sum is never negative. A daily value that
    is negative or not finite raises ValueError naming the day.
    """
    daily = np.asarray(daily_values, dtype=float)
    _check_flows("daily inflow", daily, "day")
    return expand_daily(daily) + np.tile(g.intraday(), daily.size)


def default_daily_inflow(n_days: int = 366) -> np.ndarray:
    """Synthetic seasonal daily inflow in m^3/s (NOT observed data).

    q(d) = 40 + 560 exp(-((d-140)/22)^2) + 180 exp(-((d-290)/30)^2)

    Base flow 40 keeps the series above the default minimum environmental
    flow everywhere; the spring peak (600 m^3/s) deliberately exceeds the
    dam capacity at the flood threshold (~441 m^3/s) so that flood episodes
    genuinely occur.
    """
    d = np.arange(n_days, dtype=float)
    return 40.0 + 560.0 * np.exp(-(((d - 140.0) / 22.0) ** 2)) + 180.0 * np.exp(
        -(((d - 290.0) / 30.0) ** 2)
    )


def default_daily_demand(n_days: int = 366) -> np.ndarray:
    """Synthetic summer-peaking daily demand in m^3/s, ranging over [30, 250].

    w(d) = 30 + 220 exp(-((d-205)/55)^2)
    """
    d = np.arange(n_days, dtype=float)
    return 30.0 + 220.0 * np.exp(-(((d - 205.0) / 55.0) ** 2))


def synthetic_year(
    n_days: int = 366,
    intraday: GaussianInflowParams | None = None,
    jitter: float = 0.0,
    seed: int = 0,
    first_day: int = 0,
) -> Scenario:
    """The documented synthetic scenario, optionally with intra-day dynamics.

    jitter > 0 multiplies each daily inflow by a lognormal-ish factor
    (1 + jitter * standard normal, floored at 0.1) drawn from `seed`;
    it defaults to off so runs are deterministic.

    Raises ValueError naming an n_days, first_day or seed that is not an
    integer (a bool is not), n_days below 1, a negative first_day or seed,
    and a jitter that is not a finite real number (a bool is not) or is
    negative.
    """
    n_days = _integer("n_days", n_days)
    first_day = _integer("first_day", first_day)
    seed = _integer("seed", seed)
    _finite("jitter", jitter)
    if n_days < 1:
        raise ValueError(f"n_days must be at least 1, got {n_days}")
    if first_day < 0:
        raise ValueError(f"first_day must be nonnegative, got {first_day}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if jitter < 0.0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    days = np.arange(first_day, first_day + n_days)
    daily_q = default_daily_inflow(int(days[-1]) + 1)[days]
    daily_w = default_daily_demand(int(days[-1]) + 1)[days]
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        daily_q = daily_q * np.maximum(1.0 + jitter * rng.standard_normal(n_days), 0.1)
    if intraday is None:
        inflow = expand_daily(daily_q)
        label = f"synthetic-year[{first_day}:{first_day + n_days}]"
    else:
        inflow = synth_inflow(daily_q, intraday)
        label = f"synthetic-year-intraday[{first_day}:{first_day + n_days}]"
    return Scenario(
        inflow_hourly=inflow,
        demand_hourly=expand_daily(daily_w),
        label=label,
    )


def constant_scenario(inflow: float, demand: float, n_days: int, label: str = "constant") -> Scenario:
    t = n_days * HOURS_PER_DAY
    return Scenario(
        inflow_hourly=np.full(t, float(inflow)),
        demand_hourly=np.full(t, float(demand)),
        label=label,
    )


def load_timeseries(path, kind: str) -> np.ndarray:
    """Read a flow series from CSV and return it at hourly resolution.

    Format: UTF-8 (a leading byte-order mark, as spreadsheet exports
    write, is skipped), comma-separated, header row `t,q_m3s` (inflow) or
    `t,w_m3s` (demand), then rows `index,value` with a 0-based contiguous
    integer index. Daily kinds are expanded by constant hold. Hourly series
    must cover whole days. Malformed content raises ValueError naming the
    offending line.
    """
    if kind not in TIMESERIES_KINDS:
        raise ValueError(f"unknown timeseries kind {kind!r}; expected one of {TIMESERIES_KINDS}")
    quantity = "inflow" if kind.startswith("inflow") else "demand"
    expected_header = _HEADERS[quantity]
    path = Path(path)
    values: list[float] = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [cell.strip() for cell in header] != expected_header.split(","):
            raise ValueError(
                f"{path}: line 1: expected header '{expected_header}', got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {line_no}: expected 2 columns, got {len(row)}")
            try:
                idx = int(row[0])
                val = float(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: malformed row {row!r}") from None
            if idx != len(values):
                raise ValueError(
                    f"{path}: line {line_no}: index gap (expected {len(values)}, got {idx})"
                )
            if not math.isfinite(val):
                raise ValueError(f"{path}: line {line_no}: non-finite value")
            if val < 0.0:
                raise ValueError(f"{path}: line {line_no}: negative flow {val}")
            values.append(val)
    if not values:
        raise ValueError(f"{path}: no data rows")
    series = np.asarray(values, dtype=float)
    if kind.endswith("_daily"):
        return expand_daily(series)
    if series.size % HOURS_PER_DAY != 0:
        raise ValueError(
            f"{path}: hourly series length {series.size} is not a multiple of 24"
        )
    return series


def save_timeseries(path, values, quantity: str) -> None:
    """Write a series in the load_timeseries CSV format (6 significant digits)."""
    header = _HEADERS[quantity]
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for i, v in enumerate(np.asarray(values, dtype=float)):
            handle.write(f"{i},{v:.6g}\n")
