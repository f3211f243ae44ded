"""Scenario construction and CSV ingestion tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lakempc.scenario import (
    GaussianInflowParams,
    Scenario,
    constant_scenario,
    default_daily_demand,
    default_daily_inflow,
    expand_daily,
    load_timeseries,
    save_timeseries,
    synth_inflow,
    synthetic_year,
)


class TestGaussianInflow:
    def test_defaults(self):
        g = GaussianInflowParams()
        assert (g.amplitude, g.decay, g.mid_hour) == (50.0, 0.06, 12.0)

    def test_peak_at_mid_hour(self):
        bump = GaussianInflowParams().intraday()
        assert bump[12] == pytest.approx(50.0)
        assert np.argmax(bump) == 12

    def test_five_hours_off_peak(self):
        bump = GaussianInflowParams().intraday()
        # 50 * exp(-0.06 * 25)
        assert bump[7] == pytest.approx(11.156508007421492, rel=1e-12)
        assert bump[17] == pytest.approx(11.156508007421492, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude": -1.0},
            {"decay": 0.0},
            {"mid_hour": 25.0},
            # These once passed; the perturbation was then NaN or infinite.
            {"amplitude": np.nan},
            {"amplitude": np.inf},
            {"decay": np.nan},
            {"decay": np.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GaussianInflowParams(**kwargs)

    @pytest.mark.parametrize(
        "daily, day", [([np.nan, 10.0], 0), ([10.0, np.inf], 1), ([10.0, 5.0, -1.0], 2)]
    )
    def test_bad_daily_value_named_with_its_day(self, daily, day):
        # NaN used to come back as NaN inflow, silently.
        with pytest.raises(ValueError, match=f"finite and nonnegative, got .* on day {day}$"):
            synth_inflow(daily, GaussianInflowParams())

    def test_zero_amplitude_is_constant_hold(self):
        daily = np.array([10.0, 40.0])
        hourly = synth_inflow(daily, GaussianInflowParams(amplitude=0.0))
        assert np.array_equal(hourly, expand_daily(daily))

    @given(
        daily=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=8)
    )
    def test_daily_mean_preservation(self, daily):
        g = GaussianInflowParams()
        hourly = synth_inflow(daily, g)
        bump_mean = float(np.mean(g.intraday()))
        for d, value in enumerate(daily):
            day_mean = float(np.mean(hourly[24 * d:24 * (d + 1)]))
            assert day_mean == pytest.approx(value + bump_mean, rel=1e-12, abs=1e-12)

    def test_perturbation_repeats_every_day(self):
        hourly = synth_inflow([100.0, 100.0, 100.0], GaussianInflowParams())
        assert np.allclose(hourly[:24], hourly[24:48])
        assert np.allclose(hourly[:24], hourly[48:])


class TestScenarioType:
    def test_length_must_cover_whole_days(self):
        with pytest.raises(ValueError, match="multiple of 24"):
            Scenario(inflow_hourly=np.ones(25), demand_hourly=np.ones(25))

    def test_negative_flow_rejected(self):
        bad = np.ones(24)
        bad[3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            Scenario(inflow_hourly=bad, demand_hourly=np.ones(24))

    @pytest.mark.parametrize(
        "name, hour, value",
        [("inflow_hourly", 30, -1.0), ("demand_hourly", 40, np.nan), ("inflow_hourly", 47, np.inf)],
    )
    def test_bad_hourly_flow_named_with_its_series_and_hour(self, name, hour, value):
        # These once said only "flows must be nonnegative" or "flows must be finite".
        flows = {"inflow_hourly": np.ones(48), "demand_hourly": np.ones(48)}
        flows[name][hour] = value
        message = f"^{name} must be finite and nonnegative, got {value} at hour {hour}$"
        with pytest.raises(ValueError, match=message):
            Scenario(**flows)

    @pytest.mark.parametrize("name", ["inflow_hourly", "demand_hourly"])
    def test_series_must_be_one_dimensional(self, name):
        # A (48, 1) inflow once built a 48-hour scenario, whose hourly run
        # then failed with "expected 6 forecast/demand entries, got 6/6".
        flows = {"inflow_hourly": np.full(48, 100.0), "demand_hourly": np.full(48, 50.0)}
        flows[name] = flows[name].reshape(48, 1)
        with pytest.raises(ValueError, match=rf"^{name} must be 1-d, got shape \(48, 1\)$"):
            Scenario(**flows)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Scenario(inflow_hourly=np.ones(24), demand_hourly=np.ones(48))

    @pytest.mark.parametrize(
        "daily, day", [([-500.0, 100.0], 0), ([100.0, np.nan], 1), ([100.0, np.inf], 1)]
    )
    def test_bad_daily_inflow_named_with_its_day(self, daily, day):
        # A scenario holds hourly series only; daily inflow values enter
        # through synth_inflow, which names the day of a bad one.
        with pytest.raises(ValueError, match=f"finite and nonnegative, got .* on day {day}$"):
            synth_inflow(daily, GaussianInflowParams())

    def test_expansion_then_daily_aggregation_recovers_totals(self):
        daily = np.array([5.0, 80.0, 130.0])
        scn = Scenario(inflow_hourly=expand_daily(daily), demand_hourly=np.zeros(72))
        day_totals = scn.inflow_hourly.reshape(scn.n_days, 24).sum(axis=1)
        assert day_totals == pytest.approx(24.0 * daily, rel=1e-12)


class TestSyntheticYear:
    def test_deterministic(self):
        a = synthetic_year(30)
        b = synthetic_year(30)
        assert np.array_equal(a.inflow_hourly, b.inflow_hourly)
        assert np.array_equal(a.demand_hourly, b.demand_hourly)

    def test_daily_profiles_in_documented_ranges(self):
        inflow = default_daily_inflow(366)
        demand = default_daily_demand(366)
        assert inflow.min() >= 40.0 - 1e-9
        assert inflow.max() == pytest.approx(600.0, abs=0.5)
        assert demand.min() >= 30.0 - 1e-9
        assert demand.max() <= 250.0 + 1e-9

    def test_inflow_stays_above_default_mef(self):
        scn = synthetic_year(366, intraday=GaussianInflowParams())
        assert scn.inflow_hourly.min() >= 10.0

    def test_jitter_reproducible(self):
        a = synthetic_year(30, jitter=0.1, seed=42)
        b = synthetic_year(30, jitter=0.1, seed=42)
        c = synthetic_year(30, jitter=0.1, seed=43)
        assert np.array_equal(a.inflow_hourly, b.inflow_hourly)
        assert not np.array_equal(a.inflow_hourly, c.inflow_hourly)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_days": 0}, "n_days"),
            ({"first_day": -1}, "first_day"),
            ({"jitter": -0.5}, "jitter"),
            ({"jitter": np.nan}, "jitter"),
            ({"jitter": np.inf}, "jitter"),
            ({"n_days": 2.5}, "n_days"),
            ({"first_day": 1.5}, "first_day"),
            ({"n_days": True}, "n_days"),
            ({"jitter": True}, "jitter"),
            ({"jitter": "0.1"}, "jitter"),
            ({"seed": 1.5, "jitter": 0.1}, "seed"),
            ({"seed": -1, "jitter": 0.1}, "seed"),
        ],
    )
    def test_bad_argument_named(self, kwargs, name):
        # n_days 0 raised IndexError, first_day -1 took day 1's inflow, and
        # a negative or NaN jitter was taken as 0. A fractional n_days or
        # first_day raised IndexError, and n_days True built a 1-day year.
        # jitter True ran as 1.0, jitter "0.1" and seed 1.5 raised TypeError,
        # and seed -1 raised numpy's ValueError, which names no argument.
        with pytest.raises(ValueError, match=f"^{name} must be "):
            synthetic_year(**{"n_days": 3, **kwargs})

    def test_constant_scenario(self):
        scn = constant_scenario(100.0, 60.0, 2)
        assert scn.n_hours == 48
        assert set(scn.inflow_hourly) == {100.0}
        assert set(scn.demand_hourly) == {60.0}


class TestLoadTimeseries:
    def _write(self, path, header, rows):
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")

    def test_daily_file_expands(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "t,q_m3s", [f"{i},{40 + i}" for i in range(365)])
        series = load_timeseries(path, "inflow_daily")
        assert series.size == 8760
        assert series[0] == 40.0
        assert series[23] == 40.0
        assert series[24] == 41.0

    def test_hourly_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        values = np.linspace(30.0, 50.0, 48)
        save_timeseries(path, values, "demand")
        back = load_timeseries(path, "demand_hourly")
        assert back == pytest.approx(values, rel=1e-5)

    def test_negative_value_names_line(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "t,q_m3s", ["0,5", "1,-2", "2,7"])
        with pytest.raises(ValueError, match="line 3"):
            load_timeseries(path, "inflow_daily")

    def test_hourly_length_must_cover_days(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "t,q_m3s", [f"{i},1" for i in range(25)])
        with pytest.raises(ValueError, match="multiple of 24"):
            load_timeseries(path, "inflow_hourly")

    def test_index_gap_rejected(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "t,q_m3s", ["0,5", "2,7"])
        with pytest.raises(ValueError, match="gap"):
            load_timeseries(path, "inflow_daily")

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "t,q_m3s", ["0,5", "one,7"])
        with pytest.raises(ValueError, match="line 3"):
            load_timeseries(path, "inflow_daily")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "inflow.csv"
        self._write(path, "time,flow", ["0,5"])
        with pytest.raises(ValueError, match="header"):
            load_timeseries(path, "inflow_daily")

    def test_demand_header_differs(self, tmp_path):
        path = tmp_path / "w.csv"
        self._write(path, "t,q_m3s", ["0,5"])
        with pytest.raises(ValueError, match="w_m3s"):
            load_timeseries(path, "demand_daily")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "inflow.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_timeseries(path, "inflow_daily")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet exports begin with one; it once failed the header check.
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        self._write(plain, "t,q_m3s", [f"{i},{40 + i}" for i in range(24)])
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(load_timeseries(bom, "inflow_hourly"), load_timeseries(plain, "inflow_hourly"))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            load_timeseries(tmp_path / "x.csv", "inflow_weekly")
