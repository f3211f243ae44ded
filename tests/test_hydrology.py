"""Plant-model tests: conversions, release bounds, mass balance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lakempc.hydrology import (
    HOUR_SECONDS,
    LakeParams,
    level_of_storage,
    release_bounds,
    saturate_release,
    step_hourly,
    storage_of_level,
)

PARAMS = LakeParams()

levels_st = st.floats(min_value=-0.39, max_value=4.0)
storages_st = st.floats(min_value=0.0, max_value=8e8)


class TestLevelStorage:
    def test_zero_storage_is_offset(self):
        assert level_of_storage(PARAMS, 0.0) == -0.4

    def test_flood_threshold_storage(self):
        # 1.5 m above the offset times the surface area
        assert level_of_storage(PARAMS, 218_850_000.0) == pytest.approx(1.1, abs=1e-12)

    def test_dry_threshold_storage(self):
        assert level_of_storage(PARAMS, 29_180_000.0) == pytest.approx(-0.2, abs=1e-12)

    def test_negative_storage_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            level_of_storage(PARAMS, -1.0)

    def test_inverse_at_offset(self):
        assert storage_of_level(PARAMS, -0.4) == 0.0

    def test_inverse_at_flood(self):
        assert storage_of_level(PARAMS, 1.1) == pytest.approx(218_850_000.0, rel=1e-12)

    def test_below_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            storage_of_level(PARAMS, -0.41)

    @given(storage=storages_st)
    def test_round_trip_storage(self, storage):
        back = storage_of_level(PARAMS, level_of_storage(PARAMS, storage))
        assert back == pytest.approx(storage, rel=1e-12, abs=1e-6)

    @given(level=levels_st)
    def test_round_trip_level(self, level):
        back = level_of_storage(PARAMS, storage_of_level(PARAMS, level))
        assert back == pytest.approx(level, rel=1e-12, abs=1e-12)


class TestReleaseBounds:
    def test_below_offset_both_zero(self):
        assert release_bounds(PARAMS, -0.5) == (0.0, 0.0)

    def test_mid_range(self):
        r_min, r_max = release_bounds(PARAMS, 1.0)
        assert r_min == 10.0
        # 33.37 * 3.5 ** 2.015
        assert r_max == pytest.approx(416.53674219949085, rel=1e-12)

    def test_just_above_flood_threshold_bounds_coincide(self):
        r_min, r_max = release_bounds(PARAMS, 1.1 + 1e-9)
        assert r_min == r_max
        assert r_max == pytest.approx(440.86512599757725, rel=1e-9)

    def test_mef_floor_between_offset_and_flood(self):
        assert release_bounds(PARAMS, 0.0)[0] == 10.0
        assert release_bounds(PARAMS, -0.2)[0] == 10.0

    @given(level=st.floats(min_value=-1.0, max_value=5.0))
    def test_ordered_for_any_level(self, level):
        r_min, r_max = release_bounds(PARAMS, level)
        assert 0.0 <= r_min <= r_max

    @given(
        level=st.floats(min_value=-1.0, max_value=5.0),
        params=st.builds(
            LakeParams,
            mef=st.floats(min_value=0.0, max_value=500.0),
            sat_k=st.floats(min_value=0.1, max_value=100.0),
            sat_e=st.floats(min_value=0.1, max_value=3.0),
        ),
    )
    def test_ordered_for_any_parameters(self, level, params):
        r_min, r_max = release_bounds(params, level)
        assert r_min <= r_max

    @given(a=levels_st, b=levels_st)
    def test_capacity_monotone_in_level(self, a, b):
        lo, hi = sorted((a, b))
        assert release_bounds(PARAMS, lo)[1] <= release_bounds(PARAMS, hi)[1] + 1e-12


class TestSaturateRelease:
    def test_clamp_above(self):
        assert saturate_release((10.0, 440.0), 500.0) == 440.0

    def test_clamp_below(self):
        assert saturate_release((10.0, 440.0), 5.0) == 10.0

    def test_interior_pass_through(self):
        assert saturate_release((10.0, 440.0), 100.0) == 100.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            saturate_release((11.0, 10.0), 10.5)

    @given(
        command=st.floats(min_value=-1e4, max_value=1e4),
        level=levels_st,
    )
    def test_result_within_bounds(self, command, level):
        bounds = release_bounds(PARAMS, level)
        applied = saturate_release(bounds, command)
        assert bounds[0] <= applied <= bounds[1]


class TestStepHourly:
    def test_direct_arithmetic(self):
        storage, release = step_hourly(PARAMS, 1e8, inflow=100.0, command=50.0)
        assert release == 50.0
        assert storage == pytest.approx(100_180_000.0, rel=1e-15)

    def test_balance(self):
        storage, release = step_hourly(PARAMS, 1e8, inflow=80.0, command=80.0)
        assert storage == pytest.approx(1e8)

    def test_empty_lake_cannot_release(self):
        storage, release = step_hourly(PARAMS, 0.0, inflow=0.0, command=50.0)
        assert release == 0.0
        assert storage == 0.0

    def test_overdraw_empties_lake_exactly(self):
        # 1e5 m^3 and no inflow hold 27.78 m^3/s for one hour; 100 m^3/s is
        # within the release bounds at that level, so the plant must cut it.
        storage, release = step_hourly(PARAMS, 1e5, inflow=0.0, command=100.0)
        assert storage == 0.0
        assert release == pytest.approx(1e5 / HOUR_SECONDS, rel=1e-15)
        assert abs(0.0 - 1e5 - HOUR_SECONDS * (0.0 - release)) <= 1e-15 * 1e5

    def test_negative_inflow_rejected(self):
        with pytest.raises(ValueError, match="inflow"):
            step_hourly(PARAMS, 1e8, inflow=-1.0, command=0.0)

    @pytest.mark.parametrize(
        "inflow, command, message",
        # Each once returned a NaN or infinite storage, or a NaN release.
        [
            (np.nan, 50.0, "inflow must be finite and nonnegative, got nan"),
            (np.inf, 50.0, "inflow must be finite and nonnegative, got inf"),
            (10.0, np.nan, "command must be finite, got nan"),
            (10.0, np.inf, "command must be finite, got inf"),
            (10.0, -np.inf, "command must be finite, got -inf"),
        ],
    )
    def test_non_finite_flow_rejected(self, inflow, command, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            step_hourly(PARAMS, 1e8, inflow=inflow, command=command)

    @given(
        commands=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=50),
        inflows=st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=50, max_size=50),
    )
    @settings(max_examples=60)
    def test_conservation(self, commands, inflows):
        # Start high enough that the zero floor can never bind.
        storage = 4e8
        total_in = 0.0
        total_out = 0.0
        for command, inflow in zip(commands, inflows):
            storage, release = step_hourly(PARAMS, storage, inflow, command)
            total_in += inflow
            total_out += release
        expected = 4e8 + HOUR_SECONDS * (total_in - total_out)
        assert storage == pytest.approx(expected, rel=1e-6)

    @given(
        command=st.floats(min_value=0.0, max_value=800.0),
        storage=st.floats(min_value=1e6, max_value=7e8),
    )
    def test_applied_release_respects_prestep_bounds(self, command, storage):
        bounds = release_bounds(PARAMS, level_of_storage(PARAMS, storage))
        _, release = step_hourly(PARAMS, storage, inflow=10.0, command=command)
        assert bounds[0] - 1e-12 <= release <= bounds[1] + 1e-12


class TestAggregateDaily:
    """Daily totals of hourly plant steps."""

    def test_matches_hourly_steps_without_saturation(self):
        rng = np.random.default_rng(7)
        inflows = rng.uniform(50.0, 200.0, 24)
        commands = rng.uniform(20.0, 120.0, 24)  # within bounds at these levels
        storage = 1.5e8
        releases = []
        for q, u in zip(inflows, commands):
            storage, release = step_hourly(PARAMS, storage, q, u)
            releases.append(release)
        assert releases == pytest.approx(list(commands))  # no saturation occurred
        delta = HOUR_SECONDS * (np.sum(inflows) - np.sum(releases))
        assert storage - 1.5e8 == pytest.approx(delta, rel=1e-9)
        assert np.mean(releases) == pytest.approx(np.mean(commands))


class TestParamsValidation:
    def test_default_constants(self):
        assert PARAMS.surface_area == 145_900_000.0
        assert PARAMS.level_offset == -0.4
        assert PARAMS.flood_threshold == 1.1
        assert PARAMS.dry_threshold == -0.2
        assert PARAMS.mef == 10.0
        assert (PARAMS.sat_k, PARAMS.sat_n, PARAMS.sat_e) == (33.37, 2.5, 2.015)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"surface_area": 0.0},
            {"sat_k": -1.0},
            {"sat_e": 0.0},
            {"mef": -0.1},
            {"dry_threshold": 1.2},
            {"level_offset": -0.1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LakeParams(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        # The first three once passed.
        [("surface_area", np.nan), ("mef", np.nan), ("sat_n", np.inf), ("sat_k", "33"),
         ("dry_threshold", True)],
    )
    def test_unusable_value_names_its_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            LakeParams(**{name: value})

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            step_hourly(PARAMS, -1.0, inflow=0.0, command=0.0)
