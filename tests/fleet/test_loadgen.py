"""Tests for the seeded open-loop load generator."""

import math

import pytest

from repro.errors import FleetError
from repro.fleet.loadgen import (
    LoadProfile,
    build_schedule,
    storm_windows,
)


def profile(**kwargs):
    defaults = dict(duration_cycles=50_000, rate_per_kcycle=2.0)
    defaults.update(kwargs)
    return LoadProfile(**defaults)


class TestLoadProfile:
    def test_validation(self):
        with pytest.raises(FleetError):
            profile(duration_cycles=0)
        with pytest.raises(FleetError):
            profile(rate_per_kcycle=0.0)
        with pytest.raises(FleetError):
            profile(burst_every=1000)  # needs a length
        with pytest.raises(FleetError):
            profile(burst_length=100)  # needs a period
        with pytest.raises(FleetError):
            profile(burst_every=100, burst_length=200,
                    burst_multiplier=2.0)  # length > period
        with pytest.raises(FleetError):
            profile(burst_every=1000, burst_length=100,
                    burst_multiplier=1.0)  # bursting needs > 1x
        with pytest.raises(FleetError):
            profile(storm_up_mean=1000)  # needs a down mean

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_are_rejected(self, bad):
        # An infinite rate would pile every arrival onto one cycle and
        # never finish; NaN would fail deep in the Poisson stream.
        with pytest.raises(FleetError):
            profile(rate_per_kcycle=bad)
        with pytest.raises(FleetError):
            profile(burst_every=1000, burst_length=100,
                    burst_multiplier=bad)

    def test_burst_windows_cover_the_horizon(self):
        p = profile(
            duration_cycles=10_000, burst_every=2500,
            burst_length=1000, burst_multiplier=3.0,
        )
        assert p.burst_windows() == ((2500, 3500), (5000, 6000),
                                     (7500, 8500))

    def test_no_bursts_no_windows(self):
        assert profile().burst_windows() == ()


class TestBuildSchedule:
    def test_deterministic_and_sorted(self):
        first = build_schedule(profile(), seed=7, devices=4)
        second = build_schedule(profile(), seed=7, devices=4)
        assert first == second
        cycles = [a.cycle for a in first]
        assert cycles == sorted(cycles)
        assert all(0 <= a.cycle < 50_000 for a in first)
        assert all(0 <= a.device_id < 4 for a in first)

    def test_seed_changes_the_schedule(self):
        assert build_schedule(profile(), seed=7, devices=4) != \
            build_schedule(profile(), seed=8, devices=4)

    def test_rate_scales_arrivals(self):
        # 2/kcycle over 50k cycles: ~100 expected; generous bounds.
        base = build_schedule(profile(), seed=7, devices=4)
        assert 50 <= len(base) <= 200
        heavy = build_schedule(
            profile(rate_per_kcycle=8.0), seed=7, devices=4
        )
        assert len(heavy) > 2 * len(base)

    def test_bursts_superpose_without_shifting_the_base(self):
        base = build_schedule(profile(), seed=7, devices=4)
        bursty_profile = profile(
            burst_every=12_500, burst_length=5000, burst_multiplier=4.0
        )
        bursty = build_schedule(bursty_profile, seed=7, devices=4)
        assert len(bursty) > len(base)
        # Superposition: every base arrival cycle survives unchanged.
        base_cycles = [a.cycle for a in base]
        bursty_cycles = [a.cycle for a in bursty]
        for cycle in base_cycles:
            assert cycle in bursty_cycles
            bursty_cycles.remove(cycle)
        # The extra arrivals all fall inside burst windows.
        windows = bursty_profile.burst_windows()
        for cycle in bursty_cycles:
            assert any(start <= cycle < end for start, end in windows)

    def test_needs_a_device(self):
        with pytest.raises(FleetError):
            build_schedule(profile(), seed=0, devices=0)


class TestStormWindows:
    def test_off_by_default(self):
        assert storm_windows(profile(), seed=7) == ()

    def test_deterministic_windows_inside_horizon(self):
        p = profile(storm_up_mean=8000, storm_down_mean=3000)
        first = storm_windows(p, seed=7)
        assert first == storm_windows(p, seed=7)
        assert first != storm_windows(p, seed=8)
        assert len(first) >= 1
        for start, end in first:
            assert 0 <= start < end <= p.duration_cycles

    def test_independent_of_arrival_draws(self):
        """Adding a storm must not move a single arrival."""
        calm = profile()
        stormy = profile(storm_up_mean=8000, storm_down_mean=3000)
        assert build_schedule(calm, seed=7, devices=4) == \
            build_schedule(stormy, seed=7, devices=4)
