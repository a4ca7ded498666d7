"""Warm-pool registry."""

import pytest

from repro.errors import FleetError
from repro.fleet.pool import (
    _CRASH_ENV,
    discard_warm_pool,
    get_warm_pool,
    pool_stats,
)


class TestWarmPool:
    def test_rejects_single_worker(self):
        with pytest.raises(FleetError, match="workers >= 2"):
            get_warm_pool(1)

    def test_pool_is_reused(self):
        first = get_warm_pool(2)
        reused_before = pool_stats().reused
        second = get_warm_pool(2)
        assert second is first
        assert pool_stats().reused == reused_before + 1
        # Reuse costs nothing; only a build pays spin-up.
        assert pool_stats().last_spinup_seconds == 0.0

    def test_pool_is_warm_and_usable(self):
        pool = get_warm_pool(2)
        assert pool.submit(max, 3, 5).result() == 5

    def test_discard_forces_rebuild(self):
        first = get_warm_pool(2)
        discarded_before = pool_stats().discarded
        discard_warm_pool(2)
        assert pool_stats().discarded == discarded_before + 1
        second = get_warm_pool(2)
        assert second is not first
        assert pool_stats().last_spinup_seconds > 0.0

    def test_discard_unknown_is_noop(self):
        discarded_before = pool_stats().discarded
        discard_warm_pool(97)
        assert pool_stats().discarded == discarded_before

    def test_stale_crash_env_rebuilds(self, tmp_path, monkeypatch):
        first = get_warm_pool(2)
        # Workers forked before the hook was set could never crash on
        # it — the registry must notice and rebuild.
        monkeypatch.setenv(_CRASH_ENV, f"{tmp_path / 'flag'}:0")
        second = get_warm_pool(2)
        assert second is not first
        monkeypatch.delenv(_CRASH_ENV)
        third = get_warm_pool(2)
        assert third is not second
