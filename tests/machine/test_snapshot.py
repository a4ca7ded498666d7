"""Tests for whole-platform snapshot, restore and clone."""

import pytest

from repro.core.platform import TrustLitePlatform
from repro.errors import MachineError
from repro.machine import Snapshot
from repro.sw.images import build_two_counter_image


@pytest.fixture(scope="module")
def booted():
    platform = TrustLitePlatform()
    platform.boot(build_two_counter_image())
    return platform, Snapshot.save(platform)


class TestRoundTrip:
    def test_save_restore_is_identity(self, booted):
        platform, snapshot = booted
        platform.run(max_cycles=5000)
        assert Snapshot.save(platform) != snapshot
        snapshot.restore(platform)
        assert Snapshot.save(platform) == snapshot

    def test_restore_rewinds_memory_and_cpu(self, booted):
        platform, snapshot = booted
        platform.run(max_cycles=5000)
        snapshot.restore(platform)
        assert platform.cpu.cycles == snapshot.cpu.cycles
        assert platform.cpu.ip == snapshot.cpu.ip

    def test_restore_preserves_image_handle(self, booted):
        platform, snapshot = booted
        snapshot.restore(platform)
        assert platform.image is not None
        assert platform.boot_report is not None


class TestClone:
    def test_clone_equals_golden(self, booted):
        _platform, snapshot = booted
        clone = snapshot.clone()
        assert Snapshot.save(clone) == snapshot

    def test_clone_is_runnable(self, booted):
        _platform, snapshot = booted
        clone = snapshot.clone()
        started = clone.cpu.cycles
        clone.run(max_cycles=10_000)
        assert clone.cpu.cycles > started

    def test_clones_are_independent(self, booted):
        _platform, snapshot = booted
        first, second = snapshot.clone(), snapshot.clone()
        first.run(max_cycles=5000)
        # The sibling never moved, and still matches the golden image.
        assert Snapshot.save(second) == snapshot
        assert Snapshot.save(first) != snapshot

    def test_clone_preserves_device_state(self, booted):
        _platform, snapshot = booted
        clone = snapshot.clone()
        names = dict(snapshot.devices)
        assert clone.soc.uart.output == names["uart"]
        assert clone.soc.timer.snapshot_state() == names["timer"]

    def test_clone_engine_selection(self, booted):
        _platform, snapshot = booted
        assert snapshot.clone().cpu.fastpath is not None
        assert snapshot.clone(engine="fast").cpu.fastpath is not None
        assert snapshot.clone(engine="reference").cpu.fastpath is None

    def test_reference_clone_equals_golden(self, booted):
        # The engine is host-side machinery, not architectural state:
        # a reference-engine clone re-captures to the same snapshot.
        _platform, snapshot = booted
        clone = snapshot.clone(engine="reference")
        assert Snapshot.save(clone) == snapshot


class TestCompatibility:
    def test_restore_into_incompatible_platform_rejected(self, booted):
        _platform, snapshot = booted
        other = TrustLitePlatform(num_mpu_regions=12)
        with pytest.raises(MachineError):
            snapshot.restore(other)

    def test_memory_bytes_accounts_for_memories(self, booted):
        _platform, snapshot = booted
        # At least PROM + SRAM + DRAM payloads are captured.
        assert snapshot.memory_bytes > 128 * 1024

    def test_with_cpu_derives_without_mutating(self, booted):
        _platform, snapshot = booted
        derived = snapshot.with_cpu(cycles=0)
        assert derived.cpu.cycles == 0
        assert snapshot.cpu.cycles != 0 or snapshot is not derived
        assert derived.mpu == snapshot.mpu
