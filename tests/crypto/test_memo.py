"""Soundness and bounds of the exact-bytes memo behind ``sponge_hash``.

The memo may only ever return what hashing would.  These tests tamper
with inputs after they were hashed, mutate caller buffers, squeeze the
byte budget and compare warm in-process reports with fresh processes.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_OK, main
from repro.core.attestation import expected_measurements, measure_code
from repro.core.platform import TrustLitePlatform
from repro.core.trustlet_table import name_tag
from repro.crypto import SpongeHash, memo_stats, sponge_hash
from repro.crypto import sponge
from repro.fleet.device import FleetDevice
from repro.fleet.transport import InProcessTransport
from repro.fleet.verifier import COMPROMISED, HEALTHY, FleetVerifier
from repro.machine import Snapshot
from repro.sw.images import build_attestation_image

KEY = b"\x5a" * 16


def cold(data) -> bytes:
    """The digest with no memo involved."""
    return SpongeHash().update(bytes(data)).digest()


def distinct(count: int, size: int, tag: bytes) -> list[bytes]:
    return [
        tag + index.to_bytes(4, "little") + bytes(size - len(tag) - 4)
        for index in range(count)
    ]


class TestSoundness:
    def test_tampered_code_misses_and_the_device_is_flagged(self):
        platform = TrustLitePlatform()
        image = build_attestation_image()
        platform.boot(image)
        snapshot = Snapshot.save(platform)
        expected = expected_measurements(image)
        devices = {i: FleetDevice(i, snapshot.clone(), KEY) for i in range(2)}

        bus = devices[1].platform.bus
        module = image.module_order[-1]
        lay = image.layout_of(module)
        # Warm: the golden bytes were hashed by expected_measurements.
        before = memo_stats()
        warm = measure_code(bus, lay.code_base, lay.code_end)
        assert warm == expected[module]
        assert memo_stats()["hits"] == before["hits"] + 1

        assert devices[1].tamper_code(module) == module
        misses = memo_stats()["misses"]
        live = measure_code(bus, lay.code_base, lay.code_end)
        assert memo_stats()["misses"] == misses + 1
        assert live == cold(bus.read_bytes(lay.code_base, lay.code_end - lay.code_base))
        assert live != warm

        verifier = FleetVerifier(
            devices,
            InProcessTransport(),
            {i: KEY for i in devices},
            [(name_tag(name), expected[name]) for name in image.module_order],
        )
        verdicts = verifier.run_round()
        assert verdicts[0].status == HEALTHY
        assert verdicts[1].status == COMPROMISED

    def test_mutating_a_hashed_bytearray_does_not_poison_the_memo(self):
        buffer = bytearray(b"memo-poison-probe:" + bytes(range(40)))
        original = bytes(buffer)
        first = sponge_hash(buffer)
        assert first == cold(original)
        buffer[0] ^= 0xFF
        assert sponge_hash(buffer) == cold(buffer) != first
        assert sponge_hash(original) == first
        assert sponge_hash(memoryview(original)) == first

    def test_hits_return_the_cold_digest(self):
        data = b"memo-hit-probe" * 9
        first = sponge_hash(data)
        hits = memo_stats()["hits"]
        assert sponge_hash(bytes(data)) == first == cold(data)
        assert memo_stats()["hits"] == hits + 1


class TestBounds:
    def test_stored_bytes_stay_within_the_budget(self, monkeypatch):
        entry = 100 + sponge._ENTRY_OVERHEAD
        monkeypatch.setattr(sponge, "_MEMO_BUDGET", 3 * entry)
        evictions = memo_stats()["evictions"]
        inputs = distinct(20, 100, b"bound")
        for data in inputs:
            assert sponge_hash(data) == cold(data)
            stats = memo_stats()
            assert stats["stored_bytes"] <= 3 * entry
        assert stats["entries"] == 3
        assert stats["stored_bytes"] == 3 * entry
        assert stats["evictions"] >= evictions + 17

    def test_a_hit_refreshes_recency(self, monkeypatch):
        entry = 100 + sponge._ENTRY_OVERHEAD
        monkeypatch.setattr(sponge, "_MEMO_BUDGET", 3 * entry)
        a, b, c, d = distinct(4, 100, b"lru")
        for data in (a, b, c, a, d):
            sponge_hash(data)
        hits = memo_stats()["hits"]
        sponge_hash(a)
        assert memo_stats()["hits"] == hits + 1
        misses = memo_stats()["misses"]
        sponge_hash(b)
        assert memo_stats()["misses"] == misses + 1

    def test_oversize_inputs_are_hashed_but_not_stored(self, monkeypatch):
        monkeypatch.setattr(sponge, "_MEMO_ENTRY_CAP", 64)
        fits, oversize = b"c" * 64, b"o" * 65
        assert sponge_hash(fits) == cold(fits)
        entries = memo_stats()["entries"]
        for _ in range(2):
            misses = memo_stats()["misses"]
            assert sponge_hash(oversize) == cold(oversize)
            assert memo_stats()["misses"] == misses + 1
            assert memo_stats()["entries"] == entries
        hits = memo_stats()["hits"]
        sponge_hash(fits)
        assert memo_stats()["hits"] == hits + 1

    def test_concurrent_callers_keep_the_books_straight(self, monkeypatch):
        entry = 40 + sponge._ENTRY_OVERHEAD
        monkeypatch.setattr(sponge, "_MEMO_BUDGET", 8 * entry)
        inputs = distinct(16, 40, b"race")
        expected = {data: cold(data) for data in inputs}
        calls_per_thread = 300
        before = memo_stats()
        wrong = []

        def hammer(offset):
            for index in range(calls_per_thread):
                data = inputs[(index * 7 + offset) % len(inputs)]
                if sponge_hash(data) != expected[data]:
                    wrong.append(data)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        after = memo_stats()
        calls = (after["hits"] - before["hits"]) + \
            (after["misses"] - before["misses"])
        assert calls == len(threads) * calls_per_thread
        assert after["stored_bytes"] == after["entries"] * entry
        assert after["stored_bytes"] <= 8 * entry

    def test_the_cap_fits_the_budget(self):
        assert sponge._MEMO_ENTRY_CAP + sponge._ENTRY_OVERHEAD <= \
            sponge._MEMO_BUDGET


def fresh_process(argv: list[str]) -> str:
    """stdout of ``python -m repro argv`` in a new interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout


@pytest.mark.parametrize("argv", [
    ["serve", "--devices", "3", "--seed", "5", "--duration", "6000",
     "--rate", "3.0", "--burst", "4", "--json"],
    ["ota", "--devices", "3", "--seed", "5", "--delay-max", "32", "--json"],
], ids=["serve", "ota"])
def test_warm_rerun_equals_fresh_process(argv, capsys):
    fresh = fresh_process(argv)
    for _ in range(2):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == fresh
    assert memo_stats()["hits"] > 0
