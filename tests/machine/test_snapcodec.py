"""Tests for the versioned snapshot byte codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import TrustLitePlatform
from repro.errors import SnapcodecError
from repro.machine import Snapshot, decode_snapshot, encode_snapshot
from repro.machine.snapcodec import (
    MAGIC,
    PAGE_SIZE,
    VERSION,
    _encode_value,
    _Reader,
    _decode_value,
    _write_uvarint,
)
from repro.sw.images import build_attestation_image, build_two_counter_image


@pytest.fixture(scope="module")
def golden():
    platform = TrustLitePlatform()
    platform.boot(build_attestation_image())
    return Snapshot.save(platform)


class TestRoundTrip:
    def test_encode_decode_encode_bit_identical(self, golden):
        blob = encode_snapshot(golden)
        again = encode_snapshot(decode_snapshot(blob))
        assert blob == again

    def test_decoded_fields_match_source(self, golden):
        decoded = decode_snapshot(encode_snapshot(golden))
        assert decoded.config == golden.config
        assert decoded.cpu == golden.cpu
        assert decoded.mpu == golden.mpu
        assert decoded.devices == golden.devices
        assert decoded.irq_pending == golden.irq_pending
        assert decoded.irq_vectors == golden.irq_vectors
        assert decoded.exception_vectors == golden.exception_vectors
        assert decoded.zero_devices == golden.zero_devices

    def test_host_handles_do_not_travel(self, golden):
        assert golden.image is not None
        decoded = decode_snapshot(encode_snapshot(golden))
        assert decoded.image is None
        assert decoded.boot_report is None

    def test_encoding_is_deterministic(self, golden):
        assert encode_snapshot(golden) == encode_snapshot(golden)

    def test_mid_run_snapshot_round_trips(self):
        platform = TrustLitePlatform()
        platform.boot(build_two_counter_image())
        platform.run(max_cycles=20_000)
        snapshot = Snapshot.save(platform)
        blob = encode_snapshot(snapshot)
        assert encode_snapshot(decode_snapshot(blob)) == blob


class TestLockstep:
    def test_decoded_clone_runs_lockstep_with_source(self, golden):
        """A platform hydrated from bytes is the same machine."""
        decoded = decode_snapshot(encode_snapshot(golden))
        source_clone = golden.clone()
        decoded_clone = decoded.clone()
        source_clone.run(max_cycles=30_000)
        decoded_clone.run(max_cycles=30_000)
        after_source = Snapshot.save(source_clone)
        after_decoded = Snapshot.save(decoded_clone)
        # Compare through the codec: it drops the host-side handles
        # (image, boot_report), which legitimately differ.
        assert encode_snapshot(after_decoded) == encode_snapshot(
            after_source
        )

    def test_decoded_clone_reference_engine_lockstep(self, golden):
        decoded = decode_snapshot(encode_snapshot(golden))
        fast = decoded.clone(engine="fast")
        reference = decoded.clone(engine="reference")
        fast.run(max_cycles=20_000)
        reference.run(max_cycles=20_000)
        assert encode_snapshot(Snapshot.save(fast)) == encode_snapshot(
            Snapshot.save(reference)
        )


class TestZeroPageSkip:
    def test_zero_pages_shrink_the_stream(self, golden):
        blob = encode_snapshot(golden)
        # The platform's memories alone exceed 1 MiB; a booted image
        # touches only a tiny fraction of them.
        assert golden.memory_bytes > 1024 * 1024
        assert len(blob) < golden.memory_bytes // 50

    def test_dirty_page_costs_one_page(self, golden):
        baseline = len(encode_snapshot(golden))
        platform = golden.clone()
        # Dirty a single byte in a previously all-zero DRAM page.
        dram = platform.soc.bus.device_named("dram")
        dram._data[len(dram._data) // 2] = 0xA5
        dirtied = len(encode_snapshot(Snapshot.save(platform)))
        assert baseline < dirtied <= baseline + PAGE_SIZE + 16


class TestErrorPaths:
    def test_bad_magic_rejected(self, golden):
        blob = bytearray(encode_snapshot(golden))
        blob[:4] = b"NOPE"
        with pytest.raises(SnapcodecError, match="magic"):
            decode_snapshot(bytes(blob))

    def test_unsupported_version_rejected(self, golden):
        blob = bytearray(encode_snapshot(golden))
        blob[len(MAGIC)] = VERSION + 1
        with pytest.raises(SnapcodecError, match="version"):
            decode_snapshot(bytes(blob))

    def test_truncated_stream_rejected(self, golden):
        blob = encode_snapshot(golden)
        with pytest.raises(SnapcodecError):
            decode_snapshot(blob[: len(blob) // 2])

    def test_trailing_garbage_rejected(self, golden):
        blob = encode_snapshot(golden)
        with pytest.raises(SnapcodecError, match="trailing"):
            decode_snapshot(blob + b"\x00")

    def test_live_object_cannot_encode(self):
        out = bytearray()
        with pytest.raises(SnapcodecError, match="closed type set"):
            _encode_value(out, object())

    def test_list_cannot_encode(self):
        # Lists are mutable aliases — the codec only speaks tuples.
        out = bytearray()
        with pytest.raises(SnapcodecError, match="closed type set"):
            _encode_value(out, [1, 2])

    def test_non_canonical_varint_rejected(self):
        # 0x80 0x00 re-encodes zero with a needless continuation.
        reader = _Reader(b"\x80\x00")
        with pytest.raises(SnapcodecError, match="non-canonical"):
            reader.uvarint()

    def test_oversized_varint_rejected(self):
        reader = _Reader(b"\xff" * 11 + b"\x01")
        with pytest.raises(SnapcodecError, match="64 bits"):
            reader.uvarint()

    def test_unknown_tag_rejected(self):
        with pytest.raises(SnapcodecError, match="tag"):
            _decode_value(_Reader(b"\x2a"))

    def test_out_of_order_pages_rejected(self):
        # Hand-build a paged run with descending page indices.
        out = bytearray([7])  # _T_PAGED
        _write_uvarint(out, 3 * PAGE_SIZE)  # total
        _write_uvarint(out, 2)  # run count
        _write_uvarint(out, 1)
        out += b"\x01" * PAGE_SIZE
        _write_uvarint(out, 0)
        out += b"\x01" * PAGE_SIZE
        with pytest.raises(SnapcodecError, match="out of order"):
            _decode_value(_Reader(bytes(out)))


# Strategy for the codec's closed value universe.
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.binary(max_size=PAGE_SIZE * 2 + 64)
    | st.text(max_size=64),
    lambda children: st.lists(children, max_size=6).map(tuple),
    max_leaves=20,
)


class TestValueProperties:
    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_value_round_trip(self, value):
        out = bytearray()
        _encode_value(out, value)
        reader = _Reader(bytes(out))
        decoded = _decode_value(reader)
        assert reader.exhausted()
        assert decoded == value
        # bools and ints compare equal across types; pin the types.
        assert type(decoded) is type(value) or isinstance(
            value, bytes
        )

    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_value_encoding_canonical(self, value):
        first = bytearray()
        _encode_value(first, value)
        second = bytearray()
        reader = _Reader(bytes(first))
        _encode_value(second, _decode_value(reader))
        assert bytes(first) == bytes(second)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE * 3))
    def test_paged_blob_round_trip(self, blob):
        out = bytearray()
        _encode_value(out, blob)
        assert _decode_value(_Reader(bytes(out))) == blob


class TestMalformedInputFuzz:
    """Satellite invariant: a corrupted blob NEVER crashes the decoder.

    Every decode of mangled bytes must either raise
    ``SnapcodecError`` or return a ``Snapshot`` — no ``IndexError``,
    ``struct.error``, ``MemoryError`` or hang, whatever the
    corruption.  Seeded (not hypothesis) so the corpus is stable.
    """

    @staticmethod
    def _decode_must_be_typed(bad):
        try:
            snapshot = decode_snapshot(bad)
        except SnapcodecError:
            return "rejected"
        assert isinstance(snapshot, Snapshot)
        return "decoded"

    def test_truncations(self, golden):
        import random

        blob = encode_snapshot(golden)
        rng = random.Random("snapcodec:fuzz:truncate")
        cuts = {0, 1, len(MAGIC), len(MAGIC) + 1, len(blob) - 1}
        cuts.update(rng.randrange(len(blob)) for _ in range(60))
        for cut in sorted(cuts):
            self._decode_must_be_typed(blob[:cut])

    def test_bit_flips(self, golden):
        import random

        blob = encode_snapshot(golden)
        rng = random.Random("snapcodec:fuzz:flip")
        for _ in range(60):
            out = bytearray(blob)
            for _ in range(rng.randrange(1, 9)):
                out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
            self._decode_must_be_typed(bytes(out))

    def test_garbage_and_extremes(self, golden):
        import random

        rng = random.Random("snapcodec:fuzz:garbage")
        self._decode_must_be_typed(b"")
        self._decode_must_be_typed(MAGIC)
        self._decode_must_be_typed(MAGIC + bytes([VERSION + 1]))
        self._decode_must_be_typed(MAGIC + b"\xff" * 64)
        for size in (1, 16, 256, 4096):
            self._decode_must_be_typed(rng.randbytes(size))
        # Huge declared lengths must be rejected, not allocated.
        blob = encode_snapshot(golden)
        self._decode_must_be_typed(blob[: len(MAGIC) + 1] + b"\xff" * 10)

    def test_spliced_payloads(self, golden):
        import random

        blob = encode_snapshot(golden)
        rng = random.Random("snapcodec:fuzz:splice")
        for _ in range(30):
            a = rng.randrange(len(blob))
            b = rng.randrange(len(blob))
            lo, hi = min(a, b), max(a, b)
            self._decode_must_be_typed(blob[:lo] + blob[hi:])
