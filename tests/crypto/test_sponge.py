"""Unit and property tests for the crypto substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.mac import constant_time_equal, mac
from repro.crypto.sponge import DIGEST_SIZE, SpongeHash, sponge_hash
from repro.crypto.tokens import NONCE_SIZE, NonceSource, session_token


class TestSponge:
    def test_digest_size(self):
        assert len(sponge_hash(b"")) == DIGEST_SIZE

    def test_deterministic(self):
        assert sponge_hash(b"abc") == sponge_hash(b"abc")

    def test_different_inputs_differ(self):
        assert sponge_hash(b"abc") != sponge_hash(b"abd")

    def test_empty_vs_zero_byte(self):
        assert sponge_hash(b"") != sponge_hash(b"\x00")

    def test_incremental_equals_one_shot(self):
        incremental = SpongeHash().update(b"hello ").update(b"world").digest()
        assert incremental == sponge_hash(b"hello world")

    def test_digest_idempotent(self):
        hasher = SpongeHash().update(b"x")
        assert hasher.digest() == hasher.digest()

    def test_update_after_digest_rejected(self):
        hasher = SpongeHash().update(b"x")
        hasher.digest()
        with pytest.raises(ValueError):
            hasher.update(b"y")

    def test_hexdigest(self):
        assert SpongeHash().update(b"x").hexdigest() == \
            sponge_hash(b"x").hex()

    @given(st.binary(max_size=200))
    def test_property_length_always_16(self, data):
        assert len(sponge_hash(data)) == DIGEST_SIZE

    @given(st.binary(max_size=100), st.integers(min_value=0, max_value=99))
    def test_property_split_invariance(self, data, split):
        """Absorbing in any two chunks matches one-shot hashing."""
        split = min(split, len(data))
        parts = SpongeHash().update(data[:split]).update(data[split:])
        assert parts.digest() == sponge_hash(data)

    @given(st.binary(min_size=1, max_size=64))
    def test_property_padding_no_trivial_extension_collision(self, data):
        assert sponge_hash(data) != sponge_hash(data + b"\x00")


class TestMac:
    def test_key_separates(self):
        assert mac(b"k1", b"msg") != mac(b"k2", b"msg")

    def test_message_separates(self):
        assert mac(b"k", b"m1") != mac(b"k", b"m2")

    def test_key_message_boundary_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert mac(b"ab", b"c") != mac(b"a", b"bc")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"same", b"same")
        assert not constant_time_equal(b"same", b"diff")
        assert not constant_time_equal(b"short", b"longer")

    @given(st.binary(max_size=32), st.binary(max_size=64))
    def test_property_mac_deterministic(self, key, message):
        assert mac(key, message) == mac(key, message)


class TestTokens:
    def test_nonce_uniqueness(self):
        source = NonceSource()
        nonces = {source.next_nonce() for _ in range(100)}
        assert len(nonces) == 100

    def test_nonce_size(self):
        assert len(NonceSource().next_nonce()) == NONCE_SIZE

    def test_distinct_seeds_distinct_nonces(self):
        assert NonceSource(b"a").next_nonce() != NonceSource(b"b").next_nonce()

    def test_int_and_str_seeds_are_canonical(self):
        assert NonceSource(7).next_nonce() == NonceSource(7).next_nonce()
        assert NonceSource(7).next_nonce() != NonceSource(8).next_nonce()
        assert NonceSource("run").next_nonce() == \
            NonceSource(b"run").next_nonce()
        # An int seed is namespaced, not just stringified into the
        # byte-seed space.
        assert NonceSource(7).next_nonce() != NonceSource("7").next_nonce()

    def test_session_token_binds_all_fields(self):
        base = session_token(b"A", b"B", b"n1", b"n2")
        assert base != session_token(b"X", b"B", b"n1", b"n2")
        assert base != session_token(b"A", b"X", b"n1", b"n2")
        assert base != session_token(b"A", b"B", b"xx", b"n2")
        assert base != session_token(b"A", b"B", b"n1", b"xx")

    def test_session_token_field_boundaries(self):
        # ("AB","C") vs ("A","BC") must not produce the same token.
        assert session_token(b"AB", b"C", b"", b"") != \
            session_token(b"A", b"BC", b"", b"")

    def test_session_token_is_directional(self):
        assert session_token(b"A", b"B", b"n", b"m") != \
            session_token(b"B", b"A", b"n", b"m")

    def test_session_token_rejects_a_field_too_long_for_its_prefix(self):
        longest = bytes(0xFFFF)
        assert len(session_token(longest, b"B", b"n", b"m")) == DIGEST_SIZE
        with pytest.raises(ValueError, match="nonce_b"):
            session_token(b"A", b"B", b"n", bytes(0x10000))
        with pytest.raises(ValueError, match="initiator"):
            session_token(bytes(0x10000), b"B", b"n", b"m")
