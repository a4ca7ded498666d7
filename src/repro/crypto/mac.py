"""Keyed MAC on top of the sponge hash.

A sponge with the key absorbed first is a secure MAC construction for
sponge hashes (no length-extension issue), so the MAC is simply
``H(len(key) || key || message)``.  Used by the SMART baseline's
attestation routine and the remote-attestation trustlet model.
"""

from __future__ import annotations

from repro.crypto.sponge import sponge_hash


def mac(key: bytes, message: bytes) -> bytes:
    """128-bit authentication tag over ``message`` under ``key``.

    One :func:`sponge_hash` of the concatenation: the sponge streams,
    so this equals absorbing the three parts one after another, and it
    shares the hash memo with every other caller.
    """
    return sponge_hash(len(key).to_bytes(4, "little") + key + message)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
