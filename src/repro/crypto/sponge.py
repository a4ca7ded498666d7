"""Sponge-construction hash with Spongent-like parameters.

Layout: 256-bit state (eight 32-bit words), 64-bit rate, 192-bit
capacity, 128-bit digest.  The permutation is an ARX network of
ChaCha-style quarter-rounds with distinct round constants — chosen for
clear, dependency-free Python rather than for cryptanalytic strength
(see the package docstring).  Padding is the standard pad10*1 sponge
padding at byte granularity (0x80 ... 0x01, or 0x81 for a single byte).

:func:`sponge_hash`, the one-shot form every caller uses, answers
repeated inputs from a byte-bounded memo keyed on the exact input
bytes; :func:`memo_stats` reports its counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

DIGEST_SIZE = 16
RATE = 8
STATE_WORDS = 8
ROUNDS = 12

_MASK = 0xFFFF_FFFF
#: ``x * _TWICE`` is the 32-bit word ``x`` written twice, as 64 bits.
_TWICE = 0x1_0000_0001

# Round constants: first 32 bits of the fractional parts of sqrt of the
# first primes (the SHA-2 trick), precomputed so the module has no
# runtime dependency on floating point behaviour.
_ROUND_CONSTANTS = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
    0xCBBB9D5D, 0x629A292A, 0x9159015A, 0x152FECD8,
)


def _permute(state: list[int]) -> None:
    """Twelve rounds of four quarter-rounds, with the state in locals.

    Each quarter-round on words (a, b, c, d) is the ChaCha one:
    ``a += b; d ^= a; d <<<= 16; c += d; b ^= c; b <<<= 12``, then the
    same with rotations 8 and 7.  A round folds its constant into word
    0, then runs the columns (0, 1, 2, 3) and (4, 5, 6, 7) and the
    diagonals (0, 5, 2, 7) and (4, 1, 6, 3).  ``x <<< r`` is written
    ``x * _TWICE >> (32 - r) & mask``: the product holds two copies of
    the word side by side, so one shift lands the rotated word in the
    low 32 bits.  Everything is inline because a call per quarter-round
    dominated the host cost.
    """
    s0, s1, s2, s3, s4, s5, s6, s7 = state
    mask = _MASK
    for constant in _ROUND_CONSTANTS:
        s0 ^= constant
        # Columns.
        s0 = (s0 + s1) & mask
        s3 = (s3 ^ s0) * _TWICE >> 16 & mask
        s2 = (s2 + s3) & mask
        s1 = (s1 ^ s2) * _TWICE >> 20 & mask
        s0 = (s0 + s1) & mask
        s3 = (s3 ^ s0) * _TWICE >> 24 & mask
        s2 = (s2 + s3) & mask
        s1 = (s1 ^ s2) * _TWICE >> 25 & mask
        s4 = (s4 + s5) & mask
        s7 = (s7 ^ s4) * _TWICE >> 16 & mask
        s6 = (s6 + s7) & mask
        s5 = (s5 ^ s6) * _TWICE >> 20 & mask
        s4 = (s4 + s5) & mask
        s7 = (s7 ^ s4) * _TWICE >> 24 & mask
        s6 = (s6 + s7) & mask
        s5 = (s5 ^ s6) * _TWICE >> 25 & mask
        # Diagonals.
        s0 = (s0 + s5) & mask
        s7 = (s7 ^ s0) * _TWICE >> 16 & mask
        s2 = (s2 + s7) & mask
        s5 = (s5 ^ s2) * _TWICE >> 20 & mask
        s0 = (s0 + s5) & mask
        s7 = (s7 ^ s0) * _TWICE >> 24 & mask
        s2 = (s2 + s7) & mask
        s5 = (s5 ^ s2) * _TWICE >> 25 & mask
        s4 = (s4 + s1) & mask
        s3 = (s3 ^ s4) * _TWICE >> 16 & mask
        s6 = (s6 + s3) & mask
        s1 = (s1 ^ s6) * _TWICE >> 20 & mask
        s4 = (s4 + s1) & mask
        s3 = (s3 ^ s4) * _TWICE >> 24 & mask
        s6 = (s6 + s3) & mask
        s1 = (s1 ^ s6) * _TWICE >> 25 & mask
    state[:] = (s0, s1, s2, s3, s4, s5, s6, s7)


class SpongeHash:
    """Incremental sponge hash (absorb bytes, squeeze a 128-bit digest)."""

    def __init__(self) -> None:
        self._state = [0] * STATE_WORDS
        self._buffer = bytearray()
        self._finalized: bytes | None = None

    def update(self, data: bytes) -> "SpongeHash":
        """Absorb ``data``; chainable.  Rejects use after finalization."""
        if self._finalized is not None:
            raise ValueError("cannot update a finalized hash")
        self._buffer += data
        self._absorb_whole_blocks()
        return self

    def _absorb_whole_blocks(self) -> None:
        buffer = self._buffer
        whole = len(buffer) - len(buffer) % RATE
        if not whole:
            return
        state = self._state
        with memoryview(buffer) as view:
            for offset in range(0, whole, RATE):
                block = int.from_bytes(view[offset:offset + RATE], "little")
                state[0] ^= block & _MASK
                state[1] ^= block >> 32
                _permute(state)
        del buffer[:whole]

    def digest(self) -> bytes:
        """Finalize (idempotent) and return the 16-byte digest."""
        if self._finalized is None:
            # pad10*1 to a whole block: 0x80 0x00.. 0x01, or 0x81 alone.
            pad = RATE - len(self._buffer)
            self._buffer += (
                b"\x81" if pad == 1 else b"\x80" + bytes(pad - 2) + b"\x01"
            )
            self._absorb_whole_blocks()
            # Squeeze two rate blocks: DIGEST_SIZE is 2 * RATE.
            state = self._state
            first = (state[0] | state[1] << 32).to_bytes(RATE, "little")
            _permute(state)
            second = (state[0] | state[1] << 32).to_bytes(RATE, "little")
            self._finalized = first + second
        return self._finalized

    def hexdigest(self) -> str:
        return self.digest().hex()


#: Byte budget of the :func:`sponge_hash` memo.  Each entry is charged
#: its input length plus ``_ENTRY_OVERHEAD``, a rough count of the host
#: bytes an entry costs beyond its key (object headers, the digest, the
#: ordered-dict node), so many tiny inputs cannot outgrow the budget.
_MEMO_BUDGET = 4 << 20
#: Inputs longer than this are hashed but never stored.
_MEMO_ENTRY_CAP = 64 << 10
_ENTRY_OVERHEAD = 160

#: Exact input bytes -> digest, least recently used first.
_memo: OrderedDict[bytes, bytes] = OrderedDict()
_memo_counts = {"hits": 0, "misses": 0, "stored_bytes": 0, "evictions": 0}
#: Guards the memo and its counters; hashing itself runs outside it.
_memo_lock = threading.Lock()


def sponge_hash(data: bytes) -> bytes:
    """One-shot 128-bit hash of ``data``.

    Answers from a process-wide LRU memo keyed on the exact input
    bytes.  The hash is a pure function of those bytes, so a hit returns
    what hashing would: an input that differs in any byte is a
    different key and is hashed for real.  A mutable input is copied to
    ``bytes`` before it becomes a key, so mutating it later cannot
    change a stored entry.
    """
    key = data if type(data) is bytes else bytes(data)
    counts = _memo_counts
    with _memo_lock:
        digest = _memo.get(key)
        if digest is not None:
            _memo.move_to_end(key)
            counts["hits"] += 1
            return digest
        counts["misses"] += 1
    digest = SpongeHash().update(key).digest()
    if len(key) <= _MEMO_ENTRY_CAP:
        with _memo_lock:
            # Another thread may have stored the same input meanwhile.
            if key not in _memo:
                _memo[key] = digest
                counts["stored_bytes"] += len(key) + _ENTRY_OVERHEAD
            while counts["stored_bytes"] > _MEMO_BUDGET:
                evicted, _ = _memo.popitem(last=False)
                counts["stored_bytes"] -= len(evicted) + _ENTRY_OVERHEAD
                counts["evictions"] += 1
    return digest


def memo_stats() -> dict[str, int]:
    """Counters of the :func:`sponge_hash` memo in this process.

    ``hits``, ``misses`` and ``evictions`` count since start-up;
    ``entries`` and ``stored_bytes`` (charged as the budget counts
    them) describe what it holds now.  The figures depend on what this
    process hashed before, so they belong in profiles and tests, never
    in a report.
    """
    with _memo_lock:
        return {**_memo_counts, "entries": len(_memo)}
