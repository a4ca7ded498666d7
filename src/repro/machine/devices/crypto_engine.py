"""MMIO crypto accelerator (sponge hash + keyed MAC).

The paper notes TrustLite's base-cost margin is ample to absorb a
lightweight hash engine such as Spongent (Sec. 5.2), and that
trustlets can be given exclusive access to cryptographic accelerators
through EA-MPU rules (Sec. 3.3).  This device lets guest code hash data
and compute MACs word-by-word; the key slot is just another MMIO range,
so the Secure Loader can make it accessible solely to an attestation
trustlet — the SMART-style key-gating pattern, realized purely by
memory access control.

Register map::

    0x00  CTRL     w   1 = reset absorber, 2 = finalize hash,
                       3 = finalize as MAC under the key slot
    0x04  STATUS   r   bit0 = digest ready
    0x08  DATA_IN  w   absorb one 32-bit word
    0x10  DIGEST   r   16-byte digest (4 words), valid when ready
    0x20  KEY      r/w 16-byte key slot (4 words)
"""

from __future__ import annotations

from repro.crypto.mac import mac
from repro.crypto.sponge import DIGEST_SIZE, sponge_hash
from repro.errors import BusError
from repro.machine.device import Device

CTRL = 0x00
STATUS = 0x04
DATA_IN = 0x08
DIGEST = 0x10
KEY = 0x20

SIZE = 0x30

CTRL_RESET = 1
CTRL_FINALIZE = 2
CTRL_FINALIZE_MAC = 3

STATUS_READY = 0x1

# Cycle cost charged per absorbed word, approximating a serialized
# lightweight hash datapath; used only by benchmark reporting.
CYCLES_PER_WORD = 4


class CryptoEngine(Device):
    """Word-at-a-time sponge hash / MAC engine."""

    def __init__(self, name: str = "crypto") -> None:
        super().__init__(name, SIZE)
        self._absorbed = bytearray()
        self._digest: bytes | None = None
        self._key = bytearray(DIGEST_SIZE)
        self.words_absorbed = 0

    def read(self, offset: int, size: int) -> int:
        self._check_offset(offset, size)
        if size != 4:
            raise BusError(f"crypto {self.name!r} requires word access")
        if offset == STATUS:
            return STATUS_READY if self._digest is not None else 0
        if DIGEST <= offset < DIGEST + DIGEST_SIZE:
            if self._digest is None:
                raise BusError("crypto DIGEST read before finalize")
            index = offset - DIGEST
            return int.from_bytes(self._digest[index:index + 4], "little")
        if KEY <= offset < KEY + DIGEST_SIZE:
            index = offset - KEY
            return int.from_bytes(self._key[index:index + 4], "little")
        raise BusError(f"unreadable crypto register offset {offset:#x}")

    def write(self, offset: int, size: int, value: int) -> None:
        self._check_offset(offset, size)
        if size != 4:
            raise BusError(f"crypto {self.name!r} requires word access")
        if offset == CTRL:
            self._control(value)
        elif offset == DATA_IN:
            if self._digest is not None:
                raise BusError("crypto DATA_IN write after finalize")
            self._absorbed += (value & 0xFFFF_FFFF).to_bytes(4, "little")
            self.words_absorbed += 1
        elif KEY <= offset < KEY + DIGEST_SIZE:
            index = offset - KEY
            self._key[index:index + 4] = (value & 0xFFFF_FFFF) \
                .to_bytes(4, "little")
        else:
            raise BusError(f"unwritable crypto register offset {offset:#x}")

    def _control(self, value: int) -> None:
        if value == CTRL_RESET:
            self._absorbed.clear()
            self._digest = None
        elif value == CTRL_FINALIZE:
            self._digest = sponge_hash(bytes(self._absorbed))
        elif value == CTRL_FINALIZE_MAC:
            self._digest = mac(bytes(self._key), bytes(self._absorbed))
        else:
            raise BusError(f"unknown crypto CTRL command {value:#x}")

    def snapshot_state(self) -> tuple:
        return (bytes(self._absorbed), self._digest, bytes(self._key),
                self.words_absorbed)

    def restore_state(self, state) -> None:
        absorbed, digest, key, words = state
        self._absorbed[:] = absorbed
        self._digest = digest
        self._key[:] = key
        self.words_absorbed = words

    def set_key(self, key: bytes) -> None:
        """Host-side key provisioning (manufacturing time)."""
        if len(key) != DIGEST_SIZE:
            raise BusError(f"crypto key must be {DIGEST_SIZE} bytes")
        self._key[:] = key
