"""Strict primitive layer shared by the repository's byte codecs.

The snapshot codec (:mod:`repro.machine.snapcodec`) and the firmware
container codec (:mod:`repro.ota.container`) build on the same two
primitives: canonical unsigned varints and a bounds-checked reader.
Each codec passes its own error class, so every way a malformed
stream can fail surfaces as that codec's typed error — never
``IndexError`` or a runaway loop.
"""

from __future__ import annotations


def write_uvarint(out: bytearray, value: int, error: type[Exception]) -> None:
    """Append ``value`` as a canonical LEB128 varint."""
    if value < 0:
        raise error(f"cannot encode negative varint: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class Reader:
    """Bounds-checked cursor over ``bytes``; failures raise ``error``.

    ``what`` names the stream in truncation messages ("stream",
    "container").
    """

    def __init__(self, data: bytes, error: type[Exception], what: str) -> None:
        self.data = data
        self.pos = 0
        self.error = error
        self.what = what

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise self.error(
                f"truncated {self.what}: need {count} byte(s) at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if shift and byte == 0:
                    raise self.error(
                        f"non-canonical varint at offset {self.pos}"
                    )
                return value
            shift += 7
            if shift > 70:
                raise self.error("varint exceeds 64 bits")

    def svarint(self) -> int:
        """A ZigZag-encoded signed varint."""
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def exhausted(self) -> bool:
        return self.pos == len(self.data)
