"""The bit-serial reference codec's bit writer and reader.

Both keep the whole buffer in one Python int: the writer shifts it on
every field and the reader shifts it for every field, so each is
quadratic in the buffer's length — harmless for the one bucket at a
time that :mod:`tests.reference_codec` packs and unpacks through them.
The runtime has no bit stream: its codec is table-driven and a
persisted filter is its words.
"""

from __future__ import annotations


class ReferenceBitWriter:
    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    @property
    def bit_length(self) -> int:
        return self._length

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def getvalue(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        nbytes = (self._length + 7) // 8
        pad = nbytes * 8 - self._length
        return (self._value << pad).to_bytes(nbytes, "big") if nbytes else b""


class ReferenceBitReader:
    def __init__(self, value: int, bit_length: int) -> None:
        if value < 0 or value.bit_length() > bit_length:
            raise ValueError(f"value {value} does not fit in {bit_length} bits")
        self._value = value
        self._length = bit_length
        self._pos = 0

    @classmethod
    def from_bytes(cls, data: bytes) -> "ReferenceBitReader":
        return cls(int.from_bytes(data, "big"), len(data) * 8)

    @property
    def remaining(self) -> int:
        return self._length - self._pos

    def read(self, width: int) -> int:
        if width > self.remaining:
            raise EOFError(f"asked for {width} bits, only {self.remaining} left")
        shift = self._length - self._pos - width
        self._pos += width
        return (self._value >> shift) & ((1 << width) - 1)

    def skip(self, width: int) -> None:
        if width > self.remaining:
            raise EOFError(f"cannot skip {width} bits, only {self.remaining} left")
        self._pos += width
