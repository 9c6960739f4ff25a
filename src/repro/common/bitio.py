"""MSB-first bit-level writer and reader.

Used by the Chucky bucket codec (to pack a variable-length combination
code followed by variable-length fingerprints into a fixed-size bucket)
and by the persistence layer (to dump fingerprints compactly).

Bits are emitted most-significant-first, which makes the packed integer
directly comparable with a left-aligned code: a bucket whose first bits
form a canonical Huffman code can be decoded from its prefix.
"""

from __future__ import annotations


#: Bits a :class:`BitWriter` accumulates in one int before it starts
#: the next: shifting one ever-growing int would copy it on every write.
_CHUNK_BITS = 4096


class BitWriter:
    """Accumulates bits MSB-first into a list of fixed-size int chunks,
    joined pairwise only when the value is asked for — linear in the
    bits written, however many there are."""

    def __init__(self) -> None:
        #: Full chunks, oldest first, as ``(value, bits)``.
        self._chunks: list[tuple[int, int]] = []
        self._value = 0
        self._bits = 0
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._length

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (MSB-first).

        ``value`` must fit in ``width`` bits; ``width`` may be zero, in
        which case nothing is written.
        """
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._bits += width
        self._length += width
        if self._bits >= _CHUNK_BITS:
            self._chunks.append((self._value, self._bits))
            self._value = 0
            self._bits = 0

    def getvalue(self) -> int:
        """The packed bits as a non-negative integer (left-aligned at bit
        ``bit_length - 1``)."""
        parts = [*self._chunks, (self._value, self._bits)]
        while len(parts) > 1:
            # Neighbours pairwise: each round halves the list, so every
            # bit is shifted O(log chunks) times, not once per write.
            joined = [
                ((hi << lo_bits) | lo, hi_bits + lo_bits)
                for (hi, hi_bits), (lo, lo_bits) in zip(parts[::2], parts[1::2])
            ]
            if len(parts) % 2:
                joined.append(parts[-1])
            parts = joined
        return parts[0][0]

    def to_bytes(self) -> bytes:
        """The packed bits as bytes, zero-padded on the right to a byte
        boundary."""
        nbytes = (self._length + 7) // 8
        pad = nbytes * 8 - self._length
        return (self.getvalue() << pad).to_bytes(nbytes, "big") if nbytes else b""


class BitReader:
    """Reads bits MSB-first from an integer produced by :class:`BitWriter`
    (or its bytes). Each field is cut from the few bytes it spans, so a
    read costs its width, not the length of the whole buffer."""

    def __init__(self, value: int, bit_length: int) -> None:
        if value < 0:
            raise ValueError("value must be non-negative")
        if value.bit_length() > bit_length:
            raise ValueError(
                f"value needs {value.bit_length()} bits but bit_length={bit_length}"
            )
        nbytes = (bit_length + 7) // 8
        self._data = (value << (nbytes * 8 - bit_length)).to_bytes(nbytes, "big")
        self._length = bit_length
        self._pos = 0

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitReader":
        reader = cls(0, 0)
        reader._data = bytes(data)
        reader._length = len(data) * 8
        return reader

    @property
    def position(self) -> int:
        """Number of bits consumed so far."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of bits left to read."""
        return self._length - self._pos

    def _window(self, start: int, width: int) -> int:
        """The ``width`` bits at bit offset ``start`` (all in range)."""
        end = start + width
        hi = (end + 7) >> 3
        window = int.from_bytes(self._data[start >> 3 : hi], "big")
        return (window >> ((hi << 3) - end)) & ((1 << width) - 1)

    def read(self, width: int) -> int:
        """Consume and return the next ``width`` bits as an integer."""
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        if width > self.remaining:
            raise EOFError(f"asked for {width} bits, only {self.remaining} left")
        start = self._pos
        self._pos = start + width
        return self._window(start, width)

    def skip(self, width: int) -> None:
        """Advance the cursor by ``width`` bits."""
        if width > self.remaining:
            raise EOFError(f"cannot skip {width} bits, only {self.remaining} left")
        self._pos += width
