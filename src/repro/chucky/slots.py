"""Flat machine-word slot storage for the LID filters.

The seed kept buckets as Python object graphs — a list of ints for the
compressed filter, a list of lists of (lid, fp) tuples for the
uncompressed one. Both are replaced here by flat ``array`` buffers so a
filter's resident state is machine words, matching the succinct pitch:
the compressed filter's entire bucket array is ``num_buckets *
words_per_bucket`` unsigned 64-bit words, and the uncompressed filter is
two parallel arrays (16-bit LIDs, 64-bit fingerprints) indexed by
``bucket * S + slot``.

The stores are *representation only*: no I/O accounting, no filter
logic. :class:`~repro.chucky.filter.ChuckyFilter` and
:class:`~repro.chucky.filter.UncompressedLidFilter` stay thin views over
them, so serialization and counted behavior are unchanged.
"""

from __future__ import annotations

from array import array

Slot = tuple[int, int]


class PackedBucketStore:
    """``num_buckets`` packed buckets of ``bucket_bits`` bits each,
    stored contiguously in 64-bit words (big-endian word order within a
    bucket). Supports the list-ish protocol the filter uses:
    ``store[i]``, ``store[i] = packed``, iteration, ``len``.
    """

    __slots__ = ("num_buckets", "bucket_bits", "words_per_bucket", "_words")

    def __init__(self, num_buckets: int, bucket_bits: int, fill: int = 0) -> None:
        if num_buckets < 0:
            raise ValueError(f"num_buckets must be >= 0, got {num_buckets}")
        if bucket_bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bucket_bits}")
        self.num_buckets = num_buckets
        self.bucket_bits = bucket_bits
        self.words_per_bucket = (bucket_bits + 63) // 64
        self._words = array("Q", self._split(fill)) * num_buckets

    def _split(self, value: int) -> list[int]:
        """A bucket value as its word list, most significant word first."""
        if value >> self.bucket_bits:
            raise ValueError(
                f"value {value:#x} wider than {self.bucket_bits}-bit bucket"
            )
        w = self.words_per_bucket
        if w == 1:
            return [value]
        return [(value >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(w - 1, -1, -1)]

    def __len__(self) -> int:
        return self.num_buckets

    def __getitem__(self, index: int) -> int:
        if self.words_per_bucket == 1:
            return self._words[index]
        base = index * self.words_per_bucket
        value = 0
        for i in range(base, base + self.words_per_bucket):
            value = (value << 64) | self._words[i]
        return value

    @property
    def reader(self) -> "array | PackedBucketStore":
        """Indexes (and assigns) a bucket's packed value on the hot
        paths: the word array itself when a bucket is one word (no
        Python-level ``__getitem__`` / ``__setitem__``), the store
        otherwise."""
        return self._words if self.words_per_bucket == 1 else self

    def __setitem__(self, index: int, value: int) -> None:
        if self.words_per_bucket == 1:
            self._words[index] = value
        else:
            base = index * self.words_per_bucket
            for offset, word in enumerate(self._split(value)):
                self._words[base + offset] = word

    def tobytes(self) -> bytes:
        """Every word as stored, in host byte order."""
        return self._words.tobytes()

    def load(self, raw: "bytes | memoryview") -> None:
        """Overwrite every word in place (readers stay bound to the
        array) from :meth:`tobytes` output of the same geometry."""
        memoryview(self._words).cast("B")[:] = raw

    def __iter__(self):
        if self.words_per_bucket == 1:
            return iter(self._words)
        return (self[i] for i in range(self.num_buckets))


class SlotStore:
    """Uncompressed (LID, fingerprint) slots as two parallel flat arrays.

    LIDs are 16-bit words, fingerprints 64-bit; slot ``s`` of bucket
    ``b`` lives at flat index ``b * slots + s``. ``read_bucket`` /
    ``write_bucket`` present the same list-of-tuples view the filter
    logic has always consumed.
    """

    __slots__ = ("num_buckets", "slots", "empty_lid", "_lids", "_fps")

    def __init__(self, num_buckets: int, slots: int, empty_lid: int) -> None:
        n = num_buckets * slots
        self.num_buckets = num_buckets
        self.slots = slots
        self.empty_lid = empty_lid
        self._lids = array("H", [empty_lid]) * n
        self._fps = array("Q", [0]) * n

    def read_bucket(self, index: int) -> list[Slot]:
        base = index * self.slots
        lids, fps = self._lids, self._fps
        return [(lids[i], fps[i]) for i in range(base, base + self.slots)]

    def write_bucket(self, index: int, slot_list: list[Slot]) -> None:
        base = index * self.slots
        lids, fps = self._lids, self._fps
        for offset, (lid, fp) in enumerate(slot_list):
            lids[base + offset] = lid
            fps[base + offset] = fp
