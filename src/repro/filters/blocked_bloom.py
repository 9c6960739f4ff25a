"""Blocked Bloom filter (paper section 2; Putze et al.; RocksDB's choice).

An array of contiguous cache-line-sized Bloom filters. A key first
hashes to one block, then sets/tests its h bits *inside that block* —
so any insertion or query costs exactly one memory I/O. The price is a
slightly higher false positive rate than a standard Bloom filter with
the same budget (block load imbalance).
"""

from __future__ import annotations

import math

from repro.common.counters import MemoryIOCounter
from repro.common.hashing import key_digest, seeded

#: One CPU cache line, in bits (64 bytes).
BLOCK_BITS = 512

_BLOCK_SEED = 2000
_PROBE_SEED = 2100
_block_digest = seeded(_BLOCK_SEED)
_probe_digest = seeded(_PROBE_SEED)


class BlockedBloomFilter:
    """Cache-line-blocked Bloom filter sized for ``num_entries`` at
    ``bits_per_entry``."""

    def __init__(
        self,
        num_entries: int,
        bits_per_entry: float,
        memory_ios: MemoryIOCounter | None = None,
    ) -> None:
        if num_entries < 1:
            raise ValueError(f"num_entries must be >= 1, got {num_entries}")
        if bits_per_entry <= 0:
            raise ValueError(f"bits_per_entry must be > 0, got {bits_per_entry}")
        total_bits = max(BLOCK_BITS, round(num_entries * bits_per_entry))
        self._num_blocks = (total_bits + BLOCK_BITS - 1) // BLOCK_BITS
        self._num_hashes = max(1, round(bits_per_entry * math.log(2)))
        self._blocks = [0] * self._num_blocks
        self._memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        self.num_entries_added = 0

    @property
    def size_bits(self) -> int:
        return self._num_blocks * BLOCK_BITS

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    def _block_and_bits(self, key: int) -> tuple[int, int]:
        block = _block_digest(key) % self._num_blocks
        digest = _probe_digest(key)
        mask = 0
        for i in range(self._num_hashes):
            # Carve 9-bit probe positions out of one digest; re-mix when
            # the digest runs dry.
            if i and i % 7 == 0:
                digest = key_digest(digest, seed=_PROBE_SEED + i)
            pos = (digest >> (9 * (i % 7))) & (BLOCK_BITS - 1)
            mask |= 1 << pos
        return block, mask

    def add(self, key: int) -> None:
        """Insert: one memory I/O — the block is one cache line."""
        self._memory_ios.add("filter", 1)
        block, mask = self._block_and_bits(key)
        self._blocks[block] |= mask
        self.num_entries_added += 1

    def may_contain(self, key: int) -> bool:
        """Membership test: one memory I/O."""
        self._memory_ios.add("filter", 1)
        block, mask = self._block_and_bits(key)
        return self._blocks[block] & mask == mask

    def expected_fpp(self) -> float:
        """Approximate FPP (standard Bloom formula; the blocked penalty
        shows up in measurements, not in this estimate)."""
        n = self.num_entries_added
        if n == 0:
            return 0.0
        h = self._num_hashes
        m = self.size_bits
        return (1.0 - math.exp(-h * n / m)) ** h
