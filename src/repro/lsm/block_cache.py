"""LRU block cache.

KV-stores keep frequently accessed data blocks in memory to optimize for
skew (paper Problem 2). Chucky's headline win on skewed workloads
(Figure 14 F) is that a cached read no longer has to traverse one Bloom
filter per sub-level before the cached block can even be identified.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.counters import MemoryIOCounter
from repro.lsm.storage import Block, StorageDevice


class BlockCache:
    """Fixed-capacity LRU cache keyed by (run_id, block_index).

    :meth:`get` is the one block fetch of a read: a hit is served from
    memory, a miss loads the block through the storage device and caches
    it. :meth:`invalidate_run` takes the run's block count and pops its
    keys, so it costs O(blocks of that run) without a per-run index —
    compaction-heavy workloads delete runs constantly, and a scan of the
    whole cache would pay O(capacity) per deletion.
    """

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_blocks}")
        self._capacity = capacity_blocks
        self._blocks: OrderedDict[tuple[int, int], Block] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(
        self,
        run_id: int,
        index: int,
        storage: StorageDevice,
        memory_ios: MemoryIOCounter,
    ) -> Block:
        """Block ``index`` of run ``run_id``. A hit costs one memory I/O
        (category ``cache``) and makes the block most recently used; a
        miss reads it from ``storage`` (one counted storage I/O) and
        caches it, evicting the least recently used block when full."""
        key = (run_id, index)
        blocks = self._blocks
        block = blocks.get(key)
        if block is not None:
            blocks.move_to_end(key)
            self.hits += 1
            memory_ios.add("cache")
            return block
        self.misses += 1
        block = storage.read_block(run_id, index)
        if self._capacity:
            # A fresh key lands at the most recently used end.
            blocks[key] = block
            if len(blocks) > self._capacity:
                blocks.popitem(last=False)
        return block

    def invalidate_run(self, run_id: int, num_blocks: int) -> None:
        """Drop all cached blocks of a run of ``num_blocks`` blocks
        (called when compaction deletes the run). Touches only that
        run's keys; hit/miss counters are unaffected."""
        pop = self._blocks.pop
        for index in range(num_blocks):
            pop((run_id, index), None)

    def clear(self) -> None:
        self._blocks.clear()
        self.hits = 0
        self.misses = 0
