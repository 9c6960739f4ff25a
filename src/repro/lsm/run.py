"""Immutable sorted runs.

A run is one sorted chunk of key-value entries living at one sub-level,
split into fixed-size blocks in storage, with fence pointers in memory.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, islice
from operator import itemgetter, lt
from typing import Iterator

from repro.common.counters import MemoryIOCounter
from repro.lsm.block_cache import BlockCache
from repro.lsm.entry import KEY, SEQNO, Entry
from repro.lsm.fence import FencePointers
from repro.lsm.storage import Block, StorageDevice

_key_of = itemgetter(KEY)
_seqno_of = itemgetter(SEQNO)


class Run:
    """Handle to one immutable sorted run in storage."""

    def __init__(
        self,
        run_id: int,
        storage: StorageDevice,
        fences: FencePointers,
        num_entries: int,
        max_seqno: int,
    ) -> None:
        self.run_id = run_id
        self._storage = storage
        self.fences = fences
        self.num_entries = num_entries
        #: Highest sequence number among the run's entries, kept with its
        #: metadata so recovery resumes the seqno without reading a block.
        self.max_seqno = max_seqno

    @classmethod
    def build(
        cls, entries: list[Entry], storage: StorageDevice, block_entries: int
    ) -> "Run":
        """Write a key-sorted entry list to storage as a new run."""
        if not entries:
            raise ValueError("cannot build an empty run")
        keys = list(map(_key_of, entries))
        # Strictly increasing is sorted with one version per key, checked
        # in one C-level pass; only a refused run pays to say which.
        if not all(map(lt, keys, islice(keys, 1, None))):
            if sorted(keys) != keys:
                raise ValueError("entries must be sorted by key")
            raise ValueError("a run may hold at most one version per key")
        blocks: list[Block] = [
            tuple(entries[i : i + block_entries])
            for i in range(0, len(entries), block_entries)
        ]
        run_id = storage.write_run(blocks)
        fences = FencePointers([b[0][KEY] for b in blocks], entries[-1][KEY])
        return cls(
            run_id, storage, fences, len(entries), max(map(_seqno_of, entries))
        )

    @property
    def num_blocks(self) -> int:
        return self.fences.num_blocks

    def get(
        self,
        key: int,
        memory_ios: MemoryIOCounter,
        cache: BlockCache | None = None,
    ) -> Entry | None:
        """Point lookup: fence search, then one (possibly cached) block.

        Returns the entry if present in this run, else None. A block-
        cache hit costs one memory I/O (category ``cache``); a miss costs
        one storage read and populates the cache.
        """
        index = self.fences.locate(key, memory_ios)
        if index is None:
            return None
        block = self._fetch_block(index, memory_ios, cache)
        # Binary search within the block is intra-cache-line work once the
        # block is resident; the block fetch itself carried the I/O cost.
        # The 1-tuple ``(key,)`` sorts before every version of ``key``,
        # so the search never compares values.
        pos = bisect_left(block, (key,))
        if pos < len(block) and block[pos][KEY] == key:
            return block[pos]
        return None

    def scan(
        self,
        lo: int,
        hi: int,
        memory_ios: MemoryIOCounter,
        cache: BlockCache | None = None,
    ) -> Iterator[Entry]:
        """Yield entries with lo <= key <= hi in key order."""
        for index in self.fences.block_range(lo, hi):
            block = self._fetch_block(index, memory_ios, cache)
            for entry in block:
                if entry[KEY] > hi:
                    return
                if entry[KEY] >= lo:
                    yield entry

    def read_all(self) -> list[Entry]:
        """Full sequential read (compaction path); counts storage I/Os."""
        blocks = self._storage.read_run(self.run_id)
        return list(chain.from_iterable(blocks))

    def drop(self, cache: BlockCache | None = None) -> None:
        """Delete the run from storage and invalidate cached blocks."""
        if cache is not None:
            cache.invalidate_run(self.run_id)
        self._storage.delete_run(self.run_id)

    def _fetch_block(
        self, index: int, memory_ios: MemoryIOCounter, cache: BlockCache | None
    ) -> Block:
        if cache is not None:
            block = cache.get(self.run_id, index)
            if block is not None:
                memory_ios.add("cache")
                return block
        block = self._storage.read_block(self.run_id, index)
        if cache is not None:
            cache.put(self.run_id, index, block)
        return block
