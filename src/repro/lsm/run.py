"""Immutable sorted runs.

A run is one sorted chunk of key-value entries living at one sub-level,
split into fixed-size blocks in storage, with fence pointers in memory:
the minimum key of every block plus the run's maximum key (paper
section 2). A point query binary-searches the fences to the one block
that may hold its key and fetches that block with a single storage I/O.
The search costs ~log2(#blocks) memory I/Os, which we count — the
component the paper names "the next memory I/O bottleneck once Chucky is
applied" (section 6, Learned Fence Pointers) and the growing cost in
Figure 14 H.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter, lt
from typing import Iterator

from repro.common.counters import MemoryIOCounter
from repro.lsm.block_cache import BlockCache
from repro.lsm.entry import KEY, SEQNO, Entry
from repro.lsm.storage import Block, StorageDevice

_key_of = itemgetter(KEY)
_seqno_of = itemgetter(SEQNO)


class Run:
    """Handle to one immutable sorted run in storage."""

    def __init__(
        self,
        run_id: int,
        storage: StorageDevice,
        block_min_keys: list[int],
        max_key: int,
        num_entries: int,
        max_seqno: int,
    ) -> None:
        if not block_min_keys:
            raise ValueError("a run must have at least one block")
        if sorted(block_min_keys) != block_min_keys:
            raise ValueError("block min keys must be sorted")
        self.run_id = run_id
        self._storage = storage
        #: Fence pointers: the minimum key of every block.
        self._mins = block_min_keys
        self.min_key = block_min_keys[0]
        self.max_key = max_key
        self.num_blocks = len(block_min_keys)
        #: Memory I/Os of one fence search, ceil(log2(#blocks + 1)):
        #: the paper's ~log(N) search cost, fixed for an immutable run.
        self._fence_ios = max(1, self.num_blocks.bit_length())
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
        return cls(
            run_id, storage, keys[::block_entries], keys[-1], len(entries),
            max(map(_seqno_of, entries)),
        )

    @property
    def block_min_keys(self) -> tuple[int, ...]:
        """Per-block minimum keys (persisted in run manifests)."""
        return tuple(self._mins)

    def get(
        self,
        key: int,
        memory_ios: MemoryIOCounter,
        cache: BlockCache | None = None,
    ) -> Entry | None:
        """Point lookup: fence search, then one (possibly cached) block.

        Returns the entry if present in this run, else None. A key
        outside ``[min_key, max_key]`` is free (the range sits with the
        run's metadata); otherwise the fence search charges its memory
        I/Os in category ``fence``, and the block fetch costs one memory
        I/O (category ``cache``) on a block-cache hit or one storage
        read on a miss.
        """
        if not self.min_key <= key <= self.max_key:
            return None
        memory_ios.add("fence", self._fence_ios)
        index = bisect_right(self._mins, key) - 1
        if cache is None:
            block = self._storage.read_block(self.run_id, index)
        else:
            block = cache.get(self.run_id, index, self._storage, memory_ios)
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
        """Yield entries with lo <= key <= hi in key order, fetching each
        overlapping block the way :meth:`get` does (no fence charge)."""
        if hi < self.min_key or lo > self.max_key:
            return
        mins = self._mins
        first = max(0, bisect_right(mins, lo) - 1)
        for index in range(first, bisect_right(mins, hi)):
            if cache is None:
                block = self._storage.read_block(self.run_id, index)
            else:
                block = cache.get(self.run_id, index, self._storage, memory_ios)
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
            cache.invalidate_run(self.run_id, self.num_blocks)
        self._storage.delete_run(self.run_id)
