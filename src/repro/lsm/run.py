"""Immutable sorted runs.

A run is one sorted chunk of key-value versions living at one
sub-level, split into fixed-size blocks in storage, with fence pointers
in memory: the minimum key of every block plus the run's maximum key
(paper section 2). A point query binary-searches the fences to the one
block that may hold its key and fetches that block with a single
storage I/O. The search costs ~log2(#blocks) memory I/Os, which we
count — the component the paper names "the next memory I/O bottleneck
once Chucky is applied" (section 6, Learned Fence Pointers) and the
growing cost in Figure 14 H.

A run is stored as columns (:data:`~repro.lsm.storage.Block`), and the
merges that build runs work on :data:`Columns`: a version becomes an
entry tuple only where it leaves the tree (a point read's answer, a
scan, :meth:`Run.read_all`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import itemgetter, lt
from typing import Any, Iterable, Iterator, Sequence

from repro.common.counters import MemoryIOCounter
from repro.lsm.block_cache import BlockCache
from repro.lsm.entry import EXPIRES_AT, KEY, SEQNO, VALUE, Entry
from repro.lsm.storage import Block, StorageDevice

#: Versions as columns, ``(keys, values, seqnos, expires)``: keys and
#: seqnos ``array('Q')``, values any sequence, and ``expires`` ``None``
#: when no version has an expiry stamp, else a sequence holding ``None``
#: for each unstamped version. What merges read, compute on and build
#: runs from.
Columns = tuple[array, Sequence[Any], array, Sequence[int | None] | None]


def stamps_or_none(stamps: Sequence[int | None]) -> Sequence[int | None] | None:
    """``stamps``, or ``None`` when none of them is set."""
    return None if stamps.count(None) == len(stamps) else stamps


def columns_of(entries: list[Entry]) -> Columns:
    """Entry tuples as :data:`Columns` (a buffer flush, a bulk load)."""
    return (
        array("Q", map(itemgetter(KEY), entries)),
        list(map(itemgetter(VALUE), entries)),
        array("Q", map(itemgetter(SEQNO), entries)),
        stamps_or_none(list(map(itemgetter(EXPIRES_AT), entries))),
    )


def entries_of(columns: Columns) -> list[Entry]:
    """:data:`Columns` as entry tuples — for a reader outside the tree."""
    keys, values, seqnos, expires = columns
    if expires is None:
        expires = repeat(None)
    return list(zip(keys, values, seqnos, expires))


def concat_columns(parts: Iterable[Columns]) -> Columns:
    """The versions of ``parts`` (columns, or blocks) one after another,
    as fresh columns."""
    keys = array("Q")
    values: list[Any] = []
    seqnos = array("Q")
    expires: list[int | None] | None = None
    for part_keys, part_values, part_seqnos, stamps in parts:
        if stamps is not None and expires is None:
            expires = [None] * len(keys)
        if expires is not None:
            expires += repeat(None, len(part_keys)) if stamps is None else stamps
        keys.extend(part_keys)
        values += part_values
        seqnos.extend(part_seqnos)
    return keys, values, seqnos, expires


def _blocks(columns: Columns, block_entries: int) -> list[Block]:
    keys, values, seqnos, expires = columns
    blocks: list[Block] = []
    for i in range(0, len(keys), block_entries):
        j = i + block_entries
        stamps = None
        if expires is not None:
            stamps = stamps_or_none(tuple(expires[i:j]))
        blocks.append((keys[i:j], tuple(values[i:j]), seqnos[i:j], stamps))
    return blocks


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
        cls, columns: Columns, storage: StorageDevice, block_entries: int
    ) -> "Run":
        """Write key-sorted versions to storage as a new run."""
        keys = columns[0]
        if not keys:
            raise ValueError("cannot build an empty run")
        # Strictly increasing is sorted with one version per key, checked
        # in one C-level pass; only a refused run pays to say which.
        if not all(map(lt, keys, islice(keys, 1, None))):
            if sorted(keys) != keys.tolist():
                raise ValueError("entries must be sorted by key")
            raise ValueError("a run may hold at most one version per key")
        run_id = storage.write_run(_blocks(columns, block_entries))
        return cls(
            run_id, storage, keys[::block_entries].tolist(), keys[-1],
            len(keys), max(columns[2]),
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

        Returns the version's entry tuple if the key is in this run, else
        None. A key outside ``[min_key, max_key]`` is free (the range
        sits with the run's metadata); otherwise the fence search charges
        its memory I/Os in category ``fence``, and the block fetch costs
        one memory I/O (category ``cache``) on a block-cache hit or one
        storage read on a miss.
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
        keys, values, seqnos, expires = block
        pos = bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            return (
                key, values[pos], seqnos[pos],
                None if expires is None else expires[pos],
            )
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
            keys, values, seqnos, expires = block
            i, j = bisect_left(keys, lo), bisect_right(keys, hi)
            yield from zip(
                keys[i:j], values[i:j], seqnos[i:j],
                repeat(None) if expires is None else expires[i:j],
            )

    def read_columns(self) -> Columns:
        """Full sequential read (compaction path); counts storage I/Os."""
        return concat_columns(self._storage.read_run(self.run_id))

    def read_keys(self) -> array:
        """The run's key column; counts storage I/Os like
        :meth:`read_columns`."""
        keys = array("Q")
        for block in self._storage.read_run(self.run_id):
            keys += block[0]
        return keys

    def read_all(self) -> list[Entry]:
        """:meth:`read_columns` as entry tuples, for readers outside the
        tree (exports, checks, tests)."""
        return entries_of(self.read_columns())

    def drop(self, cache: BlockCache | None = None) -> None:
        """Delete the run from storage and invalidate cached blocks."""
        if cache is not None:
            cache.invalidate_run(self.run_id, self.num_blocks)
        self._storage.delete_run(self.run_id)
