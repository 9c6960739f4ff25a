"""The in-memory write buffer (Level 0 / memtable).

The paper models it as a skip list or hash table; we use a dict (hash
table) with sort-on-flush, which gives O(1) upsert and the same I/O
accounting: one memory I/O per query or insert.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.common.counters import MemoryIOCounter
from repro.lsm.entry import TOMBSTONE, Entry, Expiring, make_entry


class Memtable:
    """Bounded in-memory buffer of the newest entries."""

    def __init__(
        self, capacity: int, memory_ios: MemoryIOCounter | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: dict[int, Entry] = {}
        self._memory_ios = memory_ios if memory_ios is not None else MemoryIOCounter()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    def put(self, key: int, value: Any, seqno: int) -> None:
        """Insert or overwrite; the caller flushes before putting into a
        full buffer (KVStore enforces this). An :class:`Expiring` value
        (the TTL write path's wrapper) is unwrapped here, so WAL replay
        and replication apply TTL writes without special-casing them."""
        self._memory_ios.add("memtable")
        if type(value) is Expiring:
            self._entries[key] = make_entry(key, value.value, seqno, value.expires_at)
        else:
            self._entries[key] = make_entry(key, value, seqno)

    def delete(self, key: int, seqno: int) -> None:
        self.put(key, TOMBSTONE, seqno)

    def get(self, key: int) -> Entry | None:
        self._memory_ios.add("memtable")
        return self._entries.get(key)

    def sorted_entries(self) -> list[Entry]:
        """All entries in key order, ready to become a run."""
        return [self._entries[k] for k in sorted(self._entries)]

    def scan(self, lo: int, hi: int) -> Iterator[Entry]:
        """Entries with lo <= key <= hi, in key order."""
        for key in sorted(self._entries):
            if lo <= key <= hi:
                yield self._entries[key]

    def clear(self) -> None:
        self._entries.clear()
