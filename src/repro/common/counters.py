"""I/O accounting primitives.

The paper's entire evaluation is expressed in *counts* of memory I/Os
(cache-line-sized DRAM accesses, ~100 ns each) and storage I/Os (block
reads/writes on an Optane SSD, ~10 us each). Every component in this
repo reports its work through these counters; the
:class:`repro.common.cost.CostModel` then prices them into modelled
latencies. See DESIGN.md section 2 for why counting reproduces the
paper's curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MemoryIOCounter:
    """Counts cache-line-sized memory accesses, split by category.

    Categories let the benchmarks reproduce Figure 14 E/F latency
    breakdowns (filter vs memtable vs fence pointers) and Figure 13
    (decoding-table accesses).
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        #: Every category's count summed, kept up to date by :meth:`add`
        #: and :meth:`reset` so the modelled clock reads one integer.
        self.total = 0

    def add(self, category: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._counts[category] = self._counts.get(category, 0) + count
        self.total += count

    def get(self, category: str) -> int:
        return self._counts.get(category, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()
        self.total = 0

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Per-category counts accumulated since ``earlier`` (a snapshot)."""
        keys = set(self._counts) | set(earlier)
        return {k: self._counts.get(k, 0) - earlier.get(k, 0) for k in keys}


class StorageIOCounter:
    """Counts block-granularity storage reads and writes."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0

    def read(self, blocks: int = 1) -> None:
        if blocks < 0:
            raise ValueError(f"blocks must be >= 0, got {blocks}")
        self.reads += blocks

    def write(self, blocks: int = 1) -> None:
        if blocks < 0:
            raise ValueError(f"blocks must be >= 0, got {blocks}")
        self.writes += blocks

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def snapshot(self) -> tuple[int, int]:
        return (self.reads, self.writes)

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0


@dataclass
class IOCounters:
    """Bundle of the two counters, shared across a KVStore's components."""

    memory: MemoryIOCounter = field(default_factory=MemoryIOCounter)
    storage: StorageIOCounter = field(default_factory=StorageIOCounter)

    def reset(self) -> None:
        self.memory.reset()
        self.storage.reset()
