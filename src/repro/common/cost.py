"""Latency cost model.

Prices counted I/Os into modelled nanoseconds using the figures the
paper itself quotes (section 1): a memory I/O takes ~100 ns, a read I/O
on an Intel Optane SSD takes ~10 us. The model is what lets a
logic-level Python reproduction regenerate the paper's latency and
throughput figures: the *shape* of every curve is a function of I/O
counts, and the constants only set the scale.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Converts I/O counts to nanoseconds.

    Attributes:
        memory_io_ns: cost of one cache-line DRAM access (paper: ~100 ns).
        storage_read_ns: cost of one SSD block read (paper: ~10 us).
        storage_write_ns: cost of one SSD block write. Optane writes are
            roughly as fast as reads; we keep them equal by default.
    """

    memory_io_ns: float = 100.0
    storage_read_ns: float = 10_000.0
    storage_write_ns: float = 10_000.0

    def memory_cost(self, ios: int) -> float:
        return ios * self.memory_io_ns

    def storage_cost(self, reads: int, writes: int = 0) -> float:
        return reads * self.storage_read_ns + writes * self.storage_write_ns

    def total_cost(self, memory_ios: int, reads: int, writes: int = 0) -> float:
        """Combined price of a mixed I/O batch, in nanoseconds.

        Applied to cumulative counter totals this is the observability
        layer's modelled clock: the difference of two readings prices
        exactly the I/Os counted in between.
        """
        return self.memory_cost(memory_ios) + self.storage_cost(reads, writes)


@dataclass
class LatencyBreakdown:
    """Modelled latency of an operation (or batch), split by component.

    Mirrors the four bars of Figure 14 E/F: filter search, memtable,
    fence pointers, and storage I/Os. All values are nanoseconds.
    """

    filter_ns: float = 0.0
    memtable_ns: float = 0.0
    fence_ns: float = 0.0
    storage_ns: float = 0.0
    other_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return (
            self.filter_ns
            + self.memtable_ns
            + self.fence_ns
            + self.storage_ns
            + self.other_ns
        )

    def add(self, other: "LatencyBreakdown") -> None:
        self.filter_ns += other.filter_ns
        self.memtable_ns += other.memtable_ns
        self.fence_ns += other.fence_ns
        self.storage_ns += other.storage_ns
        self.other_ns += other.other_ns

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """A copy with every component multiplied by ``factor`` (used to
        average a batch into per-operation latency)."""
        return LatencyBreakdown(
            filter_ns=self.filter_ns * factor,
            memtable_ns=self.memtable_ns * factor,
            fence_ns=self.fence_ns * factor,
            storage_ns=self.storage_ns * factor,
            other_ns=self.other_ns * factor,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "filter_ns": self.filter_ns,
            "memtable_ns": self.memtable_ns,
            "fence_ns": self.fence_ns,
            "storage_ns": self.storage_ns,
            "other_ns": self.other_ns,
            "total_ns": self.total_ns,
        }

