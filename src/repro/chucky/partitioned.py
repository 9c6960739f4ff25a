"""Vacuum-style partitioned Chucky filter (paper section 4.5,
Partitioning — flagged there as "an important future step for
memory-sensitive applications", implemented here).

The paper's xor addressing (Eq 4) needs a power-of-two bucket count,
wasting up to 50% of memory when the data size just crosses a power of
two. The Vacuum-filter remedy it cites: split the filter into many
small, independent filters and map each key to one by a hash — the
total capacity then adjusts in partition-sized steps.

Our core filter already escapes the power-of-two constraint through its
subtraction-involution addressing, so the partitioned variant's value
here is the other two Vacuum properties: bounded per-partition footprint
(each partition's two candidate buckets are physically close — better
locality), and incremental capacity. All partitions share one codebook
(the coding plan depends only on the tree geometry), so partitioning
adds no auxiliary-structure memory.
"""

from __future__ import annotations

import math

from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.common.hashing import seeded
from repro.obs.metrics import MetricsRegistry
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter

_partition_digest = seeded(5000)


class PartitionedChuckyFilter:
    """Many small Chucky filters behind one interface.

    ``partition_capacity`` sets the granularity: total capacity is the
    smallest multiple of it covering ``capacity`` (vs. the up-to-2x
    waste of power-of-two sizing). The public operations mirror
    :class:`ChuckyFilter`.
    """

    def __init__(
        self,
        capacity: int,
        dist: LidDistribution,
        bits_per_entry: float = 10.0,
        partition_capacity: int = 4096,
        slots: int = 4,
        nov: float = 0.9999,
        over_provision: float = 0.05,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if partition_capacity < 64:
            raise ValueError(
                f"partition_capacity must be >= 64, got {partition_capacity}"
            )
        self.dist = dist
        self.memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        num_partitions = max(1, math.ceil(capacity / partition_capacity))
        # One codebook for everyone: the coding plan is a function of the
        # geometry, not of the partition.
        self.codebook = ChuckyCodebook(
            dist, slots=slots, bucket_bits=round(bits_per_entry * slots), nov=nov
        )
        self.partitions = [
            ChuckyFilter(
                capacity=partition_capacity,
                dist=dist,
                bits_per_entry=bits_per_entry,
                slots=slots,
                nov=nov,
                over_provision=over_provision,
                memory_ios=self.memory_ios,
                seed=seed + i,
                codebook=self.codebook,
                metrics=metrics,
            )
            for i in range(num_partitions)
        ]

    def partition_index(self, key: int) -> int:
        """Which partition owns ``key`` (stable across restarts)."""
        return _partition_digest(key) % len(self.partitions)

    def _partition_of(self, key: int) -> ChuckyFilter:
        return self.partitions[self.partition_index(key)]

    # -- ChuckyFilter interface ------------------------------------------

    def insert(self, key: int, lid: int) -> None:
        self._partition_of(key).insert(key, lid)

    def query(self, key: int) -> list[int]:
        return self._partition_of(key).query(key)

    def query_many(self, keys: list[int]) -> list[list[int]]:
        """:meth:`query` for each key: the keys are grouped by partition,
        each partition probes its group in one ``query_many``, and the
        answers return in key order — same answers, same counted I/Os."""
        groups: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self.partition_index(key), []).append(position)
        answers: list[list[int]] = [[]] * len(keys)
        for index, positions in groups.items():
            probed = self.partitions[index].query_many([keys[p] for p in positions])
            for position, lids in zip(positions, probed):
                answers[position] = lids
        return answers

    def update_lid(self, key: int, old_lid: int, new_lid: int) -> bool:
        return self._partition_of(key).update_lid(key, old_lid, new_lid)

    def remove(self, key: int, lid: int) -> bool:
        return self._partition_of(key).remove(key, lid)

    def maintain_many(self, edits) -> int:
        """``maintain_many`` for each partition's share of ``edits``, in
        their order — one maintenance loop per touched partition. Edits
        of different partitions touch disjoint state, so splitting them
        changes no outcome. Every distinct LID is range-checked once
        before any share lands (the partitions share one codebook, so
        one partition's range is all of theirs): an out-of-range LID
        refuses the whole event, as :meth:`ChuckyFilter.maintain_many`
        does."""
        self.partitions[0]._check_lids(edits)
        groups: dict[int, list] = {}
        for edit in edits:
            groups.setdefault(self.partition_index(edit[0]), []).append(edit)
        return sum(
            self.partitions[index]._maintain_many(group)
            for index, group in groups.items()
        )

    # -- stats ---------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_entries(self) -> int:
        return sum(p.num_entries for p in self.partitions)

    @property
    def load_factor(self) -> float:
        slots = sum(p.num_buckets * p.slots for p in self.partitions)
        return self.num_entries / slots

    @property
    def size_bits(self) -> int:
        return sum(p.size_bits for p in self.partitions)

    @property
    def maintenance_misses(self) -> int:
        return sum(p.maintenance_misses for p in self.partitions)

    def load_imbalance(self) -> float:
        """Max/mean partition load — how evenly the hash spreads keys."""
        loads = [p.num_entries for p in self.partitions]
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 0.0
