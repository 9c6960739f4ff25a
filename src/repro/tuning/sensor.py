"""Workload sensing: windowed summaries of what the store is doing.

The sensor is the eyes of the adaptive-tuning loop. It keeps no
per-operation state: a window is the difference of two
:meth:`~repro.engine.kvstore.KVStore.snapshot`\\ s, and the store's
plain counters (``queries``, ``updates``, ``scans``, ``read_hits``,
``false_positives``) already say how many operations of each kind ran
in it. :meth:`WorkloadSensor.close_window` folds that difference into
one immutable :class:`WindowSummary`: the read/write/scan mix, the
negative-lookup rate, the observed FPR (wasted probes per negative
lookup, the paper's Figure 11/14 quantity), counted I/Os per operation
and the memory in use by filters and memtables. The planner consumes
these summaries; it never looks at raw per-op state.

Design rule inherited from :mod:`repro.obs`: sensing must never touch
the I/O counters. Everything here is a read of counters that already
exist.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.engine.kvstore import IOSnapshot, KVStore
from repro.engine.sharded import ShardedKVStore, shards_of


@dataclass(frozen=True)
class WindowSummary:
    """Everything the planner needs to know about one window of ops."""

    index: int
    ops: int
    reads: int
    writes: int
    scans: int
    read_fraction: float
    write_fraction: float
    scan_fraction: float
    #: Fraction of point reads that found nothing (filters earn their
    #: keep exactly on these).
    negative_fraction: float
    #: Wasted candidate probes per negative lookup — the measured
    #: counterpart of the Eq 2/3/16 model FPRs.
    observed_fpr: float
    storage_reads_per_op: float
    storage_writes_per_op: float
    memory_ios_per_op: float
    cache_hit_ratio: float
    #: Structure state at window close.
    entries: int
    num_levels: int
    num_runs: int
    filter_size_bits: int
    filter_bits_per_entry: float
    memtable_capacity: int
    #: Cost-model price of the window's counted I/Os, per operation.
    modelled_ns_per_op: float

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _ops(counts: KVStore | ShardedKVStore | IOSnapshot) -> int:
    """Operations counted by a store or snapshot: point reads, writes
    and scans."""
    return counts.queries + counts.updates + counts.scans


class WorkloadSensor:
    """Turns counter windows into :class:`WindowSummary`\\ s.

    The owner (the :class:`~repro.tuning.controller.TuningController`)
    checks :attr:`window_filled` and calls :meth:`close_window` to
    harvest the summary and start the next window.
    """

    def __init__(
        self, store: KVStore | ShardedKVStore, window_ops: int = 512
    ) -> None:
        if window_ops < 1:
            raise ValueError(f"window_ops must be >= 1, got {window_ops}")
        self.store = store
        self.window_ops = window_ops
        self.windows_closed = 0
        self._snap = store.snapshot()

    @property
    def window_ops_so_far(self) -> int:
        return _ops(self.store) - _ops(self._snap)

    @property
    def window_filled(self) -> bool:
        return self.window_ops_so_far >= self.window_ops

    def close_window(self) -> WindowSummary:
        """Summarise the current window and start a fresh one."""
        now = self.store.snapshot()
        window = now.since(self._snap)
        reads, writes, scans = window.queries, window.updates, window.scans
        ops = max(1, _ops(window))
        negatives = reads - window.read_hits
        memory_ios = sum(window.memory.values())
        lookups = window.cache_hits + window.cache_misses
        shards = shards_of(self.store)
        filter_bits = sum(shard.policy.size_bits for shard in shards)
        entries = sum(shard.num_entries for shard in shards)
        stored = sum(shard.tree.num_entries for shard in shards)
        summary = WindowSummary(
            index=self.windows_closed,
            ops=ops,
            reads=reads,
            writes=writes,
            scans=scans,
            read_fraction=reads / ops,
            write_fraction=writes / ops,
            scan_fraction=scans / ops,
            negative_fraction=negatives / reads if reads else 0.0,
            observed_fpr=(
                window.false_positives / negatives if negatives else 0.0
            ),
            storage_reads_per_op=window.storage_reads / ops,
            storage_writes_per_op=window.storage_writes / ops,
            memory_ios_per_op=memory_ios / ops,
            cache_hit_ratio=window.cache_hits / lookups if lookups else 0.0,
            entries=entries,
            num_levels=max(shard.tree.num_levels for shard in shards),
            num_runs=sum(len(shard.tree.occupied_runs()) for shard in shards),
            filter_size_bits=filter_bits,
            filter_bits_per_entry=filter_bits / stored if stored else 0.0,
            memtable_capacity=sum(shard.memtable.capacity for shard in shards),
            modelled_ns_per_op=self.store.cost_model.total_cost(
                memory_ios, window.storage_reads, window.storage_writes
            )
            / ops,
        )
        self.windows_closed += 1
        self._snap = now
        return summary
