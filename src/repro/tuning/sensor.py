"""Workload sensing: windowed summaries of what the store is doing.

The sensor is the eyes of the adaptive-tuning loop. It rides the
store's tuning hook (:meth:`repro.engine.kvstore.KVStore.attach_tuning`)
— one cheap Python-side record per operation, zero counted I/Os — and
folds every ``window_ops`` operations into one immutable
:class:`WindowSummary`: the read/write/scan mix, the negative-lookup
rate, the observed FPR (wasted probes per negative lookup, the paper's
Figure 11/14 quantity), key skew, counted I/Os per operation from
:meth:`~repro.engine.kvstore.KVStore.snapshot` diffs, and the memory in
use by filters and memtables. The planner consumes these summaries; it
never looks at raw per-op state.

Design rule inherited from :mod:`repro.obs`: sensing must never touch
the I/O counters. Everything here is either plain Python bookkeeping or
a read of counters that already exist.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.engine.kvstore import KVStore, ReadResult
from repro.engine.sharded import ShardedKVStore, shards_of
from repro.obs.metrics import Histogram, SUBLEVELS_BUCKETS


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
    #: Fraction of read traffic landing on the hottest 10% of the
    #: window's distinct keys (0.1 = uniform, →1.0 = heavily skewed).
    key_skew: float
    distinct_keys: int
    storage_reads_per_op: float
    storage_writes_per_op: float
    memory_ios_per_op: float
    cache_hit_ratio: float
    #: Nearest-rank quantiles of runs fetched per point read.
    probes_p50: float
    probes_p95: float
    probes_p99: float
    #: Structure state at window close.
    entries: int
    num_levels: int
    num_runs: int
    filter_size_bits: int
    filter_bits_per_entry: float
    memtable_capacity: int
    #: Cost-model price of the window's counted I/Os, per operation.
    modelled_ns_per_op: float
    #: Deletes inside the write mix (tombstone appends). Kept as a
    #: separate signal on top of ``writes`` — a sustained high
    #: ``delete_fraction`` means churn: tombstone/garbage pressure the
    #: planner should weigh, not just write volume. Defaulted so
    #: summaries recorded before the field existed still load.
    deletes: int = 0
    delete_fraction: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class WorkloadSensor:
    """Folds per-operation observations into :class:`WindowSummary`\\ s.

    The owner (the :class:`~repro.tuning.controller.TuningController`)
    calls :meth:`record_read` / :meth:`record_write` /
    :meth:`record_delete` / :meth:`record_scan` from the store's tuning
    hook, checks :attr:`window_filled`, and calls
    :meth:`close_window` to harvest the summary and start the next
    window.
    """

    def __init__(
        self, store: KVStore | ShardedKVStore, window_ops: int = 512
    ) -> None:
        if window_ops < 1:
            raise ValueError(f"window_ops must be >= 1, got {window_ops}")
        self.store = store
        self.window_ops = window_ops
        self.windows_closed = 0
        self._begin_window()

    def _begin_window(self) -> None:
        self._snap = self.store.snapshot()
        self._reads = 0
        self._writes = 0
        self._deletes = 0
        self._scans = 0
        self._negative = 0
        self._false_positives = 0
        self._key_counts: dict[int, int] = {}
        self._probes = Histogram("window_probes", SUBLEVELS_BUCKETS)

    # -- per-op recording (hook-driven) --------------------------------

    def record_read(self, key: int, result: ReadResult) -> None:
        self._reads += 1
        if not result.found:
            self._negative += 1
        self._false_positives += result.false_positives
        self._probes.observe(result.sublevels_probed)
        self._key_counts[key] = self._key_counts.get(key, 0) + 1

    def record_write(self, count: int = 1) -> None:
        self._writes += count

    def record_delete(self, count: int = 1) -> None:
        """A delete is a write to the engine (a tombstone append) — it
        stays inside the write mix so every existing planner input is
        unchanged — but is also tallied separately as delete-rate."""
        self._writes += count
        self._deletes += count

    def record_scan(self) -> None:
        self._scans += 1

    @property
    def window_ops_so_far(self) -> int:
        return self._reads + self._writes + self._scans

    @property
    def window_filled(self) -> bool:
        return self.window_ops_so_far >= self.window_ops

    # -- harvesting ----------------------------------------------------

    def _key_skew(self) -> float:
        """Read mass on the hottest 10% of the window's distinct keys."""
        if not self._key_counts:
            return 0.0
        counts = sorted(self._key_counts.values(), reverse=True)
        top = max(1, -(-len(counts) // 10))  # ceil(distinct / 10)
        return sum(counts[:top]) / sum(counts)

    def close_window(self) -> WindowSummary:
        """Summarise the current window and start a fresh one."""
        ops = max(1, self.window_ops_so_far)
        reads, writes, scans = self._reads, self._writes, self._scans
        window = self.store.snapshot().since(self._snap)
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
            negative_fraction=self._negative / reads if reads else 0.0,
            observed_fpr=(
                self._false_positives / self._negative if self._negative else 0.0
            ),
            key_skew=self._key_skew(),
            distinct_keys=len(self._key_counts),
            storage_reads_per_op=window.storage_reads / ops,
            storage_writes_per_op=window.storage_writes / ops,
            memory_ios_per_op=memory_ios / ops,
            cache_hit_ratio=window.cache_hits / lookups if lookups else 0.0,
            probes_p50=self._probes.p50,
            probes_p95=self._probes.p95,
            probes_p99=self._probes.p99,
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
            deletes=self._deletes,
            delete_fraction=self._deletes / ops,
        )
        self.windows_closed += 1
        self._begin_window()
        return summary
