"""Hash-sharded store: N independent KVStores behind one facade.

The paper's single-filter design answers any point read in two memory
I/Os no matter how many runs exist — which makes the store
embarrassingly partitionable: hash every key onto one of N shards,
give each shard its own memtable + LSM-tree + Chucky filter, and the
convergent-FPR guarantee (Eq 16) holds *per shard*, while any
operation on a shard costs exactly what a standalone store holding
that shard's data would pay. :class:`ShardedKVStore` is the router:

* point ops go to ``shard_of(key, N)`` (a pure function of the key
  digest, so routing is stable across restarts and processes);
* ``put_batch`` / ``get_batch`` group by shard so each shard's
  memtable and WAL are touched once per batch;
* ``scan`` k-way-merges the per-shard sorted iterators — shards
  partition the key space disjointly, so each shard's own tombstone
  suppression is final and the merge never sees a key twice;
* ``crash`` captures every shard's manifest, WAL and persisted filter
  blob (:func:`repro.engine.config.recover_store` rebuilds them);
* ``snapshot`` is the sum of the per-shard :class:`IOSnapshot`\\ s, so a
  router prices a window exactly like a plain store does, and
  ``shard_latencies`` keeps the per-shard view for skew diagnosis.

:func:`shards_of` is the one answer, for any store or crash state, to
"which plain stores (or crash states) stand behind this one".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Iterator, Sequence

from repro.common.cost import CostModel, LatencyBreakdown
from repro.common.hashing import seeded
from repro.faults.crashpoints import crash_point
from repro.engine.kvstore import (
    CountedWindow,
    CrashState,
    IOSnapshot,
    KVStore,
    ReadResult,
)
from repro.lsm.wal import check_loggable
from repro.obs import NULL_OBS, Counter, Observability, PrefixedRegistry
from repro.obs.trace import Span

#: Seed decorrelating shard routing from every other hash use in the
#: repo (filter fingerprints, bucket addressing, Bloom probes), so a
#: shard's key population looks uniform to its own filter.
SHARD_SEED = 0x53484152  # "SHAR"
_shard_digest = seeded(SHARD_SEED)

#: Per-shard gauges that are counts, so a store-wide sum means something
#: (as every counter does); ratios, level counts and coding-plan gauges
#: have no store-wide sum.
_ADDITIVE_GAUGES = frozenset({
    "store_entries", "store_runs", "filter_size_bits", "cache_hits",
    "cache_misses", "wal_appended_records", "wal_batch_records",
    "wal_appended_bytes", "wal_size_bytes",
})


def shard_of(key: int | str | bytes, num_shards: int) -> int:
    """Stable shard index of ``key``: a pure function of the key digest,
    so the same key routes to the same shard across restarts."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return _shard_digest(key) % num_shards


def aggregate_snapshots(snaps: Sequence[IOSnapshot]) -> IOSnapshot:
    """Sum per-shard snapshots into one store-wide :class:`IOSnapshot`
    (memory I/O categories merge key-wise)."""
    memory: dict[str, int] = {}
    for snap in snaps:
        for category, count in snap.memory.items():
            memory[category] = memory.get(category, 0) + count
    return IOSnapshot(
        memory=memory,
        storage_reads=sum(s.storage_reads for s in snaps),
        storage_writes=sum(s.storage_writes for s in snaps),
        queries=sum(s.queries for s in snaps),
        updates=sum(s.updates for s in snaps),
        false_positives=sum(s.false_positives for s in snaps),
        cache_hits=sum(s.cache_hits for s in snaps),
        cache_misses=sum(s.cache_misses for s in snaps),
        read_hits=sum(s.read_hits for s in snaps),
        scans=sum(s.scans for s in snaps),
    )


@dataclass(frozen=True)
class ShardedCrashState:
    """What survives a crash of a sharded store: every shard's
    :class:`CrashState`, in shard order."""

    shards: tuple[CrashState, ...]


def shards_of(store):
    """The plain :class:`KVStore`\\ s behind ``store`` — a router's shards,
    or a plain store itself — and likewise the per-shard
    :class:`CrashState`\\ s behind a crash state. The one place that
    tells the two shapes apart."""
    if isinstance(store, (ShardedKVStore, ShardedCrashState)):
        return list(store.shards)
    return [store]


class ShardedKVStore(CountedWindow):
    """N independent :class:`KVStore` shards behind the KVStore surface.

    The shards are plain stores — same geometry, own filter, own
    counters — so every per-shard number (I/Os, FPR, latency) means
    exactly what it does for a standalone store.
    """

    def __init__(
        self,
        shards: Sequence[KVStore],
        observability: Observability | None = None,
    ) -> None:
        if not shards:
            raise ValueError("ShardedKVStore needs at least one shard")
        self.shards = list(shards)
        self.obs = observability if observability is not None else NULL_OBS
        #: Range scans served through the router (each visits every
        #: shard, so the shards' own counts would multiply it).
        self.scans = 0
        if self.obs.enabled:
            self.obs.registry.add_collector(self._collect_aggregates)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Routing: two hooks every operation resolves its shard through (a
    # subclass with another key -> shard mapping overrides just these)
    # ------------------------------------------------------------------

    def shard_id_of(self, key: int | str | bytes) -> int:
        """The id of the shard ``key`` belongs to."""
        return shard_of(key, len(self.shards))

    def _shard_at(self, shard_id: int) -> KVStore:
        """The store holding shard ``shard_id``."""
        return self.shards[shard_id]

    def shard_for(self, key: int | str | bytes) -> KVStore:
        """The shard that owns ``key``."""
        return self._shard_at(self.shard_id_of(key))

    def _by_shard(self, keys: list[int]) -> list[tuple[KVStore, list[int]]]:
        """Positions of ``keys`` grouped by owning shard, in shard-id
        order. Every touched shard is resolved here, before the caller
        acts on the first one."""
        positions: dict[int, list[int]] = {}
        for pos, key in enumerate(keys):
            positions.setdefault(self.shard_id_of(key), []).append(pos)
        return [
            (self._shard_at(shard_id), positions[shard_id])
            for shard_id in sorted(positions)
        ]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, key: int, value: Any, ttl: int | None = None) -> None:
        self.shard_for(key).put(key, value, ttl=ttl)

    def delete(self, key: int) -> None:
        self.shard_for(key).delete(key)

    def put_batch(self, items: list[tuple[int, Any]]) -> None:
        """Buffer a batch, grouped so each shard's memtable and WAL are
        touched once. Per-shard groups keep the caller's relative order
        and each group is atomic within its shard (one WAL record); a
        value a durable shard cannot log refuses the whole batch."""
        groups = self._by_shard([key for key, _ in items])
        if len(groups) > 1 and self.shards[0].wal is not None:
            check_loggable(value for _, value in items)
        for position, (shard, group) in enumerate(groups):
            if position:
                # Atomicity is per shard: a crash here leaves earlier
                # shards' groups durable and later ones absent — legal,
                # because the batch has not been acknowledged yet.
                crash_point("sharded.batch.between_shards")
            shard.put_batch([items[pos] for pos in group])

    def flush(self) -> None:
        """Flush every shard's memtable."""
        for shard in self.shards:
            shard.flush()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: int) -> Any:
        return self.shard_for(key).get(key)

    def get_with_stats(self, key: int) -> ReadResult:
        return self.shard_for(key).get_with_stats(key)

    def get_batch(self, keys: list[int]) -> list[Any]:
        """Point-read many keys, visiting each owning shard once with
        its whole group; values align with ``keys`` by index."""
        out: list[Any] = [None] * len(keys)
        for shard, group in self._by_shard(keys):
            values = shard.get_batch([keys[pos] for pos in group])
            for pos, value in zip(group, values):
                out[pos] = value
        return out

    def scan(self, lo: int, hi: int) -> Iterator[tuple[int, Any]]:
        """Range read: k-way merge of the per-shard sorted scans.

        Shards partition the key space disjointly, so the merge never
        yields one key twice, and tombstone suppression inside each
        shard's scan is already final across the whole store.
        """
        self.scans += 1
        return heapq.merge(
            *(shard.scan(lo, hi) for shard in self.shards),
            key=lambda item: item[0],
        )

    # ------------------------------------------------------------------
    # Crash (recover_store rebuilds the shards)
    # ------------------------------------------------------------------

    def crash(self) -> ShardedCrashState:
        """Capture what survives a whole-store crash: every shard's
        storage, manifest, WAL and persisted filter blob."""
        return ShardedCrashState(
            shards=tuple(shard.crash() for shard in self.shards)
        )

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def snapshot(self) -> IOSnapshot:
        """The sum of the shards' snapshots, except ``scans``: the
        router's own count, one per scan however many shards it read."""
        return replace(
            aggregate_snapshots([shard.snapshot() for shard in self.shards]),
            scans=self.scans,
        )

    @property
    def cost_model(self) -> CostModel:
        """The shards' I/O pricing (every shard :func:`build_store` makes
        carries the config's one model)."""
        return self.shards[0].cost_model if self.shards else CostModel()

    def shard_latencies(
        self, shard_snaps: Sequence[IOSnapshot]
    ) -> list[LatencyBreakdown]:
        """Per-shard breakdowns since ``shard_snaps`` (each shard's own
        ``snapshot()``, in shard order) — the skew-diagnosis view: a hot
        shard shows up as one outsized breakdown."""
        return [
            shard.latency_since(snap)
            for shard, snap in zip(self.shards, shard_snaps)
        ]

    @property
    def num_entries(self) -> int:
        return sum(shard.num_entries for shard in self.shards)

    @property
    def queries(self) -> int:
        return sum(shard.queries for shard in self.shards)

    @property
    def updates(self) -> int:
        return sum(shard.updates for shard in self.shards)

    @property
    def false_positives(self) -> int:
        return sum(shard.false_positives for shard in self.shards)

    @property
    def read_hits(self) -> int:
        return sum(shard.read_hits for shard in self.shards)

    @property
    def wal_batch_records(self) -> int:
        """Physical WAL batch records across all shards."""
        return sum(shard.wal_batch_records for shard in self.shards)

    def entries_per_shard(self) -> list[int]:
        return [shard.num_entries for shard in self.shards]

    @property
    def imbalance(self) -> float:
        """Max/mean entries per shard: 1.0 is perfectly balanced, 0.0
        means the store is empty. The hash router keeps this near 1 for
        any key distribution; a value well above 1 flags skew."""
        return self._entry_spread()[2]

    def _entry_spread(self) -> tuple[int, float, float]:
        """(max, mean, max/mean) entries per shard — all zero for a
        store that is empty or (a cluster node between handoffs) holds
        no shard at all."""
        entries = self.entries_per_shard()
        if not entries:
            return 0, 0.0, 0.0
        mean = sum(entries) / len(entries)
        return max(entries), mean, max(entries) / mean if mean else 0.0

    def recent_spans(self, n: int | None = None) -> list[Span]:
        """The most recent finished root spans across all shard tracers
        (each stamped with its shard index), ordered oldest-first by
        each shard's modelled clock."""
        spans: list[Span] = []
        for index, shard in enumerate(self.shards):
            for span in shard.obs.tracer.recent():
                span.set(shard=index)
                spans.append(span)
        spans.sort(key=lambda span: span.start_ns)
        if n is None:
            return spans
        return spans[-n:] if n > 0 else []

    def _collect_aggregates(self) -> None:
        """Roll the live shards' instruments up into store-wide gauges.

        Walks ``self.shards`` (so a shard a handoff attached under its
        staging prefix counts, and a detached one does not) through each
        shard's own registry view. Counters and :data:`_ADDITIVE_GAUGES`
        sum into ``agg_<base>``; the cache hit ratio and filter bits per
        entry are recomputed from the sums, as ``collect_metrics`` does.
        """
        registry = self.obs.registry
        # Sampled, not set once: cluster nodes attach and detach shards.
        registry.gauge("kv_shards", "shards in the sharded store").set(
            len(self.shards)
        )
        fullest, mean, imbalance = self._entry_spread()
        registry.gauge(
            "shard_entries_max", "entries in the fullest shard"
        ).set(fullest)
        registry.gauge("shard_entries_mean", "mean entries per shard").set(mean)
        registry.gauge(
            "shard_imbalance",
            "max/mean entries per shard (1.0 = perfectly balanced)",
        ).set(imbalance)
        # A sum no live shard feeds any more reads 0, not its last value.
        sums = {
            i.name[4:]: 0.0
            for i in registry.instruments() if i.name.startswith("agg_")
        }
        stored = 0
        for shard in self.shards:
            view = shard.obs.registry
            if isinstance(view, PrefixedRegistry):
                shard._collect_gauges()  # fresh even if attached after us
                stored += shard.tree.num_entries
                for inst in view.instruments():
                    base = inst.name[len(view.prefix):]
                    if isinstance(inst, Counter) or base in _ADDITIVE_GAUGES:
                        sums[base] = sums.get(base, 0.0) + inst.value
        hits = sums.get("cache_hits", 0.0)
        lookups = hits + sums.get("cache_misses", 0.0)
        sums["cache_hit_ratio"] = hits / lookups if lookups else 0.0
        bits = sums.get("filter_size_bits", 0.0)
        sums["filter_bits_per_entry"] = bits / stored if stored else 0.0
        for base, total in sums.items():
            registry.gauge(f"agg_{base}", f"store-wide {base}").set(total)
