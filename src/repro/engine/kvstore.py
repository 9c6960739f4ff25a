"""The KVStore facade — the paper's full system under test.

Wires a memtable, a Dostoevsky LSM-tree, a filter policy (Chucky, Bloom
variants, or none), a block cache and the latency cost model together.
Point reads follow the paper's workflow exactly: memtable, then the
filter's candidate sub-levels youngest-to-oldest, fetching one block per
probed run through fence pointers and the cache, stopping at the first
hit. Writes buffer in the memtable and flush through the tree's merge
machinery, with filter maintenance riding the emitted events.

All performance is measured as counted I/Os priced by the
:class:`~repro.common.cost.CostModel` (see DESIGN.md section 2):
``snapshot()`` / ``latency_since()`` turn any window of operations into
a Figure-14-style latency breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.common.cost import CostModel, LatencyBreakdown
from repro.common.counters import IOCounters
from repro.faults.crashpoints import crash_point
from repro.filters.policy import FilterPolicy, NoFilterPolicy
from repro.lsm.block_cache import BlockCache
from repro.lsm.config import LSMConfig
from repro.lsm.entry import (
    KEY,
    KEY_LIMIT,
    SEQNO,
    TOMBSTONE,
    Entry,
    Expiring,
    u64_key,
    u64_keys,
)
from repro.lsm.memtable import Memtable
from repro.lsm.storage import StorageDevice
from repro.lsm.tree import LSMTree, RunManifest
from repro.lsm.wal import (
    WriteAheadLog,
    check_loggable,
    parse_wal_record,
    record_is_batch,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import LATENCY_NS_BUCKETS, SUBLEVELS_BUCKETS
from repro.obs.trace import Tracer

#: Memory-I/O categories that make up the 'filter' latency component.
_FILTER_CATEGORIES = ("filter", "filter_dt", "filter_rt", "filter_aht", "filter_ovf")


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one instrumented point read."""

    value: Any
    found: bool
    false_positives: int
    sublevels_probed: int


@dataclass(frozen=True)
class CrashState:
    """What survives a crash: storage, run manifests, the WAL, and —
    for Chucky — the persisted filter fingerprints (paper section 4.5).
    The memtable, block cache and in-memory filters are lost. A value:
    ``storage`` is a snapshot of just the manifest's runs, which
    recovery (``KVStore(..., state=state)``) reads and never writes."""

    storage: StorageDevice
    manifest: list[RunManifest]
    wal_data: bytes
    filter_blob: bytes | None
    #: Modelled clock at crash time. Recovery resumes the TTL clock from
    #: here so expiry stamps stay monotone across restarts — a recovered
    #: store's counters restart at zero, and without the floor every
    #: in-flight TTL would spring back to life.
    clock_ns: int = 0


@dataclass(frozen=True)
class IOSnapshot:
    memory: dict[str, int]
    storage_reads: int
    storage_writes: int
    queries: int
    updates: int
    false_positives: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: Point reads that returned a value (a tombstoned or expired key
    #: reads as a miss), and range scans served.
    read_hits: int = 0
    scans: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (all ints; ``memory`` stays a sub-dict)
        — what the serving layer's STATS op ships on the wire."""
        return {
            "memory": dict(self.memory),
            "storage_reads": self.storage_reads,
            "storage_writes": self.storage_writes,
            "queries": self.queries,
            "updates": self.updates,
            "false_positives": self.false_positives,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "read_hits": self.read_hits,
            "scans": self.scans,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IOSnapshot":
        """Inverse of :meth:`as_dict` (clean JSON round-trip)."""
        return cls(
            memory={str(k): int(v) for k, v in data["memory"].items()},
            storage_reads=int(data["storage_reads"]),
            storage_writes=int(data["storage_writes"]),
            queries=int(data["queries"]),
            updates=int(data["updates"]),
            false_positives=int(data["false_positives"]),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            read_hits=int(data.get("read_hits", 0)),
            scans=int(data.get("scans", 0)),
        )

    def since(self, earlier: "IOSnapshot") -> "IOSnapshot":
        """The window from ``earlier`` to this snapshot: every count's
        difference (memory categories key-wise, over both snapshots'
        categories)."""
        mine, theirs = self.memory, earlier.memory
        return IOSnapshot(
            memory={
                category: mine.get(category, 0) - theirs.get(category, 0)
                for category in set(mine) | set(theirs)
            },
            storage_reads=self.storage_reads - earlier.storage_reads,
            storage_writes=self.storage_writes - earlier.storage_writes,
            queries=self.queries - earlier.queries,
            updates=self.updates - earlier.updates,
            false_positives=self.false_positives - earlier.false_positives,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            read_hits=self.read_hits - earlier.read_hits,
            scans=self.scans - earlier.scans,
        )

    def price(
        self, model: CostModel, operations: int | None = None
    ) -> LatencyBreakdown:
        """These counts (a window, from :meth:`since`) priced by
        ``model`` into a Figure-14 breakdown; divided by ``operations``
        when given (per-op averages). Counts are integers and the model
        multiplies them by constants, so pricing a sum of windows equals
        summing their prices."""
        mem = self.memory
        filter_ns = model.memory_cost(
            sum(mem.get(cat, 0) for cat in _FILTER_CATEGORIES)
        )
        memtable_ns = model.memory_cost(mem.get("memtable", 0))
        fence_ns = model.memory_cost(mem.get("fence", 0))
        storage_ns = model.storage_cost(
            self.storage_reads, self.storage_writes
        ) + model.memory_cost(mem.get("cache", 0))
        known = {"memtable", "fence", "cache", *_FILTER_CATEGORIES}
        other_ns = model.memory_cost(
            sum(v for k, v in mem.items() if k not in known)
        )
        breakdown = LatencyBreakdown(
            filter_ns=filter_ns,
            memtable_ns=memtable_ns,
            fence_ns=fence_ns,
            storage_ns=storage_ns,
            other_ns=other_ns,
        )
        if operations:
            breakdown = breakdown.scaled(1.0 / operations)
        return breakdown


class CountedWindow:
    """The counted-window surface every store shape shares. A store
    supplies ``snapshot()`` and ``cost_model``; a window of operations is
    ``snapshot().since(snap)``, priced by :meth:`IOSnapshot.price`."""

    def latency_since(
        self, snap: IOSnapshot, operations: int | None = None
    ) -> LatencyBreakdown:
        """Modelled latency accumulated since ``snap``; divided by
        ``operations`` when given (per-op averages, Figure 14 style)."""
        return self.snapshot().since(snap).price(self.cost_model, operations)

    def memory_ios_since(self, snap: IOSnapshot) -> dict[str, int]:
        return self.snapshot().since(snap).memory

    def false_positives_since(self, snap: IOSnapshot) -> int:
        return self.snapshot().since(snap).false_positives


class KVStore(CountedWindow):
    """A complete LSM-tree key-value store with pluggable filtering;
    recovered from a :class:`CrashState` when given ``state``."""

    def __init__(
        self,
        config: LSMConfig | None = None,
        filter_policy: FilterPolicy | None = None,
        cache_blocks: int = 0,
        cost_model: CostModel | None = None,
        durable: bool = False,
        observability: Observability | None = None,
        state: CrashState | None = None,
    ) -> None:
        self.config = config if config is not None else LSMConfig()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.obs = observability if observability is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        self.counters = IOCounters()
        cache = BlockCache(cache_blocks) if cache_blocks > 0 else None
        if state is None:
            self.tree = LSMTree(self.config, counters=self.counters, cache=cache)
        else:
            # Runs reopen from their manifests (no data scan) over a
            # fresh snapshot, so recovery never writes the state.
            storage = state.storage.snapshot(
                (m.run_id for m in state.manifest), self.counters.storage
            )
            self.tree = LSMTree.from_manifest(
                self.config, storage, state.manifest,
                counters=self.counters, cache=cache,
            )
        self.policy = (
            filter_policy if filter_policy is not None else NoFilterPolicy()
        )
        # Share one set of counters (and the observability bundle)
        # across all components.
        self.policy.counters = self.counters
        self.policy.obs = self.obs
        if self._obs_on:
            self.obs.bind_clock(self._modelled_ns)
            self.tree.attach_observability(self.obs)
        self.policy.attach(self.tree)
        self.memtable = Memtable(self.config.buffer_entries, self.counters.memory)
        self.wal = WriteAheadLog() if durable else None
        self._seqno = 0
        #: TTL clock floor: the modelled time already elapsed in prior
        #: incarnations of this store (nonzero only after recovery).
        self._clock_floor = 0
        self.tree.clock = self.now_ns
        self.queries = 0
        self.updates = 0
        self.false_positives = 0
        self.read_hits = 0
        self.scans = 0
        if self._obs_on:
            self._register_instruments()
        if state is None:
            return
        # Recovery's tail (paper section 4.5): the policy recovers its
        # filter (from the persisted fingerprints when it can use them,
        # else by scanning the runs); the WAL replays into the fresh
        # memtable with the original sequence numbers.
        self.policy.recover(state.filter_blob)
        self.wal = WriteAheadLog(data=bytearray(state.wal_data))
        max_seqno = 0
        for kind, key, value, seqno in self.wal.replay():
            self.memtable.put(key, value, seqno)
            max_seqno = max(max_seqno, seqno)
        self._seqno = max([max_seqno] + [m.max_seqno for m in state.manifest])
        # Resume the TTL clock where the crashed incarnation left it —
        # recovery's own counted work (filter rebuild, WAL replay) has
        # already advanced _modelled_ns past zero, so the floor keeps
        # the clock monotone rather than exactly continuous.
        self._clock_floor = state.clock_ns

    # ------------------------------------------------------------------
    # Observability wiring
    # ------------------------------------------------------------------

    def _modelled_ns(self) -> float:
        """Total modelled time so far — the tracer's clock: the cost-
        model price of every I/O counted since the store was created."""
        counters = self.counters
        return self.cost_model.total_cost(
            counters.memory.total, counters.storage.reads, counters.storage.writes
        )

    def now_ns(self) -> int:
        """The TTL clock (absolute modelled ns): monotone across crash/
        recover because recovery carries the floor forward. Reading it
        counts no I/Os, so TTL checks never perturb the I/O accounting."""
        return self._clock_floor + int(self._modelled_ns())

    def _register_instruments(self) -> None:
        registry = self.obs.registry
        self._m_reads = registry.counter("kv_reads_total", "point reads served")
        self._m_writes = registry.counter(
            "kv_writes_total", "puts and deletes buffered"
        )
        self._m_false_positives = registry.counter(
            "kv_read_false_positives_total",
            "candidate sub-levels probed in vain (the paper's FPR numerator)",
        )
        self._m_read_latency = registry.histogram(
            "kv_read_latency_ns", LATENCY_NS_BUCKETS,
            "modelled latency of one point read",
        )
        self._m_write_latency = registry.histogram(
            "kv_write_latency_ns", LATENCY_NS_BUCKETS,
            "modelled latency of one write (flush cascades included)",
        )
        self._m_sublevels_probed = registry.histogram(
            "kv_read_sublevels_probed", SUBLEVELS_BUCKETS,
            "runs actually fetched per point read",
        )
        registry.add_collector(self._collect_gauges)

    def _collect_gauges(self) -> None:
        """Sampled gauges, refreshed at export time by the registry."""
        registry = self.obs.registry
        registry.gauge("store_entries", "entries in tree + memtable").set(
            self.num_entries
        )
        registry.gauge("store_levels", "LSM-tree levels").set(self.tree.num_levels)
        registry.gauge("store_runs", "occupied runs").set(
            len(self.tree.occupied_runs())
        )
        stored = self.tree.num_entries
        size_bits = self.policy.size_bits
        registry.gauge("filter_size_bits", "total filter footprint").set(size_bits)
        registry.gauge(
            "filter_bits_per_entry", "filter bits per stored entry"
        ).set(size_bits / stored if stored else 0.0)
        cache = self.tree.cache
        registry.gauge("cache_hits", "block-cache hits").set(
            cache.hits if cache else 0
        )
        registry.gauge("cache_misses", "block-cache misses").set(
            cache.misses if cache else 0
        )
        registry.gauge(
            "cache_hit_ratio", "fraction of block lookups served from cache"
        ).set(cache.hit_ratio if cache else 0.0)
        if self.wal is not None:
            registry.gauge("wal_appended_records", "records ever appended").set(
                self.wal.appended
            )
            registry.gauge(
                "wal_batch_records",
                "physical batch records ever appended (group commit "
                "coalescing shows up as batch_records << writes)",
            ).set(self.wal.batch_records)
            registry.gauge("wal_appended_bytes", "bytes ever appended").set(
                self.wal.appended_bytes
            )
            registry.gauge("wal_size_bytes", "live (untruncated) bytes").set(
                self.wal.size_bytes
            )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, key: int, value: Any, ttl: int | None = None) -> None:
        """Insert or update a key.

        ``ttl`` (modelled ns, ``None`` = never expires) makes the write
        a TTL write: past ``now_ns() + ttl`` the key reads as absent and
        the version is reclaimed lazily at merge time like a purged
        tombstone (its filter fingerprint dropping with it). ``ttl <= 0``
        is legal and deterministically already-expired. Without ``ttl``
        this path is byte-for-byte the pre-TTL one.

        Every operation takes a key in one domain (:func:`u64_key`): an
        integer in ``[0, 2**64)``, or an object whose ``__index__`` is
        one. Any other key raises before anything is logged or buffered.
        """
        if type(key) is not int or not 0 <= key < KEY_LIMIT:
            key = u64_key(key)
        if ttl is not None:
            value = Expiring(value, self.now_ns() + int(ttl))
        if not self._obs_on:
            self._put_impl(key, value)
        else:
            start = self._modelled_ns()
            with self.obs.tracer.span("write", key=key):
                self._put_impl(key, value)
            self._m_writes.inc()
            self._m_write_latency.observe(self._modelled_ns() - start)

    def _put_impl(self, key: int, value: Any) -> None:
        if self.memtable.is_full:
            self.flush()
        seqno = self._seqno + 1
        if self.wal is not None:
            # Raises (unloggable value) before the seqno is taken.
            self.wal.append_put(key, value, seqno)
            crash_point("kvstore.put.after_wal")
            if type(value) is Expiring:
                crash_point("kvstore.put_ttl.after_wal")
        self._seqno = seqno
        self.memtable.put(key, value, seqno)
        self.updates += 1

    def delete(self, key: int) -> None:
        """Delete a key (out-of-place: buffers a tombstone)."""
        key = u64_key(key)
        if not self._obs_on:
            self._delete_impl(key)
        else:
            start = self._modelled_ns()
            with self.obs.tracer.span("delete", key=key):
                self._delete_impl(key)
            self._m_writes.inc()
            self._m_write_latency.observe(self._modelled_ns() - start)

    def _delete_impl(self, key: int) -> None:
        if self.memtable.is_full:
            self.flush()
        self._seqno += 1
        if self.wal is not None:
            self.wal.append_delete(key, self._seqno)
            crash_point("kvstore.delete.after_wal")
        self.memtable.delete(key, self._seqno)
        self.updates += 1

    def put_batch(self, items: list[tuple[int, Any]]) -> None:
        """Atomically buffer a batch (paper section 4.5).

        The whole batch enters the memtable — and the WAL, as one
        all-or-nothing group record — together: when the batch would
        not fit in the remaining buffer space, the memtable is flushed
        *first*, so a mid-batch flush can never split the batch across
        runs, and a crash can never surface a torn prefix of it. A
        batch larger than the whole buffer degrades to buffer-sized
        groups, each individually atomic. A durable store refuses a
        batch holding a value it cannot log (:class:`TypeError`) before
        any item of it is applied.
        """
        if not items:
            return
        items = [(u64_key(key), value) for key, value in items]
        capacity = self.memtable.capacity
        if self.wal is not None and len(items) > capacity:
            check_loggable(value for _, value in items)
        for start in range(0, len(items), capacity):
            self._put_group(items[start : start + capacity])

    def _put_group(self, group: list[tuple[int, Any]]) -> None:
        if not self._obs_on:
            self._put_group_impl(group)
        else:
            start = self._modelled_ns()
            with self.obs.tracer.span("put_batch", size=len(group)):
                self._put_group_impl(group)
            self._m_writes.inc(len(group))
            self._m_write_latency.observe(self._modelled_ns() - start)

    def _put_group_impl(self, group: list[tuple[int, Any]]) -> None:
        if len(self.memtable) + len(group) > self.memtable.capacity:
            self.flush()
        base = self._seqno
        stamped = [
            (key, value, seqno)
            for seqno, (key, value) in enumerate(group, base + 1)
        ]
        if self.wal is not None:
            # Raises (unloggable value) before any item is applied.
            self.wal.append_batch(stamped)
            crash_point("kvstore.batch.after_wal")
        self._seqno = base + len(group)
        for key, value, seqno in stamped:
            self.memtable.put(key, value, seqno)
        self.updates += len(group)

    def _bump_seqno(self) -> int:
        """Allocate the next sequence number (bulk loaders use this to
        stamp directly installed runs)."""
        self._seqno += 1
        return self._seqno

    # ------------------------------------------------------------------
    # Replication hooks (cluster WAL shipping)
    # ------------------------------------------------------------------

    def apply_wal_record(self, record: bytes) -> int:
        """Ingest one replicated, framed WAL record (follower side).

        The record is strictly verified (:func:`parse_wal_record` —
        any damage raises :class:`~repro.lsm.wal.WalCorruption`), then
        appended *verbatim* to this store's WAL and applied to the
        memtable with the leader's original sequence numbers. That
        ordering mirrors :meth:`_put_group_impl` (flush-first, WAL,
        then memtable), so a follower's durable state after any crash
        is exactly a standalone store that logged the same records.
        Returns the number of items applied.
        """
        if self.wal is None:
            raise RuntimeError("replication requires KVStore(durable=True)")
        items = parse_wal_record(record)
        if not items:
            return 0
        if len(self.memtable) + len(items) > self.memtable.capacity:
            self.flush()
        self.wal.append_raw(
            record, count=len(items), batch=record_is_batch(record)
        )
        crash_point("kvstore.batch.after_wal")
        top = self._seqno
        for _kind, key, value, seqno in items:
            # Deletes arrive as TOMBSTONE values; memtable.put stores
            # them identically to memtable.delete (same as recovery).
            self.memtable.put(key, value, seqno)
            if seqno > top:
                top = seqno
        self._seqno = top
        self.updates += len(items)
        return len(items)

    def export_entries(self) -> list[tuple[int, Any, int]]:
        """Materialize every live version — tree runs then memtable,
        newest version winning — as (key, value, seqno) triples with
        tombstones preserved. This is the shard-handoff snapshot
        source; the scan is an auxiliary pass in the paper's section
        4.5 sense, so storage reads are uncounted."""
        best: dict[int, tuple[Any, int]] = {}
        with self.tree.storage.counting_suspended():
            for _sublevel, run in self.tree.occupied_runs():
                for entry in run.read_all():
                    key, _, seqno, _ = entry
                    cur = best.get(key)
                    if cur is None or seqno > cur[1]:
                        best[key] = (self._export_value(entry), seqno)
        for entry in self.memtable.sorted_entries():
            key, _, seqno, _ = entry
            cur = best.get(key)
            if cur is None or seqno > cur[1]:
                best[key] = (self._export_value(entry), seqno)
        return [
            (key, value, seqno)
            for key, (value, seqno) in sorted(best.items())
        ]

    @staticmethod
    def _export_value(entry: Entry) -> Any:
        """Re-wrap a TTL entry for the wire: the handoff snapshot rides
        the WAL batch codec, whose Expiring kind carries the stamp, so
        the importing shard's ``memtable.put`` restores it exactly."""
        _, value, _, expires_at = entry
        if expires_at is not None and value is not TOMBSTONE:
            return Expiring(value, expires_at)
        return value

    def flush(self) -> None:
        """Force the memtable into the tree (normally automatic)."""
        if len(self.memtable) == 0:
            return
        with self.obs.tracer.span("flush", entries=len(self.memtable)):
            entries = self.memtable.sorted_entries()
            self.memtable.clear()
            self.tree.flush(entries)
            self.policy.after_write()
            if self.wal is not None:
                # The buffered writes are now durable in storage runs.
                # A crash before the truncate replays them from the WAL
                # on top of the flushed runs — idempotent, since the
                # replayed versions carry the same seqnos.
                crash_point("kvstore.flush.before_wal_truncate")
                self.wal.truncate()

    # ------------------------------------------------------------------
    # Crash & recovery (paper section 4.5, Persistence)
    # ------------------------------------------------------------------

    def crash(self) -> CrashState:
        """Capture exactly what survives a crash.

        Requires a durable store (a WAL); the memtable, cache and
        in-memory filter structures are considered lost. Chucky's
        persisted fingerprints ride along so recovery can rebuild the
        filter without rescanning the data.
        """
        if self.wal is None:
            raise RuntimeError("crash/recovery requires KVStore(durable=True)")
        # The persisted fingerprints are only trustworthy when the tree
        # is at a committed state: mid-cascade the live filter already
        # reflects in-flight merge events, while recovery reopens the
        # *committed* (pre-cascade) manifest — restoring that blob would
        # point keys at sub-levels they no longer occupy (false
        # negatives, stale reads). In that case recovery falls back to
        # rebuilding the filter from the recovered runs.
        mid_cascade = (
            self.tree._pending_free
            or self.tree.manifest() != self.tree.committed_manifest()
        )
        # The *committed* manifest: a crash mid-cascade must recover
        # from the last durable tree shape, whose runs the deferred
        # storage reclamation guarantees are still on the device; the
        # state snapshots just those runs, so no orphan enters it.
        manifest = self.tree.committed_manifest()
        return CrashState(
            storage=self.tree.storage.snapshot(m.run_id for m in manifest),
            manifest=manifest,
            wal_data=bytes(self.wal.data),
            filter_blob=None if mid_cascade else self.policy.persist(),
            clock_ns=self.now_ns(),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: int) -> Any:
        """Point read; returns the value or None."""
        if type(key) is not int or not 0 <= key < KEY_LIMIT:
            key = u64_key(key)
        if self._obs_on:
            return self._observed_read(key, False)
        entry = self._find(key)[0]
        if entry is None:
            return None
        value = self._value_of(entry)
        if value is not None:
            self.read_hits += 1
        return value

    def get_with_stats(self, key: int) -> ReadResult:
        """Point read with false-positive accounting.

        A false positive is a candidate sub-level the filter told us to
        search whose run turned out not to hold the key — each one costs
        a wasted fence search + storage I/O, the quantity Figures 11 and
        14 B-D measure.
        """
        return self._observed_read(u64_key(key), True)

    def _observed_read(self, key: int, stats: bool) -> Any:
        """The one observed read body of :meth:`get` and
        :meth:`get_with_stats`: the value, or its :class:`ReadResult`
        when ``stats`` (the only case that builds one).

        With observability on it records the read's instruments, its
        modelled latency priced from the counters' integer deltas. A
        read whose span would be kept (:meth:`Tracer.sampling`) takes
        the traced walk; every other read — obs off, or an unsampled
        request on a served store — runs the same ``_find``.
        """
        obs_on = self._obs_on
        if obs_on:
            memory = self.counters.memory
            storage = self.counters.storage
            ios, reads, writes = memory.total, storage.reads, storage.writes
            tracer = self.obs.tracer
        if obs_on and tracer.sampling():
            with tracer.span("read", key=key) as span:
                # The same lookup as ``_find``, with the per-hop child
                # spans one traced read shows. Spans never touch the I/O
                # counters, so the counted work is identical.
                self.queries += 1
                with tracer.span("memtable_probe"):
                    entry, false_positives, probed = self.memtable.get(key), 0, 0
                if entry is None:
                    with tracer.span("filter_probe") as fspan:
                        entry, false_positives, probed = self._walk(
                            key, self.policy.candidates(key), tracer
                        )
                        fspan.set(
                            false_positives=false_positives, runs_probed=probed
                        )
                value = None if entry is None else self._value_of(entry)
                span.set(
                    found=value is not None,
                    false_positives=false_positives,
                    sublevels_probed=probed,
                )
        else:
            entry, false_positives, probed = self._find(key)
            value = None if entry is None else self._value_of(entry)
        if value is not None:
            self.read_hits += 1
        if obs_on:
            self._m_reads.inc()
            self._m_read_latency.observe(
                self.cost_model.total_cost(
                    memory.total - ios,
                    storage.reads - reads,
                    storage.writes - writes,
                )
            )
            self._m_sublevels_probed.observe(probed)
            if false_positives:
                self._m_false_positives.inc(false_positives)
        if stats:
            return ReadResult(value, value is not None, false_positives, probed)
        return value

    def get_batch(self, keys: list[int]) -> list[Any]:
        """Point-read many keys; values align with ``keys`` by index.

        With observability off the batch runs a memtable phase, one
        batched filter probe (:meth:`FilterPolicy.candidates_many`) and a
        run-probe phase. Counted I/Os and the cache access sequence are identical
        to the per-key loop — the memtable never touches the block cache
        and run probes keep key order — only the per-call dispatch and
        the per-key hashing (one SWAR pass for the batch) are amortized.
        A key the filter ruled out skips :meth:`_walk`, which would
        charge nothing and count no false positive for it.

        With observability on — every ``repro serve`` store — each key
        is answered through :meth:`get`, so its per-read instruments
        record.
        """
        if self._obs_on:
            return [self.get(key) for key in keys]
        keys = u64_keys(keys)
        self.queries += len(keys)
        memtable_get = self.memtable.get
        out = [memtable_get(key) for key in keys]
        misses = [pos for pos, entry in enumerate(out) if entry is None]
        candidates = self.policy.candidates_many([keys[pos] for pos in misses])
        for pos, cands in zip(misses, candidates):
            if cands:
                out[pos] = self._walk(keys[pos], cands)[0]
        value_of = self._value_of
        values = [None if entry is None else value_of(entry) for entry in out]
        self.read_hits += len(values) - values.count(None)
        return values

    def _find(self, key: int) -> tuple[Entry | None, int, int]:
        """One point lookup — memtable, then the filter's candidates:
        ``(entry, false_positives, runs_probed)``."""
        self.queries += 1
        entry = self.memtable.get(key)
        if entry is not None:
            return entry, 0, 0
        candidates = self.policy.candidates(key)
        if not candidates:
            # The filter ruled the key out: _walk would charge nothing
            # and count no false positive (a lazy iterator still walks).
            return None, 0, 0
        return self._walk(key, candidates)

    def _walk(
        self, key: int, candidates: Iterable[int], tracer: Tracer | None = None
    ) -> tuple[Entry | None, int, int]:
        """The candidate-walking loop every point read runs: fetch the
        run at each candidate sub-level, youngest first, stopping at the
        first that holds ``key`` (a tombstone or expired version stops
        the search too — it shadows anything older). ``tracer`` (the
        instrumented read only) wraps each fetch in a ``run_probe``
        span."""
        runs = self.tree.runs
        memory = self.counters.memory
        cache = self.tree.cache
        false_positives = 0
        probed = 0
        found = None
        for sublevel in candidates:
            run = runs.get(sublevel)
            if run is None:
                # The filter pointed at an empty sub-level: a false
                # positive that costs no storage I/O.
                false_positives += 1
                continue
            probed += 1
            if tracer is None:
                found = run.get(key, memory, cache)
            else:
                with tracer.span("run_probe", sublevel=sublevel):
                    found = run.get(key, memory, cache)
            if found is not None:
                break
            false_positives += 1
        self.false_positives += false_positives
        return found, false_positives, probed

    def scan(self, lo: int, hi: int) -> Iterator[tuple[int, Any]]:
        """Range read over [lo, hi]; filters are bypassed (section 4.5)."""
        lo, hi = u64_key(lo), u64_key(hi)
        self.scans += 1
        return self._scan_impl(lo, hi)

    def _scan_impl(self, lo: int, hi: int) -> Iterator[tuple[int, Any]]:
        best: dict[int, Entry] = {}
        for entry in self.memtable.scan(lo, hi):
            best[entry[KEY]] = entry
        for entry in self.tree.scan(lo, hi):
            key = entry[KEY]
            if key not in best or entry[SEQNO] > best[key][SEQNO]:
                best[key] = entry
        for key in sorted(best):
            entry = best[key]
            value = self._value_of(entry)
            if value is not None:
                yield key, value

    def _value_of(self, entry: Entry) -> Any:
        """Resolve an entry to what the user sees: ``None`` for a
        tombstone *or* an expired TTL version (both shadow anything
        older). The expiry check reads the modelled clock only — it
        counts no I/Os, and entries without a stamp never consult it."""
        _, value, _, expires_at = entry
        if value is TOMBSTONE:
            return None
        if expires_at is not None and expires_at <= self.now_ns():
            return None
        return value

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def snapshot(self) -> IOSnapshot:
        """Capture I/O counters to measure a window of operations."""
        cache = self.tree.cache
        return IOSnapshot(
            memory=self.counters.memory.snapshot(),
            storage_reads=self.counters.storage.reads,
            storage_writes=self.counters.storage.writes,
            queries=self.queries,
            updates=self.updates,
            false_positives=self.false_positives,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            read_hits=self.read_hits,
            scans=self.scans,
        )

    @property
    def num_entries(self) -> int:
        return self.tree.num_entries + len(self.memtable)

    @property
    def wal_batch_records(self) -> int:
        """Physical batch records ever appended to the WAL (0 when the
        store is not durable). The serving layer's group-commit check
        compares this to the logical write count."""
        return self.wal.batch_records if self.wal is not None else 0
