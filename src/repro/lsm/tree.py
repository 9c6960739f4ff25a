"""The Dostoevsky LSM-tree (paper section 2).

Geometry: Level i (1-based) has capacity ``P * T^i`` entries divided
evenly among its sub-levels — K sub-levels at Levels 1..L-1, Z at the
largest Level L. Each sub-level holds zero or one run. The j-th youngest
run at Level i sits at global sub-level number ``(i-1) K + j``; smaller
numbers are younger, and point queries probe sub-levels in increasing
number order so the newest version of a key wins.

Merge rule (paper): a run arriving at a level is placed in the highest-
numbered empty sub-level; if none is empty but some run can absorb the
arrival within its sub-level capacity, the arrival is merged into the
highest-numbered such run ("if there is already a run at this target
sub-level, it is included in the merge"); otherwise the whole level is
first merged into the next level, cascading as needed. When the largest
level itself must spill, the tree grows a level — the "major compaction"
that the paper piggybacks filter resizing on (section 4.5).

Filter maintenance is event-driven: every flush and merge emits a
:class:`FlushEvent` / :class:`MergeEvent` describing exactly which key
moved from which sub-level to which — the information Chucky's
opportunistic maintenance (section 4.1) consumes at no extra storage
I/O, and which Bloom-filter policies use to rebuild per-run filters.
Origin sub-level 0 means "arrived from the write buffer".

Merges run on columns (:data:`~repro.lsm.run.Columns`), and an event
carries key and origin columns: neither holds a Python object per moved
version, and each event is released once its listeners have seen it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import eq, is_, is_not, lt, not_
from typing import Callable, Iterator

from repro.common.counters import IOCounters
from repro.faults.crashpoints import crash_point
from repro.lsm.block_cache import BlockCache
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import MERGE_INPUT_BUCKETS
from repro.lsm.config import LSMConfig
from repro.lsm.entry import KEY, TOMBSTONE, Entry
from repro.lsm.run import (
    Columns,
    Run,
    columns_of,
    concat_columns,
    stamps_or_none,
)
from repro.lsm.storage import StorageDevice

#: Origin marker for entries arriving from the write buffer.
BUFFER_ORIGIN = 0

#: Type code of an origin column (sub-level numbers).
ORIGIN_TYPECODE = "I"


def origin_column(origin: int, count: int) -> array:
    """``count`` versions that all came from sub-level ``origin``."""
    return array(ORIGIN_TYPECODE, (origin,)) * count


@dataclass(frozen=True)
class FlushEvent:
    """The buffer became a run at ``sublevel`` holding ``keys`` (the
    new run's key column, in order)."""

    sublevel: int
    keys: array


@dataclass(frozen=True)
class MergeEvent:
    """One merge: runs at ``input_sublevels`` became one run at
    ``output_sublevel``.

    ``survivors`` is the output run's key column, ``survivor_origins``
    the sub-level each of those versions came from: ``BUFFER_ORIGIN``
    (0) for fresh buffer entries, equal to ``output_sublevel`` for
    entries of a run that was merged in place and therefore *did not
    move* (Chucky skips the LID update for those, paper section 4.1).
    ``drops`` / ``drop_origins`` list the keys of obsolete versions and
    purged tombstones with the sub-level they vanished from (0 when a
    buffer entry was immediately superseded within the same cascade),
    in the order a walk over the merge's sources drops them.
    """

    input_sublevels: tuple[int, ...]
    output_sublevel: int
    survivors: array
    survivor_origins: array
    drops: array
    drop_origins: array


TreeEvent = FlushEvent | MergeEvent

#: Dropped versions waiting for the event that lands a cascade's data:
#: ``(keys, origins)``.
_Drops = tuple[array, array]


@dataclass(frozen=True)
class RunManifest:
    """Durable metadata of one run — what a real engine keeps in the SST
    footer: enough to reopen the run without scanning it."""

    level: int
    slot_index: int
    run_id: int
    num_entries: int
    block_min_keys: tuple[int, ...]
    max_key: int
    #: Highest entry seqno in the run: recovery resumes numbering from
    #: the manifests and the WAL without scanning any run.
    max_seqno: int


@dataclass
class _Level:
    """One LSM level: a fixed array of sub-level slots, index 0 youngest."""

    number: int
    slots: list[Run | None] = field(default_factory=list)

    def occupied(self) -> list[tuple[int, Run]]:
        """(slot_index, run) for occupied slots, youngest first."""
        return [(i, run) for i, run in enumerate(self.slots) if run is not None]

    @property
    def is_empty(self) -> bool:
        return all(run is None for run in self.slots)


class LSMTree:
    """The on-storage part of the store: levels of sorted runs."""

    def __init__(
        self,
        config: LSMConfig,
        storage: StorageDevice | None = None,
        counters: IOCounters | None = None,
        cache: BlockCache | None = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else IOCounters()
        self.storage = (
            storage if storage is not None else StorageDevice(self.counters.storage)
        )
        self.cache = cache
        self._levels: list[_Level] = []
        for level in range(1, config.initial_levels + 1):
            self._levels.append(self._make_level(level, config.initial_levels))
        #: Listeners receiving every FlushEvent/MergeEvent; the filter
        #: policies subscribe here.
        self.listeners: list[Callable[[TreeEvent], None]] = []
        #: Listeners called with the new level count when the tree grows.
        self.grow_listeners: list[Callable[[int], None]] = []
        #: Runs made obsolete by the in-flight flush cascade; their
        #: storage is reclaimed only when the cascade commits, so a
        #: crash mid-merge never loses data the durable manifest still
        #: references (write-new-before-delete-old, like SST deletion
        #: deferred past the MANIFEST write in a real engine).
        self._pending_free: list[int] = []
        #: The durable manifest: what a crash recovers from. Updated
        #: atomically when a flush cascade (or bulk install) commits.
        self._committed: list[RunManifest] = []
        #: Modelled clock (absolute ns) for TTL reclamation; installed by
        #: the KVStore. ``None`` (or no TTL entries in a merge) means the
        #: expiry checks never fire — the merge path is byte-for-byte the
        #: pre-TTL one.
        self.clock: Callable[[], int] | None = None
        #: The run table: global sub-level number -> run (``None`` for an
        #: empty slot), one key per slot in sub-level (young-to-old)
        #: order. Point reads and per-run filter policies resolve
        #: sub-levels here; read it, never write it.
        self.runs: dict[int, Run | None] = {}
        self._rebuild_runs()
        #: Events notified since construction (a flush's span reports
        #: how many its cascade made).
        self._notified = 0
        self.attach_observability(NULL_OBS)

    def attach_observability(self, obs: Observability) -> None:
        """Wire the tree's compaction telemetry into a registry.

        Instruments are cached here so the event path pays one method
        call per flush/merge — a no-op call when ``obs`` is disabled.
        """
        self.obs = obs
        registry = obs.registry
        self._m_flushes = registry.counter(
            "lsm_flushes_total", "buffer flushes placed as Level-1 runs"
        )
        self._m_merges = registry.counter(
            "lsm_merges_total", "merge/compaction events"
        )
        self._m_merge_inputs = registry.histogram(
            "lsm_merge_inputs", MERGE_INPUT_BUCKETS,
            "input sub-levels participating in one merge",
        )
        self._m_merge_survivors = registry.counter(
            "lsm_merge_survivor_entries_total", "entries surviving merges"
        )
        self._m_merge_drops = registry.counter(
            "lsm_merge_dropped_entries_total",
            "obsolete versions and purged tombstones dropped by merges",
        )
        self._m_growths = registry.counter(
            "lsm_tree_growths_total", "levels added (major compactions)"
        )

    def _make_level(self, level: int, num_levels: int) -> _Level:
        a_i = self.config.sublevels_at(level, num_levels)
        return _Level(number=level, slots=[None] * a_i)

    def _rebuild_runs(self) -> None:
        """(Re)derive the run table from the levels — construction and
        growth only; every other change goes through :meth:`_set_run`."""
        self.runs = {
            self.sublevel_number(level.number, slot_index): run
            for level in self._levels
            for slot_index, run in enumerate(level.slots)
        }

    def _set_run(self, level: _Level, slot_index: int, run: Run | None) -> None:
        """The one place a slot changes: level array and run table together."""
        level.slots[slot_index] = run
        self.runs[self.sublevel_number(level.number, slot_index)] = run

    # ------------------------------------------------------------------
    # Geometry accessors
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_sublevels(self) -> int:
        """A (Eq 1) for the current number of levels."""
        return self.config.total_sublevels(self.num_levels)

    def sublevel_number(self, level: int, slot_index: int) -> int:
        """Global sub-level number for a slot (slot_index is 0-based)."""
        return self.config.sublevel_number(level, slot_index + 1)

    def sublevel_capacity(self, level: int) -> int:
        return self.config.sublevel_capacity(level, self.num_levels)

    def occupied_runs(self) -> list[tuple[int, Run]]:
        """(global sub-level number, run), youngest (smallest) first."""
        return [(s, run) for s, run in self.runs.items() if run is not None]

    def run_at(self, sublevel: int) -> Run | None:
        """The run at a global sub-level number, or None."""
        return self.runs.get(sublevel)

    @property
    def num_entries(self) -> int:
        return sum(run.num_entries for _, run in self.occupied_runs())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def flush(self, entries: list[Entry]) -> None:
        """Turn a key-sorted buffer into a Level-1 run, merging as needed.

        The listeners see the cascade's events in order (merges
        bottom-up first, the flush placement last); the tree keeps none
        of them.
        """
        if not entries:
            return
        with self.obs.tracer.span("tree_flush", entries=len(entries)) as span:
            notified = self._notified
            no_drops = array("Q"), array(ORIGIN_TYPECODE)
            self._place(1, columns_of(entries), None, no_drops, ())
            crash_point("tree.flush.before_commit")
            self._commit()
            span.set(events=self._notified - notified)

    def _retire(self, run: Run) -> None:
        """Mark a run obsolete: invalidate its cached blocks now, free
        its storage only at commit (crash ordering: the new data must be
        durable before the old data disappears)."""
        if self.cache is not None:
            self.cache.invalidate_run(run.run_id, run.num_blocks)
        self._pending_free.append(run.run_id)

    def _commit(self) -> None:
        """Commit the finished cascade: reclaim retired runs' storage
        and snapshot the durable manifest in one step."""
        for run_id in self._pending_free:
            self.storage.delete_run(run_id)
        self._pending_free.clear()
        self._committed = self.manifest()

    def committed_manifest(self) -> list[RunManifest]:
        """The last durably committed manifest — what survives a crash.
        Equals :meth:`manifest` whenever no flush cascade is in flight."""
        return list(self._committed)

    def _place(
        self,
        level_number: int,
        columns: Columns,
        origins: array | None,
        pending_drops: _Drops,
        input_sublevels: tuple[int, ...],
    ) -> None:
        """Place key-sorted ``columns`` at ``level_number``.

        ``origins[i]`` is the sub-level version i came from (None for a
        pure buffer flush). ``pending_drops`` carries the keys and
        origins of obsolete versions eliminated earlier in this cascade,
        to be reported with the event that finally lands the data.
        """
        if level_number > self.num_levels:
            self._grow()

        level = self._levels[level_number - 1]
        capacity = self.sublevel_capacity(level_number)
        arriving = (columns, origins, pending_drops, input_sublevels)

        # 1. Highest-numbered empty sub-level.
        empty_index = self._highest_empty(level)
        if empty_index is not None:
            self._emplace(level, empty_index, *arriving)
            return

        # 2. No empty slot means every sub-level is occupied (occupied
        # slots always form a contiguous high-index suffix). The only
        # in-place merge target that cannot invert version order is the
        # *youngest* occupied run — any older target would leave newer
        # versions behind younger sub-levels on the query path. With
        # K=1/Z=1 (leveling-style levels) this is exactly the paper's
        # "included in the merge" rule.
        target = level.slots[0]
        assert target is not None
        if target.num_entries + len(columns[0]) <= capacity:
            self._merge_into(level, 0, *arriving)
            return

        # 3. At a single-sub-level largest level, duplicate versions may
        # make the merge fit after all (the capacity pre-check cannot see
        # dedup): try a dedup merge before growing the tree. Update-heavy
        # workloads rarely grow (paper section 5, Setup).
        if (
            level_number == self.num_levels
            and len(level.slots) == 1
            and self._try_dedup_merge(level, *arriving)
        ):
            return

        # 4. Level is full: merge it wholesale into the next level, then
        # place the arrival in the freshly emptied level.
        self._spill_level(level_number)
        level = self._levels[level_number - 1]
        empty_index = self._highest_empty(level)
        assert empty_index is not None
        self._emplace(level, empty_index, *arriving)

    def _highest_empty(self, level: _Level) -> int | None:
        for slot_index in range(len(level.slots) - 1, -1, -1):
            if level.slots[slot_index] is None:
                return slot_index
        return None

    def _emplace(
        self,
        level: _Level,
        slot_index: int,
        columns: Columns,
        origins: array | None,
        pending_drops: _Drops,
        input_sublevels: tuple[int, ...],
    ) -> None:
        """Write ``columns`` as a new run into an empty slot."""
        sublevel = self.sublevel_number(level.number, slot_index)
        drops, drop_origins = pending_drops
        if origins is not None and self._is_oldest_sublevel(sublevel):
            kept, purged = _purge(
                columns[1], columns[3], range(len(origins)), self.clock
            )
            if purged:
                drops = drops + _take(columns[0], purged)
                drop_origins = drop_origins + _take(origins, purged)
                columns = _gather(columns, kept)
                origins = _take(origins, kept)
        keys = columns[0]
        if not keys:
            if drops:
                self._notify(MergeEvent(
                    input_sublevels, sublevel, keys,
                    array(ORIGIN_TYPECODE), drops, drop_origins,
                ))
            return
        crash_point("tree.emplace.before_build")
        run = Run.build(columns, self.storage, self.config.block_entries)
        self._set_run(level, slot_index, run)
        if origins is None and not drops:
            event: TreeEvent = FlushEvent(sublevel=sublevel, keys=keys)
        else:
            if origins is None:
                origins = origin_column(BUFFER_ORIGIN, len(keys))
            event = MergeEvent(
                input_sublevels, sublevel, keys, origins, drops, drop_origins
            )
        self._notify(event)

    def _try_dedup_merge(
        self,
        level: _Level,
        columns: Columns,
        origins: array | None,
        pending_drops: _Drops,
        input_sublevels: tuple[int, ...],
    ) -> bool:
        """Attempt an in-place merge into a single-sub-level largest
        level, counting on version dedup to bring the result under
        capacity. The sizing pass reads uncounted (a real engine
        estimates overlap from run metadata); on success the commit path
        charges the merge reads."""
        slot_index = 0
        target = level.slots[slot_index]
        assert target is not None
        with self.storage.counting_suspended():
            target_columns = target.read_columns()
        # Both sides hold one version per key: the merge keeps one per
        # distinct key, and only the smaller side needs a set.
        small, large = sorted((columns[0], target_columns[0]), key=len)
        merged_size = len(small) + len(large) - len(set(small).intersection(large))
        if merged_size > self.sublevel_capacity(level.number):
            return False
        # Commit: charge the reads the trial performed, then merge.
        self.counters.storage.read(target.num_blocks)
        self._merge_into(
            level, slot_index, columns, origins, pending_drops,
            input_sublevels, target_columns=target_columns,
        )
        return True

    def _merge_into(
        self,
        level: _Level,
        slot_index: int,
        columns: Columns,
        origins: array | None,
        pending_drops: _Drops,
        input_sublevels: tuple[int, ...],
        target_columns: Columns | None = None,
    ) -> None:
        """Merge the arrival with the run already at ``slot_index``."""
        sublevel = self.sublevel_number(level.number, slot_index)
        target = level.slots[slot_index]
        assert target is not None
        if target_columns is None:
            target_columns = target.read_columns()
        if origins is None:
            origins = origin_column(BUFFER_ORIGIN, len(columns[0]))
        merged, merged_origins, drops, drop_origins = _merge_sorted(
            [
                (columns, origins),
                (target_columns, origin_column(sublevel, target.num_entries)),
            ],
            purge_tombstones=self._is_oldest_sublevel(sublevel),
            clock=self.clock,
        )
        del columns, origins, target_columns
        self._retire(target)
        self._set_run(level, slot_index, None)
        if merged[0]:
            crash_point("tree.merge.before_build")
            run = Run.build(merged, self.storage, self.config.block_entries)
            self._set_run(level, slot_index, run)
            crash_point("tree.merge.after_build")
        pending, pending_origins = pending_drops
        self._notify(MergeEvent(
            input_sublevels + (sublevel,), sublevel, merged[0], merged_origins,
            pending + drops, pending_origins + drop_origins,
        ))

    def _spill_level(self, level_number: int) -> None:
        """Merge every run at ``level_number`` into the next level."""
        with self.obs.tracer.span("merge_spill", level=level_number):
            self._spill_level_inner(level_number)

    def _spill_level_inner(self, level_number: int) -> None:
        level = self._levels[level_number - 1]
        occupied = level.occupied()
        assert occupied, "only full levels spill"
        sources: list[tuple[Columns, array]] = []
        input_sublevels: list[int] = []
        for slot_index, run in occupied:
            sublevel = self.sublevel_number(level.number, slot_index)
            sources.append(
                (run.read_columns(), origin_column(sublevel, run.num_entries))
            )
            input_sublevels.append(sublevel)
        merged, merged_origins, drops, drop_origins = _merge_sorted(
            sources, purge_tombstones=False
        )
        del sources
        for slot_index, run in occupied:
            self._retire(run)
            self._set_run(level, slot_index, None)
        crash_point("tree.spill.before_place")
        self._place(
            level_number + 1, merged, merged_origins, (drops, drop_origins),
            tuple(input_sublevels),
        )

    def _is_oldest_sublevel(self, sublevel: int) -> bool:
        return sublevel == self.config.total_sublevels(self.num_levels)

    def _grow(self) -> None:
        """Add a level: the old largest level becomes an inner level.

        Only triggered when the old largest level has just been emptied
        into the merge that is cascading downward, so re-shaping its slot
        array cannot displace live runs.
        """
        old_last = self._levels[-1]
        if not old_last.is_empty:
            raise AssertionError("tree growth requires an empty largest level")
        new_count = self.num_levels + 1
        self._levels[-1] = self._make_level(old_last.number, new_count)
        self._levels.append(self._make_level(new_count, new_count))
        self._rebuild_runs()
        self._m_growths.inc()
        for listener in self.grow_listeners:
            listener(new_count)

    def _notify(self, event: TreeEvent) -> None:
        self._notified += 1
        if isinstance(event, FlushEvent):
            self._m_flushes.inc()
        else:
            self._m_merges.inc()
            self._m_merge_inputs.observe(len(event.input_sublevels))
            self._m_merge_survivors.inc(len(event.survivors))
            self._m_merge_drops.inc(len(event.drops))
        for listener in self.listeners:
            listener(event)

    def manifest(self) -> list[RunManifest]:
        """Durable metadata for every live run (crash-recovery support)."""
        result = []
        for level in self._levels:
            for slot_index, run in level.occupied():
                result.append(
                    RunManifest(
                        level=level.number,
                        slot_index=slot_index,
                        run_id=run.run_id,
                        num_entries=run.num_entries,
                        block_min_keys=run.block_min_keys,
                        max_key=run.max_key,
                        max_seqno=run.max_seqno,
                    )
                )
        return result

    @classmethod
    def from_manifest(
        cls,
        config: LSMConfig,
        storage: StorageDevice,
        manifest: list[RunManifest],
        counters: IOCounters | None = None,
        cache: BlockCache | None = None,
    ) -> "LSMTree":
        """Reopen a tree over existing storage from its manifest.

        The number of levels is taken from the manifest (at least the
        configured initial level count). Runs are *not* scanned — fence
        pointers come from the manifest, like reading SST footers.
        """
        num_levels = max(
            [config.initial_levels] + [m.level for m in manifest]
        )
        tree = cls(
            config.with_levels(num_levels), storage=storage,
            counters=counters, cache=cache,
        )
        for m in manifest:
            run = Run(
                m.run_id, storage, list(m.block_min_keys), m.max_key,
                m.num_entries, m.max_seqno,
            )
            level = tree._levels[m.level - 1]
            if not 0 <= m.slot_index < len(level.slots):
                raise ValueError(
                    f"manifest slot {m.slot_index} out of range at level "
                    f"{m.level}"
                )
            if level.slots[m.slot_index] is not None:
                raise ValueError(
                    f"duplicate manifest entry for level {m.level} slot "
                    f"{m.slot_index}"
                )
            tree._set_run(level, m.slot_index, run)
        tree._commit()
        return tree

    def install_run(self, sublevel: int, columns: Columns) -> None:
        """Bulk-load a run (key-sorted columns, one version per key)
        directly into a specific (empty) sub-level.

        Bypasses the merge machinery — used by benchmark loaders to build
        the paper's "all sub-levels full" worst-case state cheaply, and by
        the merge-policy switch. Emits a FlushEvent so filter policies
        stay in sync.
        """
        for level in self._levels:
            base = self.config.sublevel_number(level.number, 1)
            offset = sublevel - base
            if 0 <= offset < len(level.slots):
                if level.slots[offset] is not None:
                    raise ValueError(f"sub-level {sublevel} is already occupied")
                run = Run.build(columns, self.storage, self.config.block_entries)
                self._set_run(level, offset, run)
                self._notify(FlushEvent(sublevel=sublevel, keys=columns[0]))
                self._commit()
                return
        raise ValueError(f"sub-level {sublevel} does not exist")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get_from_sublevel(self, sublevel: int, key: int) -> Entry | None:
        """Probe one sub-level's run for ``key`` (filter-directed read)."""
        run = self.run_at(sublevel)
        if run is None:
            return None
        return run.get(key, self.counters.memory, self.cache)

    def get_unfiltered(self, key: int) -> Entry | None:
        """Search every run youngest-to-oldest (the no-filter baseline)."""
        for _, run in self.occupied_runs():
            entry = run.get(key, self.counters.memory, self.cache)
            if entry is not None:
                return entry
        return None

    def scan(self, lo: int, hi: int) -> Iterator[Entry]:
        """Range read: streaming k-way merge of the key range across all
        runs, newest version per key (tombstones are yielded too; the
        caller filters them). Filters are not consulted — paper section
        4.5, Range Reads. Memory stays O(runs), not O(range width)."""
        import heapq

        memory, cache = self.counters.memory, self.cache

        def ranked(run: Run, age: int) -> Iterator[tuple[int, int, Entry]]:
            # A function, not a generator expression, so each stream
            # binds its own ``age`` rather than the loop's last value.
            for entry in run.scan(lo, hi, memory, cache):
                yield entry[KEY], age, entry

        streams = [
            ranked(run, age) for age, (_, run) in enumerate(self.occupied_runs())
        ]
        # Ties on key break by age rank: the youngest run's version
        # arrives first and wins; later duplicates are skipped. Ranks are
        # distinct, so two entries are never compared.
        previous_key: int | None = None
        for key, _, entry in heapq.merge(*streams):
            if key == previous_key:
                continue
            previous_key = key
            yield entry

    def iter_entries_with_sublevels(self) -> Iterator[tuple[Entry, int]]:
        """Every live entry with its sub-level, youngest sub-level first
        (metrics and checks read through it; reads do not touch the
        block cache)."""
        for sublevel, run in self.occupied_runs():
            for entry in run.read_all():
                yield entry, sublevel


def _take(column: array, order) -> array:
    """``column`` at the positions ``order`` lists, as a new array."""
    return array(column.typecode, map(column.__getitem__, order))


def _gather(columns: Columns, order) -> Columns:
    """The versions at the positions ``order`` lists, in that order."""
    keys, values, seqnos, expires = columns
    return (
        _take(keys, order),
        list(map(values.__getitem__, order)),
        _take(seqnos, order),
        None if expires is None
        else stamps_or_none(list(map(expires.__getitem__, order))),
    )


def _merge_sorted(
    sources: list[tuple[Columns, array]],
    purge_tombstones: bool,
    clock: Callable[[], int] | None = None,
) -> tuple[Columns, array, array, array]:
    """K-way merge with version resolution, over columns.

    ``sources`` pairs each source's columns with its origin column (the
    sub-level every version came from). Returns ``(survivors, survivor
    origins, dropped keys, dropped origins)``; which versions survive and
    which drop, in which order, is :func:`_merge_order`'s answer over
    the sources concatenated in the order they are listed.
    """
    origins = array(ORIGIN_TYPECODE)
    for source_columns, source_origins in sources:
        if len(source_columns[0]) != len(source_origins):
            raise ValueError("each entry needs exactly one origin")
        origins.extend(source_origins)
    columns = concat_columns([source_columns for source_columns, _ in sources])
    keys = columns[0]
    kept, dropped = _merge_order(columns, purge_tombstones, clock)
    drops = _take(keys, dropped), _take(origins, dropped)
    if kept != range(len(keys)):
        columns, origins = _gather(columns, kept), _take(origins, kept)
    return (columns, origins, *drops)


def _merge_order(
    columns: Columns,
    purge_tombstones: bool,
    clock: Callable[[], int] | None = None,
) -> tuple[list[int], list[int]]:
    """``(kept, dropped)``: positions into ``columns`` of the versions a
    merge keeps, in key order, and of those it drops, in drop order.

    The newest version of each key (highest seqno; the earliest-listed
    of equal seqnos) survives; with ``purge_tombstones`` the survivor is
    dropped too when it is a tombstone (the merge target is the oldest
    data in the tree) — or a TTL version whose stamp is at or before
    ``clock()``. The clock is read once, and only when a non-tombstone
    survivor carries a stamp: a version without one never expires.

    Drops come in the order a walk over the versions, in the order they
    are listed, would make them: each later version of a key drops
    itself or the version it beat, then the purged survivors in key
    order. The order matters — the filter applies drops as removals,
    and a removal can repatriate an AHT entry.

    The work is C-level except per repeated version: the positions are
    stable-sorted by key (so a key's versions sit together, in listed
    order), and only keys with more than one version are replayed in
    Python.
    """
    keys, values, seqnos, expires = columns
    dropped: list[int] = []
    if all(map(lt, keys, islice(keys, 1, None))):
        # Already in key order with one version per key (one source, or
        # sources that do not overlap): nothing to sort or replay.
        order: range | list[int] = range(len(keys))
    else:
        # The temporaries go as soon as they are used: a large merge's
        # working set is what sets the process's peak RSS.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sorted_keys = _take(keys, order)
        if any(map(eq, islice(sorted_keys, 1, None), sorted_keys)):
            order, dropped = _replay_repeats(seqnos, order, sorted_keys)
        del sorted_keys
    if purge_tombstones:
        order, purged = _purge(values, expires, order, clock)
        dropped += purged
    return order, dropped


def _purge(
    values,
    expires,
    order,
    clock: Callable[[], int] | None,
) -> tuple[list[int], list[int]]:
    """Split the positions ``order`` lists, of versions bound for the
    oldest sub-level, into the kept and the purged ones, order kept:
    tombstones, and stamped versions whose stamp is at or before
    ``clock()`` (read once, only when a non-tombstone carries a stamp)."""
    dead = list(map(is_, map(values.__getitem__, order), repeat(TOMBSTONE)))
    if expires is not None and clock is not None:
        now = None
        stamped = map(is_not, map(expires.__getitem__, order), repeat(None))
        for position in compress(range(len(dead)), stamped):
            if not dead[position]:
                if now is None:
                    now = clock()
                if expires[order[position]] <= now:
                    dead[position] = True
    if not any(dead):
        return order, []
    return list(compress(order, map(not_, dead))), list(compress(order, dead))


def _replay_repeats(
    seqnos: array,
    order: list[int],
    sorted_keys: array,
) -> tuple[list[int], list[int]]:
    """``order`` (positions stable-sorted by key) without the versions a
    walk over the sources would drop, and those drops' positions in the
    walk's order: each later version of a key drops itself, or the
    version it beat on seqno."""
    repeats = compress(
        range(1, len(order)), map(eq, islice(sorted_keys, 1, None), sorted_keys)
    )
    # (position of the later version, position of the version it
    # drops): the walk's order is the later version's position.
    replayed: list[tuple[int, int]] = []
    keep = [True] * len(order)
    previous = best = -1
    for position in repeats:
        if position != previous + 1:
            best = position - 1  # the first version of a new key
        previous = position
        later, current = order[position], order[best]
        if seqnos[later] > seqnos[current]:
            keep[best] = False
            best = position
            replayed.append((later, current))
        else:
            keep[position] = False
            replayed.append((later, later))
    replayed.sort()
    return list(compress(order, keep)), [dropped for _, dropped in replayed]
