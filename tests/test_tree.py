"""The Dostoevsky LSM-tree: merge mechanics, invariants, events, growth."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.config import LSMConfig, lazy_leveling, leveling, tiering
from repro.lsm.entry import (
    EXPIRES_AT,
    KEY,
    SEQNO,
    TOMBSTONE,
    VALUE,
    is_tombstone,
    make_entry,
)
from repro.lsm.run import columns_of, entries_of
from repro.lsm.tree import (
    BUFFER_ORIGIN,
    ORIGIN_TYPECODE,
    FlushEvent,
    LSMTree,
    MergeEvent,
    _merge_order,
    _merge_sorted,
)
from tests.reference_merge import merge_sorted as reference_merge_sorted


def drive(tree: LSMTree, ops, buffer_entries):
    """Apply (key, value) writes through buffered flushes, mirroring the
    KVStore's write path. Returns the reference model."""
    ref = {}
    buf = {}
    seq = 0
    for key, value in ops:
        seq += 1
        buf[key] = make_entry(key, value, seq)
        if value is TOMBSTONE:
            ref.pop(key, None)
        else:
            ref[key] = value
        if len(buf) >= buffer_entries:
            tree.flush([buf[k] for k in sorted(buf)])
            buf.clear()
    if buf:
        tree.flush([buf[k] for k in sorted(buf)])
    return ref


def check_structure(tree: LSMTree):
    """Structural invariants that must hold after any operation."""
    seen_ids = set()
    for sublevel, run in tree.occupied_runs():
        assert run.num_entries > 0
        assert run.run_id not in seen_ids
        seen_ids.add(run.run_id)
        entries = run.read_all()
        keys = [e[KEY] for e in entries]
        assert keys == sorted(keys), "runs must be key-sorted"
        assert len(set(keys)) == len(keys), "one version per key per run"
        level = (sublevel - 1) // tree.config.runs_per_level + 1
        level = min(level, tree.num_levels)
        assert run.num_entries <= tree.sublevel_capacity(level)


class TestSublevelNumbering:
    def test_occupied_runs_sorted_young_to_old(self, small_tiering):
        tree = LSMTree(small_tiering)
        drive(tree, [(i, i) for i in range(200)], small_tiering.buffer_entries)
        subs = [s for s, _ in tree.occupied_runs()]
        assert subs == sorted(subs)

    def test_run_at(self, small_leveling):
        tree = LSMTree(small_leveling)
        drive(tree, [(i, i) for i in range(50)], small_leveling.buffer_entries)
        for sublevel, run in tree.occupied_runs():
            assert tree.run_at(sublevel) is run
        assert tree.run_at(9999) is None


class TestMergePolicies:
    def test_leveling_one_run_per_level(self, small_leveling):
        tree = LSMTree(small_leveling)
        drive(tree, [(i, i) for i in range(500)], small_leveling.buffer_entries)
        per_level = {}
        for sublevel, _ in tree.occupied_runs():
            level = min(
                (sublevel - 1) // tree.config.runs_per_level + 1, tree.num_levels
            )
            per_level[level] = per_level.get(level, 0) + 1
        assert all(count == 1 for count in per_level.values())

    def test_tiering_multiple_runs_per_level(self, small_tiering):
        tree = LSMTree(small_tiering)
        drive(tree, [(i, i) for i in range(500)], small_tiering.buffer_entries)
        assert len(tree.occupied_runs()) > tree.num_levels

    def test_write_amplification_ordering(self):
        """Tiering writes least, leveling most (Figure 2's trade-off)."""
        writes = {}
        for name, cfg in (
            ("leveling", leveling(4, buffer_entries=8, block_entries=4)),
            ("lazy", lazy_leveling(4, buffer_entries=8, block_entries=4)),
            ("tiering", tiering(4, buffer_entries=8, block_entries=4)),
        ):
            tree = LSMTree(cfg)
            drive(tree, [(i, i) for i in range(1500)], cfg.buffer_entries)
            writes[name] = tree.counters.storage.writes
        assert writes["tiering"] < writes["lazy"] < writes["leveling"]

    def test_structure_invariants_all_policies(self):
        for cfg in (
            leveling(3, buffer_entries=8, block_entries=4),
            tiering(3, buffer_entries=8, block_entries=4),
            lazy_leveling(3, buffer_entries=8, block_entries=4),
        ):
            tree = LSMTree(cfg)
            drive(tree, [(i % 97, i) for i in range(600)], cfg.buffer_entries)
            check_structure(tree)


class TestQueries:
    def test_reference_model_agreement(self, small_lazy, rng):
        tree = LSMTree(small_lazy)
        ops = [(rng.randrange(120), f"v{i}") for i in range(800)]
        ref = drive(tree, ops, small_lazy.buffer_entries)
        for key in range(120):
            entry = tree.get_unfiltered(key)
            if key in ref:
                assert entry is not None and entry[VALUE] == ref[key]
            else:
                assert entry is None or is_tombstone(entry)

    def test_newest_version_wins(self, small_leveling):
        tree = LSMTree(small_leveling)
        ops = [(5, f"v{i}") for i in range(100)]
        drive(tree, ops, small_leveling.buffer_entries)
        assert tree.get_unfiltered(5)[VALUE] == "v99"

    def test_scan_merges_versions(self, small_lazy, rng):
        tree = LSMTree(small_lazy)
        ops = [(rng.randrange(60), f"v{i}") for i in range(400)]
        ref = drive(tree, ops, small_lazy.buffer_entries)
        got = {e[KEY]: e[VALUE] for e in tree.scan(0, 59) if not is_tombstone(e)}
        assert got == ref

    def test_scan_ties_break_by_run_age(self, small_tiering, monkeypatch):
        """Regression: each scan stream once read its age rank lazily
        and so carried the last run's, leaving a same-key tie to compare
        the versions themselves (a tombstone against a string)."""
        import heapq

        tree = LSMTree(small_tiering.with_levels(2))
        tree.install_run(
            2, columns_of([make_entry(7, "old", 1), make_entry(8, "kept", 2)])
        )
        tree.install_run(1, columns_of([make_entry(7, TOMBSTONE, 3)]))
        ranks = []
        real_merge = heapq.merge

        def spy(*streams):
            items = [list(stream) for stream in streams]
            ranks.extend({age for _, age, _ in stream} for stream in items)
            return real_merge(*items)

        monkeypatch.setattr(heapq, "merge", spy)
        got = list(tree.scan(0, 10))
        assert ranks == [{0}, {1}]
        assert [e[KEY] for e in got] == [7, 8]
        assert is_tombstone(got[0])
        assert [e[VALUE] for e in got if not is_tombstone(e)] == ["kept"]

    def test_get_from_sublevel(self, small_tiering):
        tree = LSMTree(small_tiering)
        drive(tree, [(i, i) for i in range(100)], small_tiering.buffer_entries)
        sublevel, run = tree.occupied_runs()[0]
        key = run.read_all()[0][KEY]
        assert tree.get_from_sublevel(sublevel, key) is not None
        empty = [
            s
            for s in range(1, tree.num_sublevels + 1)
            if tree.run_at(s) is None
        ]
        if empty:
            assert tree.get_from_sublevel(empty[0], key) is None


class TestVersionOrderRegression:
    def test_no_age_inversion_on_inplace_merge(self):
        """Regression: merging an arrival into a sub-level *older* than
        other occupied sub-levels would hide the newest version behind a
        younger run on the query path. The in-place target must be the
        youngest occupied run."""
        cfg = tiering(3, buffer_entries=4, block_entries=2)
        tree = LSMTree(cfg)
        # Two full flushes fill the level's sub-levels, then a final
        # partial flush of a newer version of key 0.
        ops = [(k, f"a{k}") for k in range(4)]
        ops += [(k, f"b{k}") for k in range(4)]
        ops += [(0, "newest")]
        drive(tree, ops, cfg.buffer_entries)
        assert tree.get_unfiltered(0)[VALUE] == "newest"

    def test_dedup_merge_only_at_single_slot_last_level(self):
        """Update-heavy writes dedup into a Z=1 largest level instead of
        growing the tree."""
        cfg = leveling(3, buffer_entries=4, block_entries=2, initial_levels=3)
        tree = LSMTree(cfg)
        # Fill the largest level to capacity with distinct keys.
        cap = tree.sublevel_capacity(3)
        base = [make_entry(k, "base", k + 1) for k in range(cap)]
        tree.install_run(3, columns_of(base))
        grew = []
        tree.grow_listeners.append(grew.append)
        # Update existing keys heavily: the tree must absorb them via
        # dedup merges, never growing.
        ops = [(i % cap, f"u{i}") for i in range(cap * 2)]
        drive(tree, ops, cfg.buffer_entries)
        assert not grew
        assert tree.num_levels == 3


class TestTombstones:
    def test_delete_hides_key(self, small_leveling):
        tree = LSMTree(small_leveling)
        ops = [(k, "x") for k in range(40)] + [(7, TOMBSTONE)] + [
            (k + 100, "y") for k in range(40)
        ]
        drive(tree, ops, small_leveling.buffer_entries)
        entry = tree.get_unfiltered(7)
        assert entry is None or is_tombstone(entry)

    def test_tombstones_purged_at_oldest_sublevel(self):
        """A tombstone merged into the oldest data is dropped for good."""
        cfg = leveling(2, buffer_entries=4, block_entries=2, initial_levels=1)
        tree = LSMTree(cfg)
        ops = [(k, "x") for k in range(8)] + [(k, TOMBSTONE) for k in range(8)]
        # Enough churn to force everything into the last sub-level.
        ops += [(100 + k, "y") for k in range(64)]
        drive(tree, ops, cfg.buffer_entries)
        for key in range(8):
            entry = tree.get_unfiltered(key)
            assert entry is None or is_tombstone(entry)
        # The oldest sub-level must contain no tombstones at all.
        last = tree.occupied_runs()[-1]
        if last[0] == tree.config.total_sublevels(tree.num_levels):
            assert not any(is_tombstone(e) for e in last[1].read_all())


    @staticmethod
    def ttl_tree():
        """A one-level tree (level 1 is the oldest sub-level, capacity
        8) on a settable clock, recording every dropped key."""
        tree = LSMTree(
            leveling(2, buffer_entries=4, block_entries=2, initial_levels=1)
        )
        now = [0]
        tree.clock = lambda: now[0]
        dropped = []
        tree.listeners.append(
            lambda e: dropped.extend(getattr(e, "drops", ()))
        )
        return tree, now, dropped

    @staticmethod
    def flush_keys(tree, keys, seqno, expires_at=None):
        tree.flush([
            make_entry(key, f"v{key}", seqno + i, expires_at)
            for i, key in enumerate(keys)
        ])

    def test_expired_versions_purged_when_merged_into_oldest(self):
        """A TTL version past its stamp is dropped, like a tombstone,
        by the merge into the oldest run."""
        tree, now, dropped = self.ttl_tree()
        now[0] = 100
        self.flush_keys(tree, range(4), 1, expires_at=50)
        self.flush_keys(tree, range(4, 8), 5)
        assert tree.num_levels == 1
        assert dropped == [0, 1, 2, 3]
        (_, run), = tree.occupied_runs()
        assert [e[KEY] for e in run.read_all()] == [4, 5, 6, 7]

    def test_expired_versions_purged_when_spilled_into_oldest(self):
        """Versions that expire while they sit in a full level are
        dropped when a growth spills them into the new, empty oldest
        level, and never written there."""
        tree, now, dropped = self.ttl_tree()
        self.flush_keys(tree, range(4), 1, expires_at=50)
        self.flush_keys(tree, range(4, 8), 5, expires_at=50)
        assert dropped == []  # not yet expired when merged
        now[0] = 100
        self.flush_keys(tree, range(8, 12), 9)
        assert tree.num_levels == 2
        assert sorted(dropped) == list(range(8))
        assert [sub for sub, _ in tree.occupied_runs()] == [1]

class TestEvents:
    def collect(self, cfg, num_writes):
        tree = LSMTree(cfg)
        events = []
        tree.listeners.append(events.append)
        drive(tree, [(i % 50, i) for i in range(num_writes)], cfg.buffer_entries)
        return tree, events

    def test_flush_events_carry_all_entries(self, small_tiering):
        """A flush event carries the new run's whole key column."""
        tree, events = self.collect(small_tiering, 64)
        flushes = [e for e in events if isinstance(e, FlushEvent)]
        assert flushes
        for e in flushes:
            assert len(e.keys) > 0
            assert type(e.keys) is array and e.keys.typecode == "Q"
            assert list(e.keys) == sorted(set(e.keys))

    def test_merge_events_carry_columns(self, small_lazy):
        """A merge event holds no per-entry object: its survivors,
        drops and their origins are arrays, paired by position."""
        tree, events = self.collect(small_lazy, 400)
        merges = [e for e in events if isinstance(e, MergeEvent)]
        assert any(len(e.drops) for e in merges)
        for e in merges:
            for column in (e.survivors, e.survivor_origins, e.drops, e.drop_origins):
                assert type(column) is array
            assert len(e.survivors) == len(e.survivor_origins)
            assert len(e.drops) == len(e.drop_origins)

    def test_tree_keeps_no_event(self, small_lazy):
        """A cascade's events are released once the listeners saw them."""
        import weakref

        tree = LSMTree(small_lazy)
        refs = []
        tree.listeners.append(lambda e: refs.append(weakref.ref(e)))
        assert tree.flush([make_entry(k, "v", k + 1) for k in range(4)]) is None
        drive(tree, [(i % 40, i) for i in range(400)], small_lazy.buffer_entries)
        assert refs and all(ref() is None for ref in refs)

    def test_merge_events_conserve_entries(self, small_lazy):
        """survivors + drops of a merge account for every input entry."""
        cfg = small_lazy
        tree = LSMTree(cfg)
        incoming: dict[int, int] = {}

        def on_event(event):
            if isinstance(event, FlushEvent):
                incoming[event.sublevel] = len(event.keys)

        tree.listeners.append(on_event)
        events = []
        tree.listeners.append(events.append)
        drive(tree, [(i % 40, i) for i in range(400)], cfg.buffer_entries)
        for e in events:
            if isinstance(e, MergeEvent) and e.survivors:
                # Survivors land at the output sub-level; every origin is
                # either the buffer, an input, or the output itself.
                valid = set(e.input_sublevels) | {BUFFER_ORIGIN, e.output_sublevel}
                assert set(e.survivor_origins) <= valid

    def test_replaying_events_reconstructs_tree_content(self, small_lazy):
        """Property at the heart of filter maintenance: applying the
        event stream to a shadow map reproduces exactly the tree's live
        (key -> sub-level) mapping."""
        tree = LSMTree(small_lazy)
        # A run holds one version per key, so (key, sub-level) names a
        # stored version.
        shadow: set[tuple[int, int]] = set()

        def apply(event):
            if isinstance(event, FlushEvent):
                for key in event.keys:
                    assert (key, event.sublevel) not in shadow
                    shadow.add((key, event.sublevel))
            else:
                for key, src in zip(event.drops, event.drop_origins):
                    if src != BUFFER_ORIGIN:
                        shadow.remove((key, src))
                out = event.output_sublevel
                for key, src in zip(event.survivors, event.survivor_origins):
                    if src != out:
                        if src != BUFFER_ORIGIN:
                            shadow.remove((key, src))
                        shadow.add((key, out))

        tree.listeners.append(apply)
        drive(tree, [(i % 64, i) for i in range(700)], small_lazy.buffer_entries)
        actual = {(e[KEY], sub) for e, sub in tree.iter_entries_with_sublevels()}
        assert shadow == actual


class TestGrowth:
    def test_tree_grows_and_notifies(self):
        cfg = leveling(3, buffer_entries=4, block_entries=2, initial_levels=1)
        tree = LSMTree(cfg)
        grows = []
        tree.grow_listeners.append(grows.append)
        drive(tree, [(i, i) for i in range(300)], cfg.buffer_entries)
        assert tree.num_levels > 1
        assert grows == list(range(2, tree.num_levels + 1))

    def test_growth_preserves_data(self):
        cfg = lazy_leveling(3, buffer_entries=4, block_entries=2, initial_levels=1)
        tree = LSMTree(cfg)
        ref = drive(tree, [(i, f"v{i}") for i in range(200)], cfg.buffer_entries)
        for key, value in ref.items():
            assert tree.get_unfiltered(key)[VALUE] == value

    def test_num_sublevels_tracks_levels(self):
        cfg = tiering(3, buffer_entries=4, block_entries=2, initial_levels=1)
        tree = LSMTree(cfg)
        drive(tree, [(i, i) for i in range(300)], cfg.buffer_entries)
        assert tree.num_sublevels == cfg.total_sublevels(tree.num_levels)


def recomputed_runs(tree: LSMTree):
    """The run table derived from scratch from the level slot arrays."""
    return {
        tree.sublevel_number(level.number, slot_index): run
        for level in tree._levels
        for slot_index, run in enumerate(level.slots)
    }


def check_run_table(tree: LSMTree):
    expected = recomputed_runs(tree)
    assert tree.runs == expected
    assert list(tree.runs) == sorted(tree.runs), "young-to-old key order"
    assert tree.occupied_runs() == [
        (s, run) for s, run in sorted(expected.items()) if run is not None
    ]
    for sublevel, run in expected.items():
        assert tree.run_at(sublevel) is run
    assert tree.run_at(max(expected) + 1) is None


class TestRunTable:
    def test_tracks_flush_merge_spill_and_growth(self):
        kinds = set()
        for make in (leveling, tiering, lazy_leveling):
            cfg = make(3, buffer_entries=4, block_entries=2, initial_levels=1)
            tree = LSMTree(cfg)

            def on_event(event):
                check_run_table(tree)
                if isinstance(event, FlushEvent):
                    kinds.add("flush")
                elif event.output_sublevel in event.input_sublevels:
                    kinds.add("in-place merge")
                else:
                    kinds.add("spill")

            def on_grow(num_levels):
                check_run_table(tree)
                assert len(tree.runs) == cfg.total_sublevels(num_levels)
                kinds.add("growth")

            tree.listeners.append(on_event)
            tree.grow_listeners.append(on_grow)
            check_run_table(tree)
            drive(tree, [(i % 150, i) for i in range(400)], cfg.buffer_entries)
            check_run_table(tree)
            assert tree.num_levels > 1
        assert kinds == {"flush", "in-place merge", "spill", "growth"}

    def test_tracks_install_run_and_from_manifest(self, small_tiering):
        cfg = small_tiering.with_levels(2)
        tree = LSMTree(cfg)
        tree.install_run(
            4, columns_of([make_entry(k, f"v{k}", k + 1) for k in range(10)])
        )
        tree.install_run(
            2, columns_of([make_entry(k, f"w{k}", k + 20) for k in range(5)])
        )
        check_run_table(tree)
        assert [s for s, _ in tree.occupied_runs()] == [2, 4]
        reopened = LSMTree.from_manifest(cfg, tree.storage, tree.manifest())
        check_run_table(reopened)
        assert [(s, run.run_id) for s, run in reopened.occupied_runs()] == [
            (s, run.run_id) for s, run in tree.occupied_runs()
        ]


class TestInstallRun:
    def test_bulk_load_and_query(self, small_leveling):
        tree = LSMTree(small_leveling.with_levels(3))
        entries = [make_entry(k, f"v{k}", k + 1) for k in range(10)]
        tree.install_run(3, columns_of(entries))
        assert tree.get_from_sublevel(3, 4)[VALUE] == "v4"

    def test_occupied_slot_rejected(self, small_leveling):
        tree = LSMTree(small_leveling.with_levels(2))
        tree.install_run(1, columns_of([make_entry(1, "a", 1)]))
        with pytest.raises(ValueError):
            tree.install_run(1, columns_of([make_entry(2, "b", 2)]))

    def test_missing_sublevel_rejected(self, small_leveling):
        tree = LSMTree(small_leveling.with_levels(2))
        with pytest.raises(ValueError):
            tree.install_run(99, columns_of([make_entry(1, "a", 1)]))

    def test_emits_flush_event(self, small_leveling):
        tree = LSMTree(small_leveling.with_levels(2))
        events = []
        tree.listeners.append(events.append)
        tree.install_run(2, columns_of([make_entry(1, "a", 1)]))
        assert isinstance(events[0], FlushEvent)
        assert events[0].sublevel == 2


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4),  # T
    st.sampled_from(["leveling", "tiering", "lazy"]),
    st.lists(
        st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=300
    ),
)
def test_random_workload_matches_reference(t, policy, ops):
    """Property: after any write/delete sequence, point queries agree
    with a plain dict reference model."""
    factory = {"leveling": leveling, "tiering": tiering, "lazy": lazy_leveling}[
        policy
    ]
    cfg = factory(t, buffer_entries=4, block_entries=2)
    tree = LSMTree(cfg)
    stream = [
        (key, TOMBSTONE if delete else f"v{i}")
        for i, (key, delete) in enumerate(ops)
    ]
    ref = drive(tree, stream, cfg.buffer_entries)
    check_structure(tree)
    for key in range(41):
        entry = tree.get_unfiltered(key)
        if key in ref:
            assert entry is not None
            assert entry[VALUE] == ref[key]
        else:
            assert entry is None or is_tombstone(entry)


#: One merge source: versions over a few keys (so keys repeat, within a
#: source and across sources), few seqnos (so they tie), tombstones and
#: TTL stamps, each version with its origin sub-level. Sources need not
#: be sorted: the merge owes the reference its answer on any input.
_VERSIONS = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.booleans(),
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(0, 10)),
        st.integers(0, 6),
    ),
    max_size=24,
)


class TestMergeOracle:
    """``_merge_sorted`` (one stable index sort over columns, only
    repeated keys replayed) against the dict walk it replaced
    (``tests/reference_merge.py``): same survivors, same origins, same
    drops in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(
        raw_sources=st.lists(_VERSIONS, min_size=1, max_size=4),
        purge=st.booleans(),
        now=st.one_of(st.none(), st.integers(0, 10)),
    )
    def test_matches_reference(self, raw_sources, purge, now):
        counter = iter(range(10**6))
        sources = [
            (
                [
                    make_entry(
                        key, TOMBSTONE if dead else f"v{next(counter)}", seqno, exp
                    )
                    for key, dead, seqno, exp, _ in versions
                ],
                [origin for *_, origin in versions],
            )
            for versions in raw_sources
        ]
        asked = []

        def is_expired(entry):
            exp = entry[EXPIRES_AT]
            return exp is not None and exp <= now

        def clock():
            asked.append(now)
            return now

        if now is None:
            clock = is_expired = None
        want, want_origins, want_drops = reference_merge_sorted(
            sources, purge, is_expired
        )
        got, got_origins, drops, drop_origins = _merge_sorted(
            [
                (columns_of(entries), array(ORIGIN_TYPECODE, origins))
                for entries, origins in sources
            ],
            purge,
            clock,
        )
        assert entries_of(got) == want
        assert [id(value) for value in got[1]] == [id(e[VALUE]) for e in want]
        assert list(got_origins) == want_origins
        assert list(zip(drops, drop_origins)) == [
            (e[KEY], origin) for e, origin in want_drops
        ]
        # Exactly which versions: positions into the sources, in order.
        listed = [entry for entries, _ in sources for entry in entries]
        kept, dropped = _merge_order(columns_of(listed), purge, clock)
        assert [id(listed[i]) for i in kept] == [id(e) for e in want]
        assert [id(listed[i]) for i in dropped] == [id(e) for e, _ in want_drops]
        # The clock is read once per merge, and only when a newest
        # version that is no tombstone carries a stamp.
        newest = reference_merge_sorted(sources, False)[0]
        reads = purge and clock is not None and any(
            e[EXPIRES_AT] is not None and not is_tombstone(e) for e in newest
        )
        assert asked == [now] * (2 if reads else 0)

    def test_origin_count_mismatch_refused(self):
        with pytest.raises(ValueError, match="exactly one origin"):
            _merge_sorted(
                [(columns_of([make_entry(1, "a", 1)]), array(ORIGIN_TYPECODE))],
                False,
            )
