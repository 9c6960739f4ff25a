"""Records the collector never scans.

A key-value version is an exact tuple, so CPython's cyclic collector
untracks it -- and the tuple block holding it -- the first time it
survives a collection. The tree's records then cost the collector
nothing: a put window leaves the tracked-object count flat and
triggers no run of full passes.

Run as a script, it measures one window in a fresh process, prints the
tracked-object growth and the gen-2 passes, and exits 1 if either
exceeds the bounds below::

    PYTHONPATH=src python -m tests.test_gc_tracking
"""

import gc
import random
import sys

from repro.engine.config import EngineConfig, build_store
from repro.lsm.entry import EXPIRES_AT, is_tombstone

#: Keys ingested before the window, through flushes, merges and the
#: growth to the level count the window then stays at.
PRELOAD = 24_000
#: Fresh keys put during the window.
KEYS = 20_000
#: The window may add fewer tracked objects than 1 % of its keys.
MAX_TRACKED_GROWTH = KEYS // 100
#: Gen-2 passes the window may trigger (in a fresh process, records
#: that stay tracked cost two).
MAX_FULL_PASSES = 1


def loaded_store():
    """A durable Chucky store after ``PRELOAD`` puts, a tenth of them
    with a TTL and a tenth deleted again, plus ``KEYS`` fresh window
    keys."""
    cfg = EngineConfig.lazy_leveled(
        size_ratio=4, buffer_entries=256, block_entries=32,
        policy="chucky", bits_per_entry=10.0, durable=True,
    )
    store = build_store(cfg)
    growths = []
    store.tree.grow_listeners.append(growths.append)
    rng = random.Random(7)
    keys = rng.sample(range(1 << 40), PRELOAD + KEYS)
    for i, key in enumerate(keys[:PRELOAD]):
        if i % 10 == 3:
            store.put(key, f"t{i}", ttl=10**15)
        else:
            store.put(key, f"v{i}")
        if i % 10 == 5:
            store.delete(keys[i - 5])
    assert growths, "the ingest never grew the tree"
    return store, keys[PRELOAD:]


def measure_window(store, keys):
    """Put ``keys``; return (tracked-object growth, gen-2 passes)."""
    gc.collect()
    full_before = gc.get_stats()[2]["collections"]
    tracked_before = len(gc.get_objects())
    for i, key in enumerate(keys):
        store.put(key, f"w{i}")
    full_passes = gc.get_stats()[2]["collections"] - full_before
    gc.collect()
    return len(gc.get_objects()) - tracked_before, full_passes


class TestEntriesAreUntracked:
    @classmethod
    def setup_class(cls):
        cls.store, cls.window = loaded_store()

    @classmethod
    def teardown_class(cls):
        del cls.store, cls.window

    def test_records_and_blocks_are_untracked(self):
        # Two passes: the first can meet a block before its entries, and
        # a tuple is untracked only once its items are.
        gc.collect()
        gc.collect()
        tree = self.store.tree
        entries = self.store.memtable.sorted_entries()
        assert entries
        with tree.storage.counting_suspended():
            for _, run in tree.occupied_runs():
                for block in tree.storage.read_run(run.run_id):
                    assert type(block) is tuple and not gc.is_tracked(block)
                    entries.extend(block)
        for entry in entries:
            assert type(entry) is tuple and not gc.is_tracked(entry), entry
        assert any(entry[EXPIRES_AT] is not None for entry in entries)
        assert any(is_tombstone(entry) for entry in entries)

    def test_put_window_adds_no_tracked_objects(self):
        levels = self.store.tree.num_levels
        growth, full_passes = measure_window(self.store, self.window)
        # A growth would rightly add a larger codebook's compiled tables.
        assert self.store.tree.num_levels == levels
        assert growth < MAX_TRACKED_GROWTH, growth
        assert full_passes <= MAX_FULL_PASSES, full_passes


if __name__ == "__main__":
    store, window = loaded_store()
    growth, full_passes = measure_window(store, window)
    print(
        f"{len(window)}-put window: tracked objects {growth:+d} "
        f"(bound < {MAX_TRACKED_GROWTH}), gen-2 passes {full_passes} "
        f"(bound <= {MAX_FULL_PASSES})"
    )
    sys.exit(growth >= MAX_TRACKED_GROWTH or full_passes > MAX_FULL_PASSES)
