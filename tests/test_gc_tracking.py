"""A stored version is no Python object.

A run keeps its versions as columns: each block is an exact tuple of
two ``array('Q')`` (keys, seqnos), one tuple of values and, only when a
version of the block has a stamp, a tuple of expiry stamps. A version
stored in the tree is then a few bytes in arrays, not an object of its
own: a put window leaves fewer live allocations behind than the
versions it stored, and triggers no run of full collector passes (the
collector tracks a block's two arrays and the tuple holding them, never
a version).

Run as a script, it measures one window in a fresh process, prints the
live allocations the window left per version it stored, the
tracked-object growth and the gen-2 passes, and exits 1 if the
allocations or the passes exceed the bounds below::

    PYTHONPATH=src python -m tests.test_gc_tracking
"""

import gc
import random
import sys
import tracemalloc
from array import array

from repro.engine.config import EngineConfig, build_store
from repro.lsm.entry import TOMBSTONE

#: Keys ingested before the window, through flushes, merges and the
#: growth to the level count the window then stays at.
PRELOAD = 24_000
#: Fresh keys put during the window.
KEYS = 20_000
#: Live traced allocations the window may leave per version it stored
#: (an entry tuple and its seqno int alone were two).
MAX_ALLOCATIONS_PER_VERSION = 1.0
#: Gen-2 passes the window may trigger (in a fresh process, records
#: that stay tracked cost two).
MAX_FULL_PASSES = 1


def loaded_store():
    """A durable Chucky store after ``PRELOAD`` puts, a tenth of them
    with a TTL and a tenth deleted again, plus the ``KEYS`` fresh
    window keys and their values, allocated here."""
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
    window = [(key, f"w{i}") for i, key in enumerate(keys[PRELOAD:])]
    return store, window


def stored_versions(store):
    return store.tree.num_entries + len(store.memtable)


def measure_window(store, window):
    """Put the ``window`` items; return (live allocations the window
    left per version it stored, tracked-object growth, gen-2 passes)."""
    gc.collect()
    versions_before = stored_versions(store)
    full_before = gc.get_stats()[2]["collections"]
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    for key, value in window:
        store.put(key, value)
    full_passes = gc.get_stats()[2]["collections"] - full_before
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    allocations = sum(stat.count for stat in snapshot.statistics("filename"))
    stored = stored_versions(store) - versions_before
    return (
        allocations / stored,
        len(gc.get_objects()) - tracked_before,
        full_passes,
    )


class TestStoredVersions:
    @classmethod
    def setup_class(cls):
        cls.store, cls.window = loaded_store()

    @classmethod
    def teardown_class(cls):
        del cls.store, cls.window

    def test_blocks_are_column_tuples(self):
        gc.collect()
        tree = self.store.tree
        stamped = tombstones = 0
        with tree.storage.counting_suspended():
            for _, run in tree.occupied_runs():
                for block in tree.storage.read_run(run.run_id):
                    assert type(block) is tuple and len(block) == 4
                    keys, values, seqnos, expires = block
                    assert type(keys) is array and keys.typecode == "Q"
                    assert type(seqnos) is array and seqnos.typecode == "Q"
                    assert len(seqnos) == len(keys)
                    # A tuple of untracked values is untracked itself.
                    assert type(values) is tuple and len(values) == len(keys)
                    assert not gc.is_tracked(values)
                    if expires is not None:
                        assert type(expires) is tuple
                        assert not gc.is_tracked(expires)
                        assert expires.count(None) < len(expires)
                        stamped += 1
                    tombstones += values.count(TOMBSTONE)
        assert stamped and tombstones
        # The write buffer's records are untracked exact tuples.
        entries = self.store.memtable.sorted_entries()
        assert entries
        for entry in entries:
            assert type(entry) is tuple and not gc.is_tracked(entry), entry

    def test_put_window_leaves_no_object_per_version(self):
        levels = self.store.tree.num_levels
        per_version, _, full_passes = measure_window(self.store, self.window)
        # A growth would rightly add a larger codebook's compiled tables.
        assert self.store.tree.num_levels == levels
        assert per_version < MAX_ALLOCATIONS_PER_VERSION, per_version
        assert full_passes <= MAX_FULL_PASSES, full_passes


if __name__ == "__main__":
    store, window = loaded_store()
    per_version, growth, full_passes = measure_window(store, window)
    print(
        f"{len(window)}-put window: {per_version:.3f} live allocations per "
        f"stored version (bound < {MAX_ALLOCATIONS_PER_VERSION}), tracked "
        f"objects {growth:+d}, gen-2 passes {full_passes} "
        f"(bound <= {MAX_FULL_PASSES})"
    )
    sys.exit(
        per_version >= MAX_ALLOCATIONS_PER_VERSION
        or full_passes > MAX_FULL_PASSES
    )
