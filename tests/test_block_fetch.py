"""The one block fetch of a read, held to a reference and to golden I/Os.

A point hit crosses three boundaries: ``Run.get`` (fence search and the
in-block search), ``BlockCache.get`` (the cache, loading through the
device on a miss) and ``StorageDevice.read_block`` (one counted read).
``TestBlockCacheModel`` runs op sequences against a ~20-line
``OrderedDict`` LRU; ``TestHopBoundaries`` pins how often a hit crosses
each boundary; ``TestGoldenSnapshots`` pins the full ``IOSnapshot`` of a
lookup-hit run and of a mixed run that merges and grows.
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.counters import MemoryIOCounter
from repro.engine.config import EngineConfig, build_store
from repro.lsm.block_cache import BlockCache
from repro.lsm.run import Run
from repro.lsm.storage import StorageDevice

#: Block counts of the runs the model test reads from.
RUN_BLOCKS = (1, 3, 5)


class ModelLRU:
    """Reference LRU: a hit moves the key to the MRU end; a miss loads
    the block and, past capacity, evicts from the LRU end."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.blocks = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key, block):
        if key in self.blocks:
            self.blocks.move_to_end(key)
            self.hits += 1
            return self.blocks[key]
        self.misses += 1
        if self.capacity:
            self.blocks[key] = block
            if len(self.blocks) > self.capacity:
                self.blocks.popitem(last=False)
        return block

    def invalidate_run(self, run_id):
        for key in [k for k in self.blocks if k[0] == run_id]:
            del self.blocks[key]

    def clear(self):
        self.blocks.clear()
        self.hits = self.misses = 0


def fetch(cache, device, memory, run_id, index):
    """One block fetch through the cache (loads through ``device``)."""
    return cache.get(run_id, index, device, memory)


def invalidate(cache, device, run_id):
    cache.invalidate_run(run_id, device.num_blocks(run_id))


_op = st.one_of(
    st.tuples(st.just("get"), st.integers(0, len(RUN_BLOCKS) - 1),
              st.integers(0, max(RUN_BLOCKS) - 1)),
    st.tuples(st.just("invalidate"), st.integers(0, len(RUN_BLOCKS) - 1)),
    st.tuples(st.just("clear")),
)


class TestBlockCacheModel:
    def check(self, capacity, ops):
        device = StorageDevice()
        run_ids = [
            device.write_run([(f"r{n}b{i}",) for i in range(blocks)])
            for n, blocks in enumerate(RUN_BLOCKS)
        ]
        cache, model = BlockCache(capacity), ModelLRU(capacity)
        memory = MemoryIOCounter()
        for op in ops:
            if op[0] == "get":
                run_id, index = run_ids[op[1]], op[2] % RUN_BLOCKS[op[1]]
                reads, charged = device.counter.reads, memory.get("cache")
                hits = model.hits
                block = fetch(cache, device, memory, run_id, index)
                assert block == model.get((run_id, index), (f"r{op[1]}b{index}",))
                hit = model.hits - hits
                # A hit costs one cache memory I/O, a miss one storage read.
                assert memory.get("cache") - charged == hit
                assert device.counter.reads - reads == 1 - hit
            elif op[0] == "invalidate":
                invalidate(cache, device, run_ids[op[1]])
                model.invalidate_run(run_ids[op[1]])
            else:
                cache.clear()
                model.clear()
            assert (cache.hits, cache.misses) == (model.hits, model.misses)
            assert len(cache) == len(model.blocks)
            # LRU order, so the next eviction picks the model's victim.
            assert list(cache._blocks) == list(model.blocks)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0, 1, 2, 4]), st.lists(_op, max_size=60))
    def test_random_ops_match_the_reference(self, capacity, ops):
        self.check(capacity, ops)

    @pytest.mark.parametrize("capacity", [0, 1, 3])
    def test_partly_cached_runs(self, capacity):
        """Runs 1 and 2 each keep only some blocks cached when one is
        invalidated; the other's cached blocks keep their LRU order."""
        ops = [("get", 2, i) for i in range(5)] + [("get", 1, i) for i in range(3)]
        ops += [("get", 2, 4), ("invalidate", 1), ("get", 1, 0), ("get", 2, 3)]
        ops += [("invalidate", 0), ("clear",), ("get", 2, 4), ("get", 2, 4)]
        self.check(capacity, ops)


def _store(cache_blocks=16, keys=1200):
    """A lazy-leveled store whose data (``keys`` / 8 blocks) is many
    times its block cache, shuffled keys in, flushed."""
    store = build_store(EngineConfig.lazy_leveled(
        4, buffer_entries=64, block_entries=8, cache_blocks=cache_blocks,
        policy="chucky", bits_per_entry=10.0, durable=True))
    rng = random.Random(1)
    stored = [2 * k for k in range(keys)]
    rng.shuffle(stored)
    for key in stored:
        store.put(key, f"v{key}")
    store.flush()
    return store, stored, rng


def _spy(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


class TestHopBoundaries:
    """The span recorder of the end-to-end benchmark wraps these three
    methods by name and reads the block-cache hit ratio as (cache gets -
    device reads) / cache gets, so each must stay one call per hop."""

    def test_a_hit_crosses_each_boundary_once(self, monkeypatch):
        store, stored, _ = _store()
        cache = store.tree.cache
        data_blocks = sum(run.num_blocks for _, run in store.tree.occupied_runs())
        assert data_blocks >= 5 * cache.capacity
        # A key only one run's filter entry points at: no false positive.
        key = next(k for k in stored if len(store.policy.candidates(k)) == 1)
        cache.clear()
        run_gets = _spy(monkeypatch, Run, "get")
        cache_gets = _spy(monkeypatch, BlockCache, "get")
        reads = _spy(monkeypatch, StorageDevice, "read_block")
        assert store.get(key) == f"v{key}"
        assert (len(run_gets), len(cache_gets), len(reads)) == (1, 1, 1)
        assert reads[0] == cache_gets[0]
        # The same block again: served by the cache, no device read.
        assert store.get(key) == f"v{key}"
        assert (len(run_gets), len(cache_gets), len(reads)) == (2, 2, 1)
        assert (cache.hits, cache.misses) == (1, 1)


#: ``IOSnapshot.as_dict()`` of the two runs below, recorded before the
#: fence search and the block fetch were folded into ``Run.get`` and
#: ``BlockCache.get``: the refactor moved no counted I/O.
GOLDEN_LOOKUP_HIT = {
    "cache_hits": 314, "cache_misses": 2707, "false_positives": 21,
    "memory": {"cache": 314, "fence": 22150, "filter": 9253,
               "filter_aht": 3010, "memtable": 4200},
    "queries": 3000, "read_hits": 3000, "scans": 0, "storage_reads": 3155,
    "storage_writes": 598, "updates": 1200,
}
GOLDEN_MIXED = {
    "cache_hits": 336, "cache_misses": 4893, "false_positives": 33,
    "memory": {"cache": 336, "fence": 23351, "filter": 26569, "filter_dt": 1,
               "filter_ovf": 2, "filter_rt": 1, "memtable": 10245},
    "queries": 8011, "read_hits": 3276, "scans": 190, "storage_reads": 7804,
    "storage_writes": 3204, "updates": 2234,
}


class TestGoldenSnapshots:
    def test_lookup_hit_run(self):
        store, stored, rng = _store()
        for _ in range(3000):
            key = stored[rng.randrange(len(stored))]
            assert store.get(key) == f"v{key}"
        assert store.snapshot().as_dict() == GOLDEN_LOOKUP_HIT

    def test_mixed_run_that_merges_and_grows(self):
        store = build_store(EngineConfig.lazy_leveled(
            3, buffer_entries=16, block_entries=4, cache_blocks=12,
            policy="chucky", bits_per_entry=10.0))
        rng = random.Random(7)
        live = {}
        for step in range(4000):
            roll, key = rng.random(), rng.randrange(1500)
            if roll < 0.45:
                store.put(key, f"v{step}")
                live[key] = f"v{step}"
            elif roll < 0.55:
                store.delete(key)
                live.pop(key, None)
            elif roll < 0.85:
                assert store.get(key) == live.get(key)
            elif roll < 0.95:
                batch = [rng.randrange(1500) for _ in range(16)]
                assert store.get_batch(batch) == [live.get(k) for k in batch]
            else:
                lo = rng.randrange(1500)
                assert list(store.scan(lo, lo + 40)) == sorted(
                    (k, v) for k, v in live.items() if lo <= k <= lo + 40
                )
        assert store.tree.num_levels == 4
        assert store.snapshot().as_dict() == GOLDEN_MIXED
