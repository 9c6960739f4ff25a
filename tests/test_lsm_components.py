"""Unit tests for the LSM building blocks: memtable, storage device,
runs and their fence pointers, and the block cache."""

import gc
from array import array

import pytest

from repro.common.counters import MemoryIOCounter, StorageIOCounter
from repro.lsm.block_cache import BlockCache
from repro.lsm.entry import (
    EXPIRES_AT, KEY, SEQNO, TOMBSTONE, VALUE, is_tombstone, make_entry,
)
from repro.lsm.memtable import Memtable
from repro.lsm.run import Run, columns_of
from repro.lsm.storage import StorageDevice


def make_entries(keys, seq_start=1):
    return [make_entry(k, f"v{k}", seq_start + i) for i, k in enumerate(sorted(keys))]


class TestEntry:
    def test_tombstone_flag(self):
        assert is_tombstone(make_entry(1, TOMBSTONE, 1))
        assert not is_tombstone(make_entry(1, "x", 1))

    def test_tombstone_singleton(self):
        from repro.lsm import TOMBSTONE as exported

        assert exported is TOMBSTONE
        # Untracked, so a tombstone entry drops out of the collector
        # like any other version.
        assert not gc.is_tracked(TOMBSTONE)

    def test_exact_tuple_layout(self):
        entry = make_entry(5, "a", 7, expires_at=99)
        assert type(entry) is tuple
        assert entry == (5, "a", 7, 99)
        assert (entry[KEY], entry[VALUE], entry[SEQNO], entry[EXPIRES_AT]) == (
            5, "a", 7, 99,
        )
        assert make_entry(5, "a", 7)[EXPIRES_AT] is None

    def test_key_probe_sorts_before_every_version(self):
        # Run.get bisects a block with ``(key,)``: it must land on the
        # key's version without ever comparing values.
        versions = [make_entry(5, TOMBSTONE, 1), make_entry(5, "b", 2)]
        for version in versions:
            assert make_entry(4, TOMBSTONE, 9) < (5,) < version
            assert (5,) < make_entry(6, "c", 0)


class TestMemtable:
    def test_put_get(self):
        mt = Memtable(4)
        mt.put(1, "a", 1)
        assert mt.get(1)[VALUE] == "a"
        assert mt.get(2) is None

    def test_overwrite_same_key(self):
        mt = Memtable(4)
        mt.put(1, "a", 1)
        mt.put(1, "b", 2)
        assert mt.get(1)[VALUE] == "b"
        assert len(mt) == 1

    def test_delete_buffers_tombstone(self):
        mt = Memtable(4)
        mt.delete(7, 1)
        assert is_tombstone(mt.get(7))

    def test_is_full(self):
        mt = Memtable(2)
        mt.put(1, "a", 1)
        assert not mt.is_full
        mt.put(2, "b", 2)
        assert mt.is_full

    def test_sorted_entries(self):
        mt = Memtable(4)
        for k in (3, 1, 2):
            mt.put(k, str(k), k)
        assert [e[KEY] for e in mt.sorted_entries()] == [1, 2, 3]

    def test_scan(self):
        mt = Memtable(8)
        for k in range(6):
            mt.put(k, str(k), k + 1)
        assert [e[KEY] for e in mt.scan(2, 4)] == [2, 3, 4]

    def test_counts_memory_ios(self):
        mem = MemoryIOCounter()
        mt = Memtable(4, mem)
        mt.put(1, "a", 1)
        mt.get(1)
        assert mem.get("memtable") == 2

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Memtable(0)


class TestStorageDevice:
    def test_write_read_roundtrip(self):
        dev = StorageDevice()
        entries = make_entries(range(4))
        rid = dev.write_run([tuple(entries[:2]), tuple(entries[2:])])
        assert dev.read_block(rid, 0) == tuple(entries[:2])
        assert dev.num_blocks(rid) == 2

    def test_io_accounting(self):
        counter = StorageIOCounter()
        dev = StorageDevice(counter)
        rid = dev.write_run([tuple(make_entries([1]))])
        assert counter.writes == 1
        dev.read_block(rid, 0)
        dev.read_run(rid)
        assert counter.reads == 2

    def test_run_ids_never_reused(self):
        dev = StorageDevice()
        a = dev.write_run([tuple(make_entries([1]))])
        dev.delete_run(a)
        b = dev.write_run([tuple(make_entries([2]))])
        assert a != b

    def test_missing_run_raises(self):
        dev = StorageDevice()
        with pytest.raises(KeyError):
            dev.read_block(99, 0)

    def test_bad_block_index(self):
        dev = StorageDevice()
        rid = dev.write_run([tuple(make_entries([1]))])
        with pytest.raises(IndexError):
            dev.read_block(rid, 5)

    def test_counting_suspended(self):
        counter = StorageIOCounter()
        dev = StorageDevice(counter)
        rid = dev.write_run([tuple(make_entries([1]))])
        with dev.counting_suspended():
            dev.read_run(rid)
        assert counter.reads == 0
        dev.read_run(rid)
        assert counter.reads == 1


def _fenced_run(block_min_keys, max_key):
    """A run whose block ``i`` holds one entry, keyed by its min key."""
    dev = StorageDevice()
    blocks = [
        (array("Q", [k]), (f"v{k}",), array("Q", [1]), None)
        for k in block_min_keys
    ]
    rid = dev.write_run(blocks)
    return Run(rid, dev, list(block_min_keys), max_key, len(blocks), 1), dev


class TestFencePointers:
    """The fence search inside ``Run.get``."""

    def test_locate_charges_log_ios(self):
        mem = MemoryIOCounter()
        run, dev = _fenced_run([0, 10, 20, 30], max_key=39)
        assert run.get(20, mem)[KEY] == 20
        assert run.get(25, mem) is None  # in block 2's range, not stored
        assert mem.get("fence") == 2 * 3  # ceil(log2(5)) = 3 per search
        assert dev.counter.reads == 2

    def test_out_of_range_is_free(self):
        mem = MemoryIOCounter()
        run, dev = _fenced_run([10, 20], max_key=29)
        assert run.get(5, mem) is None
        assert run.get(99, mem) is None
        assert mem.total == 0 and dev.counter.reads == 0

    def test_boundaries(self):
        run, dev = _fenced_run([0, 10], max_key=19)
        cache = BlockCache(4)
        mem = MemoryIOCounter()
        for key in (0, 10, 19):
            run.get(key, mem, cache)
        # 0 lands in block 0, 10 and 19 in block 1: one miss per block.
        assert (cache.misses, cache.hits, len(cache)) == (2, 1, 2)

    def test_block_range(self):
        run, dev = _fenced_run([0, 10, 20], max_key=29)
        mem = MemoryIOCounter()
        assert [e[KEY] for e in run.scan(5, 15, mem)] == [10]
        assert dev.counter.reads == 2  # blocks 0 and 1 overlap [5, 15]
        assert list(run.scan(50, 60, mem)) == []
        assert dev.counter.reads == 2
        assert [e[KEY] for e in run.scan(0, 29, mem)] == [0, 10, 20]
        assert dev.counter.reads == 5
        assert mem.total == 0  # a scan charges no fence search

    def test_validation(self):
        with pytest.raises(ValueError):
            Run(1, StorageDevice(), [], max_key=0, num_entries=0, max_seqno=0)
        with pytest.raises(ValueError):
            Run(1, StorageDevice(), [5, 2], max_key=9, num_entries=2, max_seqno=0)


class TestRun:
    def build(self, keys, block_entries=2):
        dev = StorageDevice()
        return Run.build(columns_of(make_entries(keys)), dev, block_entries), dev

    def test_build_and_get(self):
        run, _ = self.build(range(10))
        mem = MemoryIOCounter()
        assert run.get(7, mem)[VALUE] == "v7"
        assert run.get(99, mem) is None

    def test_get_counts_one_storage_io(self):
        run, dev = self.build(range(10))
        before = dev.counter.reads
        run.get(3, MemoryIOCounter())
        assert dev.counter.reads == before + 1

    def test_block_cache_hit_skips_storage(self):
        run, dev = self.build(range(10))
        cache = BlockCache(8)
        mem = MemoryIOCounter()
        run.get(3, mem, cache)
        before = dev.counter.reads
        run.get(3, mem, cache)
        assert dev.counter.reads == before
        assert mem.get("cache") == 1

    def test_scan(self):
        run, _ = self.build(range(10))
        got = [e[KEY] for e in run.scan(3, 7, MemoryIOCounter())]
        assert got == [3, 4, 5, 6, 7]

    def test_read_all(self):
        run, _ = self.build(range(5))
        assert [e[KEY] for e in run.read_all()] == list(range(5))

    def test_unsorted_rejected(self):
        dev = StorageDevice()
        entries = [make_entry(2, "a", 1), make_entry(1, "b", 2)]
        with pytest.raises(ValueError, match="sorted by key"):
            Run.build(columns_of(entries), dev, 2)

    def test_duplicate_keys_rejected(self):
        dev = StorageDevice()
        entries = [make_entry(1, "a", 1), make_entry(1, "b", 2)]
        with pytest.raises(ValueError, match="one version per key"):
            Run.build(columns_of(entries), dev, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Run.build(columns_of([]), StorageDevice(), 2)

    def test_drop_invalidates_cache(self):
        run, dev = self.build(range(4))
        cache = BlockCache(8)
        run.get(1, MemoryIOCounter(), cache)
        assert len(cache) == 1
        run.drop(cache)
        assert len(cache) == 0


def _device(num_blocks, runs=1):
    """A device holding ``runs`` runs of ``num_blocks`` blocks each."""
    dev = StorageDevice()
    rids = [
        dev.write_run([(f"b{i}",) for i in range(num_blocks)])
        for _ in range(runs)
    ]
    return dev, *rids


class TestBlockCache:
    def test_lru_eviction(self):
        cache, mem = BlockCache(2), MemoryIOCounter()
        dev, rid = _device(3)
        cache.get(rid, 0, dev, mem)
        cache.get(rid, 1, dev, mem)
        cache.get(rid, 0, dev, mem)  # touch: 0 becomes MRU
        cache.get(rid, 2, dev, mem)  # evicts (rid, 1)
        reads = dev.counter.reads
        assert cache.get(rid, 0, dev, mem) == ("b0",)
        assert dev.counter.reads == reads
        assert cache.get(rid, 1, dev, mem) == ("b1",)
        assert dev.counter.reads == reads + 1

    def test_hit_miss_stats(self):
        cache, mem = BlockCache(2), MemoryIOCounter()
        dev, rid = _device(1)
        cache.get(rid, 0, dev, mem)
        cache.get(rid, 0, dev, mem)
        assert (cache.hits, cache.misses) == (1, 1)
        assert mem.get("cache") == 1 and dev.counter.reads == 1

    def test_zero_capacity_never_stores(self):
        cache, mem = BlockCache(0), MemoryIOCounter()
        dev, rid = _device(1)
        assert cache.get(rid, 0, dev, mem) == ("b0",)
        assert cache.get(rid, 0, dev, mem) == ("b0",)
        assert len(cache) == 0 and dev.counter.reads == 2

    def test_invalidate_run(self):
        cache, mem = BlockCache(4), MemoryIOCounter()
        dev, r1, r2 = _device(1, runs=2)
        cache.get(r1, 0, dev, mem)
        cache.get(r2, 0, dev, mem)
        cache.invalidate_run(r1, 1)
        assert len(cache) == 1
        cache.get(r2, 0, dev, mem)
        assert cache.hits == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)
