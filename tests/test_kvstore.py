"""End-to-end KVStore behaviour: correctness against a reference model,
deletes, scans, batches, instrumentation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy, NoFilterPolicy
from repro.lsm.config import lazy_leveling, leveling
from tests.test_hashing import IntLike


def small_store(policy=None, cache_blocks=0):
    cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
    return KVStore(cfg, filter_policy=policy, cache_blocks=cache_blocks)


class TestBasicOps:
    def test_put_get(self):
        kv = small_store()
        kv.put(1, "a")
        assert kv.get(1) == "a"

    def test_get_missing(self):
        assert small_store().get(42) is None

    def test_overwrite(self):
        kv = small_store()
        kv.put(1, "a")
        kv.put(1, "b")
        assert kv.get(1) == "b"

    def test_delete(self):
        kv = small_store()
        kv.put(1, "a")
        kv.delete(1)
        assert kv.get(1) is None

    def test_delete_survives_flushes(self):
        kv = small_store()
        kv.put(1, "a")
        for i in range(100):
            kv.put(100 + i, "x")
        kv.delete(1)
        for i in range(100):
            kv.put(300 + i, "y")
        assert kv.get(1) is None

    def test_put_batch(self):
        kv = small_store()
        kv.put_batch([(i, f"v{i}") for i in range(50)])
        assert all(kv.get(i) == f"v{i}" for i in range(50))

    def test_int_like_keys_read_back(self):
        """Keys with ``__index__`` only (``numpy.int64``, say) are
        hashed as their index on the scalar and the bulk path alike, so
        what a flush filed is found by a point read."""
        cfg = leveling(3, buffer_entries=16, block_entries=4)
        kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10.0))
        for i in range(40):
            kv.put(IntLike(i), f"v{i}")
        assert [kv.get(IntLike(i)) for i in range(40)] == [f"v{i}" for i in range(40)]
        assert kv.get_batch([IntLike(i) for i in range(40)]) == [
            f"v{i}" for i in range(40)
        ]

    def test_num_entries(self):
        kv = small_store()
        for i in range(20):
            kv.put(i, "x")
        assert kv.num_entries >= 20


class TestScan:
    def test_scan_merges_memtable_and_tree(self):
        kv = small_store()
        for i in range(40):
            kv.put(i, f"v{i}")
        got = dict(kv.scan(10, 20))
        assert got == {i: f"v{i}" for i in range(10, 21)}

    def test_scan_hides_tombstones(self):
        kv = small_store()
        for i in range(30):
            kv.put(i, "x")
        kv.delete(15)
        got = dict(kv.scan(10, 20))
        assert 15 not in got

    def test_scan_newest_version_wins(self):
        kv = small_store()
        for i in range(60):
            kv.put(5, f"v{i}")
        assert dict(kv.scan(5, 5)) == {5: "v59"}


class TestInstrumentation:
    def test_read_result_fields(self):
        kv = small_store(ChuckyPolicy(bits_per_entry=10))
        for i in range(100):
            kv.put(i, "x")
        r = kv.get_with_stats(3)
        assert r.found and r.value == "x"
        miss = kv.get_with_stats(10**12)
        assert not miss.found and miss.value is None

    def test_false_positive_accounting(self):
        kv = small_store(NoFilterPolicy())
        for i in range(100):
            kv.put(i, "x")
        kv.flush()
        runs = len(kv.tree.occupied_runs())
        r = kv.get_with_stats(50)  # uniform keys: 0 is somewhere
        assert r.false_positives <= runs

    def test_latency_breakdown_prices_ios(self):
        kv = small_store(ChuckyPolicy(bits_per_entry=10))
        for i in range(100):
            kv.put(i, "x")
        kv.flush()
        snap = kv.snapshot()
        kv.get(3)
        lat = kv.latency_since(snap, operations=1)
        assert lat.total_ns > 0
        assert lat.memtable_ns == pytest.approx(100.0)  # one memtable probe
        assert lat.storage_ns >= 10_000  # the data block read

    def test_memtable_hit_costs_no_storage(self):
        kv = small_store()
        kv.put(1, "a")
        snap = kv.snapshot()
        kv.get(1)
        lat = kv.latency_since(snap)
        assert lat.storage_ns == 0

    def test_block_cache_reduces_storage_cost(self):
        kv = small_store(ChuckyPolicy(bits_per_entry=10), cache_blocks=512)
        for i in range(200):
            kv.put(i, "x")
        kv.flush()
        kv.get(7)  # warm the cache
        snap = kv.snapshot()
        kv.get(7)
        lat = kv.latency_since(snap)
        assert lat.storage_ns < 10_000  # hit: memory-priced


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.one_of(st.none(), st.text(max_size=4))),
        min_size=1,
        max_size=250,
    ),
    st.sampled_from(["chucky", "bloom", "none", "xor", "partitioned"]),
)
def test_store_matches_dict_reference(ops, policy_name):
    """Property: any interleaving of puts and deletes leaves the store
    agreeing with a dict, under every filter policy."""
    from repro.filters.policy import XorFilterPolicy

    policy = {
        "chucky": lambda: ChuckyPolicy(bits_per_entry=10),
        "bloom": lambda: BloomFilterPolicy(10, variant="blocked"),
        "none": NoFilterPolicy,
        "xor": lambda: XorFilterPolicy(10),
        "partitioned": lambda: ChuckyPolicy(
            bits_per_entry=10, partition_capacity=128
        ),
    }[policy_name]()
    kv = KVStore(
        leveling(3, buffer_entries=4, block_entries=2), filter_policy=policy
    )
    ref = {}
    for key, value in ops:
        if value is None:
            kv.delete(key)
            ref.pop(key, None)
        else:
            kv.put(key, value)
            ref[key] = value
    for key in range(51):
        assert kv.get(key) == ref.get(key)
    assert dict(kv.scan(0, 50)) == ref
