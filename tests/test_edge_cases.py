"""Edge cases and failure injection across the stack."""

import random

import pytest

from repro.coding.distributions import LidDistribution
from repro.common.errors import CodebookError, FilterError
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter, _partner
from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.lsm.config import lazy_leveling, leveling


class TestDegenerateGeometries:
    def test_single_level_tree(self):
        dist = LidDistribution(5, 1)
        cb = ChuckyCodebook(dist, slots=4, bucket_bits=40)
        assert cb.fp_by_level[0] >= 5
        f = ChuckyFilter(100, dist)
        f.insert(1, 1)
        assert f.query(1) == [1]

    def test_t2_deep_tree(self):
        """T=2 (the least skewed geometry): compression gains least,
        codebook must still align."""
        dist = LidDistribution(2, 12)
        cb = ChuckyCodebook(dist, slots=4, bucket_bits=40)
        for combo in cb.frequent[:50]:
            assert (
                cb.code_lengths[combo] + cb.cumulative_fp(combo)
                == cb.bucket_bits
            )

    def test_z_greater_than_k(self):
        dist = LidDistribution(5, 4, runs_per_level=1, runs_at_last_level=4)
        cb = ChuckyCodebook(dist, slots=4, bucket_bits=40)
        assert cb.overflow_probability() < 0.01

    def test_large_bucket(self):
        dist = LidDistribution(5, 6)
        cb = ChuckyCodebook(dist, slots=4, bucket_bits=64)
        assert cb.average_fp_bits() > 13  # the slack goes to fingerprints

    def test_codebook_error_chain(self):
        with pytest.raises(CodebookError):
            ChuckyCodebook(LidDistribution(5, 8), slots=4, bucket_bits=24)


class TestFilterEdges:
    def test_self_paired_bucket(self):
        """The subtraction involution can map a bucket to itself
        (2b = anchor mod n); operations must still work."""
        dist = LidDistribution(3, 3)
        f = ChuckyFilter(200, dist, bits_per_entry=10.0)
        rng = random.Random(0)
        self_paired = []
        for key in range(5000):
            b1, b2 = f.bucket_pair(key)
            if b1 == b2:
                self_paired.append(key)
        for key in self_paired[:20]:
            f.insert(key, 1)
            assert 1 in f.query(key)
            assert f.update_lid(key, 1, 3)
            assert f.remove(key, 3)

    def test_fill_to_design_load(self):
        dist = LidDistribution(5, 4)
        f = ChuckyFilter(2000, dist, bits_per_entry=10.0)
        rng = random.Random(1)
        probs = [float(p) for p in dist.probabilities()]
        target = int(f.num_buckets * 4 * 0.95)
        pairs = [
            (k, rng.choices(list(dist.lids), weights=probs)[0])
            for k in rng.sample(range(1 << 50), target)
        ]
        for k, lid in pairs:
            f.insert(k, lid)  # never raises: AHT absorbs the tail
        assert all(lid in f.query(k) for k, lid in pairs)

    def test_remove_wrong_lid_is_miss(self):
        dist = LidDistribution(5, 4)
        f = ChuckyFilter(100, dist)
        f.insert(1, 2)
        assert not f.remove(1, 3)
        assert f.maintenance_misses == 1
        assert 2 in f.query(1)

    def test_update_to_invalid_lid_rejected(self):
        dist = LidDistribution(5, 4)
        f = ChuckyFilter(100, dist)
        f.insert(1, 2)
        with pytest.raises(FilterError):
            f.update_lid(1, 2, 99)

    def test_partner_identity_composition(self):
        for n in (3, 10, 1000):
            for prefix in range(32):
                b = prefix % n
                assert _partner(_partner(b, prefix, n), prefix, n) == b


class TestStoreEdges:
    def test_empty_store(self):
        kv = KVStore(leveling(3, buffer_entries=4, block_entries=2))
        assert kv.get(1) is None
        assert list(kv.scan(0, 100)) == []
        kv.flush()  # no-op
        assert kv.num_entries == 0

    def test_single_key_many_versions(self):
        kv = KVStore(
            leveling(3, buffer_entries=4, block_entries=2),
            filter_policy=ChuckyPolicy(bits_per_entry=10),
        )
        for i in range(200):
            kv.put(7, f"v{i}")
        assert kv.get(7) == "v199"

    def test_alternating_put_delete(self):
        kv = KVStore(
            lazy_leveling(3, buffer_entries=4, block_entries=2),
            filter_policy=ChuckyPolicy(bits_per_entry=10),
        )
        for i in range(120):
            if i % 2:
                kv.delete(5)
            else:
                kv.put(5, f"v{i}")
        assert kv.get(5) is None  # last op was a delete (i=119)

    def test_scan_with_open_bounds_width(self):
        kv = KVStore(leveling(3, buffer_entries=4, block_entries=2))
        for i in range(50):
            kv.put(i * 10, i)
        assert len(list(kv.scan(0, 2**64 - 1))) == 50
        assert list(kv.scan(55, 55)) == []
        # A bound outside the key domain is refused like a key.
        with pytest.raises(ValueError, match="64-bit range"):
            kv.scan(-100, 10**9)

    def test_partitioned_policy_end_to_end(self):
        kv = KVStore(
            lazy_leveling(3, buffer_entries=8, block_entries=4),
            filter_policy=ChuckyPolicy(
                bits_per_entry=10, partition_capacity=256
            ),
        )
        rng = random.Random(2)
        ref = {}
        for i in range(600):
            k = rng.randrange(300)
            kv.put(k, f"v{i}")
            ref[k] = f"v{i}"
        for k, v in list(ref.items())[:150]:
            assert kv.get(k) == v
        assert kv.policy.filter.num_partitions > 1
        assert kv.policy.filter.maintenance_misses == 0

    def test_partitioned_requires_compressed(self):
        with pytest.raises(ValueError):
            ChuckyPolicy(compressed=False, partition_capacity=256)

    def test_partitioned_recovery_falls_back_to_scan(self):
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(
            cfg,
            filter_policy=ChuckyPolicy(bits_per_entry=10, partition_capacity=256),
            durable=True,
        )
        for i in range(200):
            kv.put(i, f"v{i}")
        state = kv.crash()
        recovered = KVStore(
            cfg,
            filter_policy=ChuckyPolicy(bits_per_entry=10, partition_capacity=256),
            state=state,
        )
        for i in range(200):
            assert recovered.get(i) == f"v{i}"
