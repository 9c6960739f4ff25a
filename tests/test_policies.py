"""Filter policies bound to a live LSM-tree: Bloom per-run policies and
Chucky's unified policy, kept consistent through merge events."""

import random

import pytest

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy, NoFilterPolicy
from repro.lsm.config import lazy_leveling, leveling, tiering
from repro.lsm.entry import KEY


def written_store(policy, cfg=None, n=600, universe=300, seed=0):
    cfg = cfg or lazy_leveling(3, buffer_entries=8, block_entries=4)
    kv = KVStore(cfg, filter_policy=policy)
    rng = random.Random(seed)
    ref = {}
    for i in range(n):
        k = rng.randrange(universe)
        kv.put(k, f"v{i}")
        ref[k] = f"v{i}"
    return kv, ref


def filter_consistency(kv):
    """Invariant: for every live entry, the policy proposes its
    sub-level (no false negatives through the whole write history)."""
    for entry, sublevel in kv.tree.iter_entries_with_sublevels():
        candidates = list(kv.policy.candidates(entry[KEY]))
        assert sublevel in candidates, (
            f"key {entry[KEY]} at sub-level {sublevel} missed by "
            f"{kv.policy.name}: {candidates}"
        )


class TestBloomPolicy:
    @pytest.mark.parametrize("variant", ["standard", "blocked"])
    @pytest.mark.parametrize("allocation", ["uniform", "optimal"])
    def test_consistency_through_merges(self, variant, allocation):
        kv, _ = written_store(
            BloomFilterPolicy(10, variant=variant, allocation=allocation)
        )
        filter_consistency(kv)

    def test_reads_correct(self):
        kv, ref = written_store(BloomFilterPolicy(10))
        for k, v in list(ref.items())[:150]:
            assert kv.get(k) == v

    def test_one_filter_per_run(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        live = {s for s, _ in kv.tree.occupied_runs()}
        assert set(kv.policy._filters) == live

    def test_size_bits_positive(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        assert kv.policy.size_bits > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilterPolicy(10, variant="nope")
        with pytest.raises(ValueError):
            BloomFilterPolicy(10, allocation="nope")

    def test_cannot_attach_twice(self):
        kv, _ = written_store(BloomFilterPolicy(10))
        with pytest.raises(RuntimeError):
            kv.policy.attach(kv.tree)

    def test_construction_charges_memory_ios(self):
        policy = BloomFilterPolicy(10, variant="blocked")
        kv, _ = written_store(policy)
        assert kv.counters.memory.get("filter") > 0


class TestChuckyPolicy:
    @pytest.mark.parametrize(
        "cfg_factory", [leveling, tiering, lazy_leveling], ids=["lvl", "tier", "lazy"]
    )
    def test_consistency_through_merges(self, cfg_factory):
        cfg = cfg_factory(3, buffer_entries=8, block_entries=4)
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10), cfg)
        filter_consistency(kv)
        assert kv.policy.filter.maintenance_misses == 0

    def test_uncompressed_consistency(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10, compressed=False))
        filter_consistency(kv)

    def test_reads_correct(self):
        kv, ref = written_store(ChuckyPolicy(bits_per_entry=10))
        for k, v in list(ref.items())[:150]:
            assert kv.get(k) == v

    def test_rebuild_on_growth(self):
        cfg = lazy_leveling(3, buffer_entries=4, block_entries=2, initial_levels=1)
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10), cfg, n=400, universe=10**6)
        assert kv.tree.num_levels > 1
        assert kv.policy.rebuilds >= 1
        filter_consistency(kv)

    def test_filter_entries_match_tree_entries(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10))
        kv.flush()
        tree_count = kv.tree.num_entries
        assert kv.policy.filter.num_entries == tree_count

    def test_tombstones_tracked(self):
        """Chucky adds a CF entry for each flushed key *including
        tombstones* (section 4.1)."""
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10))
        for k in range(30):
            kv.put(k, "x")
        for k in range(10):
            kv.delete(k)
        kv.flush()
        filter_consistency(kv)
        for k in range(10):
            assert kv.get(k) is None

    def test_auxiliary_sizes_reported(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10))
        aux = kv.policy.auxiliary_bytes
        assert set(aux) == {"huffman_tree", "decoding_table", "recoding_table"}
        assert all(v >= 0 for v in aux.values())

    def test_uncompressed_has_no_auxiliaries(self):
        kv, _ = written_store(ChuckyPolicy(bits_per_entry=10, compressed=False))
        assert kv.policy.auxiliary_bytes == {}

    def test_query_io_constant_vs_bloom_growing(self):
        """Tables 1-2: Chucky's filter cost per negative read is ~2
        memory I/Os; blocked Bloom pays one per sub-level."""
        results = {}
        for name, policy in (
            ("chucky", ChuckyPolicy(bits_per_entry=10)),
            ("bloom", BloomFilterPolicy(10, variant="blocked")),
        ):
            kv, _ = written_store(policy, n=900, universe=10**9, seed=2)
            kv.flush()
            snap = kv.snapshot()
            n = 300
            for i in range(n):
                kv.get(10**15 + i)
            ios = kv.memory_ios_since(snap)
            results[name] = sum(
                v for k, v in ios.items() if k.startswith("filter")
            ) / n
        runs = None
        assert results["chucky"] <= 3.0
        assert results["bloom"] > results["chucky"]


class TestNoFilterPolicy:
    def test_yields_everything(self):
        kv, ref = written_store(NoFilterPolicy())
        occupied = kv.tree.occupied_runs()
        cands = list(kv.policy.candidates(123))
        assert cands == [s for s, _ in occupied]

    def test_zero_size(self):
        assert NoFilterPolicy().size_bits == 0
