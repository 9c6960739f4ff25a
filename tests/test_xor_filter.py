"""Xor filter (static fingerprint filter) and its per-run policy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.counters import MemoryIOCounter
from repro.engine.kvstore import KVStore
from repro.filters.policy import XorFilterPolicy
from repro.filters.xor import XorFilter
from repro.lsm.config import lazy_leveling
from repro.lsm.entry import KEY


KEYS = random.Random(11).sample(range(10**12), 12000)
INSERTED, NEGATIVES = KEYS[:6000], KEYS[6000:]


class TestXorFilter:
    def test_no_false_negatives(self):
        f = XorFilter(INSERTED, fingerprint_bits=9)
        assert all(f.may_contain(k) for k in INSERTED)

    def test_fpr_is_2_to_minus_f(self):
        """The xor filter's selling point: FPP = 2^-F with no slot
        multiplier (vs Bloom's 2^{-M ln 2} and cuckoo's 2 S 2^-F)."""
        f = XorFilter(INSERTED, fingerprint_bits=9)
        measured = sum(f.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        assert measured == pytest.approx(f.expected_fpp(), rel=0.6)

    def test_better_fpr_per_bit_than_bloom(self):
        from repro.filters.bloom import BloomFilter

        xor = XorFilter(INSERTED, fingerprint_bits=9)  # ~11 bits/entry
        bloom = BloomFilter(len(INSERTED), xor.bits_per_entry)
        for k in INSERTED:
            bloom.add(k)
        fpr_x = sum(xor.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        fpr_b = sum(bloom.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        assert fpr_x < fpr_b

    def test_query_costs_three_ios(self):
        mem = MemoryIOCounter()
        f = XorFilter(INSERTED[:100], memory_ios=mem)
        f.may_contain(1)
        assert mem.get("filter") == 3

    def test_size_about_1_23_n(self):
        f = XorFilter(INSERTED, fingerprint_bits=9)
        assert f.bits_per_entry == pytest.approx(1.23 * 9, rel=0.1)

    def test_small_key_sets(self):
        for n in (1, 2, 3, 7):
            keys = list(range(n))
            f = XorFilter(keys, fingerprint_bits=8)
            assert all(f.may_contain(k) for k in keys)

    def test_validation(self):
        with pytest.raises(ValueError):
            XorFilter([])
        with pytest.raises(ValueError):
            XorFilter([1, 1])
        with pytest.raises(ValueError):
            XorFilter([1], fingerprint_bits=1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2**48), min_size=1, max_size=400, unique=True))
def test_xor_no_false_negatives_property(keys):
    f = XorFilter(keys, fingerprint_bits=8)
    assert all(f.may_contain(k) for k in keys)


class TestXorFilterPolicy:
    def test_consistency_through_merges(self):
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(cfg, filter_policy=XorFilterPolicy(10))
        rng = random.Random(0)
        ref = {}
        for i in range(600):
            k = rng.randrange(300)
            kv.put(k, f"v{i}")
            ref[k] = f"v{i}"
        for entry, sublevel in kv.tree.iter_entries_with_sublevels():
            cands = list(kv.policy.candidates(entry[KEY]))
            assert sublevel in cands
        for k, v in list(ref.items())[:100]:
            assert kv.get(k) == v

    def test_lower_fpr_than_blocked_bloom_at_same_budget(self):
        from repro.filters.policy import BloomFilterPolicy

        results = {}
        for name, policy in (
            ("xor", XorFilterPolicy(10, allocation="uniform")),
            ("bloom", BloomFilterPolicy(10, "blocked", "uniform")),
        ):
            cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
            kv = KVStore(cfg, filter_policy=policy)
            rng = random.Random(1)
            for i in range(1500):
                kv.put(rng.randrange(1 << 40), f"v{i}")
            kv.flush()
            snap = kv.snapshot()
            probes = 1500
            for i in range(probes):
                kv.get((1 << 50) + i)
            results[name] = kv.false_positives_since(snap) / probes
        assert results["xor"] < results["bloom"] + 0.01

    def test_query_cost_three_per_run(self):
        cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
        kv = KVStore(cfg, filter_policy=XorFilterPolicy(10))
        for i in range(400):
            kv.put(i, "x")
        kv.flush()
        runs = len(kv.tree.occupied_runs())
        snap = kv.snapshot()
        n = 200
        for i in range(n):
            kv.get(10**12 + i)
        ios = kv.memory_ios_since(snap).get("filter", 0) / n
        assert ios == pytest.approx(3 * runs, rel=0.35)