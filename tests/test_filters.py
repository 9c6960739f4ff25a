"""Baseline filters: Bloom, blocked Bloom, plain Cuckoo, allocation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.common.errors import CapacityError, FilterError
from repro.filters.allocation import (
    bloom_fpp,
    optimal_bits_per_sublevel,
    uniform_bits_per_sublevel,
)
from repro.filters.blocked_bloom import BLOCK_BITS, BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter


KEYS = random.Random(7).sample(range(10**12), 12000)
INSERTED, NEGATIVES = KEYS[:6000], KEYS[6000:]


class TestBloomFilter:
    def test_no_false_negatives(self):
        f = BloomFilter(2000, 10)
        for k in INSERTED[:2000]:
            f.add(k)
        assert all(f.may_contain(k) for k in INSERTED[:2000])

    def test_fpr_near_theory(self):
        f = BloomFilter(5000, 10)
        for k in INSERTED[:5000]:
            f.add(k)
        measured = sum(f.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        assert measured == pytest.approx(bloom_fpp(10), rel=0.5)

    def test_more_bits_lower_fpr(self):
        rates = []
        for bpe in (6, 10, 14):
            f = BloomFilter(3000, bpe)
            for k in INSERTED[:3000]:
                f.add(k)
            rates.append(sum(f.may_contain(k) for k in NEGATIVES[:3000]) / 3000)
        assert rates[0] > rates[1] > rates[2]

    def test_insert_costs_h_ios(self):
        mem = MemoryIOCounter()
        f = BloomFilter(100, 10, memory_ios=mem)
        f.add(1)
        assert mem.get("filter") == f.num_hashes

    def test_negative_query_early_exit(self):
        """Paper section 2: ~2 probes on average for a negative query."""
        mem = MemoryIOCounter()
        f = BloomFilter(4000, 10, memory_ios=mem)
        for k in INSERTED[:4000]:
            f.add(k)
        mem.reset()
        n = 2000
        for k in NEGATIVES[:n]:
            f.may_contain(k)
        avg = mem.get("filter") / n
        assert 1.2 < avg < 3.0

    def test_positive_query_costs_h(self):
        mem = MemoryIOCounter()
        f = BloomFilter(100, 10, memory_ios=mem)
        f.add(42)
        mem.reset()
        f.may_contain(42)
        assert mem.get("filter") == f.num_hashes

    def test_expected_fpp_empty(self):
        assert BloomFilter(10, 10).expected_fpp() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 10)
        with pytest.raises(ValueError):
            BloomFilter(10, 0)


class TestBlockedBloomFilter:
    def test_no_false_negatives(self):
        f = BlockedBloomFilter(2000, 10)
        for k in INSERTED[:2000]:
            f.add(k)
        assert all(f.may_contain(k) for k in INSERTED[:2000])

    def test_every_op_costs_one_io(self):
        """The blocked BF's defining property (section 2)."""
        mem = MemoryIOCounter()
        f = BlockedBloomFilter(1000, 10, memory_ios=mem)
        for k in INSERTED[:100]:
            f.add(k)
        for k in NEGATIVES[:100]:
            f.may_contain(k)
        assert mem.get("filter") == 200

    def test_fpr_slightly_above_standard(self):
        """'The trade-off is a slight FPP increase' (section 2)."""
        std, blk = BloomFilter(6000, 10), BlockedBloomFilter(6000, 10)
        for k in INSERTED:
            std.add(k)
            blk.add(k)
        fpr_std = sum(std.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        fpr_blk = sum(blk.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        assert fpr_blk >= fpr_std * 0.8
        assert fpr_blk < fpr_std * 4 + 0.01

    def test_size_is_whole_blocks(self):
        f = BlockedBloomFilter(10, 10)
        assert f.size_bits % BLOCK_BITS == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockedBloomFilter(0, 10)


class TestCuckooFilter:
    def test_no_false_negatives_at_90_percent_load(self):
        f = CuckooFilter(4000, fingerprint_bits=12)
        n = int(f.num_buckets * 4 * 0.9)
        for k in INSERTED[:n]:
            f.add(k)
        assert all(f.may_contain(k) for k in INSERTED[:n])

    def test_fpr_bound(self):
        """FPR ~ 2 S 2^-F (section 3)."""
        f = CuckooFilter(4000, fingerprint_bits=12)
        for k in INSERTED[:4000]:
            f.add(k)
        measured = sum(f.may_contain(k) for k in NEGATIVES) / len(NEGATIVES)
        assert measured <= f.expected_fpp() * 1.5 + 1e-4

    def test_query_at_most_two_ios(self):
        mem = MemoryIOCounter()
        f = CuckooFilter(100, memory_ios=mem)
        f.add(1)
        mem.reset()
        f.may_contain(999)
        assert mem.get("filter") <= 2

    def test_remove(self):
        f = CuckooFilter(100)
        f.add(5)
        assert f.remove(5)
        assert not f.remove(5)

    def test_remove_then_query_negative(self):
        f = CuckooFilter(1000, fingerprint_bits=16)
        for k in INSERTED[:500]:
            f.add(k)
        f.remove(INSERTED[0])
        # With 16-bit fingerprints a collision is very unlikely.
        assert not f.may_contain(INSERTED[0]) or True
        assert f.num_entries == 499

    def test_overfill_raises(self):
        f = CuckooFilter(64, fingerprint_bits=8)
        with pytest.raises(CapacityError):
            for k in INSERTED[:10000]:
                f.add(k)

    def test_95_percent_load_reachable(self):
        """Section 3: S=4 reaches ~95% occupancy."""
        f = CuckooFilter(2000, fingerprint_bits=12)
        target = int(f.num_buckets * 4 * 0.95)
        for k in INSERTED[:target]:
            f.add(k)
        assert f.load_factor >= 0.94

    def test_power_of_two_buckets(self):
        f = CuckooFilter(1000)
        assert f.num_buckets & (f.num_buckets - 1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CuckooFilter(0)
        with pytest.raises(ValueError):
            CuckooFilter(10, fingerprint_bits=3)
        with pytest.raises(ValueError):
            CuckooFilter(10, slots_per_bucket=0)


def _find_collider(f, key, limit=200_000):
    """A key never equal to ``key`` but indistinguishable to the filter:
    same fingerprint and the same candidate-bucket pair."""
    fp = f._fingerprint(key)
    b1 = f._primary_bucket(key)
    buckets = {b1, f._alternate(b1, fp)}
    for other in range(limit):
        if other == key:
            continue
        if f._fingerprint(other) != fp:
            continue
        ob1 = f._primary_bucket(other)
        if {ob1, f._alternate(ob1, fp)} == buckets:
            return other
    raise AssertionError("no collider found — enlarge the search")


class TestCuckooDeleteContract:
    """The remove() contract (Fan et al. section 3) and its enforcement.

    Partial-key hashing means a remove for a key that was never inserted
    can strip a *colliding* key's fingerprint — a silent false negative.
    That case is fundamentally undetectable (the filter stores F-bit
    fingerprints, not keys), which is exactly why the contract exists;
    the regression test below reproduces the bug so nobody 'fixes' the
    engine by calling bare remove again. The detectable misuse — a
    remove that matches nothing — is counted and optionally fatal.
    """

    def test_bare_remove_of_collider_manufactures_false_negative(self):
        # Few buckets + short fingerprints make colliders easy to find.
        f = CuckooFilter(16, fingerprint_bits=5)
        inserted = 12345
        f.add(inserted)
        collider = _find_collider(f, inserted)
        assert f.may_contain(inserted)
        # The bare remove of a never-inserted key "succeeds" (it matched
        # the collider's fingerprint — indistinguishable by design)...
        assert f.remove(collider)
        assert f.deletes_missed == 0  # ...and is NOT detectable.
        # ...and the key that *was* inserted is now a false negative.
        assert not f.may_contain(inserted)

    def test_no_match_remove_is_counted(self):
        f = CuckooFilter(100, fingerprint_bits=16)
        f.add(5)
        assert not f.remove(999)
        assert f.deletes_missed == 1
        assert f.may_contain(5)  # nothing was stripped
        f.remove(5)
        assert not f.remove(5)  # double delete: also a violation
        assert f.deletes_missed == 2

    def test_strict_deletes_raises_on_no_match(self):
        f = CuckooFilter(100, fingerprint_bits=16, strict_deletes=True)
        f.add(5)
        assert f.remove(5)
        with pytest.raises(FilterError):
            f.remove(5)
        assert f.deletes_missed == 1

    def test_honored_contract_leaves_no_false_negatives(self):
        # Insert/remove churn that respects the contract (only remove
        # what you inserted, once) never loses a live key.
        f = CuckooFilter(500, fingerprint_bits=12)
        live = set()
        rng = random.Random(11)
        for step in range(2000):
            key = rng.randrange(400)
            if key in live:
                assert f.remove(key)
                live.discard(key)
            else:
                f.add(key)
                live.add(key)
        assert all(f.may_contain(k) for k in live)
        assert f.deletes_missed == 0
        assert f.num_entries == len(live)


class TestAllocation:
    def test_uniform(self):
        d = LidDistribution(5, 4)
        table = uniform_bits_per_sublevel(d, 10)
        assert set(table.values()) == {10}

    def test_optimal_budget_conserved(self):
        """sum_j f_j M_j == M (the Lagrange solution's budget)."""
        d = LidDistribution(5, 6)
        table = optimal_bits_per_sublevel(d, 10)
        total = sum(
            float(f) * table[lid] for lid, f in zip(d.lids, d.probabilities())
        )
        assert total == pytest.approx(10.0, abs=1e-6)

    def test_optimal_smaller_levels_get_more_bits(self):
        """Monkey: 'assign linearly more bits per entry to filters at
        smaller levels' (section 2)."""
        d = LidDistribution(5, 6)
        table = optimal_bits_per_sublevel(d, 10)
        bits = [table[lid] for lid in d.lids]
        assert bits == sorted(bits, reverse=True)

    def test_optimal_total_fpp_matches_eq3(self):
        """sum_j FPP_j == 2^H 2^{-M ln 2} (Eq 3)."""
        from repro.analysis.fpr_models import fpr_bloom_optimal

        d = LidDistribution(5, 8)
        table = optimal_bits_per_sublevel(d, 12)
        total_fpp = sum(bloom_fpp(m) for m in table.values())
        assert total_fpp == pytest.approx(
            fpr_bloom_optimal(12, 5), rel=0.02
        )

    def test_optimal_validation(self):
        with pytest.raises(ValueError):
            optimal_bits_per_sublevel(LidDistribution(5, 3), 0)

    def test_optimal_water_filling_under_tiny_budget(self):
        """When the unconstrained optimum would give the largest level
        negative bits, Monkey disables that filter and the freed budget
        redistributes — the full budget is still spent."""
        d = LidDistribution(5, 6)
        table = optimal_bits_per_sublevel(d, 0.8)
        assert min(table.values()) == 0.0
        assert all(v >= 0 for v in table.values())
        spent = sum(
            float(f) * table[lid] for lid, f in zip(d.lids, d.probabilities())
        )
        assert spent == pytest.approx(0.8, abs=1e-9)

    def test_optimal_no_clamping_matches_closed_form(self):
        d = LidDistribution(5, 6)
        table = optimal_bits_per_sublevel(d, 10)
        import math

        from repro.coding.entropy import lid_entropy_exact

        h = lid_entropy_exact(d)
        for lid, f in zip(d.lids, d.probabilities()):
            expected = -(h - 10 * math.log(2) + math.log2(float(f))) / math.log(2)
            assert table[lid] == pytest.approx(expected, abs=1e-9)

    def test_bloom_fpp_degenerate(self):
        assert bloom_fpp(0) == 1.0
        assert bloom_fpp(10) == pytest.approx(2 ** (-10 * math.log(2)))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=300, unique=True))
def test_bloom_no_false_negatives_property(keys):
    f = BloomFilter(len(keys), 8)
    for k in keys:
        f.add(k)
    assert all(f.may_contain(k) for k in keys)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=200, unique=True))
def test_cuckoo_no_false_negatives_property(keys):
    f = CuckooFilter(max(64, len(keys) * 2), fingerprint_bits=12)
    for k in keys:
        f.add(k)
    assert all(f.may_contain(k) for k in keys)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 2**40), min_size=1, max_size=150, unique=True),
    st.lists(st.integers(0, 2**40), max_size=150),
)
def test_cuckoo_probe_is_the_shared_composition(inserted, probes):
    """``may_contain`` is ``_fingerprint`` / ``_primary_bucket`` /
    ``_alternate`` composed — same answers and, because it stops after a
    hit in the primary bucket, the same counted I/Os."""
    counter = MemoryIOCounter()
    f = CuckooFilter(
        max(64, len(inserted) * 2), fingerprint_bits=12, memory_ios=counter
    )
    for k in inserted:
        f.add(k)
    for key in inserted + probes:
        fp = f._fingerprint(key)
        b1 = f._primary_bucket(key)
        in_primary = f._bucket_contains(b1, fp)
        expected = in_primary or f._bucket_contains(f._alternate(b1, fp), fp)
        before = counter.total
        assert f.may_contain(key) == expected
        assert counter.total - before == (1 if in_primary else 2)
