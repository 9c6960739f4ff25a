"""The Chucky filter: correctness, maintenance, overflows, persistence,
and I/O accounting (paper sections 4.1, 4.4, 4.5)."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.common.errors import FilterError
from repro.chucky.filter import (
    ChuckyFilter,
    UncompressedLidFilter,
    _buckets_for_capacity,
    _partner,
)
from repro.common.hashing import FP_MIN, fp_digest
from repro.chucky.partitioned import PartitionedChuckyFilter


DIST = LidDistribution(5, 6)


def lid_sampler(rng, dist=DIST):
    probs = [float(p) for p in dist.probabilities()]
    return lambda: rng.choices(list(dist.lids), weights=probs)[0]


def build_filter(n=4000, seed=3, cls=ChuckyFilter, **kw):
    rng = random.Random(seed)
    f = cls(capacity=n, dist=DIST, bits_per_entry=10.0, **kw)
    draw = lid_sampler(rng)
    keys = rng.sample(range(10**12), n)
    pairs = [(k, draw()) for k in keys]
    for k, lid in pairs:
        f.insert(k, lid)
    return f, pairs


class TestAddressing:
    def test_partner_is_involution_any_bucket_count(self):
        for n in (7, 100, 1000, 1 << 10):
            f = ChuckyFilter(n * 4, DIST, over_provision=0.0)
            assert f.num_buckets == n
            for key in range(50):
                b1, b2 = f.bucket_pair(key)
                prefix = fp_digest(key) >> (64 - FP_MIN)
                assert _partner(b1, prefix, n) == b2
                assert _partner(b2, prefix, n) == b1

    def test_partner_requires_min_length(self):
        """A stored fingerprint shorter than FP_MIN has no shared prefix
        to re-derive its partner bucket from."""
        f = ChuckyFilter(100, DIST)
        assert all(64 - shift >= FP_MIN for shift in f._fp_shifts)
        f._fp_shifts[0] = 64 - 3  # pretend LID 1 stores 3-bit fingerprints
        with pytest.raises(ValueError):
            f._partner_of_slot(0, (1, 0b111))

    def test_bucket_pair_shared_across_versions(self):
        f, _ = build_filter(64)
        for key in range(200):
            assert f.bucket_pair(key) == f.bucket_pair(key)


def _assert_anchor_table_is_partner(f):
    """Every prefix's anchor is ``_partner`` at bucket 0, and the
    partner a stored slot moves to is ``_partner`` for any bucket."""
    n = f.num_buckets
    assert len(f._anchors) == 1 << FP_MIN
    for prefix in range(1 << FP_MIN):
        assert f._anchors[prefix] == _partner(0, prefix, n)
        for bucket in {0, 1 % n, n // 2, n - 1}:
            for lid in DIST.lids:
                tail = 64 - f._fp_shifts[lid - 1] - FP_MIN
                slot = (lid, (prefix << tail) | ((1 << tail) - 1))
                assert f._partner_of_slot(bucket, slot) == _partner(bucket, prefix, n)


class TestAnchorTable:
    """The 32-entry anchor table is ``_partner`` reduced once per bucket
    count; addressing and the eviction walk read only the table."""

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1 << 10])
    def test_table_matches_partner(self, n):
        f = ChuckyFilter(n * 4, DIST, over_provision=0.0)
        assert f.num_buckets == n
        _assert_anchor_table_is_partner(f)

    def test_recovered_filter_rebuilds_the_table(self):
        f, _ = build_filter(300)
        g = ChuckyFilter.recover(f.persist(), DIST, bits_per_entry=10.0)
        assert g.num_buckets == f.num_buckets and g.num_buckets % 2 == 1
        _assert_anchor_table_is_partner(g)


def _one_filter(kind):
    """A small filter of each kind that takes (key, lid) operations, and
    the plain filter that answers ``fingerprint`` for ``key``."""
    if kind == "partitioned":
        f = PartitionedChuckyFilter(256, DIST, partition_capacity=64)
        return f, f._partition_of
    f = (ChuckyFilter if kind == "chucky" else UncompressedLidFilter)(100, DIST)
    return f, lambda key: f


FILTER_KINDS = ("chucky", "uncompressed", "partitioned")
#: One below, one wrapping negative, one above the LID range [1, A].
BAD_LIDS = (0, -1, DIST.num_sublevels + 1)


class TestOneFingerprintRoute:
    """``fingerprint()`` and the maintenance operations slice through
    the same ``_slot``, so they agree on every LID and refuse the same
    ones."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(key=st.integers(0, 2**60))
    def test_fingerprint_is_slot_of_address(self, kind, key):
        _, plain_of = _one_filter(kind)
        plain = plain_of(key)
        digest = plain._address(key)[0]
        for lid in DIST.lids:
            assert plain.fingerprint(key, lid) == plain._slot(digest, lid)[1]
            assert plain.fingerprint(key, lid) != 0

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    @pytest.mark.parametrize("lid", BAD_LIDS)
    def test_out_of_range_lid_is_refused_everywhere(self, kind, lid):
        """At the parent ``fingerprint(key, 0)`` / ``(key, -1)`` answered
        with another level's length, ``(key, A+1)`` raised a bare
        IndexError (or answered, uncompressed), and ``update_lid(key,
        lid, lid)`` returned True before looking at the LID."""
        f, plain_of = _one_filter(kind)
        f.insert(5, 3)
        with pytest.raises(FilterError):
            plain_of(5).fingerprint(5, lid)
        with pytest.raises(FilterError):
            f.update_lid(5, lid, lid)
        with pytest.raises(FilterError):
            f.update_lid(5, 3, lid)
        with pytest.raises(FilterError):
            f.insert(5, lid)
        with pytest.raises(FilterError):
            f.remove(5, lid)
        assert f.query(5) == [3]
        assert f.num_entries == 1 and f.maintenance_misses == 0


class TestInsertQuery:
    def test_no_false_negatives(self):
        f, pairs = build_filter(4000)
        for k, lid in pairs:
            assert lid in f.query(k)

    def test_fpr_close_to_codebook_model(self):
        f, _ = build_filter(6000)
        rng = random.Random(99)
        negatives = [10**13 + i for i in range(4000)]
        fpr = sum(len(f.query(k)) for k in negatives) / len(negatives)
        model = f.codebook.expected_fpr() * f.load_factor
        assert fpr == pytest.approx(model, rel=0.5)

    def test_query_costs_at_most_two_bucket_ios_plus_extras(self):
        mem = MemoryIOCounter()
        f = ChuckyFilter(1000, DIST, memory_ios=mem)
        f.insert(1, 6)
        mem.reset()
        f.query(1)
        assert mem.get("filter") <= 2

    def test_insert_cost_about_two_ios(self):
        """Section 4.1: ~2 memory I/Os per inserted entry."""
        mem = MemoryIOCounter()
        f = ChuckyFilter(4000, DIST, memory_ios=mem)
        rng = random.Random(0)
        draw = lid_sampler(rng)
        n = 3500
        for k in rng.sample(range(10**10), n):
            f.insert(k, draw())
        assert mem.get("filter") / n < 3.5

    @pytest.mark.parametrize(
        "cls", [ChuckyFilter, UncompressedLidFilter, PartitionedChuckyFilter]
    )
    def test_out_of_range_lid_rejected_by_every_operation(self, cls):
        """Every LID a caller passes is validated — also the one naming
        the mapping to remove or move, which used to index the shift
        table unchecked: ``A + 1`` escaped as a bare IndexError and
        ``0`` sliced with the last level's shift and was booked as a
        maintenance miss."""
        f = cls(100, DIST)
        top = DIST.num_sublevels
        f.insert(1, top)
        for bad in (0, -1, top + 1, 99):
            for call in (
                lambda: f.insert(2, bad),
                lambda: f.remove(1, bad),
                lambda: f.update_lid(1, bad, 1),
                lambda: f.update_lid(1, top, bad),
            ):
                with pytest.raises(FilterError, match=rf"LID {bad} out of range"):
                    call()
        assert f.maintenance_misses == 0
        assert (f.query(1), f.num_entries) == ([top], 1)

    def test_duplicate_versions_coexist(self):
        """Chucky maps obsolete versions until compaction (section 4.1):
        the same key can hold several LIDs at once."""
        f = ChuckyFilter(100, DIST)
        for lid in (1, 3, 6):
            f.insert(42, lid)
        assert set(f.query(42)) >= {1, 3, 6}

    def test_query_returns_sorted_young_first(self):
        f = ChuckyFilter(100, DIST)
        for lid in (6, 2, 4):
            f.insert(7, lid)
        result = f.query(7)
        assert result == sorted(result)


class TestUpdateRemove:
    def test_update_moves_lid(self):
        f = ChuckyFilter(100, DIST)
        f.insert(5, 2)
        assert f.update_lid(5, 2, 6)
        assert 6 in f.query(5)
        assert 2 not in f.query(5)

    def test_update_same_lid_is_noop(self):
        f = ChuckyFilter(100, DIST)
        f.insert(5, 3)
        assert f.update_lid(5, 3, 3)
        assert f.query(5) == [3]

    def test_update_changes_fingerprint_length(self):
        """Malleable fingerprints: the stored fingerprint grows when an
        entry moves to a larger level, without changing buckets."""
        f = ChuckyFilter(100, DIST)
        f.insert(5, 1)
        short = f.fingerprint(5, 1)
        f.update_lid(5, 1, 6)
        longer = f.fingerprint(5, 6)
        fp_length = f.codebook.fp_length
        assert fp_length(6) > fp_length(1)
        assert longer >> (fp_length(6) - fp_length(1)) == short

    def test_remove_deletes_mapping(self):
        f = ChuckyFilter(100, DIST)
        f.insert(5, 4)
        assert f.remove(5, 4)
        assert f.query(5) == []
        assert f.num_entries == 0

    def test_remove_missing_reports_miss(self):
        f = ChuckyFilter(100, DIST)
        assert not f.remove(5, 4)
        assert f.maintenance_misses == 1

    def test_success_after_an_earlier_miss_reports_true(self):
        """A call's answer is its own misses, not the filter's running
        total: after a missed remove, a later update or remove that
        finds its mapping still reports success."""
        f = ChuckyFilter(100, DIST)
        assert not f.remove(5, 4)
        f.insert(6, 2)
        assert f.update_lid(6, 2, 3) is True
        assert f.remove(6, 3) is True
        assert f.maintain_many([(7, None, 1), (7, 1, 2)]) == 0
        assert f.maintain_many([(8, 2, None)]) == 1
        assert f.maintenance_misses == 2

    def test_mass_update_and_remove_no_misses(self):
        f, pairs = build_filter(3000)
        rng = random.Random(5)
        for k, lid in pairs[:1000]:
            new = min(lid + rng.randrange(1, 3), DIST.num_sublevels)
            assert f.update_lid(k, lid, new)
        for k, lid in pairs[1000:2000]:
            assert f.remove(k, lid)
        assert f.maintenance_misses == 0


class TestEntryOverflowsAht:
    def test_more_than_2s_versions_overflow_to_aht(self):
        """Section 4.5: > 2S versions of one key cannot fit the bucket
        pair; the AHT absorbs them and queries still find every LID."""
        f = ChuckyFilter(400, DIST)
        for i in range(12):  # 12 > 2*4 versions
            f.insert(42, DIST.num_sublevels)
        assert len(f.query(42)) >= 1
        assert sum(len(v) for v in f.aht.values()) >= 12 - 8

    def test_aht_entries_removable(self):
        f = ChuckyFilter(400, DIST)
        for _ in range(12):
            f.insert(42, 6)
        removed = 0
        while f.remove(42, 6):
            removed += 1
        assert removed == 12
        assert f.query(42) == []
        assert not f.aht

    def test_aht_update(self):
        f = ChuckyFilter(400, DIST)
        for _ in range(12):
            f.insert(42, 5)
        assert f.update_lid(42, 5, 6)
        assert 6 in f.query(42)


@pytest.mark.parametrize(
    "cls,seed",
    [(ChuckyFilter, 11), (ChuckyFilter, 17),
     (UncompressedLidFilter, 3), (UncompressedLidFilter, 11)],
)
def test_spilled_entry_survives_removal_of_its_neighbours(cls, seed):
    """A failed eviction walk files the homeless slot under the pair
    where the walk *ended*; removing other keys then frees slots in both
    of its buckets without repatriating it. The probe must still find it
    (regression: the AHT was consulted only when a touched bucket was
    full, which lost a live key on each of these seeds)."""
    dist = LidDistribution(
        size_ratio=4, num_levels=3, runs_per_level=1, runs_at_last_level=1
    )
    f = cls(capacity=400, dist=dist, over_provision=0.0, seed=seed)
    live = []
    while not f.aht:
        live.append(len(live) + 1)
        f.insert(live[-1], 3)
    random.Random(seed).shuffle(live)
    while live and f.aht:
        assert f.remove(live.pop(), 3)
        missing = [key for key in live if 3 not in f.query(key)]
        assert missing == [], (seed, len(live))
    assert f.maintenance_misses == 0


class TestRareBucketOverflow:
    def test_rare_combo_bucket_roundtrips(self):
        """Force a bucket into a rare combination (all smallest-level
        LIDs) and verify queries still resolve through the overflow HT."""
        f = ChuckyFilter(2000, DIST)
        rng = random.Random(11)
        placed = []
        # Insert many lid-1 entries; some bucket will fill with lid 1s.
        for k in rng.sample(range(10**9), 600):
            f.insert(k, 1)
            placed.append(k)
        assert all(1 in f.query(k) for k in placed)
        assert len(f.overflow) > 0  # some buckets hold rare combos

    def test_overflow_cleared_when_combo_becomes_frequent(self):
        f = ChuckyFilter(2000, DIST)
        rng = random.Random(12)
        keys = rng.sample(range(10**9), 400)
        for k in keys:
            f.insert(k, 1)
        n_overflow = len(f.overflow)
        for k in keys:
            f.update_lid(k, 1, DIST.num_sublevels)
        assert len(f.overflow) < max(1, n_overflow)
        assert all(DIST.num_sublevels in f.query(k) for k in keys)


class TestPersistence:
    def test_roundtrip(self):
        f, pairs = build_filter(1500)
        blob = f.persist()
        g = ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)
        assert g.num_entries == f.num_entries
        for k, lid in pairs[:500]:
            assert lid in g.query(k)

    def test_roundtrip_preserves_overflow_and_aht(self):
        """Persist -> recover restores every bucket word, overflow list,
        AHT entry and the entry count, on a filter with all three."""
        f = ChuckyFilter(400, DIST)
        rng = random.Random(13)
        for k in rng.sample(range(10**9), 200):
            f.insert(k, 1)
        for _ in range(12):
            f.insert(42, 6)
        assert f.overflow and f.aht
        blob = f.persist()
        g = ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)
        assert list(g._buckets) == list(f._buckets)
        assert g.overflow == f.overflow
        assert g.aht == f.aht
        assert g.num_entries == f.num_entries
        assert sorted(g.query(42)) == sorted(f.query(42))

    def test_recover_rejects_mismatched_geometry(self):
        f, _ = build_filter(200)
        blob = f.persist()
        with pytest.raises(FilterError):
            ChuckyFilter.recover(blob, DIST, bits_per_entry=12.0)

    def test_persist_is_deterministic(self):
        f, _ = build_filter(300, seed=1)
        assert f.persist() == f.persist()

    def test_a_100k_bucket_round_trip_is_linear(self):
        """Persist + recover of >= 100k buckets in under 2 s (the
        one-int bit writer and reader took ~96 s): the body is the
        bucket words as stored, and the recovered filter persists the
        same bytes and answers the same."""
        import time
        from array import array

        f = ChuckyFilter(400_000, DIST, bits_per_entry=10.0)
        assert f.num_buckets >= 100_000
        rng = random.Random(4)
        keys = rng.sample(range(1 << 40), 3000)
        for key in keys:
            f.insert(key, DIST.num_sublevels)
        for _ in range(12):
            f.insert(42, 1)  # > 2S versions of one key: the AHT fills
        assert f.aht
        start = time.perf_counter()
        blob = f.persist()
        g = ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"round trip took {elapsed:.2f} s"
        header = 48  # six 64-bit fields
        body = array("Q")
        body.frombytes(blob[header : header + 8 * f.num_buckets])
        assert body.tolist() == list(f._buckets)
        assert g.persist() == blob
        assert all(g.query(k) == f.query(k) for k in keys[:300] + [42])


class TestUncompressed:
    def test_lid_bits_steal_from_fingerprint(self):
        f = UncompressedLidFilter(100, DIST, bits_per_entry=10.0)
        assert f.lid_bits == 3  # ceil(log2(6))
        assert f.fp_bits == 7

    def test_no_false_negatives(self):
        f, pairs = build_filter(2000, cls=UncompressedLidFilter)
        for k, lid in pairs:
            assert lid in f.query(k)

    def test_fpr_grows_with_levels(self):
        """Eq 6: more levels -> wider integer LIDs -> higher FPR."""
        small = UncompressedLidFilter(100, LidDistribution(5, 3))
        large = UncompressedLidFilter(100, LidDistribution(5, 9))
        assert large.expected_fpr() > small.expected_fpr()

    def test_compressed_fpr_beats_uncompressed(self):
        """The headline comparison (Figure 14 B): same budget, Chucky's
        compression keeps fingerprints longer."""
        rng = random.Random(17)
        n = 5000
        comp, pairs = build_filter(n, seed=17)
        uncomp = UncompressedLidFilter(n, DIST, bits_per_entry=10.0)
        for k, lid in pairs:
            uncomp.insert(k, lid)
        negatives = [10**13 + i for i in range(3000)]
        fpr_c = sum(len(comp.query(k)) for k in negatives) / len(negatives)
        fpr_u = sum(len(uncomp.query(k)) for k in negatives) / len(negatives)
        assert fpr_c < fpr_u

    def test_size_accounting(self):
        f = UncompressedLidFilter(1000, DIST, bits_per_entry=10.0)
        assert f.size_bits == f.num_buckets * 4 * (f.lid_bits + f.fp_bits)


class TestSizing:
    def test_five_percent_over_provisioning(self):
        f = ChuckyFilter(9500, DIST)
        assert f.num_buckets * 4 >= 10000  # 9500 / 0.95

    def test_size_bits_scales_with_buckets(self):
        f = ChuckyFilter(1000, DIST, bits_per_entry=10.0)
        assert f.size_bits >= f.num_buckets * 40

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            _buckets_for_capacity(0, 4, 0.05)
        assert _buckets_for_capacity(1, 4, 0.05) == 2

    def test_size_bits_counts_the_overflow_table(self):
        """A bucket forced into a rare combination spills its
        fingerprints to the overflow table, and the footprint counts
        them: 32 bits of bucket index plus 64 per fingerprint."""
        f = ChuckyFilter(2000, DIST, bits_per_entry=10.0)
        bucket_bits = f.num_buckets * f.codebook.bucket_bits
        assert f.size_bits == bucket_bits
        for k in random.Random(11).sample(range(10**9), 600):
            f.insert(k, 1)  # all-youngest-level buckets are rare
        assert f.overflow and not f.aht
        overflow_bits = sum(32 + 64 * len(fps) for fps in f.overflow.values())
        assert overflow_bits > 0
        assert f.size_bits == bucket_bits + overflow_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            ChuckyFilter(0, DIST)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_random_maintenance_sequence(data):
    """Property: a random insert/update/remove trace keeps the filter
    exactly consistent with a multiset reference model (no false
    negatives, no maintenance misses)."""
    dist = LidDistribution(3, 4)
    f = ChuckyFilter(600, dist, bits_per_entry=10.0)
    reference: dict[int, list[int]] = {}
    keys = data.draw(
        st.lists(st.integers(0, 10**9), min_size=5, max_size=60, unique=True)
    )
    for step in range(data.draw(st.integers(10, 120))):
        key = data.draw(st.sampled_from(keys))
        lids = reference.get(key, [])
        action = data.draw(st.sampled_from(["insert", "update", "remove"]))
        if action == "insert" or not lids:
            lid = data.draw(st.integers(1, dist.num_sublevels))
            f.insert(key, lid)
            reference.setdefault(key, []).append(lid)
        elif action == "update":
            old = data.draw(st.sampled_from(lids))
            new = data.draw(st.integers(1, dist.num_sublevels))
            assert f.update_lid(key, old, new)
            lids.remove(old)
            lids.append(new)
        else:
            old = data.draw(st.sampled_from(lids))
            assert f.remove(key, old)
            lids.remove(old)
    for key, lids in reference.items():
        got = f.query(key)
        for lid in lids:
            assert lid in got
    assert f.maintenance_misses == 0


@functools.cache
def _probe_state(state):
    """A loaded filter in one state the probe treats specially, and the
    keys that reach that state. Probes never mutate, so one instance
    serves every example."""
    if state == "uncompressed":
        f, pairs = build_filter(600, cls=UncompressedLidFilter)
        for _ in range(12):  # > 2S versions of one key: the AHT fills
            f.insert(42, 6)
        return f, [42] + [k for k, _ in pairs[:40]]
    if state == "overflow":
        # Rare-combination buckets: every slot a version of one key, at
        # the LIDs of the most probable rare combination.
        f, pairs = build_filter(600)
        rare = f.codebook.rare[0]
        keys = [k for k, _ in pairs[:40]]
        for key in keys[:12]:
            digest, b1, _ = f._address(key)
            f._write_bucket(b1, [f._slot(digest, lid) for lid in rare])
        assert f.overflow
        return f, keys
    if state == "aht":
        f, pairs = build_filter(600)
        for _ in range(12):
            f.insert(42, 6)
        assert f.aht
        return f, [42] + [k for k, _ in pairs[:40]]
    if state == "partitioned":
        # Eight partitions: a batch's per-partition groups straddle the
        # bulk-hashing threshold, and one partition's AHT is non-empty.
        f = PartitionedChuckyFilter(2000, DIST, partition_capacity=256)
        rng = random.Random(5)
        draw = lid_sampler(rng)
        keys = rng.sample(range(10**12), 1500)
        for key in keys:
            f.insert(key, draw())
        for _ in range(12):
            f.insert(42, 6)
        assert f._partition_of(42).aht
        return f, [42] + keys[:40]
    # Self-paired buckets (b1 == b2), in test_edge_cases' geometry.
    dist = LidDistribution(3, 3)
    f = ChuckyFilter(200, dist, bits_per_entry=10.0)
    keys = [k for k in range(5000) if len(set(f.bucket_pair(k))) == 1][:20]
    for i, key in enumerate(keys):
        for lid in range(1, 2 + i % 3):
            f.insert(key, lid)
    return f, keys


def _probe_oracle(f, key):
    """Decode both buckets and the AHT entry in full and match them."""
    if isinstance(f, PartitionedChuckyFilter):
        f = f._partition_of(key)
    digest, b1, b2 = f._address(key)
    slots = f._read_bucket(b1) + f._read_bucket(b2)
    slots += f.aht.get(f._pair_key(b1, b2), [])
    return sorted({lid for lid, fp in slots if fp == digest >> f._fp_shifts[lid - 1]})


def _spent(before, after):
    """Counted memory I/Os per category between two snapshots."""
    return {
        category: count - before.get(category, 0)
        for category, count in after.items()
        if count != before.get(category, 0)
    }


#: Batch sizes on both sides of the bulk-hashing threshold (8 keys) and
#: of ``digest_pairs``' 256-key chunk.
_BATCH_SIZES = [0, 1, 7, 8, 9, 64, 256, 257]


class TestOneProbe:
    """``query`` and ``query_many`` are one probe loop: the same answers
    and the same counted I/Os, category by category, in every state,
    whichever way the batch was hashed."""

    @pytest.mark.parametrize(
        "state", ["overflow", "aht", "self-paired", "uncompressed", "partitioned"]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_query_many_is_query_per_key(self, state, data):
        f, reaching = _probe_state(state)
        key = st.one_of(st.sampled_from(reaching), st.integers(-(2**70), 2**70))
        if data.draw(st.booleans()):  # a non-int key: per-key hashing
            key = st.one_of(key, st.text(), st.binary())
        size = data.draw(st.sampled_from(_BATCH_SIZES))
        keys = data.draw(st.lists(key, min_size=size, max_size=size))
        snapshot = f.memory_ios.snapshot
        start = snapshot()
        many = f.query_many(keys)
        mid = snapshot()
        each = [f.query(key) for key in keys]
        end = snapshot()
        assert many == each
        assert _spent(start, mid) == _spent(mid, end)
        assert many == [_probe_oracle(f, key) for key in keys]

    def test_hashing_is_chosen_by_batch_size(self, monkeypatch):
        """A lone ``query`` never enters the SWAR hashing; a batch of 8
        or more keys is hashed by one ``digest_pairs`` call."""
        import repro.chucky.filter as filter_module

        f, keys = _probe_state("aht")
        bulk = []
        real = filter_module.digest_pairs
        monkeypatch.setattr(
            filter_module, "digest_pairs",
            lambda batch: bulk.append(len(batch)) or real(batch),
        )
        for key in keys:
            f.query(key)
        f.query_many(keys[:7])
        assert bulk == []
        f.query_many(keys[:8])
        f.query_many(keys)
        assert bulk == [8, len(keys)]

    def test_states_reach_their_paths(self):
        """Each state's reaching keys really take the special path."""
        f, keys = _probe_state("overflow")
        mem = f.memory_ios
        before = mem.get("filter_ovf"), mem.get("filter_dt")
        f.query_many(keys[:12])
        assert mem.get("filter_ovf") > before[0] and mem.get("filter_dt") > before[1]
        f, keys = _probe_state("self-paired")
        loads = f.memory_ios.get("filter")
        f.query_many(keys)
        assert f.memory_ios.get("filter") - loads == len(keys)
        for i, key in enumerate(keys):
            assert set(range(1, 2 + i % 3)) <= set(f.query(key))
