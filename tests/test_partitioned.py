"""Vacuum-style partitioned Chucky filter (section 4.5 extension)."""

import random
from unittest import mock

import pytest

from repro.coding.distributions import LidDistribution
from repro.chucky.filter import ChuckyFilter
from repro.chucky.partitioned import PartitionedChuckyFilter
from repro.common.errors import FilterError

DIST = LidDistribution(5, 5)


def build(n=20000, partition_capacity=4096, seed=1):
    rng = random.Random(seed)
    filt = PartitionedChuckyFilter(
        n, DIST, bits_per_entry=10.0, partition_capacity=partition_capacity
    )
    probs = [float(p) for p in DIST.probabilities()]
    pairs = [
        (key, rng.choices(list(DIST.lids), weights=probs)[0])
        for key in rng.sample(range(1 << 60), n)
    ]
    for key, lid in pairs:
        filt.insert(key, lid)
    return filt, pairs


class TestPartitioning:
    def test_partition_count(self):
        filt = PartitionedChuckyFilter(20000, DIST, partition_capacity=4096)
        assert filt.num_partitions == 5  # ceil(20000 / 4096)

    def test_capacity_granularity_beats_power_of_two(self):
        """The Vacuum motivation: capacity adjusts in partition-sized
        steps instead of doubling."""
        just_over = PartitionedChuckyFilter(
            17000, DIST, partition_capacity=1024
        )
        doubled_slots = 2 ** (17000 - 1).bit_length()
        total_slots = sum(p.num_buckets * 4 for p in just_over.partitions)
        assert total_slots < doubled_slots

    def test_shared_codebook(self):
        filt = PartitionedChuckyFilter(10000, DIST, partition_capacity=2048)
        first = filt.partitions[0].codebook
        assert all(p.codebook is first for p in filt.partitions)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedChuckyFilter(0, DIST)
        with pytest.raises(ValueError):
            PartitionedChuckyFilter(100, DIST, partition_capacity=8)


class TestOperations:
    def test_no_false_negatives(self):
        filt, pairs = build()
        assert all(lid in filt.query(key) for key, lid in pairs)

    def test_update_and_remove(self):
        filt, pairs = build(n=5000)
        for key, lid in pairs[:1000]:
            new = min(lid + 1, DIST.num_sublevels)
            assert filt.update_lid(key, lid, new)
            assert new in filt.query(key)
        for key, lid in pairs[1000:2000]:
            assert filt.remove(key, lid)
            assert lid not in filt.query(key) or True  # fp collisions allowed
        assert filt.maintenance_misses == 0

    def test_fpr_matches_unpartitioned_model(self):
        filt, _ = build(n=20000)
        negatives = [(1 << 61) + i for i in range(3000)]
        fpr = sum(len(filt.query(k)) for k in negatives) / len(negatives)
        model = filt.codebook.expected_fpr() * filt.load_factor
        assert fpr == pytest.approx(model, rel=0.5)

    def test_query_many_probes_each_partition_once(self):
        """The batch is grouped by partition and each group is probed by
        one ``query_many``; answers come back in key order with the same
        counted I/Os, category by category, as the per-key loop."""
        filt, pairs = build(n=3000, partition_capacity=512)
        rng = random.Random(4)
        keys = [key for key, _ in rng.sample(pairs, 100)]
        keys += [rng.getrandbits(60) for _ in range(100)]
        rng.shuffle(keys)
        mem = filt.memory_ios
        start = mem.snapshot()
        with mock.patch.object(
            ChuckyFilter, "query_many", autospec=True,
            side_effect=ChuckyFilter.query_many,
        ) as batches:
            many = filt.query_many(keys)
        mid = mem.snapshot()
        each = [filt.query(key) for key in keys]
        assert many == each
        assert mem.diff(start) == {
            category: 2 * (count - start.get(category, 0))
            for category, count in mid.items()
        }
        touched = {filt.partition_index(key) for key in keys}
        assert batches.call_count == len(touched) == filt.num_partitions
        assert filt.query_many([]) == []

    def test_out_of_range_lid_refuses_the_whole_event(self):
        """A bad LID anywhere in an event lands none of its edits, in
        any partition — as ``ChuckyFilter.maintain_many`` refuses it —
        rather than only its own partition's share."""
        filt = PartitionedChuckyFilter(2000, DIST, partition_capacity=512)
        keys = random.Random(7).sample(range(1 << 60), 400)
        edits = [(key, None, 1) for key in keys[:199]]
        first = filt.partition_index(keys[0])
        bad = next(k for k in keys[199:] if filt.partition_index(k) != first)
        edits.append((bad, None, DIST.num_sublevels + 2))
        start = filt.memory_ios.snapshot()
        with pytest.raises(FilterError, match="out of range"):
            filt.maintain_many(edits)
        assert filt.num_entries == 0
        assert filt.memory_ios.diff(start) == {}
        single = ChuckyFilter(2000, DIST)
        with pytest.raises(FilterError, match="out of range"):
            single.maintain_many(edits)
        assert single.num_entries == 0

    def test_load_balanced(self):
        filt, _ = build(n=20000)
        assert filt.load_imbalance() < 1.25

    def test_num_entries_and_size(self):
        filt, pairs = build(n=8000, partition_capacity=2048)
        assert filt.num_entries == len(pairs)
        assert filt.size_bits >= filt.num_entries * 10
