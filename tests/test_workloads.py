"""Workload generators and bulk loaders."""

import math
import random
from collections import Counter

import pytest

from repro.engine import EngineConfig, build_store
from repro.workloads.generators import (
    EULER_GAMMA,
    WORKLOAD_KINDS,
    UniformGenerator,
    ZipfianGenerator,
    churn_stream,
    denylist_stream,
    harmonic_approx,
    request_stream,
    ycsb,
    ycsb_b,
    zipf_over,
    zipf_pmf_checksum,
)
from repro.workloads.loaders import (
    fill_tree_to_levels,
    negative_keys,
    populate_store,
    sublevel_sample_keys,
)
from repro.workloads.ops import OP_KINDS


class TestUniform:
    def test_draws_from_population(self):
        gen = UniformGenerator([1, 2, 3], seed=0)
        assert set(gen.sample(100)) <= {1, 2, 3}

    def test_roughly_uniform(self):
        gen = UniformGenerator(list(range(10)), seed=0)
        counts = Counter(gen.sample(10000))
        assert max(counts.values()) < 3 * min(counts.values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UniformGenerator([])


class TestZipfian:
    def test_pmf_sums_to_one(self):
        assert zipf_pmf_checksum(1000) == pytest.approx(1.0)

    def test_rank_zero_is_hottest(self):
        gen = ZipfianGenerator(1000, seed=0)
        counts = Counter(gen.next_rank() for _ in range(20000))
        assert counts[0] == max(counts.values())

    def test_matches_theoretical_head_probability(self):
        gen = ZipfianGenerator(500, theta=0.99, seed=1)
        counts = Counter(gen.next_rank() for _ in range(40000))
        measured = counts[0] / 40000
        assert measured == pytest.approx(gen.probability_of_rank(0), rel=0.15)

    def test_skew_increases_with_theta(self):
        lo = ZipfianGenerator(1000, theta=0.5, seed=0)
        hi = ZipfianGenerator(1000, theta=0.99, seed=0)
        top_lo = sum(lo.probability_of_rank(r) for r in range(10))
        top_hi = sum(hi.probability_of_rank(r) for r in range(10))
        assert top_hi > top_lo

    def test_ranks_in_range(self):
        gen = ZipfianGenerator(50, seed=3)
        assert all(0 <= gen.next_rank() < 50 for _ in range(5000))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=0.0)

    def test_theta_one_boundary_accepted(self):
        # The classic Gray closed form diverges at theta=1 (alpha =
        # 1/(1-theta)); the log-harmonic zeta path takes over.
        gen = ZipfianGenerator(1000, theta=1.0, seed=2)
        ranks = [gen.next_rank() for _ in range(20000)]
        assert all(0 <= r < 1000 for r in ranks)
        counts = Counter(ranks)
        assert counts[0] == max(counts.values())
        measured = counts[0] / len(ranks)
        assert measured == pytest.approx(gen.probability_of_rank(0), rel=0.15)

    def test_theta_one_more_skewed_than_099(self):
        lo = ZipfianGenerator(1000, theta=0.99, seed=0)
        hi = ZipfianGenerator(1000, theta=1.0, seed=0)
        top_lo = sum(lo.probability_of_rank(r) for r in range(10))
        top_hi = sum(hi.probability_of_rank(r) for r in range(10))
        assert top_hi > top_lo

    def test_theta_one_pmf_sums_to_one(self):
        assert zipf_pmf_checksum(1000, theta=1.0) == pytest.approx(1.0)

    def test_harmonic_approx_bounds_zeta(self):
        for n in (100, 1000):
            exact = sum(1.0 / (i + 1) for i in range(n))
            assert harmonic_approx(n, 1.0) == pytest.approx(exact, rel=0.01)
            assert harmonic_approx(n, 1.0) == pytest.approx(
                math.log(n) + EULER_GAMMA
            )

    def test_zipf_over_decouples_key_order_from_heat(self):
        keys = list(range(1000, 2000))
        stream = zipf_over(keys, seed=4)
        sample = [next(stream) for _ in range(5000)]
        hottest = Counter(sample).most_common(1)[0][0]
        assert hottest in keys


class TestYcsbB:
    def test_mix_ratio(self):
        ops = list(ycsb_b(list(range(100)), 20000, seed=0))
        reads = sum(1 for op, _ in ops if op == "read")
        assert reads / len(ops) == pytest.approx(0.95, abs=0.01)

    def test_ops_are_read_or_update(self):
        ops = list(ycsb_b(list(range(10)), 100))
        assert {op for op, _ in ops} <= {"read", "update"}

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            list(ycsb_b([1], 10, read_fraction=2.0))


class TestYcsbFamily:
    KEYS = list(range(300))

    def test_mix_ratios(self):
        expected = {
            "ycsb-a": {"read": 0.50, "update": 0.50},
            "ycsb-c": {"read": 1.00},
            "ycsb-d": {"read": 0.95, "insert": 0.05},
            "ycsb-e": {"scan": 0.95, "insert": 0.05},
            "ycsb-f": {"read": 0.50, "rmw": 0.50},
        }
        for kind, mix in expected.items():
            ops = list(ycsb(kind, self.KEYS, 20000, seed=0))
            counts = Counter(op for op, _ in ops)
            assert set(counts) == set(mix), kind
            for op, fraction in mix.items():
                assert counts[op] / len(ops) == pytest.approx(
                    fraction, abs=0.01
                ), (kind, op)

    def test_inserts_are_fresh_keys(self):
        for kind in ("ycsb-d", "ycsb-e"):
            ops = list(ycsb(kind, self.KEYS, 5000, seed=1))
            inserted = [key for op, key in ops if op == "insert"]
            assert inserted, kind
            assert all(key > max(self.KEYS) for key in inserted)
            assert len(inserted) == len(set(inserted))  # never reused

    def test_ycsb_d_reads_skew_to_latest(self):
        keys = list(range(2000))
        ops = list(ycsb("ycsb-d", keys, 8000, seed=2))
        inserted = {key for op, key in ops if op == "insert"}
        reads = [key for op, key in ops if op == "read"]
        # The latest distribution reads recent keys: freshly inserted
        # keys must show up in the read stream far above their share of
        # the population.
        fresh_reads = sum(1 for key in reads if key in inserted)
        fresh_share = len(inserted) / (len(keys) + len(inserted))
        assert fresh_reads / len(reads) > 2 * fresh_share

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            list(ycsb("ycsb-b", self.KEYS, 10))  # B has its own generator


class TestChurnStream:
    KEYS = list(range(400))

    def test_live_set_stays_bounded(self):
        live = set()
        for op, key in churn_stream(self.KEYS, 20000, seed=0):
            if op == "insert":
                assert key not in live
                live.add(key)
            elif op == "delete":
                assert key in live  # never deletes a dead key
                live.discard(key)
        target = int(len(self.KEYS) * 0.5)
        assert abs(len(live) - target) <= 1

    def test_read_share_and_negative_mix(self):
        ops = list(
            churn_stream(self.KEYS, 20000, read_fraction=0.25, seed=1)
        )
        reads = sum(1 for op, _ in ops if op == "read")
        assert reads / len(ops) == pytest.approx(0.25, abs=0.01)
        live = set()
        negative = positive = 0
        for op, key in ops:
            if op == "insert":
                live.add(key)
            elif op == "delete":
                live.discard(key)
            elif key in live:
                positive += 1
            else:
                negative += 1
        # ~half the uniform reads land on dead keys: negative lookups.
        assert negative / (negative + positive) == pytest.approx(0.5, abs=0.1)

    def test_deterministic(self):
        a = list(churn_stream(self.KEYS, 1000, seed=5))
        assert a == list(churn_stream(self.KEYS, 1000, seed=5))
        assert a != list(churn_stream(self.KEYS, 1000, seed=6))

    def test_validation(self):
        with pytest.raises(ValueError):
            list(churn_stream([], 10))
        with pytest.raises(ValueError):
            list(churn_stream([1], 10, live_fraction=0.0))
        with pytest.raises(ValueError):
            list(churn_stream([1], 10, read_fraction=1.0))


class TestDenylistStream:
    KEYS = list(range(1000))

    def test_checks_dominate_and_are_mostly_negative(self):
        listed = set()
        checks = negative = 0
        for op, key in denylist_stream(self.KEYS, 20000, seed=0):
            if op == "insert":
                assert key not in listed
                listed.add(key)
            elif op == "delete":
                assert key in listed
                listed.discard(key)
            elif op == "update":
                assert key in listed
            else:
                checks += 1
                if key not in listed:
                    negative += 1
        assert checks / 20000 == pytest.approx(0.90, abs=0.01)
        # deny_fraction=0.05 → ~95% of admission checks are negative.
        assert negative / checks > 0.90
        assert len(listed) <= int(len(self.KEYS) * 0.05) + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            list(denylist_stream([], 10))
        with pytest.raises(ValueError):
            list(denylist_stream([1], 10, deny_fraction=0.0))
        with pytest.raises(ValueError):
            list(denylist_stream([1], 10, check_fraction=1.0))


class TestRequestStream:
    """The unified entry point the serving layer's loadgen replays."""

    KEYS = list(range(200))

    def test_every_kind_yields_valid_ops(self):
        for kind in WORKLOAD_KINDS:
            ops = list(request_stream(kind, self.KEYS, 500, seed=3))
            assert len(ops) == 500, kind
            assert {op for op, _ in ops} <= set(OP_KINDS), kind
            # Inserts (ycsb-d/e) mint fresh keys past the population.
            assert all(key >= 0 for _, key in ops), kind

    def test_legacy_kinds_unchanged(self):
        # The original three kinds still yield only read/update over the
        # fixed population — the draw sequences the seed baselines pinned.
        for kind in ("uniform", "zipf", "ycsb-b"):
            ops = list(request_stream(kind, self.KEYS, 500, seed=3))
            assert {op for op, _ in ops} <= {"read", "update"}
            assert all(key in range(200) for _, key in ops)

    def test_deterministic_per_seed(self):
        for kind in WORKLOAD_KINDS:
            a = list(request_stream(kind, self.KEYS, 300, seed=7))
            b = list(request_stream(kind, self.KEYS, 300, seed=7))
            c = list(request_stream(kind, self.KEYS, 300, seed=8))
            assert a == b, kind
            assert a != c, kind

    def test_read_fraction_respected(self):
        ops = list(
            request_stream("uniform", self.KEYS, 20000, read_fraction=0.8)
        )
        reads = sum(1 for op, _ in ops if op == "read")
        assert reads / len(ops) == pytest.approx(0.8, abs=0.01)

    def test_zipf_is_skewed_uniform_is_not(self):
        def head_mass(kind):
            ops = list(
                request_stream(kind, self.KEYS, 20000, theta=0.99, seed=1)
            )
            counts = Counter(key for _, key in ops)
            return sum(n for _, n in counts.most_common(10)) / len(ops)

        assert head_mass("zipf") > 2 * head_mass("uniform")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            list(request_stream("hotspot", self.KEYS, 10))

    def test_bad_read_fraction_rejected(self):
        with pytest.raises(ValueError):
            list(request_stream("uniform", self.KEYS, 10, read_fraction=1.5))


class TestLoaders:
    def make_store(self, levels=3):
        return build_store(EngineConfig.lazy_leveled(
            3, buffer_entries=8, block_entries=4, initial_levels=levels,
            policy="chucky", bits_per_entry=10,
        ))

    def test_fills_every_sublevel(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv)
        live = {s for s, _ in kv.tree.occupied_runs()}
        assert set(placement) == live
        assert len(live) == kv.tree.num_sublevels

    def test_sublevels_at_capacity(self):
        kv = self.make_store()
        fill_tree_to_levels(kv)
        for sublevel, run in kv.tree.occupied_runs():
            level = min(
                (sublevel - 1) // kv.config.runs_per_level + 1,
                kv.tree.num_levels,
            )
            assert run.num_entries == kv.tree.sublevel_capacity(level)

    def test_placement_is_ground_truth(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv)
        for sublevel, keys in placement.items():
            for key in keys[:5]:
                assert kv.tree.get_from_sublevel(sublevel, key) is not None

    def test_filter_sees_bulk_load(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv)
        for sublevel, keys in placement.items():
            for key in keys[:5]:
                assert sublevel in kv.policy.filter.query(key)

    def test_only_largest(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv, only_largest=True)
        last = kv.config.total_sublevels(kv.tree.num_levels)
        assert set(placement) == {last}

    def test_level_mismatch_rejected(self):
        kv = self.make_store(levels=2)
        with pytest.raises(ValueError):
            fill_tree_to_levels(kv, num_levels=5)

    def test_negative_keys_absent(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv)
        for key in negative_keys(placement, 50):
            assert kv.get(key) is None

    def test_sublevel_sample(self):
        kv = self.make_store()
        placement = fill_tree_to_levels(kv)
        sub = next(iter(placement))
        sample = sublevel_sample_keys(placement, sub, 3)
        assert len(sample) == 3
        assert set(sample) <= set(placement[sub])

    def test_populate_store(self):
        kv = build_store(EngineConfig.leveled(
            3, buffer_entries=8, block_entries=4, policy="none",
        ))
        populate_store(kv, list(range(40)))
        assert kv.get(17) == "value-17"
