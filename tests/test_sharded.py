"""ShardedKVStore: routing, merge scans, batching, crash/recover,
snapshot aggregation, and per-shard observability."""

import random

from repro.chucky.policy import ChuckyPolicy
from repro.engine import (
    EngineConfig,
    IOSnapshot,
    KVStore,
    ShardedCrashState,
    ShardedKVStore,
    aggregate_snapshots,
    build_store,
    recover_store,
    shard_of,
    shards_of,
)
from repro.lsm.config import LSMConfig
from repro.obs import Observability, registry_to_dict

SHARDS = 4


def small_config(**overrides):
    fields = dict(size_ratio=3, buffer_entries=8, block_entries=4,
                  shards=SHARDS)
    fields.update(overrides)
    return EngineConfig(**fields)


def mixed_ops(ops=2000, universe=500, seed=13):
    rng = random.Random(seed)
    for i in range(ops):
        key = rng.randrange(universe)
        if rng.random() < 0.1:
            yield ("delete", key, None)
        else:
            yield ("put", key, f"v{i}")


def apply_ops(store, ops):
    for op, key, value in ops:
        if op == "delete":
            store.delete(key)
        else:
            store.put(key, value)


class TestRouting:
    def test_stable_pure_function(self):
        first = [shard_of(k, SHARDS) for k in range(1000)]
        second = [shard_of(k, SHARDS) for k in range(1000)]
        assert first == second

    def test_all_shards_used(self):
        assert set(shard_of(k, SHARDS) for k in range(1000)) == set(range(SHARDS))

    def test_single_shard_routes_everything_to_zero(self):
        assert all(shard_of(k, 1) == 0 for k in range(100))

    def test_shard_for_agrees_with_shard_of(self):
        store = build_store(small_config())
        for key in range(200):
            assert store.shard_for(key) is store.shards[shard_of(key, SHARDS)]

    def test_stable_across_recover(self):
        cfg = small_config(durable=True)
        store = build_store(cfg)
        for key in range(300):
            store.put(key, f"v{key}")
        before = [shard_of(k, SHARDS) for k in range(300)]
        recovered = recover_store(store.crash(), cfg)
        for key in range(300):
            owner = recovered.shard_for(key)
            assert owner is recovered.shards[before[key]]
            assert owner.get(key) == f"v{key}"


class TestReadIdentity:
    """Acceptance: a 4-shard store returns byte-identical results to a
    single store, and each shard's I/O matches a standalone store fed
    the same key subset."""

    def test_reads_match_single_store(self):
        ops = list(mixed_ops())
        sharded = build_store(small_config())
        single = build_store(small_config(shards=1))
        apply_ops(sharded, ops)
        apply_ops(single, ops)
        reads_sharded = [sharded.get(k) for k in range(500)]
        reads_single = [single.get(k) for k in range(500)]
        assert reads_sharded == reads_single

    def test_per_shard_io_matches_standalone(self):
        """Routing adds no I/O: every shard's counted I/Os equal those
        of a standalone KVStore that received exactly that shard's
        slice of the op stream."""
        ops = list(mixed_ops())
        sharded = build_store(small_config())
        standalones = [
            KVStore(
                LSMConfig(size_ratio=3, buffer_entries=8, block_entries=4),
                filter_policy=ChuckyPolicy(bits_per_entry=10.0),
            )
            for _ in range(SHARDS)
        ]
        apply_ops(sharded, ops)
        for op, key, value in ops:
            target = standalones[shard_of(key, SHARDS)]
            if op == "delete":
                target.delete(key)
            else:
                target.put(key, value)
        for key in range(500):
            assert sharded.get(key) == standalones[shard_of(key, SHARDS)].get(key)
        for shard, standalone in zip(sharded.shards, standalones):
            assert shard.snapshot() == standalone.snapshot()


class TestScan:
    def test_sorted_and_tombstone_free(self):
        sharded = build_store(small_config())
        reference = {}
        for op, key, value in mixed_ops():
            if op == "delete":
                sharded.delete(key)
                reference.pop(key, None)
            else:
                sharded.put(key, value)
                reference[key] = value
        got = list(sharded.scan(50, 450))
        expected = sorted(
            (k, v) for k, v in reference.items() if 50 <= k <= 450
        )
        assert got == expected
        keys = [k for k, _ in got]
        assert keys == sorted(keys)

    def test_deleted_key_suppressed_across_flush(self):
        sharded = build_store(small_config())
        for key in range(100):
            sharded.put(key, f"v{key}")
        sharded.flush()
        sharded.delete(42)
        assert 42 not in dict(sharded.scan(0, 99))
        assert len(list(sharded.scan(0, 99))) == 99

    def test_empty_range(self):
        sharded = build_store(small_config())
        sharded.put(5, "x")
        assert list(sharded.scan(100, 200)) == []


class TestBatches:
    def test_put_batch_visible_and_ordered(self):
        sharded = build_store(small_config())
        items = [(i, f"b{i}") for i in range(120)]
        sharded.put_batch(items)
        assert sharded.get_batch([k for k, _ in items]) == [
            v for _, v in items
        ]

    def test_get_batch_preserves_caller_order(self):
        sharded = build_store(small_config())
        for key in range(60):
            sharded.put(key, f"v{key}")
        keys = [17, 3, 59, 3, 41, 999]  # dup + miss included
        assert sharded.get_batch(keys) == [
            "v17", "v3", "v59", "v3", "v41", None
        ]

    def test_put_batch_groups_by_shard(self):
        """Each shard's updates counter advances by exactly its group
        size — the batch was not sprayed item-by-item elsewhere."""
        sharded = build_store(small_config())
        items = [(i, f"b{i}") for i in range(200)]
        sharded.put_batch(items)
        for index, shard in enumerate(sharded.shards):
            expected = sum(1 for k, _ in items if shard_of(k, SHARDS) == index)
            assert shard.updates == expected

    def test_last_write_wins_within_batch(self):
        sharded = build_store(small_config())
        sharded.put_batch([(7, "first"), (7, "second")])
        assert sharded.get(7) == "second"


class TestShardsOf:
    def test_stores_and_crash_states(self):
        cfg = small_config(durable=True)
        sharded = build_store(cfg)
        single = build_store(cfg.with_shards(1))
        assert shards_of(sharded) == sharded.shards
        assert shards_of(single) == [single]
        assert not hasattr(single, "shards")
        state = sharded.crash()
        assert shards_of(state) == list(state.shards)
        lone = single.crash()
        assert shards_of(lone) == [lone]


class TestCrashRecover:
    def test_round_trip_all_shards(self):
        cfg = small_config(durable=True)
        store = build_store(cfg)
        reference = {}
        for op, key, value in mixed_ops(ops=1500):
            if op == "delete":
                store.delete(key)
                reference.pop(key, None)
            else:
                store.put(key, value)
                reference[key] = value
        state = store.crash()
        assert isinstance(state, ShardedCrashState)
        assert len(state.shards) == SHARDS
        recovered = recover_store(state, cfg)
        assert isinstance(recovered, ShardedKVStore)
        for key in range(500):
            assert recovered.get(key) == reference.get(key)

    def test_recover_preserves_unflushed_tail(self):
        cfg = small_config(durable=True)
        store = build_store(cfg)
        store.put_batch([(i, f"v{i}") for i in range(6)])  # < buffer, unflushed
        recovered = recover_store(store.crash(), cfg)
        assert [recovered.get(i) for i in range(6)] == [
            f"v{i}" for i in range(6)
        ]

    def test_shard_count_mismatch_rejected(self):
        cfg = small_config(durable=True)
        store = build_store(cfg)
        store.put(1, "a")
        state = store.crash()
        try:
            recover_store(state, cfg.with_shards(2))
        except ValueError as err:
            assert "2" in str(err)
        else:
            raise AssertionError("mismatched shard count must be rejected")


class TestAggregation:
    def test_aggregate_equals_sum_of_shards(self):
        """A router's snapshot is one IOSnapshot: the field-wise sum of
        its shards' (memory categories key-wise)."""
        sharded = build_store(small_config())
        apply_ops(sharded, mixed_ops())
        for key in range(300):
            sharded.get(key)
        agg = sharded.snapshot()
        shard_snaps = [shard.snapshot() for shard in sharded.shards]
        assert type(agg) is IOSnapshot
        assert agg == aggregate_snapshots(shard_snaps)
        assert agg.queries == sum(s.queries for s in shard_snaps) == 300
        for field_name in (
            "storage_reads", "storage_writes", "queries", "updates",
            "false_positives", "cache_hits", "cache_misses",
        ):
            assert getattr(agg, field_name) == sum(
                getattr(s, field_name) for s in shard_snaps
            )
        assert set(agg.memory) == {c for s in shard_snaps for c in s.memory}
        for category, count in agg.memory.items():
            assert count == sum(
                s.memory.get(category, 0) for s in shard_snaps
            )

    def test_latency_since_sums_shards(self):
        sharded = build_store(small_config())
        apply_ops(sharded, mixed_ops())
        snap = sharded.snapshot()
        shard_snaps = [shard.snapshot() for shard in sharded.shards]
        for key in range(200):
            sharded.get(key)
        per_shard = sharded.shard_latencies(shard_snaps)
        agg = sharded.latency_since(snap)
        assert agg.total_ns > 0
        assert agg.total_ns == sum(lat.total_ns for lat in per_shard)
        per_op = sharded.latency_since(snap, operations=200)
        assert per_op.total_ns * 200 == agg.total_ns

    def test_summed_window_prices_exactly_as_the_shards(self):
        """Counts are integers and the model multiplies them by
        constants, so pricing the summed window is bit-identical to
        summing per-shard prices, component by component — as are the
        window's memory I/Os and false positives."""
        sharded = build_store(small_config(cache_blocks=4))
        apply_ops(sharded, mixed_ops())
        snap = sharded.snapshot()
        shard_snaps = [shard.snapshot() for shard in sharded.shards]
        apply_ops(sharded, mixed_ops(ops=400, seed=5))
        for key in range(300):
            sharded.get(key)
        agg = sharded.latency_since(snap)
        per_shard = sharded.shard_latencies(shard_snaps)
        for name in (
            "filter_ns", "memtable_ns", "fence_ns", "storage_ns", "other_ns"
        ):
            assert getattr(agg, name) == sum(
                getattr(lat, name) for lat in per_shard
            )
        assert agg.storage_ns > 0 and agg.filter_ns > 0
        memory: dict = {}
        for shard, shard_snap in zip(sharded.shards, shard_snaps):
            for category, count in shard.memory_ios_since(shard_snap).items():
                memory[category] = memory.get(category, 0) + count
        assert sharded.memory_ios_since(snap) == memory
        assert sharded.false_positives_since(snap) == sum(
            shard.false_positives_since(shard_snap)
            for shard, shard_snap in zip(sharded.shards, shard_snaps)
        )

    def test_one_shard_router_reads_like_its_store(self):
        store = build_store(small_config(shards=1))
        router = ShardedKVStore([store])
        router.put(1, "a")
        router.flush()
        assert router.snapshot() == store.snapshot()
        assert router.snapshot().storage_writes > 0
        assert router.snapshot().updates == 1
        assert router.shard_for(1) is store
        assert router.cost_model is store.cost_model

    def test_counters_sum(self):
        sharded = build_store(small_config())
        apply_ops(sharded, mixed_ops())
        for key in range(100):
            sharded.get(key)
        assert sharded.queries == sum(s.queries for s in sharded.shards) == 100
        assert sharded.updates == sum(s.updates for s in sharded.shards)
        assert sharded.num_entries == sum(
            s.num_entries for s in sharded.shards
        )

    def test_imbalance_near_one_for_uniform_keys(self):
        sharded = build_store(small_config())
        for key in range(4000):
            sharded.put(key, "x")
        entries = sharded.entries_per_shard()
        mean = sum(entries) / len(entries)
        assert sharded.imbalance == max(entries) / mean
        assert 1.0 <= sharded.imbalance < 1.5

    def test_imbalance_empty_store(self):
        assert build_store(small_config()).imbalance == 0.0


class TestShardedObservability:
    def test_per_shard_and_aggregate_metrics(self):
        obs = Observability()
        sharded = build_store(small_config(shards=2), observability=obs)
        for key in range(100):
            sharded.put(key, f"v{key}")
        for key in range(100):
            sharded.get(key)
        artifact = registry_to_dict(obs.registry)
        counters = artifact["counters"]
        gauges = artifact["gauges"]
        assert "shard0_kv_reads_total" in counters
        assert "shard1_kv_reads_total" in counters
        assert gauges["kv_shards"] == 2
        assert gauges["agg_kv_reads_total"] == 100
        assert gauges["agg_kv_reads_total"] == (
            counters["shard0_kv_reads_total"]
            + counters["shard1_kv_reads_total"]
        )
        assert "shard_imbalance" in gauges
        assert "shard_entries_max" in gauges
        assert "shard_entries_mean" in gauges

    def test_rollup_sums_counts_and_recomputes_ratios(self):
        """Per-shard ratios are not summed: the store-wide cache hit
        ratio and filter bits per entry come from the summed counts,
        and a level count is not rolled up at all."""
        obs = Observability()
        sharded = build_store(
            small_config(buffer_entries=64, cache_blocks=64),
            observability=obs,
        )
        for key in range(4000):
            sharded.put(key, f"v{key}")
        for key in range(4000):
            sharded.get(key)
        gauges = registry_to_dict(obs.registry)["gauges"]
        hits = sum(s.tree.cache.hits for s in sharded.shards)
        misses = sum(s.tree.cache.misses for s in sharded.shards)
        assert hits > 0 and misses > 0
        assert gauges["agg_cache_hits"] == hits
        assert gauges["agg_cache_misses"] == misses
        assert 0.0 <= gauges["agg_cache_hit_ratio"] <= 1.0
        assert gauges["agg_cache_hit_ratio"] == hits / (hits + misses)
        bits = sum(s.policy.size_bits for s in sharded.shards)
        stored = sum(s.tree.num_entries for s in sharded.shards)
        assert gauges["agg_filter_size_bits"] == bits
        assert gauges["agg_filter_bits_per_entry"] == bits / stored
        assert gauges["agg_store_entries"] == 4000
        assert "agg_store_levels" not in gauges
        assert not any(
            name.startswith("agg_chucky_codebook_") for name in gauges
        )

    def test_rollup_follows_a_handoff(self):
        """A shard attached under a staging prefix counts and a detached
        one does not — the roll-up walks the live shards, not names."""
        from repro.cluster.store import ShardSubsetStore
        from repro.engine import build_shard

        config = small_config(shards=1, durable=True)
        obs = Observability()
        store = ShardSubsetStore(
            {i: build_shard(config, obs, f"shard{i}_") for i in (0, 2, 3)},
            num_global=SHARDS,
            observability=obs,
        )
        store.add_shard(1, build_shard(config, obs, "staging1_"))
        store.remove_shard(0)
        hosted = [k for k in range(1000) if shard_of(k, SHARDS) != 0][:101]
        for key in hosted:
            store.put(key, f"v{key}")
        gauges = registry_to_dict(obs.registry)["gauges"]
        assert store.num_entries == 101
        assert gauges["agg_store_entries"] == 101
        assert gauges["agg_kv_writes_total"] == 101
        for shard_id in store.shard_ids:
            store.remove_shard(shard_id)
        gauges = registry_to_dict(obs.registry)["gauges"]
        assert gauges["agg_store_entries"] == 0
        assert gauges["agg_kv_writes_total"] == 0

    def test_spans_carry_shard_index(self):
        obs = Observability()
        sharded = build_store(small_config(shards=2), observability=obs)
        for key in range(20):
            sharded.put(key, "x")
        for key in range(20):
            sharded.get(key)
        spans = sharded.recent_spans(10)
        assert spans
        assert all("shard" in span.attrs for span in spans)
        assert {span.attrs["shard"] for span in sharded.recent_spans()} == {0, 1}
        starts = [span.start_ns for span in spans]
        assert starts == sorted(starts)

    def test_disabled_obs_costs_nothing(self):
        sharded = build_store(small_config())
        assert not sharded.obs.enabled
        for shard in sharded.shards:
            assert not shard.obs.enabled


class TestMeasuredMetricsSharded:
    def test_collect_metrics_accepts_sharded_store(self):
        from repro.analysis.measured import collect_metrics

        sharded = build_store(small_config())
        apply_ops(sharded, mixed_ops())
        snap = sharded.snapshot()
        for key in range(200):
            sharded.get(key)
        metrics = collect_metrics(sharded)
        assert metrics.stored_entries == sum(
            shard.tree.num_entries for shard in sharded.shards
        )
        assert metrics.num_runs == sum(
            len(shard.tree.occupied_runs()) for shard in sharded.shards
        )
        assert metrics.num_levels == max(
            shard.tree.num_levels for shard in sharded.shards
        )
