"""The adaptive-tuning subsystem: sensor, planner, actuator, controller.

The two load-bearing guarantees are tested here end to end:

* **Safety** — an in-flight filter migration never yields a false
  negative, and the post-swap store's counted I/Os are bit-identical to
  a store built from scratch under the new config.
* **No-op purity** — with tuning disabled (no controller attached, or a
  planner that always holds) every counted I/O is bit-identical to the
  untuned engine.

Plus the acceptance bar from the issue: on the grow-N drift scenario
the adaptive store's read cost lands within 10% of the best static
config in hindsight and beats the worst static config by >= 25%.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.analysis.fpr_models import (
    fpr_bloom_optimal,
    fpr_bloom_uniform,
    fpr_chucky_model,
)
from repro.engine.config import EngineConfig, build_store
from repro.engine.kvstore import IOSnapshot
from repro.engine.sharded import aggregate_snapshots, shards_of
from repro.filters import policy as policy_registry
from repro.filters.policy import (
    NoFilterPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.obs import Observability
from repro.tuning import (
    CostPlanner,
    FilterMigration,
    PlannerConfig,
    TuningConfig,
    TuningController,
    WorkloadSensor,
    filter_probe_ios,
    filter_update_ios,
    migrate_filter,
    model_fpr,
    resize_memtable,
    switch_merge_policy,
)
from repro.workloads.drift import apply_ops, grow_n_scenario, scenario


def _config(policy="bloom-standard", **kwargs):
    defaults = dict(
        size_ratio=3,
        buffer_entries=32,
        block_entries=16,
        policy=policy,
        bits_per_entry=10.0,
    )
    defaults.update(kwargs)
    return EngineConfig.leveled(**defaults)


def _load_even(store, n):
    """Insert n even keys (odd keys stay in-range negatives)."""
    for k in range(n):
        store.put(2 * k, f"v{2 * k}")
    store.flush()


def _snapshot_tuple(store):
    snap = store.snapshot()
    return (
        snap.storage_reads,
        snap.storage_writes,
        dict(snap.memory),
        snap.cache_hits,
        snap.cache_misses,
        snap.false_positives,
    )


# ----------------------------------------------------------------------
# Sensor
# ----------------------------------------------------------------------

def _script(store, fp_oracle=None):
    """One scripted mix over every read path: memtable hits, a key
    tombstoned in a run and one in the memtable, a TTL-expired key,
    ``get_with_stats``, a batched ``get_batch`` and two scans. Returns
    the test's own count of it: reads, writes, scans, hits (reads that
    returned a value) and, from ``fp_oracle`` (a twin store answering
    every point read with ``get_with_stats``), false positives."""
    count = dict(reads=0, writes=0, scans=0, hits=0, false_positives=0)

    def read(keys, values):
        count["reads"] += len(keys)
        count["hits"] += sum(value is not None for value in values)
        if fp_oracle is not None:
            for key, value in zip(keys, values):
                result = fp_oracle.get_with_stats(key)
                assert result.value == value and result.found == (
                    value is not None
                )
                count["false_positives"] += result.false_positives

    def write(op, *args, **kwargs):
        count["writes"] += 1
        for target in (store, fp_oracle):
            if target is not None:
                getattr(target, op)(*args, **kwargs)

    for k in range(0, 10, 2):
        write("delete", k)  # tombstones that reach a run
    for target in (store, fp_oracle):
        if target is not None:
            target.flush()
    write("delete", 10)  # a tombstone still in the memtable
    write("put", 1001, "gone", ttl=0)  # expired on arrival
    write("put", 1003, "fresh")
    singles = [1003, 0, 10, 1001, 12] + list(range(1, 40, 2))
    for key in singles:
        read([key], [store.get(key)])
    for key in (14, 15):
        result = store.get_with_stats(key)
        assert result.found == (result.value is not None)
        read([key], [result.value])
    batch = list(range(16, 48)) + [0, 10, 1001, 1003]
    read(batch, store.get_batch(batch))
    for lo, hi in ((0, 50), (100, 120)):
        count["scans"] += 1
        assert [k for k, _ in store.scan(lo, hi)] == [
            k for k in range(lo, hi + 1, 2) if k > 10
        ]
    return count


def _script_store(shards, obs):
    cfg = _config(bits_per_entry=3.0, shards=shards)
    store = build_store(cfg, observability=Observability() if obs else None)
    _load_even(store, 100)
    return store


class TestSensor:
    @pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_counter_window_equals_a_hand_count(self, shards, obs):
        store = _script_store(shards, obs)
        oracle = _script_store(shards, False)
        sensor = WorkloadSensor(store, window_ops=10_000)
        start = store.snapshot()
        count = _script(store, oracle)
        assert count["false_positives"] > 0  # 3 bits/entry: not vacuous
        assert sensor.window_ops_so_far == (
            count["reads"] + count["writes"] + count["scans"]
        )
        s = sensor.close_window()
        negatives = count["reads"] - count["hits"]
        assert (s.reads, s.writes, s.scans) == (
            count["reads"], count["writes"], count["scans"]
        )
        assert s.negative_fraction == negatives / count["reads"]
        assert s.observed_fpr == count["false_positives"] / negatives

        snap = store.snapshot()
        window = snap.since(start)
        assert (window.read_hits, window.scans) == (
            count["hits"], count["scans"]
        )
        assert IOSnapshot.from_dict(
            json.loads(json.dumps(snap.as_dict()))
        ) == snap
        doubled = aggregate_snapshots([snap, snap])
        assert (doubled.read_hits, doubled.scans) == (
            2 * snap.read_hits, 2 * snap.scans
        )
        # A router counts a scan once; each shard counts the scans it
        # served, so the shards' sum holds one per shard.
        per_shard = aggregate_snapshots(
            [shard.snapshot() for shard in shards_of(store)]
        )
        assert per_shard.read_hits == snap.read_hits
        assert per_shard.scans == shards * snap.scans

    def test_mix_negative_and_fpr_fractions(self):
        store = build_store(_config(bits_per_entry=3.0))
        _load_even(store, 100)
        sensor = WorkloadSensor(store, window_ops=10)
        # Six negatives and two hits; a hit's wasted probes count too.
        fps = sum(
            store.get_with_stats(key).false_positives
            for key in [*range(1, 13, 2), 2, 4]
        )
        store.put(7, "v7")
        list(store.scan(0, 8))
        assert sensor.window_filled
        s = sensor.close_window()
        assert s.ops == 10 and s.reads == 8 and s.writes == 1 and s.scans == 1
        assert s.read_fraction == 0.8
        assert s.negative_fraction == pytest.approx(6 / 8)
        assert s.observed_fpr == pytest.approx(fps / 6)

    def test_snapshot_diffs_and_window_rollover(self):
        store = build_store(_config(policy="chucky"))
        _load_even(store, 60)  # I/O before the window baseline
        sensor = WorkloadSensor(store, window_ops=4)
        for key in (0, 2, 4, 6):
            store.get(key)
        s = sensor.close_window()
        assert s.index == 0 and sensor.windows_closed == 1
        assert s.reads == 4 and s.negative_fraction == 0.0
        assert s.memory_ios_per_op > 0
        assert s.entries == 60 and s.num_levels >= 1
        assert s.filter_bits_per_entry > 0
        assert s.modelled_ns_per_op > 0
        s2 = sensor.close_window()
        assert s2.index == 1 and s2.reads == 0

    def test_sensing_never_touches_io_counters(self):
        store = build_store(_config(policy="chucky"))
        _load_even(store, 40)
        sensor = WorkloadSensor(store, window_ops=8)
        for _ in range(8):
            store.get(1)
        before = _snapshot_tuple(store)
        assert sensor.window_filled
        sensor.close_window()
        assert _snapshot_tuple(store) == before


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

def _summary(**overrides):
    from repro.tuning.sensor import WindowSummary

    fields = dict(
        index=3,
        ops=512,
        reads=512,
        writes=0,
        scans=0,
        read_fraction=1.0,
        write_fraction=0.0,
        scan_fraction=0.0,
        negative_fraction=1.0,
        observed_fpr=0.02,
        storage_reads_per_op=0.02,
        storage_writes_per_op=0.0,
        memory_ios_per_op=5.0,
        cache_hit_ratio=0.0,
        entries=1000,
        num_levels=3,
        num_runs=3,
        filter_size_bits=10000,
        filter_bits_per_entry=10.0,
        memtable_capacity=32,
        modelled_ns_per_op=800.0,
    )
    fields.update(overrides)
    return WindowSummary(**fields)


class TestPlannerModels:
    def test_model_fpr_routes_to_paper_equations(self):
        assert model_fpr("chucky", 10, 3, 4, 1, 1) == fpr_chucky_model(
            10, 3, 1, 1
        )
        assert model_fpr("bloom", 10, 3, 4, 1, 1) == fpr_bloom_optimal(
            10, 3, 1, 1
        )
        assert model_fpr(
            "bloom-standard", 10, 3, 4, 1, 1
        ) == fpr_bloom_uniform(10, 4, 1, 1)
        assert model_fpr("none", 10, 3, 4, 2, 1) == 7.0  # every run probed
        with pytest.raises(ValueError):
            model_fpr("nope", 10, 3, 4, 1, 1)

    def test_uniform_bloom_degrades_with_levels_chucky_does_not(self):
        bloom = [model_fpr("bloom-standard", 10, 3, L, 1, 1) for L in (2, 5)]
        chucky = [model_fpr("chucky", 10, 3, L, 1, 1) for L in (2, 5)]
        assert bloom[1] > bloom[0]
        assert chucky[1] == chucky[0]

    def test_probe_ios(self):
        assert filter_probe_ios("chucky", 5, 1, 1) == 2.0
        assert filter_probe_ios("none", 5, 1, 1) == 0.0
        assert filter_probe_ios("bloom", 5, 1, 1) == 5.0  # (L-1)K + Z

    def test_every_registered_policy_answers_all_three_models(self):
        """The models ride the registration; the values are the ones the
        planner's ``if policy == ...`` ladders gave at bits=10, T=3,
        L=4, K=2, Z=1 before they became lookups."""
        expected = {
            "bloom": (0.02681725309079285, 7, 7.5),
            "bloom-standard": (0.057347846277252715, 7, 7.5),
            "chucky": (0.027840584941885616, 2.0, 6.0),
            "chucky-uncompressed": (0.0546875, 2.0, 6.0),
            "none": (7.0, 0.0, 0.0),
            "xor": (0.02498617062113509, 21.0, 7.5),
        }
        for name in available_policies():
            assert (
                model_fpr(name, 10.0, 3, 4, 2, 1),
                filter_probe_ios(name, 4, 2, 1),
                filter_update_ios(name, 4, 3, 2, 1),
            ) == expected[name], name

    def test_policy_registered_without_models_cannot_be_scored(self):
        register_policy("test-unmodelled", lambda m: NoFilterPolicy())
        try:
            assert isinstance(make_policy("test-unmodelled"), NoFilterPolicy)
            for call in (
                lambda: model_fpr("test-unmodelled", 10, 3, 4, 1, 1),
                lambda: filter_probe_ios("test-unmodelled", 4, 1, 1),
                lambda: filter_update_ios("test-unmodelled", 4, 3, 1, 1),
            ):
                with pytest.raises(ValueError, match="no FPR model for policy"):
                    call()
        finally:
            policy_registry._POLICY_REGISTRY.pop("test-unmodelled", None)

    def test_crossover_cost_flips_with_level_count(self):
        planner = CostPlanner()
        engine = _config()
        s = _summary()
        for levels, expect_bloom_wins in ((2, True), (4, False)):
            bloom = planner.modelled_cost_ns(
                s, engine, levels, policy="bloom-standard"
            )
            chucky = planner.modelled_cost_ns(
                s, engine, levels, policy="chucky"
            )
            assert (bloom < chucky) == expect_bloom_wins, (levels, bloom, chucky)


class TestPlannerPlan:
    def test_cooldown_holds(self):
        planner = CostPlanner(PlannerConfig(cooldown_windows=2))
        decision = planner.plan(_summary(), _config(), 4, 1)
        assert decision.action == "hold" and "cooldown" in decision.reason

    def test_hysteresis_holds_below_threshold_migrates_above(self):
        planner = CostPlanner(PlannerConfig(hysteresis=0.10))
        hold = planner.plan(_summary(num_levels=2), _config(), 2, 5)
        assert hold.action == "hold"
        go = planner.plan(_summary(), _config(), 3, 5)
        assert go.action == "migrate-filter"
        assert go.target_policy == "chucky"
        assert go.win > 0.10
        assert go.best_cost_ns < go.current_cost_ns

    def test_write_heavy_windows_never_trigger_migration(self):
        planner = CostPlanner()
        s = _summary(
            read_fraction=0.0, write_fraction=1.0, reads=0, writes=512
        )
        assert planner.plan(s, _config(), 4, 5).action == "hold"

    def test_memtable_grow_and_restore(self):
        cfg = PlannerConfig(
            allow_filter_migration=False, allow_memtable_resize=True
        )
        planner = CostPlanner(cfg)
        engine = _config()
        grow = planner.plan(
            _summary(read_fraction=0.2, write_fraction=0.8),
            engine, 3, 5, memtable_capacity=32,
        )
        assert grow.action == "resize-memtable" and grow.target_memtable == 64
        restore = planner.plan(
            _summary(), engine, 3, 5, memtable_capacity=64
        )
        assert restore.action == "resize-memtable"
        assert restore.target_memtable == 32


# ----------------------------------------------------------------------
# Actuator: migration property tests (issue satellite 4)
# ----------------------------------------------------------------------

class TestFilterMigration:
    def test_in_flight_migration_never_false_negative(self):
        store = build_store(_config())
        _load_even(store, 600)
        migration = FilterMigration(store, "chucky", 10.0)
        rng = random.Random(5)
        steps = 0
        while not migration.step():
            steps += 1
            for _ in range(10):  # interrogate mid-build, every step
                k = 2 * rng.randrange(600)
                assert store.get(k) == f"v{k}"
                assert store.get(2 * rng.randrange(600) + 1) is None
        assert migration.done and steps >= 1
        assert store.policy is migration.new_policy
        for k in range(0, 1200, 2):
            assert store.get(k) == f"v{k}"

    def test_concurrent_writes_restart_the_build(self):
        store = build_store(_config())
        _load_even(store, 200)
        migration = FilterMigration(store, "chucky", 10.0)
        migration.step()
        # Land a flush under the build: the manifest changes, the build
        # must restart and still cover the new runs at swap time.
        for k in range(1000, 1080, 2):
            store.put(k, f"v{k}")
        store.flush()
        migration.run()
        assert migration.restarts >= 1
        for k in list(range(0, 400, 2)) + list(range(1000, 1080, 2)):
            assert store.get(k) == f"v{k}"
        assert store.get(999) is None

    def test_post_swap_ios_bit_identical_to_fresh_build(self):
        migrated = build_store(_config("bloom-standard"))
        _load_even(migrated, 300)
        migrate_filter(migrated, "chucky", 10.0)
        fresh = build_store(_config("chucky"))
        _load_even(fresh, 300)

        rng = random.Random(7)
        reads = [
            2 * rng.randrange(300) + (1 if rng.random() < 0.5 else 0)
            for _ in range(2000)
        ]
        base_m, base_f = _snapshot_tuple(migrated), _snapshot_tuple(fresh)
        for k in reads:
            assert migrated.get(k) == fresh.get(k)
        diff_m = _diff(_snapshot_tuple(migrated), base_m)
        diff_f = _diff(_snapshot_tuple(fresh), base_f)
        assert diff_m == diff_f

    def test_migration_reads_ride_uncounted_storage_pass(self):
        store = build_store(_config())
        _load_even(store, 300)
        before = store.snapshot()
        migrate_filter(store, "chucky", 10.0)
        after = store.snapshot()
        assert after.storage_reads == before.storage_reads
        # ... but the new filter's construction memory I/Os are counted.
        assert sum(after.memory.values()) > sum(before.memory.values())


def _diff(now, base):
    mem = {
        k: now[2][k] - base[2].get(k, 0)
        for k in now[2]
        if now[2][k] - base[2].get(k, 0)  # drop zero deltas: a counter
        # merely *existing* at 0 is not an I/O difference
    }
    return (
        now[0] - base[0],
        now[1] - base[1],
        mem,
        now[3] - base[3],
        now[4] - base[4],
        now[5] - base[5],
    )


class TestActuator:
    def test_resize_memtable_clamps_to_sublevel_capacity(self):
        store = build_store(_config())
        limit = store.tree.sublevel_capacity(1)
        assert resize_memtable(store, 10_000) == limit
        assert store.memtable.capacity == limit
        assert resize_memtable(store, 0) == 1

    def test_switch_merge_policy_preserves_data_and_geometry(self):
        config = _config(policy="chucky")
        store = build_store(config)
        _load_even(store, 250)
        for k in range(0, 40, 2):
            store.delete(k)
        tiered = replace(
            config, runs_per_level=2, runs_at_last_level=2
        )
        switch_merge_policy(store, tiered)
        assert store.tree.config.runs_per_level == 2
        for k in range(40, 500, 2):
            assert store.get(k) == f"v{k}"
        for k in range(0, 40, 2):
            assert store.get(k) is None
        assert [k for k, _ in store.scan(100, 120)] == list(range(100, 121, 2))
        store.put(9999, "after")  # the switched tree keeps working
        store.flush()
        assert store.get(9999) == "after"


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------

class TestController:
    def test_disabled_tuning_is_bit_identical(self):
        phases = scenario("phase-shift", seed=3)
        plain = build_store(_config(policy="chucky"))
        sensed_cfg = _config(policy="chucky")
        sensed = build_store(sensed_cfg)
        # hysteresis nothing can clear: the controller is polled after
        # every op and plans every window but never actuates.
        controller = TuningController(
            sensed, sensed_cfg,
            TuningConfig(
                window_ops=64, planner=PlannerConfig(hysteresis=1e9)
            ),
        )
        for phase in phases:
            apply_ops(plain, phase.ops)
            apply_ops(sensed, phase.ops, controller.poll)
        assert _snapshot_tuple(plain) == _snapshot_tuple(sensed)
        assert controller.sensor.windows_closed > 10
        assert all(d.action == "hold" for d in controller.decision_log)

    def test_grow_n_adaptive_beats_static_in_hindsight(self):
        """The issue's acceptance bar: adaptive read cost within 10% of
        the best static config, and >= 25% better than the worst."""
        phases = grow_n_scenario(load_phases=6, seed=0)

        def read_cost(policy, adaptive):
            cfg = _config(policy=policy)
            store = build_store(cfg)
            controller = TuningController(
                store, cfg, TuningConfig(window_ops=256)
            )
            poll = controller.poll if adaptive else None
            cost = 0.0
            for phase in phases:
                before = store.snapshot()
                apply_ops(store, phase.ops, poll)
                after = store.snapshot()
                if phase.name.startswith("read"):
                    cost += cfg.cost_model.total_cost(
                        sum(after.memory.values())
                        - sum(before.memory.values()),
                        after.storage_reads - before.storage_reads,
                        0,
                    )
            return cost, controller

        adaptive, controller = read_cost("bloom-standard", True)
        statics = {
            policy: read_cost(policy, False)[0]
            for policy in ("bloom-standard", "bloom", "chucky")
        }
        best, worst = min(statics.values()), max(statics.values())
        applied = controller.applied_decisions()
        assert [d.action for d in applied] == ["migrate-filter"]
        assert applied[0].target_policy == "chucky"
        assert adaptive <= 1.10 * best, (adaptive, statics)
        assert adaptive <= 0.75 * worst, (adaptive, statics)

    def test_sharded_store_migrates_every_shard(self):
        cfg = _config(shards=3, buffer_entries=16)
        store = build_store(cfg)
        for k in range(0, 400, 2):
            store.put(k, f"v{k}")
        store.flush()
        migrate_filter(store, "chucky", 10.0)
        assert all(
            type(s.policy).__name__ == "ChuckyPolicy" for s in store.shards
        )
        for k in range(0, 400, 2):
            assert store.get(k) == f"v{k}"

    def test_poll_decides_between_operations(self):
        """Operations alone never plan or actuate; the next poll closes
        the filled window and applies its decision at once."""
        cfg = _config()
        store = build_store(cfg)
        _load_even(store, 600)
        controller = TuningController(store, cfg, TuningConfig(window_ops=128))
        rng = random.Random(2)
        for _ in range(1000):
            store.get(2 * rng.randrange(600) + 1)
        assert controller.decision_log == []
        assert controller.effective_config.policy == "bloom-standard"
        decision = controller.poll()
        assert decision.action == "migrate-filter" and decision.applied
        assert decision.window == 0
        assert controller.effective_config.policy == "chucky"
        assert controller.status()["applied"] == 1
        assert controller.poll() is None  # the next window is empty

    def test_controller_metrics_and_spans(self):
        obs = Observability(trace_ring=20000)
        cfg = _config()
        store = build_store(cfg, observability=obs)
        controller = TuningController(
            store, cfg, TuningConfig(window_ops=64), observability=obs
        )
        _load_even(store, 400)
        controller.poll()
        rng = random.Random(4)
        for _ in range(1200):
            store.get(2 * rng.randrange(400) + 1)
            controller.poll()
        windows = obs.registry.counter("tuning_windows_total", "").value
        assert windows == controller.sensor.windows_closed > 0
        assert obs.registry.counter("tuning_migrations_total", "").value == 1
        names = {span.name for span in obs.tracer.recent(20000)}
        assert {"tuning_plan", "tuning_apply"} <= names

    def test_unpolled_loop_stays_frozen(self):
        cfg = _config()
        store = build_store(cfg)
        controller = TuningController(store, cfg, TuningConfig(window_ops=8))
        for k in range(0, 80, 2):
            store.put(k, f"v{k}")
            controller.poll()
        closed = controller.sensor.windows_closed
        assert closed == 5
        for k in range(0, 80, 2):
            store.get(k)
        assert controller.sensor.windows_closed == closed


#: Applied decisions ``(window, action, target policy)`` per drift
#: scenario, start policy and shard count (leveled, T=3, buffer 32,
#: block 16, M=10, 256-op windows, seed 0), as measured when the loop
#: was still fed by a per-operation hook inside the store. Counter
#: windows close at the same operations with the same planner inputs,
#: so the decisions may not move.
_DECISIONS = {
    ("grow-n", "bloom-standard", 1): [(9, "migrate-filter", "chucky")],
    ("grow-n", "bloom-standard", 3): [(24, "migrate-filter", "chucky")],
}


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("policy", ["bloom-standard", "chucky"])
@pytest.mark.parametrize(
    "name", ["grow-n", "phase-shift", "skew-shift", "delete-churn"]
)
def test_drift_decision_log_is_pinned(name, policy, shards):
    cfg = _config(policy=policy, shards=shards)
    store = build_store(cfg)
    controller = TuningController(store, cfg, TuningConfig(window_ops=256))
    for phase in scenario(name, seed=0):
        apply_ops(store, phase.ops, controller.poll)
    applied = [
        (d.window, d.action, d.target_policy)
        for d in controller.applied_decisions()
    ]
    assert applied == _DECISIONS.get((name, policy, shards), [])
