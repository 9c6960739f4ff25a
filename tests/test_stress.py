"""Moderate end-to-end stress: long mixed workloads with growth,
deletes, scans and a mid-run crash, verified against a reference dict
at every checkpoint."""

import random

from repro.analysis.measured import collect_metrics
from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.lsm.config import lazy_leveling
from repro.workloads.ops import KeyModel, Op, apply


def test_long_mixed_workload_with_crash_midway():
    cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
    kv = KVStore(
        cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), durable=True
    )
    rng = random.Random(0xBEEF)
    model = KeyModel()
    universe = 1500

    def live() -> dict[int, str]:
        return {
            k: v for k, (v,) in model.expectations().items() if v is not None
        }

    def verify(store, sample=200):
        ref = live()
        keys = rng.sample(range(universe), sample)
        for key in keys:
            assert store.get(key) == ref.get(key), key
        lo = rng.randrange(universe - 100)
        assert dict(store.scan(lo, lo + 99)) == {
            k: v for k, v in ref.items() if lo <= k <= lo + 99
        }

    def mixed_ops(store, count):
        """Seeded deletes and puts; a put writes the store's update
        count at the time."""
        for _ in range(count):
            key = rng.randrange(universe)
            if rng.random() < 0.12:
                yield Op("delete", key)
            else:
                yield Op("update", key, f"v{store.updates}")

    for op in mixed_ops(kv, 6000):
        apply(kv, op)
        model.ack(op)
    verify(kv)
    assert kv.tree.num_levels >= 3  # the tree grew under load
    assert kv.policy.filter.maintenance_misses == 0

    # Crash in the middle, recover, keep going.
    state = kv.crash()
    kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10), state=state)
    verify(kv)

    for op in mixed_ops(kv, 6000):
        apply(kv, op)
        model.ack(op)
    verify(kv)
    assert kv.policy.filter.maintenance_misses == 0

    metrics = collect_metrics(kv)
    assert metrics.live_entries == len(live())
    # Space amplification stays bounded (lazy leveling: ~T/(T-1) + the
    # transient duplicates at smaller levels).
    assert metrics.space_amplification < 3.0


def test_negative_lookup_storm_counts_fpr():
    """Thousands of negative lookups: measured false positives stay in
    the Eq 16 ballpark end-to-end, with the store fully live."""
    from repro.analysis.fpr_models import fpr_chucky_model

    cfg = lazy_leveling(3, buffer_entries=8, block_entries=4)
    kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=10))
    rng = random.Random(1)
    for i in range(4000):
        kv.put(rng.randrange(1 << 40), f"v{i}")
    kv.flush()
    snap = kv.snapshot()
    probes = 4000
    for i in range(probes):
        kv.get((1 << 50) + i)
    measured = kv.false_positives_since(snap) / probes
    model = fpr_chucky_model(10, cfg.size_ratio, cfg.runs_per_level, 1)
    # The filter is partially loaded, so measured <= model comfortably.
    assert measured <= model * 1.5 + 0.01
