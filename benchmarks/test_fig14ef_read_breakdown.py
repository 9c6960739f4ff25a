"""Figures 14 E and F: end-to-end read latency, broken into storage,
fence-pointer, memtable and filter components.

Part E — uniform reads, target data in storage: the SSD I/O dominates,
but the Bloom-filter probes still impose a visible overhead that Chucky
removes.

Part F — Zipfian (parameter ~1) reads with a block cache holding the
hot set: storage I/Os mostly vanish, the Bloom filters become *the*
bottleneck (they must be traversed before the cached block can even be
identified), and Chucky's two-bucket lookup eliminates it.

T=4, L=5, variants tiering / lazy-leveling / leveling.
"""

import random

from _support import fmt_row, report

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy
from repro.lsm.config import LSMConfig
from repro.workloads.generators import zipf_over
from repro.workloads.loaders import fill_tree_to_levels

T, L = 4, 5
READS = 2500

VARIANTS = {
    "tiering": (T - 1, T - 1),
    "lazy-leveling": (T - 1, 1),
    "leveling": (1, 1),
}
POLICIES = {
    "optimal blocked BFs": lambda: BloomFilterPolicy(
        10, variant="blocked", allocation="optimal"
    ),
    "Chucky": lambda: ChuckyPolicy(bits_per_entry=10),
}


def build_store(k, z, policy_factory, cache_blocks):
    cfg = LSMConfig(
        size_ratio=T,
        runs_per_level=k,
        runs_at_last_level=z,
        buffer_entries=4,
        block_entries=8,
        initial_levels=L,
    )
    kv = KVStore(cfg, filter_policy=policy_factory(), cache_blocks=cache_blocks)
    placement = fill_tree_to_levels(kv, seed=k * 10 + z)
    all_keys = [key for keys in placement.values() for key in keys]
    return kv, all_keys


def measure(kv, key_stream):
    snap = kv.snapshot()
    n = 0
    for key in key_stream:
        kv.get(key)
        n += 1
    return kv.latency_since(snap, operations=n)


def run_part(skewed: bool):
    rows = {}
    for vname, (k, z) in VARIANTS.items():
        for pname, factory in POLICIES.items():
            cache = 4096 if skewed else 16
            kv, keys = build_store(k, z, factory, cache_blocks=cache)
            if skewed:
                stream = zipf_over(keys, theta=0.99, seed=7)
                warm = [next(stream) for _ in range(4000)]
                for key in warm:  # warm the cache
                    kv.get(key)
                sample = [next(stream) for _ in range(READS)]
            else:
                rng = random.Random(9)
                sample = [rng.choice(keys) for _ in range(READS)]
            rows[(vname, pname)] = measure(kv, sample)
    return rows


def _table(rows):
    header = fmt_row(
        ["variant", "filter policy", "filter", "memtable", "fence", "storage", "total"],
        widths=[14, 20, 10, 10, 10, 10, 10],
    )
    lines = [header]
    for (vname, pname), lat in rows.items():
        lines.append(
            fmt_row(
                [
                    vname,
                    pname,
                    lat.filter_ns,
                    lat.memtable_ns,
                    lat.fence_ns,
                    lat.storage_ns,
                    lat.total_ns,
                ],
                widths=[14, 20, 10, 10, 10, 10, 10],
            )
        )
    return lines


def test_fig14e_reads_from_storage(benchmark, results_dir):
    rows = benchmark.pedantic(lambda: run_part(skewed=False), rounds=1, iterations=1)
    report(
        results_dir,
        "fig14e_read_storage",
        "Figure 14E — read latency breakdown, uniform reads, data in storage (ns/op)",
        _table(rows),
    )
    for vname in VARIANTS:
        bloom = rows[(vname, "optimal blocked BFs")]
        chucky = rows[(vname, "Chucky")]
        # Storage dominates for both (data is in storage).
        assert bloom.storage_ns > bloom.filter_ns
        assert chucky.storage_ns > chucky.filter_ns
        # Chucky still shaves the filter component.
        assert chucky.filter_ns < bloom.filter_ns or vname == "leveling"
        # End-to-end: Chucky no worse than BFs (within noise).
        assert chucky.total_ns <= bloom.total_ns * 1.15


def test_fig14f_reads_from_block_cache(benchmark, results_dir):
    rows = benchmark.pedantic(lambda: run_part(skewed=True), rounds=1, iterations=1)
    report(
        results_dir,
        "fig14f_read_cached",
        "Figure 14F — read latency breakdown, Zipfian reads, hot data cached (ns/op)",
        _table(rows),
    )
    for vname in VARIANTS:
        bloom = rows[(vname, "optimal blocked BFs")]
        chucky = rows[(vname, "Chucky")]
        # The cache soaks up most storage I/Os.
        assert bloom.storage_ns < 10_000
        # For BFs the filter probes become a major cost; Chucky
        # alleviates the bottleneck and wins end-to-end (the paper's
        # headline for skewed workloads).
        assert chucky.filter_ns < bloom.filter_ns or vname == "leveling"
        assert chucky.total_ns < bloom.total_ns or vname == "leveling"

    # The effect is strongest where there are many runs (tiering).
    tier_bloom = rows[("tiering", "optimal blocked BFs")]
    tier_chucky = rows[("tiering", "Chucky")]
    assert tier_chucky.filter_ns < tier_bloom.filter_ns / 2
