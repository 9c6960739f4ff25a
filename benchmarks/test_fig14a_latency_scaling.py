"""Figure 14 A: filter read/write latency vs data size (levels).

Lazy-leveled tree; filters measured in isolation (memory I/Os priced at
100 ns). Non-blocked BFs grow fastest (h probes x many filters),
blocked BFs grow linearly (one probe per sub-level), and Chucky is the
only baseline whose *read* latency stays flat as the data grows. Write
latency (filter maintenance per application write, including resize)
grows slowly with L for all, with Chucky's staying in the same league
as blocked BFs.

Scaled down from the paper's 16 GB testbed: T=3, buffer 4 entries,
levels 2..7 — the x-axis (number of levels) is the quantity that
matters, and every curve is a pure function of per-level I/O counts.
"""

import random

from _support import filter_ios, fmt_row, report, roughly_flat, write_until_major_compaction

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy
from repro.lsm.config import lazy_leveling
from repro.workloads.loaders import fill_tree_to_levels

T = 3
LEVELS = [2, 3, 4, 5, 6, 7]
READS = 800
MEMORY_NS = 100.0

POLICIES = {
    "non-blocked BFs": lambda: BloomFilterPolicy(
        10, variant="standard", allocation="optimal"
    ),
    "blocked BFs": lambda: BloomFilterPolicy(
        10, variant="blocked", allocation="optimal"
    ),
    "Chucky": lambda: ChuckyPolicy(bits_per_entry=10),
}


def one_point(name, factory, levels):
    cfg = lazy_leveling(T, buffer_entries=4, block_entries=8, initial_levels=levels)
    kv = KVStore(cfg, filter_policy=factory())
    placement = fill_tree_to_levels(kv, only_largest=True, seed=levels)

    # --- write latency: filter maintenance per application write, from
    # the paper's just-the-largest-level-full starting state up to and
    # including the major compaction / filter resize.
    snap = kv.snapshot()
    writes = write_until_major_compaction(kv, key_seed=levels * 13)
    write_ns = filter_ios(kv.memory_ios_since(snap)) * MEMORY_NS / writes

    # --- read latency: worst case, just after the tree refilled (many
    # runs live). Uniform reads over the biggest level's keys.
    rng = random.Random(levels)
    last = max(placement)
    keys = rng.sample(placement[last], min(READS, len(placement[last])))
    snap = kv.snapshot()
    for key in keys:
        kv.get(key)
    read_ns = filter_ios(kv.memory_ios_since(snap)) * MEMORY_NS / len(keys)
    return read_ns, write_ns


def sweep():
    rows = []
    for levels in LEVELS:
        row = {"L": levels}
        for name, factory in POLICIES.items():
            row[name] = one_point(name, factory, levels)
        rows.append(row)
    return rows


def test_fig14a_latency_scaling(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    names = list(POLICIES)
    table = [
        fmt_row(
            ["L"]
            + [f"{n} read" for n in names]
            + [f"{n} write" for n in names],
            widths=[3] + [20] * 6,
        )
    ]
    for row in rows:
        table.append(
            fmt_row(
                [row["L"]]
                + [row[n][0] for n in names]
                + [row[n][1] for n in names],
                widths=[3] + [20] * 6,
            )
        )
    report(
        results_dir,
        "fig14a_latency_scaling",
        "Figure 14A — filter latency (ns/op) vs data size (lazy leveling, T=3)",
        table,
    )

    reads = {n: [row[n][0] for row in rows] for n in names}
    writes = {n: [row[n][1] for row in rows] for n in names}

    # Reads: both BF baselines grow with L; Chucky stays flat and lowest.
    assert reads["non-blocked BFs"][-1] > reads["non-blocked BFs"][0] * 2
    assert reads["blocked BFs"][-1] > reads["blocked BFs"][0] * 1.5
    assert roughly_flat(reads["Chucky"], ratio=1.8)
    for i, levels in enumerate(LEVELS):
        if levels >= 3:
            assert reads["Chucky"][i] < reads["blocked BFs"][i]
            assert reads["Chucky"][i] < reads["non-blocked BFs"][i]
    # Non-blocked BFs read cost exceeds blocked at scale (h probes each).
    assert reads["non-blocked BFs"][-1] > reads["blocked BFs"][-1]

    # Writes: grow for everyone; Chucky stays within a small factor of
    # blocked BFs (the paper: 'may be slightly more expensive').
    for n in names:
        assert writes[n][-1] > writes[n][0]
    assert writes["Chucky"][-1] < writes["non-blocked BFs"][-1]
    assert writes["Chucky"][-1] < writes["blocked BFs"][-1] * 4
