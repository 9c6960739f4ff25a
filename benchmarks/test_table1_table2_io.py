"""Tables 1 and 2: measured filter memory-I/O complexities.

Table 1 (blocked Bloom filters): an application point query costs one
memory I/O per sub-level — O(L), O(L T) or O(L T) depending on the
merge policy — and an update costs one BF insertion per compaction the
entry participates in (the write amplification).

Table 2 (Chucky): queries cost O(1) (two bucket reads) for *every*
policy and data size; updates cost O(L), ~1.5 memory I/Os per level
descended.

This bench measures both, per policy and per tree size, against the
closed-form predictions in ``repro.analysis.cost_models``.
"""

import random

from _support import filter_ios, fmt_row, report, write_until_major_compaction

from repro.analysis.cost_models import (
    bloom_query_ios,
    chucky_query_ios,
)
from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy
from repro.lsm.config import LSMConfig
from repro.workloads.loaders import fill_tree_to_levels

T = 3
READS = 600

VARIANTS = {
    "leveling": (1, 1),
    "lazy-leveling": (T - 1, 1),
    "tiering": (T - 1, T - 1),
}


def measure(k, z, levels, factory):
    cfg = LSMConfig(
        size_ratio=T,
        runs_per_level=k,
        runs_at_last_level=z,
        buffer_entries=4,
        block_entries=8,
        initial_levels=levels,
    )
    # Query cost: on a worst-case full tree, probe keys living at the
    # largest level (every younger filter must be consulted first).
    kv = KVStore(cfg, filter_policy=factory())
    placement = fill_tree_to_levels(kv, seed=levels)
    rng = random.Random(levels)
    last = max(placement)
    keys = rng.sample(placement[last], min(READS, len(placement[last])))
    snap = kv.snapshot()
    for key in keys:
        kv.get(key)
    query_ios = filter_ios(kv.memory_ios_since(snap)) / len(keys)

    # Update cost: filter maintenance per application write, from the
    # paper's only-the-largest-level-full starting state up to the major
    # compaction (section 5, Setup).
    kv = KVStore(cfg, filter_policy=factory())
    fill_tree_to_levels(kv, only_largest=True, seed=levels)
    snap = kv.snapshot()
    writes = write_until_major_compaction(kv, key_seed=levels, cap=50000)
    update_ios = filter_ios(kv.memory_ios_since(snap)) / max(writes, 1)
    return query_ios, update_ios


def sweep():
    rows = []
    for vname, (k, z) in VARIANTS.items():
        for levels in (3, 5):
            bloom = measure(k, z, levels, lambda: BloomFilterPolicy(10, "blocked", "optimal"))
            chucky = measure(k, z, levels, lambda: ChuckyPolicy(bits_per_entry=10))
            rows.append(
                (
                    vname,
                    levels,
                    bloom[0],
                    bloom_query_ios(levels, k, z),
                    chucky[0],
                    bloom[1],
                    chucky[1],
                )
            )
    return rows


def test_tables_1_and_2_memory_io(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [
        fmt_row(
            [
                "variant", "L",
                "BF query", "BF query model", "Chucky query",
                "BF update", "Chucky update",
            ],
            widths=[14, 3, 11, 15, 13, 11, 14],
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row), widths=[14, 3, 11, 15, 13, 11, 14]))
    report(
        results_dir,
        "table1_table2_io",
        "Tables 1-2 — filter memory I/Os per operation (measured vs model)",
        table,
    )

    by_key = {(r[0], r[1]): r for r in rows}
    for (vname, levels), row in by_key.items():
        _, _, bfq, bfq_model, chq, bfu, chu = row
        # Table 1: BF query cost tracks the number of sub-levels.
        assert bfq_model * 0.6 <= bfq <= bfq_model * 1.1, (vname, levels)
        # Table 2: Chucky's query cost is a small constant, always below
        # the BF cost and independent of policy and size.
        assert chq <= chucky_query_ios() + 1.5, (vname, levels)
        if bfq_model >= 4:
            assert chq < bfq, (vname, levels)

    # Chucky's query cost is flat across tree sizes; BF's grows.
    for vname in VARIANTS:
        small, large = by_key[(vname, 3)], by_key[(vname, 5)]
        assert large[4] <= small[4] * 1.6 + 0.5  # Chucky flat-ish
        assert large[2] > small[2]  # BF grows

    # Table 1 vs 2, updates: tiering's BF updates are cheapest (O(L));
    # leveling's are most expensive (O(L T)).
    assert by_key[("tiering", 5)][5] < by_key[("leveling", 5)][5]
    # Chucky's update cost stays bounded by ~1.5 L plus the per-entry
    # insert, for every merge policy (Table 2's O(L) row).
    for (vname, levels), row in by_key.items():
        assert row[6] <= 1.5 * levels + 6, (vname, levels)
