"""Figure 1: the conceptual trade-off, regenerated as data.

Part (A): query cost vs construction (write) cost. Tuning the merge
policy from lazy to greedy trades Bloom-filter query cost against
construction cost along a curve; growing the data pushes the whole
curve outward. Chucky sits below the curves: constant query cost,
modest construction cost.

Part (B): FPR vs data size — state-of-the-art (optimal) Bloom filters
and Chucky stay flat; the integer-LID cuckoo filter grows (this part is
measured in depth by the Figure 14 B bench; here the Eq 2/3/6/16 models
draw the same picture).
"""

from _support import filter_ios, fmt_row, report, write_until_major_compaction

from repro.analysis.fpr_models import (
    fpr_bloom_optimal,
    fpr_chucky_model,
    fpr_cuckoo_integer_lids,
)
from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy
from repro.lsm.config import LSMConfig
from repro.workloads.loaders import fill_tree_to_levels

import random

T = 4
MEMORY_NS = 100.0
READS = 500

# The tuning knob of Part A: K=Z sweeps tiering (lazy) -> leveling
# (greedy) at fixed T.
TUNINGS = [(T - 1, T - 1), (T - 1, 1), (1, 1)]
SIZES = [3, 5]  # number of levels: 'small' and 'large' data


def one_point(k, z, levels, factory):
    cfg = LSMConfig(
        size_ratio=T,
        runs_per_level=k,
        runs_at_last_level=z,
        buffer_entries=4,
        block_entries=8,
        initial_levels=levels,
    )
    rng = random.Random(k * 100 + levels)

    # Construction cost: fill from the only-largest-level state through
    # the major compaction (the paper's write protocol).
    kv = KVStore(cfg, filter_policy=factory())
    fill_tree_to_levels(kv, only_largest=True, seed=levels)
    snap = kv.snapshot()
    writes = 0
    grew = []
    kv.tree.grow_listeners.append(grew.append)
    while not grew and writes < 100000:
        kv.put((1 << 61) + rng.getrandbits(59), "w")
        writes += 1
    write_ns = filter_ios(kv.memory_ios_since(snap)) * MEMORY_NS / writes

    # Query cost: worst case — every sub-level occupied, target at the
    # largest level.
    kv = KVStore(cfg, filter_policy=factory())
    placement = fill_tree_to_levels(kv, seed=levels)
    population = placement[max(placement)]
    keys = rng.sample(population, min(READS, len(population)))
    snap = kv.snapshot()
    for key in keys:
        kv.get(key)
    read_ns = filter_ios(kv.memory_ios_since(snap)) * MEMORY_NS / len(keys)
    return read_ns, write_ns


def part_a():
    rows = []
    for levels in SIZES:
        for k, z in TUNINGS:
            bloom = one_point(
                k, z, levels,
                lambda: BloomFilterPolicy(10, "blocked", "optimal"),
            )
            chucky = one_point(
                k, z, levels, lambda: ChuckyPolicy(bits_per_entry=10)
            )
            rows.append((levels, f"K={k},Z={z}", *bloom, *chucky))
    return rows


def test_fig1_tradeoff(benchmark, results_dir):
    rows = benchmark.pedantic(part_a, rounds=1, iterations=1)
    table = [
        fmt_row(
            ["L", "tuning", "BF read", "BF write", "Chucky read", "Chucky write"],
            widths=[3, 10, 12, 12, 12, 12],
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row), widths=[3, 10, 12, 12, 12, 12]))
    table.append("")
    table.append(fmt_row(["L", "opt BFs (Eq3)", "int LIDs (Eq6)", "Chucky (Eq16)"]))
    for l in range(2, 9):
        table.append(
            fmt_row(
                [
                    l,
                    fpr_bloom_optimal(10, T),
                    fpr_cuckoo_integer_lids(10, l),
                    fpr_chucky_model(10, T),
                ]
            )
        )
    report(
        results_dir,
        "fig1_tradeoff",
        "Figure 1 — (A) query vs construction cost; (B) FPR vs data size",
        table,
    )

    by_key = {(r[0], r[1]): r for r in rows}
    for levels in SIZES:
        tunings = [by_key[(levels, f"K={k},Z={z}")] for k, z in TUNINGS]
        bf_reads = [r[2] for r in tunings]
        bf_writes = [r[3] for r in tunings]
        # Part A, BF curve: greedier tuning (toward leveling) lowers
        # query cost and raises construction cost — the trade-off.
        assert bf_reads == sorted(bf_reads, reverse=True)
        assert bf_writes == sorted(bf_writes)
        # Chucky breaks the trade-off: constant query cost across the
        # whole tuning range.
        chucky_reads = [r[4] for r in tunings]
        assert max(chucky_reads) - min(chucky_reads) < 150
        for r in tunings:
            assert r[4] < r[2]  # Chucky read < BF read

    # The data-size effect: the large tree's BF curve sits outside the
    # small tree's (both coordinates grow).
    for k, z in TUNINGS:
        small = by_key[(SIZES[0], f"K={k},Z={z}")]
        large = by_key[(SIZES[1], f"K={k},Z={z}")]
        assert large[2] >= small[2]
        assert large[3] > small[3]

    # Part B models: integer LIDs grow with L, the others are flat.
    assert fpr_cuckoo_integer_lids(10, 8) > fpr_cuckoo_integer_lids(10, 3)
