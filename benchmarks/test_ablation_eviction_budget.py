"""Ablation: eviction-walk budget vs AHT spill.

DESIGN.md section 5 documents the choice of a short (12-move) eviction
walk with AHT fallback: near the 95% design occupancy the *marginal*
cost of an unbounded random walk explodes, while Chucky — unlike a
plain Cuckoo filter — has a second home for displaced entries. This
ablation sweeps the budget at high load and measures insert cost vs how
much spills to the AHT.
"""

import random

from _support import fmt_row, report

import repro.chucky.filter as chucky_filter
from repro.coding.distributions import LidDistribution
from repro.chucky.filter import ChuckyFilter

T, L = 5, 6
BUDGETS = [2, 6, 12, 50, 200]
TARGET_LOAD = 0.93


def one_point(budget: int):
    original = chucky_filter._MAX_EVICTIONS
    chucky_filter._MAX_EVICTIONS = budget
    try:
        dist = LidDistribution(T, L)
        filt = ChuckyFilter(20000, dist, bits_per_entry=10.0, seed=budget)
        rng = random.Random(budget)
        probs = [float(p) for p in dist.probabilities()]
        total = int(filt.num_buckets * 4 * TARGET_LOAD)
        keys = rng.sample(range(1 << 60), total)
        lids = rng.choices(list(dist.lids), weights=probs, k=total)
        warm = int(total * 0.9)
        for key, lid in zip(keys[:warm], lids[:warm]):
            filt.insert(key, lid)
        snap = filt.memory_ios.snapshot()
        for key, lid in zip(keys[warm:], lids[warm:]):
            filt.insert(key, lid)
        diff = filt.memory_ios.diff(snap)
        ios = sum(v for k, v in diff.items() if k.startswith("filter"))
        marginal = ios / (total - warm)
        aht = sum(len(v) for v in filt.aht.values())
        misses = sum(1 for k, l in zip(keys, lids) if l not in filt.query(k))
        return marginal, aht / total, misses
    finally:
        chucky_filter._MAX_EVICTIONS = original


def test_ablation_eviction_budget(benchmark, results_dir):
    rows = benchmark.pedantic(
        lambda: [(b, *one_point(b)) for b in BUDGETS], rounds=1, iterations=1
    )
    table = [
        fmt_row(["budget", "marginal ins. I/Os", "AHT share", "false negs"])
    ]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "ablation_eviction_budget",
        f"Ablation — eviction budget at {TARGET_LOAD:.0%} load (T={T}, L={L})",
        table,
    )

    by_budget = {r[0]: r for r in rows}
    # Correctness never depends on the budget: zero false negatives.
    for _, _, _, misses in rows:
        assert misses == 0
    # Bigger budgets cost more marginal I/Os but spill less to the AHT
    # (costs saturate once the budget exceeds typical walk lengths).
    costs = [r[1] for r in rows]
    spills = [r[2] for r in rows]
    assert costs[:4] == sorted(costs[:4])
    assert spills == sorted(spills, reverse=True)
    assert by_budget[2][1] < by_budget[200][1] / 2
    # The default (12) keeps inserts cheap with a tiny AHT — the sweet
    # spot DESIGN.md claims.
    assert by_budget[12][1] < max(by_budget[50][1], by_budget[200][1])
    assert by_budget[12][2] < 0.02
