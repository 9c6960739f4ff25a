"""Figure 14 G: end-to-end write cost vs size ratio with leveling.

The paper's protocol (section 5, Setup): start from a tree whose levels
are all empty except the largest; issue *updates* of existing keys
until a major compaction into the largest level occurs; report total
processing time divided by the number of updates.

As the size ratio grows, leveled merges rewrite more overlapping data,
so write cost rises for every baseline. Bloom filters must be rebuilt
from scratch at every merge — including re-inserting the entire largest
level during the major compaction — while Chucky only touches entries
whose sub-level *changed*, so its curve draws near the no-filter curve
(the paper's headline for greedy merge policies).

The database size is held roughly constant across T (like the paper's
fixed 16 GB): L is chosen so the largest level holds ~constant entries.
"""

import math
import random

from _support import fmt_row, report

from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.filters.policy import BloomFilterPolicy, NoFilterPolicy
from repro.lsm.config import leveling
from repro.lsm.tree import MergeEvent
from repro.workloads.loaders import fill_tree_to_levels

RATIOS = [2, 3, 4, 6, 8, 10]
TARGET = 2500  # approximate largest-level entries / buffer

POLICIES = {
    "non-blocked BFs": lambda: BloomFilterPolicy(
        10, variant="standard", allocation="optimal"
    ),
    "blocked BFs": lambda: BloomFilterPolicy(
        10, variant="blocked", allocation="optimal"
    ),
    "Chucky": lambda: ChuckyPolicy(bits_per_entry=10),
    "no filters": NoFilterPolicy,
}


def levels_for(t: int) -> int:
    return max(3, round(math.log(TARGET, t)))


def one_point(t, factory):
    cfg = leveling(t, buffer_entries=4, block_entries=8, initial_levels=levels_for(t))
    kv = KVStore(cfg, filter_policy=factory())
    placement = fill_tree_to_levels(kv, only_largest=True, seed=t)
    population = placement[max(placement)]
    last_sublevel = kv.config.total_sublevels(kv.tree.num_levels)

    major = []
    kv.tree.listeners.append(
        lambda e: major.append(e)
        if isinstance(e, MergeEvent) and e.output_sublevel == last_sublevel
        else None
    )
    rng = random.Random(t * 31)
    snap = kv.snapshot()
    writes = 0
    while not major and writes < 500000:
        kv.put(rng.choice(population), "updated")
        writes += 1
    lat = kv.latency_since(snap, operations=writes)
    return lat.total_ns


def sweep():
    rows = []
    for t in RATIOS:
        rows.append(
            (t, levels_for(t))
            + tuple(one_point(t, factory) for factory in POLICIES.values())
        )
    return rows


def test_fig14g_write_cost(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    names = list(POLICIES)
    table = [fmt_row(["T", "L"] + names, widths=[3, 3, 16, 16, 16, 16])]
    for row in rows:
        table.append(fmt_row(list(row), widths=[3, 3, 16, 16, 16, 16]))
    report(
        results_dir,
        "fig14g_write_cost",
        "Figure 14G — end-to-end write cost (ns/update) vs size ratio, leveling",
        table,
    )

    series = {n: [row[2 + i] for row in rows] for i, n in enumerate(names)}

    # Write cost rises with merge greediness for every baseline.
    for n in names:
        assert series[n][-1] > series[n][0]
    for i in range(len(RATIOS)):
        # Filters only add cost on top of the no-filter baseline.
        for n in ("non-blocked BFs", "blocked BFs", "Chucky"):
            assert series[n][i] >= series["no filters"][i] * 0.98
        # Chucky cheaper than both BF baselines.
        assert series["Chucky"][i] <= series["blocked BFs"][i] * 1.01
        assert series["Chucky"][i] < series["non-blocked BFs"][i]

    # Chucky's overhead over 'no filters' stays a small fraction of the
    # blocked-BF overhead, and shrinks as T grows (Chucky approaches the
    # disabled-filter curve while BF construction tracks merge volume).
    def overhead(n, i):
        return series[n][i] - series["no filters"][i]

    first, last = 0, len(RATIOS) - 1
    share_first = overhead("Chucky", first) / max(overhead("blocked BFs", first), 1e-9)
    share_last = overhead("Chucky", last) / max(overhead("blocked BFs", last), 1e-9)
    assert share_last < share_first
    assert share_last < 0.8
