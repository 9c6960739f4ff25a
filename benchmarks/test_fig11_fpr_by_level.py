"""Figure 11: false positives per lookup vs the level holding the target.

Geometry Z=1, K=1, T=5, L=6, S=4, B=40 (M=10). A point read probes
candidate sub-levels youngest-first and stops at the target, so queries
for entries at smaller (younger) levels see exponentially fewer false
positives; queries to non-existing keys see the most. Eq 16's model
should upper-bound every case and approximate the 'none' case.
"""

from _support import fmt_row, report

from repro.analysis.fpr_models import fpr_chucky_model
from repro.chucky.policy import ChuckyPolicy
from repro.engine.kvstore import KVStore
from repro.lsm.config import LSMConfig
from repro.workloads.loaders import (
    fill_tree_to_levels,
    negative_keys,
    sublevel_sample_keys,
)

T, L, M = 5, 6, 10.0
QUERIES = 1500


def experiment():
    cfg = LSMConfig(
        size_ratio=T, buffer_entries=2, block_entries=16, initial_levels=L
    )
    kv = KVStore(cfg, filter_policy=ChuckyPolicy(bits_per_entry=M))
    placement = fill_tree_to_levels(kv)

    rows = []
    # Levels are probed largest-ID-first in the paper's x-axis; with
    # K=1, sub-level j == level j.
    for level in range(L, 0, -1):
        keys = sublevel_sample_keys(placement, level, QUERIES, seed=level)
        fps = 0
        for key in keys:
            result = kv.get_with_stats(key)
            assert result.found
            fps += result.false_positives
        rows.append((str(level), fps / len(keys)))
    none_fps = 0
    for key in negative_keys(placement, QUERIES):
        result = kv.get_with_stats(key)
        assert not result.found
        none_fps += result.false_positives
    rows.append(("none", none_fps / QUERIES))
    return rows


def test_fig11_fpr_by_target_level(benchmark, results_dir):
    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    model = fpr_chucky_model(M, T)
    table = [fmt_row(["target level", "false positives/query", "Eq16 model"])]
    for level, fpr in rows:
        table.append(fmt_row([level, fpr, model]))
    report(
        results_dir,
        "fig11_fpr_by_level",
        "Figure 11 — FPR by target level (T=5, L=6, M=10)",
        table,
    )

    by_level = dict(rows)
    # Queries to smaller (younger) levels incur fewer false positives.
    assert by_level["1"] <= by_level[str(L)] + 0.01
    ordered = [by_level[str(l)] for l in range(1, L + 1)]
    # Allow sampling noise but require a clear overall increase.
    assert ordered[-1] >= ordered[0]
    assert by_level["none"] >= max(ordered) - 0.01
    # Eq 16 upper-bounds all cases and is within ~2x of the 'none' case.
    for _, fpr in rows:
        assert fpr <= model * 1.5 + 0.01
    assert by_level["none"] >= model / 4
