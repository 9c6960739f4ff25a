"""Figure 14 B: false positives per lookup vs data size (levels).

Lazy-leveled tree, T=5, M=10 bits/entry. Series: uniform blocked BFs
(grow), Chucky with uncompressed LIDs (grows — the SlimDB effect),
optimal BFs (converge), Chucky (converges), and the Eq 16 model.

Filters are measured directly over the worst-case full-tree LID
distribution; per-entry filter behaviour is scale-free (DESIGN.md).
"""

from _support import (
    fmt_row,
    measure_bloom_fpr_sum,
    measure_chucky_fpr,
    monotone_nondecreasing,
    report,
    roughly_flat,
)

from repro.analysis.fpr_models import fpr_chucky_model
from repro.coding.distributions import LidDistribution

T, M = 5, 10.0
K, Z = T - 1, 1  # lazy leveling
LEVELS = [2, 3, 4, 5, 6, 7, 8]
ENTRIES = 25000
NEGATIVES = 2500


def sweep():
    rows = []
    for l in LEVELS:
        dist = LidDistribution(T, l, K, Z)
        rows.append(
            (
                l,
                measure_bloom_fpr_sum(dist, M, "uniform", "blocked", ENTRIES, NEGATIVES),
                measure_bloom_fpr_sum(dist, M, "optimal", "blocked", ENTRIES, NEGATIVES),
                measure_chucky_fpr(dist, M, False, ENTRIES, NEGATIVES),
                measure_chucky_fpr(dist, M, True, ENTRIES, NEGATIVES),
                fpr_chucky_model(M, T, K, Z),
            )
        )
    return rows


def test_fig14b_fpr_scaling(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [
        fmt_row(
            ["L", "uniform BFs", "optimal BFs", "Chucky uncomp", "Chucky", "Eq16"]
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "fig14b_fpr_scaling",
        "Figure 14B — FPR vs data size (lazy leveling, T=5, M=10)",
        table,
    )

    uniform = [r[1] for r in rows]
    optimal = [r[2] for r in rows]
    uncomp = [r[3] for r in rows]
    chucky = [r[4] for r in rows]
    model = rows[0][5]

    # Uniform BFs and uncompressed LIDs grow with data size.
    assert uniform[-1] > uniform[0] * 1.8
    assert monotone_nondecreasing(uniform, slack=0.01)
    assert uncomp[-1] > uncomp[0] * 1.5
    # Optimal BFs and Chucky converge (stay roughly flat).
    assert roughly_flat(optimal[2:], ratio=1.8)
    assert roughly_flat(chucky[2:], ratio=1.8)
    # At scale, compressed Chucky beats uncompressed decisively.
    assert chucky[-1] < uncomp[-1] / 2
    # The Eq 16 model approximates Chucky's plateau within ~2x.
    assert model / 2.5 <= chucky[-1] <= model * 2.5
