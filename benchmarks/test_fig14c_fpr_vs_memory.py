"""Figure 14 C: false positives per lookup vs memory budget.

Lazy-leveled tree, T=5, L=6; M swept 4..16 bits/entry. Chucky needs
at least ~8 bits per entry to exist (codes + minimum fingerprints);
from ~11 bits it beats every Bloom-filter variant because its FPR
decays as 2^-M instead of 2^{-M ln 2}.
"""

from _support import (
    fmt_row,
    measure_bloom_fpr_sum,
    measure_chucky_fpr,
    report,
)

from repro.analysis.fpr_models import fpr_chucky_model
from repro.coding.distributions import LidDistribution
from repro.common.errors import CodebookError

T, L = 5, 6
K, Z = T - 1, 1
BUDGETS = [4, 6, 8, 9, 10, 11, 12, 14, 16]
ENTRIES = 25000
NEGATIVES = 2500


def sweep():
    dist = LidDistribution(T, L, K, Z)
    rows = []
    for m in BUDGETS:
        try:
            chucky = measure_chucky_fpr(dist, float(m), True, ENTRIES, NEGATIVES)
        except CodebookError:
            chucky = None  # infeasible below ~8 bits/entry
        rows.append(
            (
                m,
                measure_bloom_fpr_sum(dist, m, "uniform", "blocked", ENTRIES, NEGATIVES),
                measure_bloom_fpr_sum(dist, m, "optimal", "blocked", ENTRIES, NEGATIVES),
                chucky,
                fpr_chucky_model(m, T, K, Z),
            )
        )
    return rows


def test_fig14c_fpr_vs_memory(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [fmt_row(["M", "uniform BFs", "optimal BFs", "Chucky", "Eq16"])]
    for m, uni, opt, chucky, model in rows:
        table.append(fmt_row([m, uni, opt, chucky if chucky is not None else "n/a", model]))
    report(
        results_dir,
        "fig14c_fpr_vs_memory",
        "Figure 14C — FPR vs memory budget (lazy leveling, T=5, L=6)",
        table,
    )

    by_m = {r[0]: r for r in rows}
    # Chucky is infeasible at tiny budgets (paper: 'requires at least
    # eight bits per entry to work').
    assert by_m[4][3] is None
    assert by_m[6][3] is None
    # Feasible from ~8-9 bits.
    feasible = [m for m, _, _, c, _ in rows if c is not None]
    assert min(feasible) <= 9
    # Beats all BF variants from ~11 bits up (the paper's crossover);
    # right at the crossover allow measurement noise.
    _, uni11, opt11, chucky11, _ = by_m[11]
    assert chucky11 is not None and chucky11 <= opt11 * 1.25 and chucky11 < uni11
    for m in (12, 14, 16):
        _, uni, opt, chucky, _ = by_m[m]
        assert chucky is not None
        assert chucky <= opt
        assert chucky < uni
    # FPR decreases with memory for every scheme.
    for series in (1, 2):
        values = [r[series] for r in rows]
        assert all(b <= a + 0.01 for a, b in zip(values, values[1:]))
    chucky_vals = [c for _, _, _, c, _ in rows if c is not None]
    assert all(b <= a + 0.005 for a, b in zip(chucky_vals, chucky_vals[1:]))
    # Chucky's slope is steeper: each added bit halves the FPR.
    c12, c16 = by_m[12][3], by_m[16][3]
    o12, o16 = by_m[12][2], by_m[16][2]
    if c16 > 0 and o16 > 0:
        assert c12 / max(c16, 1e-5) >= (o12 / o16) * 0.5
