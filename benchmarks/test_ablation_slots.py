"""Ablation: slots per bucket (S).

The paper fixes S=4 "through the paper" (section 3): enough slots for
~95% occupancy with short eviction walks, and enough LIDs per bucket
for combination coding to bite (Figure 8), without inflating the
``2 S 2^{-F}`` false-positive multiplier or the combination alphabet.
This ablation sweeps S at a fixed per-entry budget and measures both
sides of that trade.
"""

from _support import fmt_row, lid_stream, fresh_negatives, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import combination_entropy_per_lid
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter

T, L, M = 5, 6, 10.0
SLOTS = [2, 4, 8]
ENTRIES = 15000
NEGATIVES = 2000


def sweep():
    dist = LidDistribution(T, L)
    rows = []
    for s in SLOTS:
        cb = ChuckyCodebook(dist, slots=s, bucket_bits=round(M * s))
        filt = ChuckyFilter(
            ENTRIES, dist, bits_per_entry=M, slots=s, codebook=cb
        )
        for key, lid in lid_stream(dist, ENTRIES, seed=s):
            filt.insert(key, lid)
        fpr = sum(
            len(filt.query(k)) for k in fresh_negatives(NEGATIVES, s + 1)
        ) / NEGATIVES
        rows.append(
            (
                s,
                len(cb.probabilities),
                combination_entropy_per_lid(dist, s),
                cb.average_code_bits_per_entry(),
                cb.average_fp_bits(),
                fpr,
                filt.load_factor,
            )
        )
    return rows


def test_ablation_slots_per_bucket(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [
        fmt_row(
            ["S", "|C|", "H_comb", "code b/entry", "avg FP", "measured FPR", "load"]
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "ablation_slots",
        f"Ablation — slots per bucket at M={M:.0f} bits/entry (T={T}, L={L})",
        table,
    )

    by_s = {r[0]: r for r in rows}
    # Larger buckets compress LIDs better (H_comb falls with S, Eq 13)...
    assert by_s[8][2] < by_s[4][2] < by_s[2][2]
    # ...but the combination alphabet grows steeply...
    assert by_s[8][1] > 10 * by_s[4][1]
    # ...and the 2 S 2^-F multiplier pushes the FPR up at S=8 despite
    # similar fingerprint lengths.
    assert by_s[8][5] > by_s[4][5] * 0.9
    # All variants store full loads without failure.
    for s, *_rest, load in rows:
        assert load > 0.80
