"""Ablation: the NOV knob (fraction of non-overflowing buckets).

Section 4.3 fixes NOV = 0.9999 and section 4.4 argues the resulting
``C_freq`` keeps the cached Huffman tree small while the overflow hash
table stays ~(1-NOV) of the filter. This ablation sweeps NOV and
measures the whole trade-off: cached-tree size, Decoding-Table size,
overflow probability, and the average fingerprint length (raising NOV
spends Kraft budget on more exact-fill codes, squeezing fingerprints).
"""

from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.tables import CodecTables

T, L, S, B = 5, 6, 4, 40
NOVS = [0.99, 0.999, 0.9999, 0.99999]


def sweep():
    dist = LidDistribution(T, L)
    rows = []
    for nov in NOVS:
        cb = ChuckyCodebook(dist, slots=S, bucket_bits=B, nov=nov)
        tables = CodecTables(cb)
        rows.append(
            (
                nov,
                len(cb.frequent),
                tables.huffman_tree_bytes,
                tables.decoding_table_bytes,
                cb.overflow_probability(),
                cb.average_fp_bits(),
            )
        )
    return rows


def test_ablation_nov(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [
        fmt_row(
            ["NOV", "|C_freq|", "tree bytes", "DT bytes", "P(overflow)", "avg FP"]
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "ablation_nov",
        "Ablation — NOV vs cached-tree size / overflow / fingerprints "
        f"(T={T}, L={L}, S={S}, B={B})",
        table,
    )

    freq_sizes = [r[1] for r in rows]
    overflows = [r[4] for r in rows]
    fps = [r[5] for r in rows]

    # Higher NOV: larger frequent set (bigger cached tree), fewer
    # overflows, at most marginally shorter fingerprints.
    assert freq_sizes == sorted(freq_sizes)
    assert overflows == sorted(overflows, reverse=True)
    for nov, ovf in zip(NOVS, overflows):
        assert ovf <= (1 - nov) * 2 + 1e-12
    # The fingerprint cost of covering 10x more combinations is small —
    # why the paper can afford NOV=0.9999.
    assert max(fps) - min(fps) < 1.0
