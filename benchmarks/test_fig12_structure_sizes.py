"""Figure 12: auxiliary structure sizes vs data size.

Geometry Z=1, K=1, T=5, L = 3..10, S=4, B=40. The Cuckoo filter itself
grows linearly with the data; the cached Huffman tree *converges* (it
covers C_freq, whose size is probability-defined); the Decoding and
Recoding tables grow slowly (polynomially in L, ~|C| entries at 8
bytes) and stay far below the filter size.
"""

from _support import fmt_row, monotone_nondecreasing, report

from repro.coding.distributions import LidDistribution
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.tables import CodecTables

T, S, B = 5, 4, 40
LEVELS = list(range(3, 11))
BUFFER = 64  # entries; the filter is sized for the full tree


def sweep():
    rows = []
    for l in LEVELS:
        dist = LidDistribution(T, l)
        cb = ChuckyCodebook(dist, slots=S, bucket_bits=B)
        tables = CodecTables(cb)
        capacity = sum(BUFFER * T**i for i in range(1, l + 1))
        cf_bytes = (capacity / (S * 0.95)) * B / 8
        rows.append(
            (
                l,
                cf_bytes,
                tables.huffman_tree_bytes,
                tables.decoding_table_bytes,
                tables.recoding_table_bytes,
            )
        )
    return rows


def test_fig12_structure_sizes(benchmark, results_dir):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [fmt_row(["L", "CF bytes", "Huffman tree", "DT bytes", "RT bytes"])]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "fig12_structure_sizes",
        "Figure 12 — structure sizes vs levels (T=5, S=4, B=40)",
        table,
    )

    cf = [r[1] for r in rows]
    tree = [r[2] for r in rows]
    dt = [r[3] for r in rows]
    rt = [r[4] for r in rows]

    # The CF grows geometrically with L (it holds the data mapping).
    assert cf[-1] > cf[0] * 100
    # The cached Huffman tree converges: the last doubling of the data
    # barely moves it.
    assert tree[-1] <= tree[-2] * 1.2 + 64
    # DT and RT grow, but polynomially: much slower than the CF.
    assert monotone_nondecreasing(dt)
    assert dt[-1] / max(dt[0], 1) < (cf[-1] / cf[0]) / 50
    # Paper: the DT 'stays smaller than 1MB even for ... ten levels'.
    assert dt[-1] < 1 << 20
    assert rt[-1] < 1 << 20
    # Auxiliaries are never the space bottleneck.
    for l, cfb, tr, d, r in rows:
        if l >= 6:
            assert tr + d + r < cfb / 10
