"""Figure 4: the paper's worked Huffman example.

Geometry T=5, Z=1, K=4, L=3 (nine LIDs). The paper reports level
frequencies n/124, an ACL of 1.52 bits, a 62% saving over 4-bit integer
encoding, and codes of length 6 for LID 4 and 1 for LID 9.
"""

from fractions import Fraction

from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import huffman_acl, integer_acl
from repro.coding.huffman import huffman_code_lengths


def build():
    dist = LidDistribution(5, 3, runs_per_level=4, runs_at_last_level=1)
    lengths = huffman_code_lengths(dist.weights())
    return dist, lengths


def test_fig4_worked_example(benchmark, results_dir):
    dist, lengths = benchmark(build)
    probs = dist.probabilities()

    acl = huffman_acl(dist)
    rows = [fmt_row(["LID", "level", "probability", "code bits"])]
    for lid in dist.lids:
        rows.append(
            fmt_row(
                [
                    lid,
                    dist.level_of_lid(lid),
                    str(Fraction(probs[lid - 1])),
                    lengths[lid],
                ]
            )
        )
    rows.append(f"Huffman ACL            : {acl:.4f} bits (paper: 1.52)")
    rows.append(f"integer encoding       : {integer_acl(dist)} bits (paper: 4)")
    rows.append(f"saving vs integer      : {1 - acl / 4:.1%} (paper: 62%)")
    report(results_dir, "fig4_huffman_example", "Figure 4 — Huffman coding of level IDs", rows)

    # Paper ground truth.
    assert probs[5] == Fraction(5, 124)  # "LID 6 contains 5/124 ~ 4%"
    assert abs(acl - 189 / 124) < 1e-9  # ACL = 1.52 bits
    assert lengths[9] == 1  # code '1' for LID 9
    assert lengths[4] == 6  # code '011011' for LID 4
    assert integer_acl(dist) == 4
