"""Figure 6: the ACL approaches the entropy as larger permutations of
LIDs are encoded together.

Geometry Z=1, K=1, size ratio T swept 2..16. Series: entropy H, the ACL
of single-LID Huffman coding, and the ACL per LID when permutations of
size 2 and 4 are encoded collectively. The paper's point: a single-LID
code is floored at 1 bit while the entropy tends to zero; grouping
breaks the floor.
"""

from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import grouped_acl, lid_entropy_exact

RATIOS = [2, 3, 4, 5, 6, 8, 10, 12, 14, 16]
LEVELS = 6


def sweep():
    rows = []
    for t in RATIOS:
        d = LidDistribution(t, LEVELS)
        rows.append(
            (
                t,
                lid_entropy_exact(d),
                grouped_acl(d, 1),
                grouped_acl(d, 2, "perm"),
                grouped_acl(d, 4, "perm"),
            )
        )
    return rows


def test_fig6_acl_vs_size_ratio(benchmark, results_dir):
    rows = benchmark(sweep)
    table = [fmt_row(["T", "entropy H", "ACL single", "ACL perm2", "ACL perm4"])]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "fig6_acl_vs_T",
        "Figure 6 — ACL vs size ratio, permutation group sizes (L=6)",
        table,
    )

    for t, h, single, perm2, perm4 in rows:
        # Single-LID coding is floored at one bit.
        assert single >= 1.0 - 1e-9
        # Larger groups move the ACL monotonically toward the entropy.
        assert perm2 <= single + 1e-9
        assert perm4 <= perm2 + 1e-9
        assert perm4 >= h - 1e-9

    # At large T the gap between single coding and entropy explodes,
    # and grouping recovers most of it (the figure's visual story).
    t16 = rows[-1]
    gap_single = t16[2] - t16[1]
    gap_perm4 = t16[4] - t16[1]
    assert gap_perm4 < gap_single / 2

    # The entropy falls with T; the single-LID ACL cannot follow it.
    entropies = [r[1] for r in rows]
    assert entropies == sorted(entropies, reverse=True)
