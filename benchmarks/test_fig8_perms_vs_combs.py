"""Figure 8: combinations beat permutations, and both ACLs converge to
their entropies as the number of collectively encoded LIDs grows.

Geometry Z=1, K=1, T=10, L=6; group sizes 1..5. Series: permutation
ACL, permutation entropy H, combination ACL, combination entropy H_comb
(Eq 13).
"""

from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import (
    combination_entropy_per_lid,
    grouped_acl,
    lid_entropy_exact,
)

GROUPS = [1, 2, 3, 4, 5]


def sweep():
    d = LidDistribution(10, 6)
    h = lid_entropy_exact(d)
    rows = []
    for g in GROUPS:
        rows.append(
            (
                g,
                grouped_acl(d, g, "perm"),
                h,
                grouped_acl(d, g, "comb"),
                combination_entropy_per_lid(d, g),
            )
        )
    return rows


def test_fig8_perms_vs_combs(benchmark, results_dir):
    rows = benchmark(sweep)
    table = [
        fmt_row(["group S", "perm ACL", "perm H", "comb ACL", "comb H (Eq13)"])
    ]
    for row in rows:
        table.append(fmt_row(list(row)))
    report(
        results_dir,
        "fig8_perms_vs_combs",
        "Figure 8 — collectively encoded LIDs (T=10, L=6)",
        table,
    )

    perm_acl = [r[1] for r in rows]
    comb_acl = [r[3] for r in rows]
    comb_h = [r[4] for r in rows]
    h = rows[0][2]

    # Combinations strictly beat permutations beyond group size 1.
    for g, p, c in zip(GROUPS, perm_acl, comb_acl):
        if g > 1:
            assert c < p
    # Both ACLs fall monotonically with the group size.
    assert perm_acl == sorted(perm_acl, reverse=True)
    assert comb_acl == sorted(comb_acl, reverse=True)
    # Combination entropy drops below the permutation entropy (Eq 13)
    # and keeps dropping with S.
    assert comb_h == sorted(comb_h, reverse=True)
    assert comb_h[-1] < h
    # ACLs approach their entropies: the gap shrinks by at least half
    # from S=1 to S=5.
    assert (comb_acl[-1] - comb_h[-1]) < (comb_acl[0] - comb_h[0]) / 2
    # Each ACL stays lower-bounded by its entropy.
    for p, c, ch in zip(perm_acl, comb_acl, comb_h):
        assert p >= h - 1e-9
        assert c >= ch - 1e-9
