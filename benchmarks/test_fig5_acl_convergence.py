"""Figure 5: the average code length converges with data size.

Geometry Z=1, K=1, T=5, L = 1..10. Four series: fixed-width binary
encoding (diverges), the Huffman ACL, its tight upper bound ACL_UB
(Eq 11), and the entropy H (Eq 9). The paper's claim: compression makes
the LIDs' average size independent of the number of levels.
"""

import pytest
from _support import fmt_row, monotone_nondecreasing, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import (
    acl_upper_bound,
    acl_upper_bound_exact,
    huffman_acl,
    integer_acl,
    lid_entropy,
    lid_entropy_exact,
)

LEVELS = list(range(1, 11))
T = 5


def sweep():
    rows = []
    for l in LEVELS:
        d = LidDistribution(T, l)
        rows.append(
            (
                l,
                integer_acl(d),
                huffman_acl(d),
                acl_upper_bound_exact(d),
                lid_entropy_exact(d),
            )
        )
    return rows


def test_fig5_acl_convergence(benchmark, results_dir):
    rows = benchmark(sweep)
    table = [fmt_row(["L", "binary", "Huffman ACL", "ACL_UB", "entropy H"])]
    for row in rows:
        table.append(fmt_row(list(row)))
    table.append(
        f"asymptotes: ACL_UB={acl_upper_bound(T):.4f}  H={lid_entropy(T):.4f}"
    )
    report(results_dir, "fig5_acl_convergence", "Figure 5 — ACL vs number of levels (T=5)", table)

    binary = [r[1] for r in rows]
    huffman = [r[2] for r in rows]
    ub = [r[3] for r in rows]
    h = [r[4] for r in rows]

    # Binary encoding grows with L; the Huffman ACL converges.
    assert binary[-1] >= binary[2] + 2
    assert monotone_nondecreasing(binary)
    assert abs(huffman[-1] - huffman[5]) < 0.01
    # ACL_UB is a genuine upper bound that converges to Eq 11.
    for hf, u in zip(huffman, ub):
        assert hf <= u + 1e-9
    assert ub[-1] == pytest.approx(acl_upper_bound(T), abs=1e-3)
    # Entropy lower-bounds everything and stays within 1 bit of the ACL.
    for hf, e in zip(huffman, h):
        assert e - 1e-9 <= hf <= e + 1 + 1e-9
    assert h[-1] == pytest.approx(lid_entropy(T), abs=1e-3)
