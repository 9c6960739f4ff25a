"""Figure 7: the two-level toy example showing how encoding permutations
or combinations of LIDs pushes the ACL below one bit.

Geometry Z=1, K=1, T=10, L=2 (f = [1/11, 10/11]), S=2. The paper
reports ACLs of 1 (single), 0.63 (permutations), 0.58 (combinations).
"""

from fractions import Fraction

import pytest
from _support import fmt_row, report

from repro.coding.distributions import (
    LidDistribution,
    combination_probability,
)
from repro.coding.entropy import grouped_acl


def build():
    d = LidDistribution(10, 2)
    return (
        d,
        grouped_acl(d, 1),
        grouped_acl(d, 2, "perm"),
        grouped_acl(d, 2, "comb"),
    )


def test_fig7_toy_example(benchmark, results_dir):
    d, single, perm, comb = benchmark(build)
    table = [
        fmt_row(["encoding", "ACL bits/LID", "paper"]),
        fmt_row(["single", single, 1.0]),
        fmt_row(["perms (S=2)", perm, 0.63]),
        fmt_row(["combs (S=2)", comb, 0.58]),
    ]
    report(results_dir, "fig7_perm_comb_toy", "Figure 7 — single vs perms vs combs (T=10, L=2)", table)

    probs = d.probabilities()
    assert probs == [Fraction(1, 11), Fraction(10, 11)]
    # The combination {1,2} merges permutations 12 and 21: 20/121.
    assert combination_probability((1, 2), probs) == Fraction(20, 121)

    assert single == pytest.approx(1.0)
    assert perm == pytest.approx(0.63, abs=0.01)
    assert comb == pytest.approx(0.58, abs=0.01)
    assert comb < perm < single
