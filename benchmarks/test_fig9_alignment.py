"""Figure 9: fingerprint size vs bucket overflows — uniform fingerprints
trade one for the other; MF & FAC get both.

Geometry Z=1, K=1, T=5, L=10, S=4, B=40 (the paper's setting). Series:
the uniform-fingerprint trade-off curve (sweeping the fingerprint
length), the MF point, the MF & FAC point, and the theoretical maximum
``M - H_comb``.
"""

import pytest
from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.coding.entropy import combination_entropy_per_lid
from repro.chucky.codebook import ChuckyCodebook

T, L, S, B = 5, 10, 4, 40


def sweep():
    dist = LidDistribution(T, L)
    uniform_curve = []
    for fp in range(5, B // S):
        cb = ChuckyCodebook(dist, slots=S, bucket_bits=B, mode="uniform", uniform_fp=fp)
        uniform_curve.append((fp, cb.average_fp_bits(), cb.overflow_probability()))
    mf = ChuckyCodebook(dist, slots=S, bucket_bits=B, mode="mf")
    fac = ChuckyCodebook(dist, slots=S, bucket_bits=B, mode="mf_fac")
    theo = B / S - combination_entropy_per_lid(dist, S)
    return uniform_curve, mf, fac, theo


def test_fig9_alignment(benchmark, results_dir):
    uniform_curve, mf, fac, theo = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    table = [fmt_row(["scheme", "avg FP bits", "P(overflow)"])]
    for fp, avg, ovf in uniform_curve:
        table.append(fmt_row([f"uniform FP={fp}", avg, ovf]))
    table.append(fmt_row(["MF", mf.average_fp_bits(), mf.overflow_probability()]))
    table.append(
        fmt_row(["MF & FAC", fac.average_fp_bits(), fac.overflow_probability()])
    )
    table.append(fmt_row(["theoretical max", theo, 0.0]))
    report(
        results_dir,
        "fig9_alignment",
        "Figure 9 — fingerprint size vs bucket overflows (T=5, L=10, S=4, B=40)",
        table,
    )

    # Uniform fingerprints: longer fingerprints -> more overflows (the
    # contention the paper substantiates).
    overflows = [ovf for _, _, ovf in uniform_curve]
    assert overflows == sorted(overflows)
    assert overflows[-1] > 1e-2  # large uniform FPs overflow heavily

    # MF & FAC: long fingerprints AND rare overflows simultaneously.
    assert fac.overflow_probability() < 2 * (1 - fac.nov)
    assert fac.average_fp_bits() > B / S - 2  # within ~2 bits of M

    # FAC dominates every uniform configuration with comparable
    # overflow probability.
    for fp, avg, ovf in uniform_curve:
        if ovf <= fac.overflow_probability() + 1e-4:
            assert fac.average_fp_bits() >= avg

    # The price of alignment vs the theoretical max is modest (paper:
    # about half a bit; allow one bit of slack for the small geometry).
    assert fac.average_fp_bits() >= theo - 1.0
    assert fac.average_fp_bits() <= theo + 1e-9
