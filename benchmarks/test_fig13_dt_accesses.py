"""Figure 13: Decoding-Table accesses per query vs the target's level.

Geometry Z=1, K=1, T=5, S=4, B=40; curves for several tree sizes L. A
bucket holding any small-level LID is less likely to be in C_freq, so
queries targeting smaller levels hit the DT more — but the cost
flattens at <= one access per bucket even in the worst case.

Method: the filter holds the worst-case background LID distribution
(Eq 8); a small batch of probe entries is planted at every level so
each x-axis point has enough query targets even for deep trees where a
laptop-scale sample would leave small levels empty (the paper's 268M-
entry tree has no such problem). Probes are ~1% of entries per level,
so background bucket statistics are essentially unperturbed.
"""

import random

from _support import fmt_row, lid_stream, report

from repro.coding.distributions import LidDistribution
from repro.chucky.filter import ChuckyFilter

T, S, B = 5, 4, 40
LEVEL_SWEEP = [4, 6, 8, 10]
ENTRIES = 25000
PROBES = 300


def one_curve(l: int):
    dist = LidDistribution(T, l)
    filt = ChuckyFilter(ENTRIES + PROBES * l, dist, bits_per_entry=B / S)
    for key, lid in lid_stream(dist, ENTRIES, seed=l):
        filt.insert(key, lid)
    rng = random.Random(l * 7 + 1)
    probes: dict[int, list[int]] = {}
    for level in range(1, l + 1):
        lid = level  # K=1: sub-level number == level
        keys = [(1 << 61) + rng.getrandbits(59) for _ in range(PROBES)]
        for key in keys:
            filt.insert(key, lid)
        probes[level] = keys
    curve = {}
    for level, keys in probes.items():
        before = filt.tables.dt_accesses
        for key in keys:
            filt.query(key)
        curve[level] = (filt.tables.dt_accesses - before) / len(keys)
    return curve


def test_fig13_dt_accesses(benchmark, results_dir):
    curves = benchmark.pedantic(
        lambda: {l: one_curve(l) for l in LEVEL_SWEEP}, rounds=1, iterations=1
    )
    table = [fmt_row(["target level"] + [f"L={l}" for l in LEVEL_SWEEP])]
    max_l = max(LEVEL_SWEEP)
    for level in range(1, max_l + 1):
        row = [level] + [
            curves[l].get(level, "") if level <= l else "" for l in LEVEL_SWEEP
        ]
        table.append(fmt_row(row))
    report(
        results_dir,
        "fig13_dt_accesses",
        "Figure 13 — DT accesses per query by target level (T=5, S=4, B=40)",
        table,
    )

    for l, curve in curves.items():
        values = [curve[level] for level in sorted(curve)]
        # Queries to smaller levels touch the DT more than queries to the
        # largest level (rarer bucket combinations)...
        assert values[0] >= values[-1]
        # ...the overall trend rises toward smaller levels...
        assert values[0] >= max(values) / 3
        # ...but flattens: never more than one access per bucket read.
        assert max(values) <= 2.0
        # The largest level's queries almost never need the DT.
        assert values[-1] < 0.2

    # Deeper trees keep the same flattening behaviour (the paper's
    # multiple curves): the worst case does not blow up with L.
    worst = [max(curve.values()) for curve in curves.values()]
    assert max(worst) <= 2.0
