"""Shared infrastructure for the figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper: it builds
the experiment, prints the same rows/series the paper reports, writes
them to ``<results_dir>/<name>.txt`` (the ``--results-dir`` of the run,
a temp dir by default — the pinned copies in ``benchmarks/results/`` are
only ever diffed against), and asserts the qualitative *shape* (who
wins, growth trends, crossovers) — absolute numbers differ because the
substrate is a simulator (see DESIGN.md section 2).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.coding.distributions import LidDistribution


def report(results_dir: Path, name: str, title: str, lines: list[str]) -> None:
    """Print a result table and persist it as ``results_dir/<name>.txt``."""
    text = "\n".join([f"== {title} ==", *lines, ""])
    (results_dir / f"{name}.txt").write_text(text)
    # Write to the real stdout so the table shows even under capture.
    sys.stdout.write(text + "\n")


def fmt_row(cells, widths=None) -> str:
    widths = widths or [12] * len(cells)
    return "  ".join(
        f"{cell:>{w}.5g}" if isinstance(cell, float) else f"{str(cell):>{w}}"
        for cell, w in zip(cells, widths)
    )


def lid_stream(dist: LidDistribution, count: int, seed: int = 0):
    """(key, lid) pairs with LIDs drawn from the worst-case distribution
    of Eq 8 — the synthetic stand-in for a full LSM-tree when only
    filter behaviour is measured (FPR experiments).

    The absolute entry count does not affect per-entry filter behaviour
    (FPR depends on bits per entry, not on n), which is what lets the
    benchmarks run at laptop scale.
    """
    rng = random.Random(seed)
    keys = rng.sample(range(1 << 60), count)
    probs = [float(p) for p in dist.probabilities()]
    lids = rng.choices(list(dist.lids), weights=probs, k=count)
    return list(zip(keys, lids))


def fresh_negatives(count: int, seed: int = 10**6) -> list[int]:
    rng = random.Random(seed)
    # Drawn from a disjoint half of the key space.
    return [(1 << 60) + rng.getrandbits(59) for _ in range(count)]


def measure_bloom_fpr_sum(
    dist: LidDistribution,
    bits_per_entry: float,
    allocation: str,
    variant: str,
    total_entries: int = 30000,
    negatives: int = 2500,
    seed: int = 0,
) -> float:
    """Measured FPR (expected false positives per negative query, summed
    across all per-run filters) for a Bloom-filter baseline over the
    worst-case full tree."""
    from repro.filters.allocation import (
        optimal_bits_per_sublevel,
        uniform_bits_per_sublevel,
    )
    from repro.filters.blocked_bloom import BlockedBloomFilter
    from repro.filters.bloom import BloomFilter

    table = (
        uniform_bits_per_sublevel(dist, bits_per_entry)
        if allocation == "uniform"
        else optimal_bits_per_sublevel(dist, bits_per_entry)
    )
    cls = BloomFilter if variant == "standard" else BlockedBloomFilter
    rng = random.Random(seed)
    filters = []
    for lid, f in zip(dist.lids, dist.probabilities()):
        n = max(1, round(total_entries * float(f)))
        bits = table[lid]
        if bits <= 0.5:
            filters.append(None)  # Monkey disabled this filter
            continue
        filt = cls(n, bits)
        for key in rng.sample(range(1 << 59), n):
            filt.add(key)
        filters.append(filt)
    hits = 0
    none_filters = sum(1 for f in filters if f is None)
    for key in fresh_negatives(negatives, seed=seed + 1):
        hits += sum(1 for f in filters if f is not None and f.may_contain(key))
    # A disabled filter means its run is always searched: count it as a
    # certain false positive per query.
    return hits / negatives + none_filters


def measure_chucky_fpr(
    dist: LidDistribution,
    bits_per_entry: float,
    compressed: bool = True,
    total_entries: int = 30000,
    negatives: int = 2500,
    seed: int = 0,
) -> float:
    """Measured FPR (false positives per negative query) for the unified
    cuckoo filters over the worst-case full tree."""
    from repro.chucky.filter import ChuckyFilter, UncompressedLidFilter

    if compressed:
        filt = ChuckyFilter(total_entries, dist, bits_per_entry=bits_per_entry)
    else:
        filt = UncompressedLidFilter(
            total_entries, dist, bits_per_entry=bits_per_entry
        )
    for key, lid in lid_stream(dist, total_entries, seed=seed):
        filt.insert(key, lid)
    total = sum(len(filt.query(k)) for k in fresh_negatives(negatives, seed + 1))
    return total / negatives


def write_until_major_compaction(kv, key_seed: int = 500, cap: int = 200000):
    """The paper's write-cost protocol (section 5, Setup): start from a
    tree whose levels are empty except the largest, then apply writes of
    fresh keys until a major compaction into the largest level occurs
    (the tree grows), so filter-resizing overheads are included.

    Returns the number of application writes issued.
    """
    rng = random.Random(key_seed)
    grew = []
    kv.tree.grow_listeners.append(lambda n: grew.append(n))
    writes = 0
    while not grew and writes < cap:
        kv.put((1 << 61) + rng.getrandbits(59), "w")
        writes += 1
    return writes


def filter_ios(mem_diff: dict) -> int:
    """Total filter-category memory I/Os in a counter diff."""
    return sum(v for k, v in mem_diff.items() if k.startswith("filter"))


def monotone_nondecreasing(xs, slack=0.0) -> bool:
    return all(b >= a - slack for a, b in zip(xs, xs[1:]))


def roughly_flat(xs, ratio=1.6) -> bool:
    lo, hi = min(xs), max(xs)
    return hi <= lo * ratio + 1e-12
