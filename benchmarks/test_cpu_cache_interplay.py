"""Section 4.1, "Interplay with CPU Caching".

The paper argues that for point-skewed workloads Chucky fits a larger
hot working set in the CPU caches: a frequently read entry needs only
its *two CF buckets* resident, while blocked Bloom filters need one
cache line in *every* sub-level's filter (up to A lines per hot key).

This bench models the filter-side cache-line traffic directly: for a
Zipfian key stream it derives the exact lines each design touches
(bucket pair for Chucky; one line per run's blocked BF for Bloom),
replays them through an LRU of C lines, and compares miss rates and
hot-working-set sizes across cache sizes.
"""

import random
from collections import OrderedDict

from _support import fmt_row, report

from repro.coding.distributions import LidDistribution
from repro.common.hashing import key_digest
from repro.chucky.filter import ChuckyFilter
from repro.workloads.generators import ZipfianGenerator

T, L = 4, 5
K, Z = T - 1, 1  # lazy leveling: A = 13 sub-levels
HOT_KEYS = 4000
QUERIES = 40000
CACHE_LINES = [256, 1024, 4096, 16384]


class _LruLines:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lines: OrderedDict[tuple, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def touch(self, line: tuple) -> None:
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return
        self.misses += 1
        self._lines[line] = None
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)


def build_traces():
    dist = LidDistribution(T, L, K, Z)
    filt = ChuckyFilter(HOT_KEYS * 10, dist, bits_per_entry=10.0)
    rng = random.Random(3)
    keys = rng.sample(range(1 << 58), HOT_KEYS)
    num_runs = dist.num_sublevels
    # Blocked-BF line model: each run's filter has its own line space;
    # a query touches one line per run (until the entry is found — we
    # model the worst case of data at the largest level, so all A).
    bf_lines_per_filter = max(64, HOT_KEYS * 10 // (num_runs * 51))

    # A 512-bit cache line holds several 40-bit Chucky buckets.
    buckets_per_line = max(1, 512 // filt.codebook.bucket_bits)
    chucky_trace = {}
    bloom_trace = {}
    for key in keys:
        b1, b2 = filt.bucket_pair(key)
        chucky_trace[key] = [
            ("cf", b1 // buckets_per_line),
            ("cf", b2 // buckets_per_line),
        ]
        bloom_trace[key] = [
            ("bf", run, key_digest(key, seed=6000 + run) % bf_lines_per_filter)
            for run in range(1, num_runs + 1)
        ]
    return keys, chucky_trace, bloom_trace, num_runs


def run():
    keys, chucky_trace, bloom_trace, num_runs = build_traces()
    zipf = ZipfianGenerator(len(keys), theta=0.99, seed=5)
    stream = [keys[zipf.next_rank()] for _ in range(QUERIES)]
    rows = []
    for capacity in CACHE_LINES:
        chucky_cache = _LruLines(capacity)
        bloom_cache = _LruLines(capacity)
        for key in stream:
            for line in chucky_trace[key]:
                chucky_cache.touch(line)
            for line in bloom_trace[key]:
                bloom_cache.touch(line)
        rows.append(
            (
                capacity,
                chucky_cache.misses / QUERIES,
                bloom_cache.misses / QUERIES,
            )
        )
    return rows, num_runs


def test_cpu_cache_interplay(benchmark, results_dir):
    rows, num_runs = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        fmt_row(
            ["cache lines", "Chucky misses/query", "blocked-BF misses/query"],
            widths=[12, 20, 24],
        )
    ]
    for row in rows:
        table.append(fmt_row(list(row), widths=[12, 20, 24]))
    report(
        results_dir,
        "cpu_cache_interplay",
        f"Section 4.1 — filter cache-line misses per query, Zipfian reads "
        f"(lazy leveling, A={num_runs} runs)",
        table,
    )

    # Per hot key, Chucky needs 2 resident lines; blocked BFs need one
    # per run. With a cache smaller than the filter footprint, Chucky's
    # hot set fits and the BFs thrash — the paper's point-skew claim.
    smallest = rows[0]
    assert smallest[1] < smallest[2] / 3
    # Once the cache holds the whole (equal-budget) structures, both
    # saturate to the same near-zero cold-miss floor.
    largest = rows[-1]
    assert largest[1] < 0.1 and largest[2] < 0.1
    assert abs(largest[1] - largest[2]) < 0.05
    # Chucky's miss rate is monotone non-increasing in cache size, and
    # never meaningfully worse than the BFs at any size.
    chucky_series = [r[1] for r in rows]
    assert chucky_series == sorted(chucky_series, reverse=True)
    for _, chucky, bloom in rows:
        assert chucky <= bloom + 0.05
