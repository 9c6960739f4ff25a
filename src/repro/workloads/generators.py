"""Access-pattern generators.

The paper uses a uniform distribution for worst-case behaviour and a
Zipfian distribution (parameter ~1) to create skew that keeps hot data
in the block cache (Figure 14 F). The throughput experiment (Figure
14 H) is "95% Zipfian reads and 5% Zipfian writes (modeled after
Workload B in YCSB)".
"""

from __future__ import annotations

import math
import random
from typing import Iterator

#: Euler–Mascheroni constant: ``H_n ~ ln n + gamma``, the log-harmonic
#: zeta approximation the ``theta == 1`` Zipfian boundary runs on.
EULER_GAMMA = 0.5772156649


class UniformGenerator:
    """Uniform draws over a key population."""

    def __init__(self, keys: list[int], seed: int = 0) -> None:
        if not keys:
            raise ValueError("key population must be non-empty")
        self._keys = keys
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.choice(self._keys)

    def sample(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


class ZipfianGenerator:
    """Zipfian item ranks (YCSB-style, default theta ~0.99 ≈ parameter 1).

    Rank r (0-based) has probability proportional to ``1 / (r+1)^theta``.
    Uses the standard Gray/YCSB closed-form sampler: O(1) per draw after
    an O(n) zeta precomputation.
    """

    def __init__(self, num_items: int, theta: float = 0.99, seed: int = 0) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if not 0 < theta <= 1:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self._n = num_items
        self._theta = theta
        self._rng = random.Random(seed)
        self._zetan = sum(1.0 / (i + 1) ** theta for i in range(num_items))
        self._zeta2 = 1.0 + 2.0 ** (-theta)
        if theta == 1.0:
            # The boundary the classic Gray sampler's closed form cannot
            # express (alpha = 1/(1-theta) diverges): invert the
            # log-harmonic zeta instead — H_r ~ ln r + gamma, so
            # u·H_n = H_r gives r = exp(u·(ln n + gamma) - gamma).
            self._alpha = 0.0
            self._eta = 0.0
        else:
            self._alpha = 1.0 / (1.0 - theta)
            self._eta = (1.0 - (2.0 / num_items) ** (1.0 - theta)) / (
                1.0 - self._zeta2 / self._zetan
            )

    def next_rank(self) -> int:
        """A 0-based rank; rank 0 is the hottest item."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._zeta2:
            return 1
        if self._theta == 1.0:
            rank = int(
                math.exp(u * (math.log(self._n) + EULER_GAMMA) - EULER_GAMMA)
            )
        else:
            rank = int(self._n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(max(rank, 0), self._n - 1)

    def probability_of_rank(self, rank: int) -> float:
        return (1.0 / (rank + 1) ** self._theta) / self._zetan


def zipf_over(keys: list[int], theta: float = 0.99, seed: int = 0) -> Iterator[int]:
    """Endless Zipfian stream over a key population; the population is
    shuffled once so physical key order does not correlate with heat."""
    rng = random.Random(seed ^ 0x5F5E100)
    shuffled = list(keys)
    rng.shuffle(shuffled)
    gen = ZipfianGenerator(len(shuffled), theta=theta, seed=seed)
    while True:
        yield shuffled[gen.next_rank()]


def ycsb_b(
    keys: list[int],
    num_ops: int,
    read_fraction: float = 0.95,
    theta: float = 0.99,
    seed: int = 0,
) -> Iterator[tuple[str, int]]:
    """YCSB Workload B: skewed reads with a trickle of skewed updates.

    Yields ``('read', key)`` or ``('update', key)`` tuples.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
    rng = random.Random(seed ^ 0xABCDEF)
    stream = zipf_over(keys, theta=theta, seed=seed)
    for _ in range(num_ops):
        op = "read" if rng.random() < read_fraction else "update"
        yield op, next(stream)


#: (read, update, insert, scan, rmw) fractions per YCSB core workload.
#: B is kept on its dedicated generator (:func:`ycsb_b`, the paper's
#: Figure 14 H mix) so its draw sequence stays bit-identical to the seed.
_YCSB_MIXES: dict[str, tuple[float, float, float, float, float]] = {
    "ycsb-a": (0.50, 0.50, 0.0, 0.0, 0.0),
    "ycsb-c": (1.00, 0.00, 0.0, 0.0, 0.0),
    "ycsb-d": (0.95, 0.00, 0.05, 0.0, 0.0),
    "ycsb-e": (0.00, 0.00, 0.05, 0.95, 0.0),
    "ycsb-f": (0.50, 0.00, 0.0, 0.0, 0.50),
}

#: Every workload kind :func:`request_stream` understands.
WORKLOAD_KINDS = (
    "uniform", "zipf", "churn", "denylist",
    "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f",
)


def ycsb(
    kind: str,
    keys: list[int],
    num_ops: int,
    theta: float = 0.99,
    seed: int = 0,
) -> Iterator[tuple[str, int]]:
    """The YCSB core workloads A, C, D, E and F over ``keys``.

    * ``ycsb-a`` — 50/50 skewed reads/updates (update heavy);
    * ``ycsb-c`` — 100% skewed reads;
    * ``ycsb-d`` — 95/5 reads/inserts, *latest* distribution: inserts
      append fresh keys past ``max(keys)`` and reads are Zipfian over
      recency rank (rank 0 = the newest key);
    * ``ycsb-e`` — 95/5 short scans/inserts (scan spans are the
      consumer's choice; the stream yields the start key);
    * ``ycsb-f`` — 50/50 reads/read-modify-writes.
    """
    try:
        read_f, update_f, insert_f, scan_f, _rmw_f = _YCSB_MIXES[kind]
    except KeyError:
        raise ValueError(
            f"unknown YCSB workload {kind!r}; want {sorted(_YCSB_MIXES)}"
        ) from None
    rng = random.Random(seed ^ 0xABCDEF)
    if kind == "ycsb-d":
        # Latest distribution: population grows with inserts; the rank
        # generator is sized for the initial population and draws index
        # recency from the *end* of the list.
        population = list(keys)
        next_key = max(keys) + 1
        gen = ZipfianGenerator(len(population), theta=theta, seed=seed)
        for _ in range(num_ops):
            if rng.random() < insert_f:
                population.append(next_key)
                yield "insert", next_key
                next_key += 1
            else:
                rank = min(gen.next_rank(), len(population) - 1)
                yield "read", population[-1 - rank]
        return
    stream = zipf_over(keys, theta=theta, seed=seed)
    next_insert = max(keys) + 1
    for _ in range(num_ops):
        u = rng.random()
        if u < read_f:
            yield "read", next(stream)
        elif u < read_f + update_f:
            yield "update", next(stream)
        elif u < read_f + update_f + insert_f:
            yield "insert", next_insert
            next_insert += 1
        elif u < read_f + update_f + insert_f + scan_f:
            yield "scan", next(stream)
        else:
            yield "rmw", next(stream)


def churn_stream(
    keys: list[int],
    num_ops: int,
    live_fraction: float = 0.5,
    read_fraction: float = 0.25,
    seed: int = 0,
) -> Iterator[tuple[str, int]]:
    """Insert/delete cycling over a bounded live set.

    Keeps roughly ``live_fraction`` of the key population live: below
    target the write side inserts a dead key, at/above it deletes a
    live one, so the store's ``num_entries`` stays bounded no matter how
    long the stream runs — the filter-churn stress the delete-contract
    and maintenance-miss fixes exist for. ``read_fraction`` of the ops
    are uniform reads over the whole population, so roughly
    ``1 - live_fraction`` of them are negative lookups.
    """
    if not keys:
        raise ValueError("key population must be non-empty")
    if not 0.0 < live_fraction <= 1.0:
        raise ValueError(f"live_fraction must be in (0, 1], got {live_fraction}")
    if not 0.0 <= read_fraction < 1.0:
        raise ValueError(f"read_fraction must be in [0, 1), got {read_fraction}")
    rng = random.Random(seed ^ 0xC0FFEE)
    target = max(1, int(len(keys) * live_fraction))
    live: list[int] = []
    live_set: set[int] = set()
    dead = list(keys)
    for _ in range(num_ops):
        if rng.random() < read_fraction:
            yield "read", keys[rng.randrange(len(keys))]
            continue
        if len(live) < target and dead:
            pick = dead.pop(rng.randrange(len(dead)))
            live.append(pick)
            live_set.add(pick)
            yield "insert", pick
        else:
            index = rng.randrange(len(live))
            pick = live[index]
            live[index] = live[-1]
            live.pop()
            live_set.discard(pick)
            dead.append(pick)
            yield "delete", pick


def denylist_stream(
    keys: list[int],
    num_ops: int,
    deny_fraction: float = 0.05,
    check_fraction: float = 0.90,
    seed: int = 0,
) -> Iterator[tuple[str, int]]:
    """Streaming admission control against a denylist.

    The store holds only the *listed* keys (a small, churning set of at
    most ``deny_fraction`` of the population); ``check_fraction`` of the
    ops are admission checks — uniform reads over the whole population,
    so the overwhelming majority are negative lookups, the regime where
    the filter does all the work. The rest of the ops list a key
    (``insert``, or ``update`` when it is already listed) or unlist one
    (``delete``). Start against an *empty* store: unlike the other
    kinds, the population must not be preloaded.
    """
    if not keys:
        raise ValueError("key population must be non-empty")
    if not 0.0 < deny_fraction <= 1.0:
        raise ValueError(f"deny_fraction must be in (0, 1], got {deny_fraction}")
    if not 0.0 <= check_fraction < 1.0:
        raise ValueError(
            f"check_fraction must be in [0, 1), got {check_fraction}"
        )
    rng = random.Random(seed ^ 0xDE27157)
    target = max(1, int(len(keys) * deny_fraction))
    listed: list[int] = []
    listed_set: set[int] = set()
    for _ in range(num_ops):
        if rng.random() < check_fraction:
            yield "read", keys[rng.randrange(len(keys))]
        elif len(listed) < target:
            pick = keys[rng.randrange(len(keys))]
            if pick in listed_set:
                yield "update", pick
            else:
                listed.append(pick)
                listed_set.add(pick)
                yield "insert", pick
        else:
            index = rng.randrange(len(listed))
            pick = listed[index]
            listed[index] = listed[-1]
            listed.pop()
            listed_set.discard(pick)
            yield "delete", pick


def request_stream(
    kind: str,
    keys: list[int],
    num_ops: int,
    read_fraction: float = 0.95,
    theta: float = 0.99,
    seed: int = 0,
) -> Iterator[tuple[str, int]]:
    """A finite stream of ``(kind, key)`` requests, kinds in
    :data:`repro.workloads.ops.STREAM_KINDS`.

    One entry point for everything that *drives* a store — the serving
    layer's load generator most of all — over the repo's access
    patterns:

    * ``'uniform'`` — uniform key draws, ``read_fraction`` reads, the
      rest updates;
    * ``'zipf'``    — Zipfian(theta) keys (shuffled heat order, see
      :func:`zipf_over`), ``read_fraction`` reads;
    * ``'ycsb-b'``  — the paper's Figure 14 H mix: 95%/5% skewed
      reads/updates (``read_fraction`` and ``theta`` still apply);
    * ``'ycsb-a'|'ycsb-c'|'ycsb-d'|'ycsb-e'|'ycsb-f'`` — the remaining
      YCSB core mixes (:func:`ycsb`);
    * ``'churn'``   — bounded insert/delete cycling with uniform reads
      (:func:`churn_stream`; ``read_fraction`` sets the read share);
    * ``'denylist'`` — streaming admission checks, negative-lookup
      dominated (:func:`denylist_stream`; run against an empty store).
    """
    if kind == "ycsb-b":
        yield from ycsb_b(
            keys, num_ops, read_fraction=read_fraction, theta=theta, seed=seed
        )
        return
    if kind in _YCSB_MIXES:
        yield from ycsb(kind, keys, num_ops, theta=theta, seed=seed)
        return
    if kind == "churn":
        yield from churn_stream(
            keys, num_ops, read_fraction=min(read_fraction, 0.5), seed=seed
        )
        return
    if kind == "denylist":
        yield from denylist_stream(keys, num_ops, seed=seed)
        return
    if kind == "uniform":
        gen = UniformGenerator(keys, seed=seed)
        draw = gen.next
    elif kind == "zipf":
        stream = zipf_over(keys, theta=theta, seed=seed)
        draw = lambda: next(stream)  # noqa: E731
    else:
        raise ValueError(
            f"unknown workload kind {kind!r}; want uniform|zipf|churn|"
            f"denylist|ycsb-a..f"
        )
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
    rng = random.Random(seed ^ 0x51EADED)
    for _ in range(num_ops):
        op = "read" if rng.random() < read_fraction else "update"
        yield op, draw()


def zipf_pmf_checksum(num_items: int, theta: float = 0.99) -> float:
    """Sum of the rank pmf (should be ~1; exposed for tests)."""
    zetan = sum(1.0 / (i + 1) ** theta for i in range(num_items))
    return sum((1.0 / (i + 1) ** theta) / zetan for i in range(num_items))


def harmonic_approx(n: int, theta: float) -> float:
    """Generalized harmonic number approximation (used in tests to bound
    the zeta precompute)."""
    if theta == 1.0:
        return math.log(n) + EULER_GAMMA
    return (n ** (1 - theta) - 1) / (1 - theta) + 1
