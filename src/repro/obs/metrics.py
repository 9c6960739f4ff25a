"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The registry is the single collection point for everything the store
measures at runtime — modelled per-operation latencies, false
positives, eviction-walk lengths, compaction events, cache hit rates.
Two design rules keep it honest with the repo's counted-I/O
methodology:

* **Never touches the I/O counters.** Metrics are observations *about*
  counted work, priced by the :class:`~repro.common.cost.CostModel`;
  recording them must not change the counts the benchmarks reproduce.
* **Zero-cost when disabled.** Components hold instrument objects
  obtained from a registry at construction time. The default registry
  is :data:`NULL_REGISTRY`, whose instruments are shared no-op
  singletons, so the disabled path is a single dynamic dispatch with no
  allocation — and counted I/Os stay bit-identical either way.

Histograms use fixed bucket bounds (Prometheus ``le`` semantics: a
value lands in the first bucket whose upper bound is >= the value, with
an implicit ``+Inf`` overflow bucket), so ``observe()`` is one bisect
and one increment.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from typing import Callable, Sequence

#: Modelled-latency bounds in nanoseconds: one memory I/O (~100 ns) up
#: through many storage I/Os (~10 us each); geometric-ish spacing keeps
#: relative quantile error bounded.
LATENCY_NS_BUCKETS: tuple[float, ...] = (
    100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200,
    102_400, 204_800, 409_600, 819_200, 1_638_400, 6_553_600, 26_214_400,
)

#: Cuckoo eviction-walk lengths (0 = inserted without evicting anyone).
EVICTION_WALK_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512,
)

#: Sub-levels probed by one point read (Chucky's headline is ~always 1).
SUBLEVELS_BUCKETS: tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

#: Merge fan-in (number of input sub-levels participating in one merge).
MERGE_INPUT_BUCKETS: tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16)

#: Wall-clock request latencies in MICROseconds, as seen by the TCP
#: serving layer (these are real durations, not modelled time): tens of
#: microseconds for an in-memory hit up through a second of queueing.
WIRE_LATENCY_US_BUCKETS: tuple[float, ...] = (
    50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600,
    51_200, 102_400, 204_800, 409_600, 819_200, 1_638_400,
)

#: Writes coalesced into one group-commit batch (1 = no coalescing).
GROUP_COMMIT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (or be sampled by a collector)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (<=) semantics.

    ``counts[i]`` counts observations with ``value <= bounds[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the implicit
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    def __init__(
        self, name: str, bounds: Sequence[float], help: str = ""
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.help = help
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile_nearest(self, q: float) -> float:
        """Nearest-rank q-quantile: the upper bound of the bucket holding
        the ``ceil(q * count)``-th observation. It never interpolates,
        so it is monotone in ``q``, stable under bucket refinement, and
        returns an actual bucket boundary — the form the tuning sensor
        wants for threshold comparisons. Overflow-bucket ranks clamp to
        the largest finite bound (as Prometheus' ``histogram_quantile``
        does); an empty histogram answers 0.0."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, ceil(q * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i == len(self.bounds):  # +Inf overflow bucket
                    return self.bounds[-1]
                return self.bounds[i]
        return self.bounds[-1]

    @property
    def p50(self) -> float:
        return self.quantile_nearest(0.50)

    @property
    def p95(self) -> float:
        return self.quantile_nearest(0.95)

    @property
    def p99(self) -> float:
        return self.quantile_nearest(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named instruments plus collector callbacks.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    name always returns the same object, so components can grab their
    instruments once at construction and hold them (allocation-free hot
    paths). Collectors are callables run by :meth:`collect` just before
    an export, for sampled values (cache hit ratio, structure sizes)
    that are cheaper to read on demand than to push on every change.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._collectors: list[Callable[[], None]] = []

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> Histogram:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        hist = Histogram(name, buckets, help)
        self._instruments[name] = hist
        return hist

    def _get_or_create(self, cls, name: str, help: str):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        instrument = cls(name, help)
        self._instruments[name] = instrument
        return instrument

    def add_collector(self, fn: Callable[[], None]) -> None:
        self._collectors.append(fn)

    def collect(self) -> None:
        """Refresh sampled gauges (run every registered collector)."""
        for fn in self._collectors:
            fn()

    def instruments(self) -> list[Instrument]:
        """All instruments in registration order."""
        return list(self._instruments.values())

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)


class PrefixedRegistry(MetricsRegistry):
    """A view of another registry that prefixes every instrument name.

    Lets several components share one scrape/export while keeping
    their instruments distinct — the sharded store hands each shard a
    ``PrefixedRegistry(parent, "shard3_")`` so the shard's
    ``kv_reads_total`` lands in the parent as ``shard3_kv_reads_total``.
    Collectors registered through the view run with the parent's
    :meth:`collect`, and :meth:`instruments` narrows to this prefix.
    :meth:`forget` takes both back out when the component leaves.
    """

    def __init__(self, parent: MetricsRegistry, prefix: str) -> None:
        self.parent = parent
        self.prefix = prefix
        #: Collectors registered through this view (the parent runs them).
        self._collectors: list[Callable[[], None]] = []

    def counter(self, name: str, help: str = "") -> Counter:
        return self.parent.counter(self.prefix + name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.parent.gauge(self.prefix + name, help)

    def histogram(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> Histogram:
        return self.parent.histogram(self.prefix + name, buckets, help)

    def add_collector(self, fn: Callable[[], None]) -> None:
        self._collectors.append(fn)
        self.parent.add_collector(fn)

    def collect(self) -> None:
        self.parent.collect()

    def forget(self) -> None:
        """Remove this view's instruments and collectors from the parent
        (the component they belong to has left: a shard handed to
        another node, say), so the parent neither exports them nor
        keeps the component alive through a collector."""
        for inst in self.instruments():
            del self.parent._instruments[inst.name]
        for fn in self._collectors:
            self.parent._collectors.remove(fn)
        self._collectors.clear()

    def instruments(self) -> list[Instrument]:
        return [
            inst
            for inst in self.parent.instruments()
            if inst.name.startswith(self.prefix)
        ]

    def get(self, name: str) -> Instrument | None:
        return self.parent.get(self.prefix + name)


# ----------------------------------------------------------------------
# No-op variants: the zero-cost disabled path
# ----------------------------------------------------------------------


class NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = NullCounter("null")
_NULL_GAUGE = NullGauge("null")
_NULL_HISTOGRAM = NullHistogram("null", (1.0,))


class NullRegistry(MetricsRegistry):
    """Hands out shared no-op instruments; never accumulates anything."""

    enabled = False

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Sequence[float], help: str = ""
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def add_collector(self, fn: Callable[[], None]) -> None:
        pass


#: The process-wide disabled registry; components default to this.
NULL_REGISTRY = NullRegistry()
