"""Telemetry time-series: periodic registry snapshots in ring buffers.

The metrics registry is a *now* view — one scrape tells you the totals,
not whether the error rate spiked in the last thirty seconds. The
:class:`TimeSeriesStore` closes that gap: ``sample()`` (called by the
server's telemetry loop, or per phase by ``repro tune``) snapshots
every counter, gauge, and histogram into fixed-size per-series ring
buffers, and the query side answers the questions burn-rate alerting
and the dashboard actually ask:

* :meth:`rate` — per-second derivative of a (counter) series over a
  trailing window;
* :meth:`delta` — absolute increase over a window;
* :meth:`window_quantile` — quantile of the *sampled values* in a
  window (e.g. "p95 of the sampled p99s" for a latency SLO);
* :meth:`window_hist_quantile` — a *true* windowed histogram quantile,
  nearest-rank over the bucket-count delta across the window, which is
  what "p99 GET latency over the last minute" should mean.

Histograms expand into derived series — ``name.count``, ``name.sum``,
``name.mean``, ``name.p50/.p95/.p99`` (nearest-rank) and a
``name.buckets`` cumulative-count snapshot backing the windowed
quantile. Everything is wall-clock-stamped with an injectable clock so
tests drive synthetic time.

Like the rest of ``repro.obs`` this is strictly off the counted-I/O
path: sampling reads instruments, it never touches them.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Any, Callable

from repro.common.quantile import nearest_rank
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Histogram quantiles expanded into derived series.
SERIES_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


class Series:
    """One named ring buffer of ``(timestamp, value)`` samples."""

    __slots__ = ("name", "kind", "_points")

    def __init__(self, name: str, kind: str, capacity: int) -> None:
        self.name = name
        #: "counter" | "gauge" | "derived" | "buckets" — counters are
        #: cumulative (rate/delta meaningful), the rest are point-in-
        #: time values.
        self.kind = kind
        self._points: deque[tuple[float, Any]] = deque(maxlen=capacity)

    def append(self, ts: float, value: Any) -> None:
        self._points.append((ts, value))

    def __len__(self) -> int:
        return len(self._points)

    def points(self, window: float | None = None, now: float | None = None
               ) -> list[tuple[float, Any]]:
        """Samples, oldest first; optionally only those in the trailing
        ``window`` seconds ending at ``now`` (default: last sample)."""
        pts = list(self._points)
        if window is None or not pts:
            return pts
        end = now if now is not None else pts[-1][0]
        lo = end - window
        return [p for p in pts if lo <= p[0] <= end]

    def latest(self) -> Any | None:
        return self._points[-1][1] if self._points else None

    def delta(self, window: float, now: float | None = None) -> float:
        """Increase over the window (0.0 with fewer than 2 samples)."""
        pts = self.points(window, now)
        if len(pts) < 2:
            return 0.0
        return pts[-1][1] - pts[0][1]

    def rate(self, window: float, now: float | None = None) -> float:
        """Per-second derivative over the window."""
        pts = self.points(window, now)
        if len(pts) < 2:
            return 0.0
        elapsed = pts[-1][0] - pts[0][0]
        if elapsed <= 0:
            return 0.0
        return (pts[-1][1] - pts[0][1]) / elapsed


class TimeSeriesStore:
    """Fixed-size history for every instrument in one registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.registry = registry
        self.capacity = capacity
        self.clock = clock
        self._series: dict[str, Series] = {}
        #: Total sample() sweeps taken.
        self.samples_taken = 0
        self.last_sample_ts: float | None = None

    # -- recording ------------------------------------------------------

    def _get(self, name: str, kind: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name, kind, self.capacity)
        return series

    def sample(self, now: float | None = None) -> float:
        """Snapshot every instrument; returns the sample timestamp."""
        ts = self.clock() if now is None else now
        registry = self.registry
        registry.collect()
        for instrument in registry.instruments():
            name = instrument.name
            if isinstance(instrument, Counter):
                self._get(name, "counter").append(ts, instrument.value)
            elif isinstance(instrument, Gauge):
                self._get(name, "gauge").append(ts, instrument.value)
            elif isinstance(instrument, Histogram):
                self._get(f"{name}.count", "counter").append(
                    ts, instrument.count
                )
                self._get(f"{name}.sum", "counter").append(ts, instrument.sum)
                self._get(f"{name}.mean", "derived").append(
                    ts, instrument.mean
                )
                for q in SERIES_QUANTILES:
                    self._get(f"{name}.p{int(q * 100)}", "derived").append(
                        ts, instrument.quantile_nearest(q)
                    )
                cumulative: list[int] = []
                total = 0
                for count in instrument.counts:
                    total += count
                    cumulative.append(total)
                self._get(f"{name}.buckets", "buckets").append(
                    ts, (tuple(instrument.bounds), tuple(cumulative))
                )
        self.samples_taken += 1
        self.last_sample_ts = ts
        return ts

    # -- queries --------------------------------------------------------

    def series(self, name: str) -> Series | None:
        return self._series.get(name)

    def names(self) -> list[str]:
        return sorted(self._series)

    def latest(self, name: str) -> Any | None:
        series = self._series.get(name)
        return series.latest() if series is not None else None

    def delta(self, name: str, window: float, now: float | None = None) -> float:
        series = self._series.get(name)
        return series.delta(window, now) if series is not None else 0.0

    def rate(self, name: str, window: float, now: float | None = None) -> float:
        series = self._series.get(name)
        return series.rate(window, now) if series is not None else 0.0

    def window_quantile(
        self, name: str, q: float, window: float, now: float | None = None
    ) -> float | None:
        """Quantile of the sampled values of ``name`` in the window."""
        series = self._series.get(name)
        if series is None:
            return None
        values = [float(v) for _, v in series.points(window, now)]
        return nearest_rank(values, q)

    def window_hist_quantile(
        self, name: str, q: float, window: float, now: float | None = None
    ) -> float | None:
        """True windowed histogram quantile for histogram ``name``.

        Nearest-rank over the cumulative-bucket-count delta between the
        oldest and newest snapshot inside the window; returns the upper
        bound of the bucket holding the rank (``inf`` for overflow),
        None when the window saw no observations.
        """
        series = self._series.get(f"{name}.buckets")
        if series is None:
            return None
        pts = series.points(window, now)
        if not pts:
            return None
        bounds, newest = pts[-1][1]
        if len(pts) == 1:
            oldest = tuple(0 for _ in newest)
        else:
            oldest = pts[0][1][1]
        deltas = [n - o for n, o in zip(newest, oldest)]
        # Overflow observations: count delta minus in-bucket delta.
        total_new = self.delta(f"{name}.count", window, now)
        if len(pts) == 1:
            count_series = self._series.get(f"{name}.count")
            total_new = count_series.latest() or 0 if count_series else 0
        in_buckets = deltas[-1] if deltas else 0
        overflow = max(0, int(total_new) - in_buckets)
        total = in_buckets + overflow
        if total <= 0:
            return None
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        rank = max(1, math.ceil(q * total - 1e-9))
        for bound, cum in zip(bounds, deltas):
            if cum >= rank:
                return float(bound)
        return float("inf")

    def window_hist_fraction_above(
        self, name: str, threshold: float, window: float,
        now: float | None = None,
    ) -> float | None:
        """Fraction of histogram ``name``'s window observations above
        ``threshold`` (bucket-resolution: an observation counts as
        below iff its bucket's upper bound is <= threshold). None when
        the window saw no observations."""
        series = self._series.get(f"{name}.buckets")
        if series is None:
            return None
        pts = series.points(window, now)
        if not pts:
            return None
        bounds, newest = pts[-1][1]
        if len(pts) == 1:
            oldest: tuple[int, ...] = tuple(0 for _ in newest)
            count_series = self._series.get(f"{name}.count")
            total = int(count_series.latest() or 0) if count_series else 0
        else:
            oldest = pts[0][1][1]
            total = int(self.delta(f"{name}.count", window, now))
        deltas = [n - o for n, o in zip(newest, oldest)]
        in_buckets = deltas[-1] if deltas else 0
        overflow = max(0, total - in_buckets)
        total = in_buckets + overflow
        if total <= 0:
            return None
        below = 0
        for bound, cum in zip(bounds, deltas):
            if bound <= threshold:
                below = cum
            else:
                break
        return (total - below) / total

    # -- export ---------------------------------------------------------

    def tail(self, name: str, n: int = 60) -> list[list[float]]:
        """The last ``n`` samples of one series as ``[[ts, value], ...]``
        (buckets series are not tail-able; returns [])."""
        series = self._series.get(name)
        if series is None or series.kind == "buckets":
            return []
        pts = series.points()
        return [[ts, value] for ts, value in pts[-n:]]

    def to_payload(
        self, names: list[str] | None = None, n: int = 60
    ) -> dict[str, Any]:
        """JSON-ready tails for ``names`` (default: every non-bucket
        series) — the block the server embeds in STATS for the dash."""
        if names is None:
            names = [
                name
                for name, series in sorted(self._series.items())
                if series.kind != "buckets"
            ]
        out: dict[str, Any] = {
            "samples_taken": self.samples_taken,
            "capacity": self.capacity,
            "series": {},
        }
        for name in names:
            tail = self.tail(name, n)
            if tail:
                out["series"][name] = tail
        return out
