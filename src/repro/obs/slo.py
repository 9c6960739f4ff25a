"""SLO declarations and multi-window burn-rate alerting.

An :class:`SLO` declares an objective over series the
:class:`~repro.obs.timeseries.TimeSeriesStore` records; the
:class:`SLOEngine` evaluates every objective each telemetry tick using
the multi-window burn-rate method (Google SRE workbook): an alert
fires only when the error budget is burning faster than ``threshold``×
the sustainable rate over *both* a long window (evidence it is real)
and a short window (evidence it is still happening). That pairing is
what keeps the engine quiet through a transient spike *and* fast to
clear once the problem stops.

Two SLO kinds cover the objectives this repo cares about:

* ``ratio`` — "at most ``target`` of events may be bad", over two
  counter series (``bad_series`` / ``total_series``). Burn over a
  window is ``(Δbad / Δtotal) / target``; examples: error rate, BUSY
  shed rate, failed acked-write rate (the durability objective — a
  group-commit apply failure is exactly an at-risk acked write).
* ``latency`` — "at most ``budget`` of requests may exceed
  ``threshold``", over one histogram's bucket history. The violating
  fraction over a window comes from the cumulative-bucket delta
  (:meth:`~repro.obs.timeseries.TimeSeriesStore.window_hist_fraction_above`),
  and burn is ``fraction / budget``.

Results surface three ways, all fed by :meth:`SLOEngine.evaluate`:
gauges in the metrics registry (``slo_<name>_burn_rate`` /
``_alerting`` / ``_value``), the JSON statuses embedded in the
server's STATS payload and ``repro stats``, and registered listeners —
the hook the :class:`~repro.tuning.controller.TuningController`
consumes so tuning decisions can see objective pressure, not just
workload shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore


@dataclass(frozen=True)
class BurnWindow:
    """One long/short window pair and its alerting burn threshold."""

    long_s: float
    short_s: float
    threshold: float

    def __post_init__(self) -> None:
        if self.long_s <= 0 or self.short_s <= 0:
            raise ValueError("burn windows must be positive")
        if self.short_s > self.long_s:
            raise ValueError(
                f"short window {self.short_s}s exceeds long {self.long_s}s"
            )
        if self.threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")


#: Server-scale defaults: a serving process lives minutes-to-hours in
#: this repo, so the classic 1h/6h pairs are scaled down. Fast burn
#: (10× over 60s, still burning over the last 15s) pages; slow burn
#: (5× sustained over 5min) warns.
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(long_s=60.0, short_s=15.0, threshold=10.0),
    BurnWindow(long_s=300.0, short_s=60.0, threshold=5.0),
)


@dataclass(frozen=True)
class SLO:
    """One declared objective (see module docstring for the kinds)."""

    name: str
    kind: str  # "ratio" | "latency"
    description: str = ""
    #: ratio kind: counter series names and the max bad fraction.
    bad_series: str = ""
    total_series: str = ""
    target: float = 0.0
    #: latency kind: histogram base name, threshold in the histogram's
    #: unit, and the allowed fraction of requests above it.
    series: str = ""
    threshold: float = 0.0
    budget: float = 0.0
    windows: tuple[BurnWindow, ...] = field(default=DEFAULT_WINDOWS)

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "latency"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "ratio":
            if not self.bad_series or not self.total_series:
                raise ValueError(f"ratio SLO {self.name!r} needs bad/total series")
            if not 0.0 < self.target < 1.0:
                raise ValueError(
                    f"ratio SLO {self.name!r} target must be in (0, 1)"
                )
        else:
            if not self.series:
                raise ValueError(f"latency SLO {self.name!r} needs a series")
            if self.threshold <= 0:
                raise ValueError(
                    f"latency SLO {self.name!r} threshold must be > 0"
                )
            if not 0.0 < self.budget < 1.0:
                raise ValueError(
                    f"latency SLO {self.name!r} budget must be in (0, 1)"
                )
        if not self.windows:
            raise ValueError(f"SLO {self.name!r} declares no burn windows")

    @property
    def metric_stem(self) -> str:
        return self.name.replace("-", "_").replace(".", "_")


@dataclass
class SLOStatus:
    """One objective's evaluation at one instant."""

    name: str
    kind: str
    #: Current long-window bad fraction (ratio) or violating fraction
    #: (latency) — the measured quantity, before dividing by budget.
    value: float
    #: The decisive burn rate: max over window pairs of
    #: min(long burn, short burn) — the same quantity the alert tests.
    burn_rate: float
    alerting: bool
    #: Per-pair detail, JSON-ready.
    windows: list[dict[str, float]]
    description: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "value": self.value,
            "burn_rate": self.burn_rate,
            "alerting": self.alerting,
            "windows": self.windows,
            "description": self.description,
        }


class SLOEngine:
    """Evaluate declared SLOs over one time-series store."""

    def __init__(
        self,
        slos: list[SLO],
        timeseries: TimeSeriesStore,
        registry: MetricsRegistry | None = None,
    ) -> None:
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        self.slos = list(slos)
        self.ts = timeseries
        self.registry = registry
        self._listeners: list[Callable[[list[SLOStatus]], None]] = []
        self.last_statuses: list[SLOStatus] = []
        self.evaluations = 0

    def add_listener(self, fn: Callable[[list[SLOStatus]], None]) -> None:
        """Register a hook called with the statuses of every evaluate()
        (the TuningController attaches here)."""
        self._listeners.append(fn)

    # -- burn math ------------------------------------------------------

    def _ratio_burn(self, slo: SLO, window: float, now: float | None) -> float:
        total = self.ts.delta(slo.total_series, window, now)
        if total <= 0:
            return 0.0
        bad = self.ts.delta(slo.bad_series, window, now)
        return (bad / total) / slo.target

    def _latency_burn(self, slo: SLO, window: float, now: float | None) -> float:
        frac = self.ts.window_hist_fraction_above(
            slo.series, slo.threshold, window, now
        )
        if frac is None:
            return 0.0
        return frac / slo.budget

    def _burn(self, slo: SLO, window: float, now: float | None) -> float:
        if slo.kind == "ratio":
            return self._ratio_burn(slo, window, now)
        return self._latency_burn(slo, window, now)

    def evaluate_one(self, slo: SLO, now: float | None = None) -> SLOStatus:
        windows: list[dict[str, float]] = []
        decisive = 0.0
        alerting = False
        for pair in slo.windows:
            long_burn = self._burn(slo, pair.long_s, now)
            short_burn = self._burn(slo, pair.short_s, now)
            effective = min(long_burn, short_burn)
            decisive = max(decisive, effective)
            fired = effective > pair.threshold
            alerting = alerting or fired
            windows.append(
                {
                    "long_s": pair.long_s,
                    "short_s": pair.short_s,
                    "threshold": pair.threshold,
                    "long_burn": round(long_burn, 4),
                    "short_burn": round(short_burn, 4),
                    "alerting": fired,
                }
            )
        longest = max(pair.long_s for pair in slo.windows)
        if slo.kind == "ratio":
            budget = slo.target
        else:
            budget = slo.budget
        value = self._burn(slo, longest, now) * budget
        return SLOStatus(
            name=slo.name,
            kind=slo.kind,
            value=round(value, 6),
            burn_rate=round(decisive, 4),
            alerting=alerting,
            windows=windows,
            description=slo.description,
        )

    def evaluate(self, now: float | None = None) -> list[SLOStatus]:
        """Evaluate every SLO; export gauges; notify listeners."""
        statuses = [self.evaluate_one(slo, now) for slo in self.slos]
        self.last_statuses = statuses
        self.evaluations += 1
        if self.registry is not None:
            for slo, status in zip(self.slos, statuses):
                stem = slo.metric_stem
                self.registry.gauge(
                    f"slo_{stem}_burn_rate", f"decisive burn rate of {slo.name}"
                ).set(status.burn_rate)
                self.registry.gauge(
                    f"slo_{stem}_alerting", f"1 while {slo.name} is alerting"
                ).set(1.0 if status.alerting else 0.0)
                self.registry.gauge(
                    f"slo_{stem}_value", f"measured value of {slo.name}"
                ).set(status.value)
        for fn in self._listeners:
            fn(statuses)
        return statuses

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready last evaluation (the STATS / ``repro stats`` block)."""
        return {
            "evaluations": self.evaluations,
            "alerting": sorted(
                s.name for s in self.last_statuses if s.alerting
            ),
            "objectives": [s.as_dict() for s in self.last_statuses],
        }


def default_server_slos(
    get_p99_us: float = 100_000.0,
    error_target: float = 0.01,
    busy_target: float = 0.10,
) -> list[SLO]:
    """The serving-layer objectives ``repro serve`` evaluates."""
    return [
        SLO(
            name="get-latency",
            kind="latency",
            series="server_get_latency_us",
            threshold=get_p99_us,
            budget=0.01,
            description=(
                f"at most 1% of GETs slower than {get_p99_us:.0f}us (wall)"
            ),
        ),
        SLO(
            name="error-rate",
            kind="ratio",
            bad_series="server_errors_total",
            total_series="server_requests_total",
            target=error_target,
            description=f"at most {error_target:.0%} of requests may ERROR",
        ),
        SLO(
            name="busy-rate",
            kind="ratio",
            bad_series="server_shed_total",
            total_series="server_requests_total",
            target=busy_target,
            description=(
                f"at most {busy_target:.0%} of arrivals shed with BUSY"
            ),
        ),
        SLO(
            name="write-durability",
            kind="ratio",
            bad_series="server_commit_failed_items_total",
            total_series="server_commit_items_total",
            target=0.001,
            description=(
                "at most 0.1% of submitted writes may fail group commit "
                "(an apply failure is an acked-write durability risk)"
            ),
        ),
    ]


def default_store_slos(
    read_p99_ns: float = 40_000.0,
    fp_target: float = 0.02,
) -> list[SLO]:
    """Engine-side objectives for batch workloads (``repro stats``)."""
    return [
        SLO(
            name="read-modelled-latency",
            kind="latency",
            series="kv_read_latency_ns",
            threshold=read_p99_ns,
            budget=0.01,
            description=(
                f"at most 1% of reads slower than {read_p99_ns:.0f}ns "
                "(modelled)"
            ),
        ),
        SLO(
            name="false-positive-rate",
            kind="ratio",
            bad_series="kv_read_false_positives_total",
            total_series="kv_reads_total",
            target=fp_target,
            description=(
                f"at most {fp_target:.0%} of reads may probe a run on a "
                "filter false positive"
            ),
        ),
    ]
