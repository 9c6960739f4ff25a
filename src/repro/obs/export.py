"""Registry exporters: Prometheus exposition text and structured JSON.

The Prometheus renderer emits the text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` headers, plain samples for counters and
gauges, and the ``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet
with *cumulative* bucket counts for histograms. ``parse_prometheus``
reads that dialect back — enough for a scrape-shaped round-trip test,
not a full PromQL client.

The JSON exporter is the machine-readable artifact ``repro workload
--metrics-out`` writes and the ``metrics`` block of a server's STATS
payload: every instrument, with p50/p95/p99 and the mean precomputed
for histograms so a reader (``repro dash``) needs no bucket math.

Both exporters publish the nearest-rank quantiles
(:meth:`~repro.obs.metrics.Histogram.quantile_nearest`) — monotone,
stable under bucket refinement, and what the tuning sensor compares
thresholds against.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Quantiles precomputed into the JSON export.
EXPORT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def _format_value(value: float) -> str:
    """Prometheus prints integers without an exponent; floats use repr."""
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    registry.collect()
    lines: list[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(instrument.bounds, instrument.counts):
                cumulative += count
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            cumulative += instrument.counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
            for q in EXPORT_QUANTILES:
                lines.append(
                    f"{name}_p{int(q * 100)} "
                    f"{_format_value(instrument.quantile_nearest(q))}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{sample_name: value}``.

    Histogram bucket samples keep their label, e.g.
    ``kv_read_latency_ns_bucket{le="800"}``. Comments and blank lines
    are skipped; malformed sample lines raise ``ValueError``.
    """
    samples: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"malformed sample line: {raw!r}")
        samples[name] = float(value)
    return samples


def registry_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """Structured-JSON view of the registry (collectors refreshed)."""
    registry.collect()
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}
    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            counters[instrument.name] = instrument.value
        elif isinstance(instrument, Gauge):
            gauges[instrument.name] = instrument.value
        elif isinstance(instrument, Histogram):
            entry: dict[str, Any] = {
                "buckets": list(instrument.bounds),
                "counts": list(instrument.counts),
                "sum": instrument.sum,
                "count": instrument.count,
                "mean": instrument.mean,
            }
            for q in EXPORT_QUANTILES:
                entry[f"p{int(q * 100)}"] = instrument.quantile_nearest(q)
            histograms[instrument.name] = entry
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def render_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)
