"""End-to-end observability: metrics registry, trace spans, exporters,
and trace context.

The registry is a *now* view; no history is kept here. The one reader
that wants history, ``repro dash`` (:mod:`repro.obs.dash`), keeps its
own from successive STATS polls.

Usage with the store::

    from repro.obs import Observability

    obs = Observability()
    store = KVStore(config, filter_policy=policy, observability=obs)
    ...  # run a workload
    print(render_prometheus(obs.registry))        # scrape format
    artifact = registry_to_dict(obs.registry)     # JSON artifact
    for span in obs.tracer.recent(10):            # last 10 operations
        print(span.to_dict())

One :class:`Observability` is a *family*: ``child(prefix)`` bundles
(one per shard) share the root's metrics export, trace carrier, and
trace sink, while recording spans in their own tracer with their own
modelled clock. The shared carrier + sink are what let one sampled
request form a single causal tree across the server tracer, the shard
tracers, and — via the wire protocol's trace header — the client.

When no :class:`Observability` is passed, every component falls back to
the shared no-op registry/tracer (:data:`NULL_OBS`): no allocation, no
state, and — crucially for this repo — counted I/Os that are
bit-identical to an uninstrumented build.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.context import (
    HeadSampler,
    TraceBuffer,
    TraceCarrier,
    TraceContext,
    format_trace_id,
    new_span_id,
    new_trace_id,
    parse_trace_id,
)
from repro.obs.export import (
    parse_prometheus,
    registry_to_dict,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import (
    EVICTION_WALK_BUCKETS,
    GROUP_COMMIT_BUCKETS,
    LATENCY_NS_BUCKETS,
    MERGE_INPUT_BUCKETS,
    NULL_REGISTRY,
    SUBLEVELS_BUCKETS,
    WIRE_LATENCY_US_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    PrefixedRegistry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer


class Observability:
    """Bundle of one metrics registry and one tracer.

    Create one per store (or share across stores that should aggregate
    into one scrape). ``enabled=False`` builds the no-op twin — the
    same object shape, zero recording — which is what components see by
    default via :data:`NULL_OBS`.
    """

    def __init__(
        self,
        trace_ring: int = 256,
        enabled: bool = True,
        max_traces: int = 128,
        max_trace_spans: int = 512,
    ) -> None:
        self.enabled = enabled
        self.trace_ring = trace_ring
        if enabled:
            self.registry: MetricsRegistry = MetricsRegistry()
            self.carrier: TraceCarrier | None = TraceCarrier()
            self.trace_sink: TraceBuffer | None = TraceBuffer(
                max_traces=max_traces, max_spans=max_trace_spans
            )
            self.tracer: Tracer = Tracer(
                ring=trace_ring, carrier=self.carrier, sink=self.trace_sink
            )
            self._tracers: list[Tracer] = [self.tracer]
            self._m_dropped = self.registry.counter(
                "trace_spans_dropped",
                "root spans evicted from tracer rings + sink overflow",
            )
            self.registry.add_collector(self._collect_trace_health)
        else:
            self.registry = NULL_REGISTRY
            self.carrier = None
            self.trace_sink = None
            self.tracer = NULL_TRACER
            self._tracers = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at a modelled-time source (the store binds
        this to the cost-model price of its I/O counters)."""
        if self.enabled:
            self.tracer.clock = clock

    def child(self, prefix: str) -> "Observability":
        """A bundle that shares this one's metrics export — with every
        instrument name prefixed — but records spans in its own tracer.

        One child per shard: each shard binds its *own* modelled clock
        (its counters price its I/Os), so shards cannot share a tracer,
        while their metrics still aggregate into one scrape. The trace
        carrier and sink *are* shared: that is what stitches shard
        spans into the request's tree.
        """
        view = Observability.__new__(Observability)
        view.enabled = self.enabled
        view.trace_ring = self.trace_ring
        view.carrier = self.carrier
        view.trace_sink = self.trace_sink
        view._tracers = self._tracers
        if self.enabled:
            view.registry = PrefixedRegistry(self.registry, prefix)
            view.tracer = Tracer(
                ring=self.trace_ring, carrier=self.carrier, sink=self.trace_sink
            )
            self._tracers.append(view.tracer)
        else:
            view.registry = NULL_REGISTRY
            view.tracer = NULL_TRACER
        return view

    def release(self) -> None:
        """Take a :meth:`child` bundle out of its family once its store
        leaves (a shard handed away, a staging store abandoned): its
        instruments and collectors leave the shared registry, and its
        tracer — which holds the store's clock — leaves the family's
        tracers, its drop count folded into the root tracer's so the
        family total never falls. No-op on a root or disabled bundle."""
        if not isinstance(self.registry, PrefixedRegistry):
            return
        self.registry.forget()
        tracers = self._tracers
        if self.tracer in tracers:
            tracers.remove(self.tracer)
            tracers[0].dropped += self.tracer.dropped

    # -- trace health ---------------------------------------------------

    def dropped_spans_total(self) -> int:
        """Spans lost family-wide: ring evictions + sink overflow."""
        if not self.enabled:
            return 0
        total = sum(tracer.dropped for tracer in self._tracers)
        if self.trace_sink is not None:
            total += self.trace_sink.dropped_spans
        return total

    def _collect_trace_health(self) -> None:
        dropped = self.dropped_spans_total()
        if dropped > self._m_dropped.value:
            self._m_dropped.inc(dropped - self._m_dropped.value)


#: The shared disabled bundle; the default for every component.
NULL_OBS = Observability(enabled=False)


__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "PrefixedRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "TraceCarrier",
    "TraceBuffer",
    "HeadSampler",
    "new_trace_id",
    "new_span_id",
    "format_trace_id",
    "parse_trace_id",
    "render_prometheus",
    "render_json",
    "registry_to_dict",
    "parse_prometheus",
    "LATENCY_NS_BUCKETS",
    "EVICTION_WALK_BUCKETS",
    "SUBLEVELS_BUCKETS",
    "MERGE_INPUT_BUCKETS",
    "WIRE_LATENCY_US_BUCKETS",
    "GROUP_COMMIT_BUCKETS",
]
