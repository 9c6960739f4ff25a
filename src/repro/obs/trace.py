"""Trace spans over *modelled* time, now with cross-tracer trace ids.

A span wraps one logical operation (a point read, a write, a merge
cascade, a codebook rebuild) and records how much modelled time — the
:class:`~repro.common.cost.CostModel` price of the I/Os counted while
the span was open — the operation took, plus wall time, arbitrary
attributes and any nested child spans. Finished root spans land in a
bounded ring buffer (with dropped-span accounting), so after a workload
the last N operations can be dumped to explain a single slow or
false-positive-heavy read without having logged millions of
uninteresting ones.

The clock is injected: :class:`~repro.engine.kvstore.KVStore` binds it
to "total modelled nanoseconds so far" over its shared I/O counters.
Spans therefore measure exactly the quantity the paper's figures are
drawn in; ``wall_ns`` records interpreter reality alongside it.

Trace linkage: every span carries ``(trace_id, span_id, parent_id)``.
Parentage resolves in order — the tracer's own open-span stack first
(plain synchronous nesting), then the family's
:class:`~repro.obs.context.TraceCarrier` (cross-tracer linkage: a
server span adopting a shard span), else the span is untraced
(``trace_id == 0``). Traced root spans are also copied into the shared
:class:`~repro.obs.context.TraceBuffer` sink so sampled trees survive
ring churn. The one discipline that makes all of this safe: a span is
never held open across an ``await`` — asynchronous completions are
stamped with :meth:`Tracer.record` instead.

A span is built only when something will keep it (:meth:`Tracer.sampling`):
inside an open span, under an active carrier trace, or on a tracer whose
ring keeps untraced roots. ``Tracer(ring=0)`` keeps none, so on it an
unsampled operation gets the shared inert context — the head sampler's
"no" then costs no span downstream either.

``NULL_TRACER`` is the no-op twin: ``span()`` returns a shared inert
context manager, so disabled tracing costs one call and no allocation.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable

from repro.obs.context import TraceBuffer, TraceCarrier, new_span_id


class Span:
    """One traced operation: name, attributes, modelled + wall
    duration, trace linkage, nested children, and the error (if the
    wrapped block raised)."""

    __slots__ = (
        "name",
        "attrs",
        "start_ns",
        "duration_ns",
        "wall_ns",
        "trace_id",
        "span_id",
        "parent_id",
        "children",
        "error",
    )

    def __init__(self, name: str, attrs: dict[str, Any], start_ns: float) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ns = start_ns
        self.duration_ns = 0.0
        #: Wall-clock nanoseconds (perf_counter based), 0 until closed.
        self.wall_ns = 0.0
        #: 0 = untraced. Nonzero links the span into one causal tree.
        self.trace_id = 0
        self.span_id = new_span_id()
        #: 0 = root of its tree (or untraced).
        self.parent_id = 0
        self.children: list[Span] = []
        self.error: str | None = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "wall_ns": self.wall_ns,
            "span_id": self.span_id,
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanContext:
    """Context manager pushing/popping one span on the tracer's stack.

    Exception-safe: ``__exit__`` always pops and records the span, and
    stamps the error type on it without swallowing the exception. For
    traced spans it also activates the family carrier for its dynamic
    extent, so spans opened on *other* tracers parent to this one.
    """

    __slots__ = ("_tracer", "_span", "_wall0", "_saved")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._saved: tuple[int, int] | None = None

    def __enter__(self) -> Span:
        span = self._span
        self._tracer._stack.append(span)
        carrier = self._tracer.carrier
        if span.trace_id and carrier is not None:
            self._saved = carrier.activate(span.trace_id, span.span_id)
        self._wall0 = time.perf_counter_ns()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        tracer = self._tracer
        span.wall_ns = float(time.perf_counter_ns() - self._wall0)
        span.duration_ns = tracer.clock() - span.start_ns
        if exc_type is not None:
            span.error = exc_type.__name__
        if self._saved is not None:
            tracer.carrier.restore(self._saved)  # type: ignore[union-attr]
        popped = tracer._stack.pop()
        assert popped is span, "span stack corrupted"
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer._finish_root(span)
        return False  # never swallow


class Tracer:
    """Produces spans and keeps the last ``ring`` finished root spans.

    ``ring == 0`` keeps no root spans at all: untraced work records
    nothing and traced roots go to the sink only (a served store's
    tracers, whose rings no one reads).

    ``carrier``/``sink`` are optional family-shared objects (see
    :class:`~repro.obs.Observability`): the carrier supplies cross-
    tracer parentage for traced spans, the sink preserves sampled trees
    beyond ring churn.
    """

    def __init__(
        self,
        ring: int = 256,
        clock: Callable[[], float] | None = None,
        carrier: TraceCarrier | None = None,
        sink: TraceBuffer | None = None,
    ) -> None:
        if ring < 0:
            raise ValueError(f"ring size must be >= 0, got {ring}")
        #: Modelled-time source; rebound by the store that owns the
        #: counters. Defaults to a frozen clock so spans still nest
        #: correctly (with zero durations) before binding.
        self.clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        self.carrier = carrier
        self.sink = sink
        #: Finished root spans evicted from the ring (satellite: the
        #: sampling/overflow loss must be observable, never silent).
        self.dropped = 0
        self._stack: list[Span] = []
        self._ring: deque[Span] = deque(maxlen=ring)
        self._keeps_roots = ring > 0

    def sampling(self) -> bool:
        """Whether a span opened now would be kept: inside an open span,
        under an active carrier trace, or on a tracer that keeps
        untraced roots."""
        if self._keeps_roots or self._stack:
            return True
        carrier = self.carrier
        return carrier is not None and carrier.trace_id != 0

    def span(self, name: str, **attrs: Any) -> _SpanContext | _NullSpanContext:
        carrier = self.carrier
        if self._stack:
            top = self._stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        elif carrier is not None and carrier.trace_id:
            trace_id, parent_id = carrier.trace_id, carrier.span_id
        elif self._keeps_roots:
            trace_id = parent_id = 0
        else:
            return _NULL_CONTEXT
        span = Span(name, attrs, self.clock())
        span.trace_id = trace_id
        span.parent_id = parent_id
        return _SpanContext(self, span)

    def span_for(
        self, name: str, trace_id: int, parent_id: int, **attrs: Any
    ) -> _SpanContext | _NullSpanContext:
        """A span with *explicit* trace linkage — the entry point for a
        context that arrived over the wire (``trace_id == 0`` degrades
        to a plain :meth:`span`)."""
        if not trace_id:
            return self.span(name, **attrs)
        span = Span(name, attrs, self.clock())
        span.trace_id = trace_id
        span.parent_id = parent_id
        return _SpanContext(self, span)

    def record(
        self,
        name: str,
        *,
        trace_id: int = 0,
        parent_id: int = 0,
        span_id: int | None = None,
        start_ns: float | None = None,
        duration_ns: float = 0.0,
        wall_ns: float = 0.0,
        error: str | None = None,
        **attrs: Any,
    ) -> Span:
        """File an already-finished span.

        This is how asynchronous completions are traced without holding
        a span across an ``await``: allocate a span id up front (so
        children created meanwhile can parent to it), measure, then
        record the finished span here. An untraced root on a tracer
        that keeps no roots is discarded (the shared null span).
        """
        if not (trace_id or self._stack or self._keeps_roots):
            return _NULL_SPAN
        span = Span(name, attrs, self.clock() if start_ns is None else start_ns)
        if span_id is not None:
            span.span_id = span_id
        span.trace_id = trace_id
        span.parent_id = parent_id
        span.duration_ns = duration_ns
        span.wall_ns = wall_ns
        span.error = error
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._finish_root(span)
        return span

    def _finish_root(self, span: Span) -> None:
        if self._keeps_roots:
            ring = self._ring
            if len(ring) == ring.maxlen:
                self.dropped += 1
            ring.append(span)
        if span.trace_id and self.sink is not None:
            self.sink.add(span)

    @property
    def depth(self) -> int:
        """Current nesting depth (open spans)."""
        return len(self._stack)

    def recent(self, n: int | None = None) -> list[Span]:
        """The last ``n`` finished root spans, oldest first (always
        empty on a ``ring == 0`` tracer)."""
        spans = list(self._ring)
        if n is None:
            return spans
        return spans[-n:] if n > 0 else []

    def clear(self) -> None:
        self._ring.clear()


class _NullSpanContext:
    """Shared inert context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullSpan(Span):
    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan("null", {}, 0.0)
_NULL_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """No-op tracer: span() hands back one shared inert context."""

    def sampling(self) -> bool:
        return False

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_CONTEXT

    def span_for(  # type: ignore[override]
        self, name: str, trace_id: int, parent_id: int, **attrs: Any
    ) -> _NullSpanContext:
        return _NULL_CONTEXT

    def record(self, name: str, **kwargs: Any) -> Span:  # type: ignore[override]
        return _NULL_SPAN

    def recent(self, n: int | None = None) -> list[Span]:
        return []


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()
