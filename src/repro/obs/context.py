"""Trace context: ids, the cross-tracer carrier, and the trace sink.

A *trace* is one causal tree of spans for one request, stitched across
components that each own their own :class:`~repro.obs.trace.Tracer`
(the server, every shard, the group-commit writer's host tracer) and —
via the wire protocol's optional trace header — across processes.

Three small pieces make that work without ever holding a span open
across an ``await``:

* :func:`new_trace_id` / :func:`new_span_id` — id generation. Trace
  ids are random nonzero u64 (clients mint them; collisions across
  processes are what the randomness is for). Span ids are a process-
  local monotone counter, unique within one process, which is all the
  tree reconstruction needs because children always live in the same
  process as the parent reference they carry.
* :class:`TraceCarrier` — one mutable ``(trace_id, span_id)`` cell
  shared by every tracer in an :class:`~repro.obs.Observability`
  family. A traced span activates the carrier while it is open; a span
  opened at the *root* of any other tracer in the family picks the
  carrier up as its parent. That is how ``serve_get`` on the server
  tracer becomes the parent of ``read`` on a shard tracer, and how the
  ``group_commit`` span adopts the shard-level ``put_batch`` spans,
  with plain synchronous nesting and no context-var machinery.
* :class:`TraceBuffer` — the sink. Ring buffers churn at loadgen rates;
  sampled spans (``trace_id != 0``) are *additionally* copied here,
  keyed by trace id, so ``repro trace --request <id>`` can retrieve a
  complete tree after the fact. Bounded in traces and in spans per
  trace, with dropped-trace/span accounting (silent loss is the one
  thing an observability layer must not do).

Sampling is *head-based*: the client decides at request start
(deterministic 1-in-N, plus an always-sample-on-slow upgrade for
requests that blow past a wall threshold) and the decision rides the
wire. An unsampled request carries no header and costs nothing beyond
one modulo on the client — and, on a server whose bundle keeps no
untraced ring (``Observability(trace_ring=0)``, what ``repro serve`` and
cluster workers run), nothing downstream either: with no carrier active
and no ring to keep them, its tracers build no span.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Span

#: Mask for the 64-bit id space the wire header carries.
_U64_MASK = (1 << 64) - 1

#: Process-local span-id source. Starts at 1: span id 0 means "none"
#: (the wire encodes "no parent" as 0).
_SPAN_IDS = itertools.count(1)

#: Dedicated RNG for trace ids so workload seeding (``random.seed`` in
#: benchmarks) neither perturbs nor is perturbed by tracing.
_TRACE_RNG = random.Random()


def new_span_id() -> int:
    """Next process-unique span id (nonzero)."""
    return next(_SPAN_IDS)


def new_trace_id() -> int:
    """A random nonzero u64 trace id."""
    while True:
        tid = _TRACE_RNG.getrandbits(64) & _U64_MASK
        if tid:
            return tid


def format_trace_id(trace_id: int) -> str:
    """Canonical display form (``0x``-prefixed, no padding)."""
    return f"0x{trace_id:x}"


def parse_trace_id(text: str) -> int:
    """Inverse of :func:`format_trace_id`; accepts decimal too."""
    text = text.strip()
    return int(text, 16) if text.lower().startswith("0x") else int(text)


class TraceContext:
    """The propagated pair: which trace, and which span to parent to."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceContext({format_trace_id(self.trace_id)}, "
            f"span={self.span_id})"
        )


class TraceCarrier:
    """The family-wide "currently active traced span" cell.

    ``trace_id == 0`` means inactive. Activation nests: entering a
    traced span saves the previous cell state and restores it on exit,
    so a shard span that itself activates the carrier hands parentage
    back to the server span when it closes.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self) -> None:
        self.trace_id = 0
        self.span_id = 0

    def activate(self, trace_id: int, span_id: int) -> tuple[int, int]:
        """Set the cell; returns the previous state for restoration."""
        prev = (self.trace_id, self.span_id)
        self.trace_id = trace_id
        self.span_id = span_id
        return prev

    def restore(self, saved: tuple[int, int]) -> None:
        self.trace_id, self.span_id = saved


class HeadSampler:
    """Deterministic 1-in-N head sampling.

    ``every == 0`` disables sampling entirely; ``every == 1`` samples
    everything. The counter is per-sampler (per client connection), so
    N concurrent connections each contribute their share instead of
    beating on one shared counter.
    """

    __slots__ = ("every", "_count", "sampled")

    def __init__(self, every: int) -> None:
        if every < 0:
            raise ValueError(f"sample_every must be >= 0, got {every}")
        self.every = every
        self._count = 0
        self.sampled = 0

    def decide(self) -> bool:
        if not self.every:
            return False
        self._count += 1
        if self._count % self.every:
            return False
        self.sampled += 1
        return True


class TraceBuffer:
    """Bounded trace-id → spans sink with dropped accounting.

    Insertion order doubles as eviction order (oldest trace goes when
    the table is full), which is the behaviour a "grab a recent slow
    request" workflow wants.
    """

    def __init__(self, max_traces: int = 128, max_spans: int = 512) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_traces = max_traces
        self.max_spans = max_spans
        self._traces: OrderedDict[int, list[Span]] = OrderedDict()
        #: Traces evicted to make room (their spans are gone).
        self.dropped_traces = 0
        #: Spans discarded because their trace hit ``max_spans``, plus
        #: the spans inside evicted traces.
        self.dropped_spans = 0

    def add(self, span: "Span") -> None:
        """File one finished span under its trace id."""
        trace_id = span.trace_id
        if not trace_id:
            return
        spans = self._traces.get(trace_id)
        if spans is None:
            while len(self._traces) >= self.max_traces:
                _, evicted = self._traces.popitem(last=False)
                self.dropped_traces += 1
                self.dropped_spans += len(evicted)
            spans = self._traces[trace_id] = []
        if len(spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        spans.append(span)

    def get(self, trace_id: int) -> list["Span"] | None:
        """All spans filed for ``trace_id`` (arrival order), or None."""
        spans = self._traces.get(trace_id)
        return list(spans) if spans is not None else None

    def trace_ids(self) -> list[int]:
        """Known trace ids, oldest first."""
        return list(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        self._traces.clear()

    def to_payload(self, trace_id: int) -> dict[str, Any] | None:
        """JSON-ready spans for one trace (the wire TRACE op's body)."""
        spans = self._traces.get(trace_id)
        if spans is None:
            return None
        return {
            "trace_id": trace_id,
            "spans": [span.to_dict() for span in spans],
        }

    def summary(self) -> dict[str, Any]:
        """JSON-ready sink health: ids held + what has been lost."""
        return {
            "traces": len(self._traces),
            "capacity": self.max_traces,
            "trace_ids": list(self._traces),
            "dropped_traces": self.dropped_traces,
            "dropped_spans": self.dropped_spans,
        }
