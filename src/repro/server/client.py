"""The client library for the serving layer.

:class:`AsyncClient` is asyncio and pipelined: many requests may be in
flight on one connection. The client is the connection's
:class:`asyncio.Protocol`: the callback that reads a response resolves
its waiter by request id, with no task in between. The load generator,
the cluster, the CLI's remote readers (``repro dash``, ``repro trace
--list/--request``) and the server's own tests all use it; a script or
a thread drives it under :func:`asyncio.run`.

It raises :class:`ServerBusy` when admission control sheds a request
(safe to retry — a shed request was never applied),
:class:`ServerShuttingDown` during a drain, and :class:`ServerError`
for a server-side failure.

**Tracing** is head-based and client-initiated: pass a
:class:`ClientTraceConfig` and every 1-in-``sample_every`` typed call
mints a trace id, sends it in the wire trace header, and records a
``client_<op>`` root span (wall time, request id, status) in a local
ring. ``slow_us`` adds an always-sample-on-slow upgrade: an *unsampled*
request that exceeds the threshold still gets a client-side span (by
the time the client knows it was slow the request is over, so the
server side of a slow-upgraded trace is necessarily absent — the
point is that slow requests are never invisible). Sampled trace ids
are retrievable via :attr:`sampled_trace_ids`, and the server's half of
any tree via :meth:`fetch_trace`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Awaitable, Iterable

from repro.common.errors import ReproError
from repro.obs.context import HeadSampler, new_span_id, new_trace_id
from repro.obs.trace import Span
from repro.server.protocol import (
    KIND_DELETE,
    KIND_PUT,
    FrameAssembler,
    Op,
    ProtocolError,
    Request,
    Response,
    Status,
    decode_response,
    encode_request,
    frame,
)

#: Bound, in seconds, on each connect and call of ``repro dash`` and
#: ``repro trace --list/--request`` (see :func:`bounded`).
CALL_TIMEOUT_S = 10.0


class ServerBusy(ReproError):
    """The server shed this request (BUSY); it was not applied — retry."""


class ServerShuttingDown(ReproError):
    """The server is draining and no longer accepts work."""


class ServerError(ReproError):
    """The server failed processing this request."""


@dataclass(frozen=True)
class ClientTraceConfig:
    """Client-side head-sampling knobs.

    Attributes:
        sample_every: sample 1 in N typed calls (0 disables sampling,
            1 samples everything).
        slow_us: record a client-side span for any *unsampled* request
            slower than this many microseconds of wall time (0 = off).
        log_spans: client span ring size.
    """

    sample_every: int = 10
    slow_us: float = 0.0
    log_spans: int = 256

    def __post_init__(self) -> None:
        if self.sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {self.sample_every}"
            )
        if self.slow_us < 0:
            raise ValueError(f"slow_us must be >= 0, got {self.slow_us}")
        if self.log_spans < 1:
            raise ValueError(f"log_spans must be >= 1, got {self.log_spans}")


async def bounded(awaitable: Awaitable[Any]) -> Any:
    """``await awaitable``, or :class:`TimeoutError` (an ``OSError``, like
    a refused connect) after :data:`CALL_TIMEOUT_S`: a server that
    accepts but never answers does not hang the caller."""
    try:
        return await asyncio.wait_for(awaitable, CALL_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise TimeoutError(f"no answer within {CALL_TIMEOUT_S:g} s") from None


def _encode_value(value: bytes | str) -> bytes:
    return value if isinstance(value, bytes) else value.encode("utf-8")


def _check(resp: Response) -> Response:
    if resp.status is Status.BUSY:
        raise ServerBusy(resp.message or "server overloaded")
    if resp.status is Status.SHUTTING_DOWN:
        raise ServerShuttingDown(resp.message or "server is draining")
    if resp.status is Status.ERROR:
        raise ServerError(resp.message or "server error")
    return resp


class AsyncClient(asyncio.Protocol):
    """Pipelined asyncio client, one protocol per connection. Create
    with :meth:`connect`."""

    def __init__(self, trace: ClientTraceConfig | None = None) -> None:
        self._transport: asyncio.Transport | None = None
        self._assembler = FrameAssembler()
        self._ids = itertools.count(1)
        self._waiters: dict[int, asyncio.Future] = {}
        self._closed = False
        #: Set while the transport's write buffer is over its high-water
        #: mark; requests wait on it before awaiting their response.
        self._resumed: asyncio.Future | None = None
        self._lost = asyncio.get_running_loop().create_future()
        self._trace = trace
        if trace is not None:
            self._sampler = HeadSampler(trace.sample_every)
            self.trace_log: deque[Span] = deque(maxlen=trace.log_spans)
            self.sampled_trace_ids: deque[int] = deque(maxlen=1024)
        else:
            self._sampler = None
            self.trace_log = deque(maxlen=1)
            self.sampled_trace_ids = deque(maxlen=1)
        self.slow_upgrades = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, trace: ClientTraceConfig | None = None
    ) -> "AsyncClient":
        _, client = await asyncio.get_running_loop().create_connection(
            lambda: cls(trace), host, port
        )
        return client

    # -- tracing --------------------------------------------------------

    @property
    def traces_sampled(self) -> int:
        return self._sampler.sampled if self._sampler is not None else 0

    def _record_span(
        self, req: Request, trace_id: int, span_id: int, start: int,
        status: Status | None,
    ) -> None:
        """Record a typed call's client root span: a sampled call, or an
        unsampled one slower than ``slow_us``."""
        wall_ns = float(time.perf_counter_ns() - start)
        cfg = self._trace
        slow = False
        if not trace_id:
            if not cfg.slow_us or wall_ns / 1_000.0 < cfg.slow_us:
                return
            # Slow upgrade: the request was unsampled but blew the
            # threshold — trace it client-side so it is not invisible.
            trace_id = new_trace_id()
            span_id = new_span_id()
            self.slow_upgrades += 1
            slow = True
        attrs: dict[str, Any] = {"request_id": req.request_id}
        if req.op in (Op.GET, Op.PUT, Op.DELETE):
            attrs["key"] = req.key
        if status is not None:
            attrs["status"] = status.name
        if slow:
            attrs["slow_upgrade"] = True
        span = Span(f"client_{req.op.name.lower()}", attrs, 0.0)
        span.span_id = span_id
        span.trace_id = trace_id
        span.wall_ns = wall_ns
        if status is None:
            span.error = "ConnectionError"
        self.trace_log.append(span)
        if not slow:
            self.sampled_trace_ids.append(trace_id)

    def client_spans(self) -> list[Span]:
        """Recorded client-side root spans, oldest first."""
        return list(self.trace_log)

    # -- protocol callbacks ---------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        """Resolve waiters by request id, in the callback that read
        their responses."""
        try:
            for payload in self._assembler.feed(data):
                resp = decode_response(payload)
                waiter = self._waiters.pop(resp.request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(resp)
        except ProtocolError as exc:
            self._fail(exc)
            self._transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is None and self._assembler.pending_bytes:
            exc = ProtocolError("connection closed mid frame")
        self._fail(exc or ConnectionResetError("connection closed"))
        self.resume_writing()  # requests held by a full buffer move on
        if not self._lost.done():
            self._lost.set_result(None)

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)

    def _fail(self, error: Exception) -> None:
        """The connection is done for: every waiter gets ``error``."""
        self._closed = True
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(error)
        self._waiters.clear()

    # -- requests -------------------------------------------------------

    async def request(self, req: Request) -> Response:
        """Send one request and await its response (raw: no status
        checking, no sampling — callers that care use the typed
        helpers below). Raises ``ValueError`` if a request with the
        same id is still in flight on this connection."""
        if self._closed:
            raise ConnectionResetError("client is closed")
        rid = req.request_id
        if rid in self._waiters:
            raise ValueError(f"request id {rid} is already in flight")
        data = frame(encode_request(req))
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[rid] = waiter
        try:
            self._transport.write(data)
            if self._resumed is not None:
                await asyncio.shield(self._resumed)
            return await waiter
        except BaseException:
            # Don't orphan the waiter when the send (or this task) dies
            # first — a later failure would set an exception nobody
            # retrieves, and asyncio warns at shutdown.
            if self._waiters.get(rid) is waiter:
                del self._waiters[rid]
            if waiter.cancelled():
                pass
            elif waiter.done():
                waiter.exception()
            else:
                waiter.cancel()
            raise

    async def _call(self, req: Request) -> Response:
        """One typed round-trip: sampling, span recording, status check."""
        if self._trace is None:
            return _check(await self.request(req))
        start = time.perf_counter_ns()
        trace_id = span_id = 0
        if self._sampler.decide():
            trace_id, span_id = new_trace_id(), new_span_id()
            req = req._replace(trace_id=trace_id, parent_span_id=span_id)
        try:
            resp = await self.request(req)
        except Exception:
            self._record_span(req, trace_id, span_id, start, None)
            raise
        self._record_span(req, trace_id, span_id, start, resp.status)
        return _check(resp)

    def _rid(self) -> int:
        return next(self._ids)

    # -- typed operations ----------------------------------------------

    async def ping(self) -> None:
        await self._call(Request(self._rid(), Op.PING))

    async def get(self, key: int) -> bytes | None:
        resp = await self._call(Request(self._rid(), Op.GET, key=key))
        return None if resp.status is Status.NOT_FOUND else resp.value

    async def put(self, key: int, value: bytes | str) -> None:
        await self._call(
            Request(self._rid(), Op.PUT, key=key, value=_encode_value(value))
        )

    async def delete(self, key: int) -> None:
        await self._call(Request(self._rid(), Op.DELETE, key=key))

    async def put_batch(
        self, items: Iterable[tuple[int, bytes | str | None]]
    ) -> int:
        """Batched writes; a ``None`` value deletes the key. Returns
        the number of applied items."""
        wire_items = tuple(
            (KIND_DELETE, key, b"")
            if value is None
            else (KIND_PUT, key, _encode_value(value))
            for key, value in items
        )
        resp = await self._call(
            Request(self._rid(), Op.BATCH, items=wire_items)
        )
        return resp.count

    async def scan(
        self, lo: int, hi: int, limit: int = 0
    ) -> list[tuple[int, bytes]]:
        resp = await self._call(
            Request(self._rid(), Op.SCAN, lo=lo, hi=hi, limit=limit)
        )
        return list(resp.pairs)

    async def stats(self) -> dict[str, Any]:
        resp = await self._call(Request(self._rid(), Op.STATS))
        return json.loads(resp.value.decode("utf-8"))

    async def fetch_trace(self, trace_id: int = 0) -> dict[str, Any] | None:
        """The server's spans for one trace id (None if unknown);
        ``trace_id=0`` returns the sink summary (known ids + drops).
        Never itself sampled."""
        resp = _check(
            await self.request(Request(self._rid(), Op.TRACE, key=trace_id))
        )
        if resp.status is Status.NOT_FOUND:
            return None
        return json.loads(resp.value.decode("utf-8"))

    async def shutdown(self) -> None:
        """Ask the server to drain gracefully."""
        await self._call(Request(self._rid(), Op.SHUTDOWN))

    async def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            self._transport.close()
        await self._lost
