"""The asyncio TCP front-end over a (sharded) KVStore.

One :class:`ReproServer` owns one store and serves the wire protocol
of :mod:`repro.server.protocol` to any number of connections, each an
:class:`asyncio.Protocol` fed by a
:class:`~repro.server.protocol.FrameAssembler`. The event loop is the
store's serialization point: every store call runs synchronously on
the loop thread, so the engine — which is not thread safe and whose
I/O counters must never race — sees a strictly serial operation stream
no matter how many clients are connected.

What earns this layer its keep beyond plumbing:

* **One loop pass per GET, two per write** — ``data_received`` splits
  what arrived into runs and answers a GET run (or a PING) before it
  returns, with ``transport.write``: no task, no lock, no
  ``drain()``. A PUT, DELETE or BATCH is enqueued into group commit
  with an ack callback, which the next loop pass's commit pass calls
  once the write's group is applied. Only the ops served by the
  ``_execute`` coroutine (STATS, SCAN, TRACE, SHUTDOWN and a cluster
  server's ops) get a task.
* **Group commit** — writes from every connection read in two loop
  passes coalesce into one crash-atomic ``put_batch`` call (one WAL
  batch record per group per shard) via :class:`GroupCommitWriter`.
  Values are strict UTF-8: a PUT or BATCH with a value that is not is
  answered ERROR and nothing of it is applied.
* **One request path** — a request is a run of one; the untraced GETs
  a pipelining client sent together form a longer run, handed to one
  ``store.get_batch``. A served store has observability on, so that
  call answers each key through ``get`` (its per-read hooks fire) and
  never reaches the batched filter probe: a run saves the per-request
  dispatch, not the per-key read. Splitting, admission, routing,
  accounting and responding are written once, for a run.
* **Admission control** — at most ``max_inflight`` requests in flight
  server-wide and ``max_queue_depth`` pipelined per connection; the
  part of a run beyond either limit is *shed* with an immediate
  ``BUSY`` response (clients retry; an accepted write is never
  dropped).
* **Backpressure** — while a connection's write buffer is over the
  transport's high-water mark its socket is not read, and requests
  already read wait until the buffer drains.
* **Graceful drain** — on SIGINT or a SHUTDOWN op the server stops
  accepting, answers new requests with ``SHUTTING_DOWN``, finishes
  everything in flight, drains the group-commit queue, flushes every
  memtable and only then closes; acknowledged writes are always in
  the WAL or in flushed runs.
* **Observability** — per-op wall-clock latency histograms, in-flight
  and queue-depth gauges, shed/error counters, and a trace span per
  request; the STATS op exports the lot as JSON over the wire.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.analysis.measured import collect_metrics
from repro.lsm.entry import TOMBSTONE
from repro.obs import (
    NULL_OBS,
    Observability,
    WIRE_LATENCY_US_BUCKETS,
    new_span_id,
    registry_to_dict,
)
from repro.server.group_commit import GroupCommitWriter
from repro.server.protocol import (
    KIND_DELETE,
    MAX_FRAME_BYTES,
    FrameAssembler,
    Op,
    ProtocolError,
    Request,
    Response,
    Status,
    decode_request,
    encode_response,
    frame,
)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one serving endpoint.

    Attributes:
        host: interface to bind.
        port: TCP port (0 = let the OS pick; see ``ReproServer.port``).
        max_inflight: server-wide cap on requests being processed;
            arrivals beyond it are shed with ``BUSY``.
        max_queue_depth: per-connection cap on pipelined requests in
            flight; a client pipelining deeper gets ``BUSY`` for the
            excess. Also the longest run of GETs served as one
            ``store.get_batch`` (a longer one could never be admitted).
        group_commit_batch: most writes coalesced into one
            ``put_batch`` call.
        scan_limit: hard cap on pairs returned by one SCAN (a request
            may ask for less, never more).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 256
    max_queue_depth: int = 32
    group_commit_batch: int = 512
    scan_limit: int = 65536

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.scan_limit < 1:
            raise ValueError(f"scan_limit must be >= 1, got {self.scan_limit}")


#: The writes, each with the name of its serve span.
_WRITES = {
    Op.PUT: "serve_put", Op.DELETE: "serve_delete", Op.BATCH: "serve_batch",
}


def _shares_a_run(request: Request) -> bool:
    """Only untraced GETs travel together: a traced one keeps its own
    serve span, anything else executes through its own op branch."""
    return request.op is Op.GET and not request.trace_id


class _Connection(asyncio.Protocol):
    """One client connection: complete frames are decoded as they
    arrive and handed to the server in the same callback; responses go
    straight to the transport. While the transport's write buffer is
    over its high-water mark the socket is not read, and requests
    already read wait in ``backlog``."""

    __slots__ = (
        "server", "transport", "assembler", "backlog", "inflight",
        "paused", "lost",
    )

    def __init__(self, server: "ReproServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.assembler = FrameAssembler()
        #: Requests read but not yet dispatched (only while paused).
        self.backlog: list[Request] = []
        #: Admitted requests not yet answered (writes, task-served ops).
        self.inflight = 0
        self.paused = False
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            for payload in self.assembler.feed(data):
                self.backlog.append(decode_request(payload))
        except ProtocolError:
            # Serve what was well formed, then error THIS connection
            # and keep serving everyone else. No response is possible
            # (the request id may itself be garbage).
            self.server._serve_backlog(self)
            self.server._bad_frame(self)
            return
        self.server._serve_backlog(self)

    def eof_received(self) -> None:
        if self.assembler.pending_bytes:
            self.server._bad_frame(self)  # closed mid frame
        # Returning None lets the transport close itself.

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self.server._serve_backlog(self)
        if not self.paused:
            self.transport.resume_reading()

    def send(self, response: Response) -> None:
        transport = self.transport
        if transport.is_closing():
            return
        try:
            data = frame(encode_response(response))
        except ProtocolError as exc:
            error = self.server._unsendable(response, exc)
            data = frame(encode_response(error))
        transport.write(data)


class ReproServer:
    """Serve one store over TCP until drained."""

    #: Routing hook run on every admitted request before it executes:
    #: ``request -> Response`` to answer with instead (a misrouted
    #: request), or None to go ahead. A plain server routes nothing.
    _route_check: Callable[[Request], Response | None] | None = None

    def __init__(
        self,
        store,
        config: ServerConfig | None = None,
        observability: Observability | None = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else ServerConfig()
        self.obs = observability if observability is not None else NULL_OBS
        self.commit = GroupCommitWriter(
            store,
            max_batch=self.config.group_commit_batch,
            observability=self.obs,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._inflight = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.port: int | None = None
        #: Lifetime totals, mirrored into metrics when obs is on.
        self.requests = 0
        self.shed = 0
        self.errors = 0
        self.bad_frames = 0
        self.get_batches = 0
        self.batched_gets = 0
        registry = self.obs.registry
        self._m_get_batches = registry.counter(
            "server_get_batches_total",
            "GET runs served via one store.get_batch",
        )
        self._m_batched_gets = registry.counter(
            "server_batched_gets_total",
            "GET requests served inside such a run",
        )
        self._m_requests = registry.counter(
            "server_requests_total", "requests accepted for processing"
        )
        self._m_shed = registry.counter(
            "server_shed_total", "requests answered BUSY by admission control"
        )
        self._m_errors = registry.counter(
            "server_errors_total", "requests that failed with ERROR"
        )
        self._m_bad_frames = registry.counter(
            "server_bad_frames_total",
            "connections errored for malformed frames",
        )
        self._m_latency = {
            op: registry.histogram(
                f"server_{op.name.lower()}_latency_us",
                WIRE_LATENCY_US_BUCKETS,
                f"wall-clock latency of one {op.name} request",
            )
            for op in Op
        }
        if self.obs.enabled:
            registry.add_collector(self._collect_gauges)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def protocol_factory(self) -> asyncio.Protocol:
        """A protocol for one new connection to this server — what
        ``loop.create_server`` binds (:meth:`start` does)."""
        return _Connection(self)

    async def start(self) -> int:
        """Bind, start accepting, and return the bound port."""
        self._server = await asyncio.get_running_loop().create_server(
            self.protocol_factory, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_drained(self) -> None:
        """Block until :meth:`drain` completes (the normal run mode)."""
        await self._drained.wait()

    async def drain(self, reason: str = "shutdown") -> None:
        """Graceful shutdown: stop accepting, finish in-flight work,
        flush the store, close every connection. Idempotent."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests (including writes queued for group commit)
        # finish normally; new arrivals see SHUTTING_DOWN.
        await self._idle.wait()
        await self.commit.close()
        self.store.flush()
        for conn in list(self._connections):
            conn.transport.close()
            await conn.lost
        self._drained.set()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def connections(self) -> int:
        return len(self._connections)

    def _collect_gauges(self) -> None:
        registry = self.obs.registry
        registry.gauge("server_inflight", "requests being processed").set(
            self._inflight
        )
        registry.gauge("server_connections", "open client connections").set(
            len(self._connections)
        )
        registry.gauge(
            "server_commit_queue_depth", "writes waiting for group commit"
        ).set(self.commit.queue_depth)
        registry.gauge(
            "server_draining", "1 while a graceful drain is in progress"
        ).set(1.0 if self._draining else 0.0)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _serve_backlog(self, conn: _Connection) -> None:
        """Split what ``conn`` has read into runs and dispatch them in
        order, until the backlog is empty or the transport pauses. A
        request is a run of one; an untraced GET is joined by the
        consecutive untraced GETs read with it — never waiting for more
        input — up to ``max_queue_depth``, the longest run that could
        be admitted."""
        backlog = conn.backlog
        end = len(backlog)
        depth = self.config.max_queue_depth
        i = 0
        while i < end and not conn.paused:
            j = i + 1
            if _shares_a_run(backlog[i]):
                limit = min(end, i + depth)
                while j < limit and _shares_a_run(backlog[j]):
                    j += 1
            self._dispatch(conn, backlog[i:j])
            i = j
        del backlog[:i]

    def _bad_frame(self, conn: _Connection) -> None:
        self.bad_frames += 1
        self._m_bad_frames.inc()
        conn.backlog.clear()
        conn.transport.close()

    def _dispatch(self, conn: _Connection, run: list[Request]) -> None:
        """Admission control: the prefix of ``run`` that fits both
        budgets is served — a GET run or a PING right here, a write
        through group commit, anything else by a task; the rest is
        refused, each request with its own response."""
        room = 0 if self._draining else min(
            self.config.max_inflight - self._inflight,
            self.config.max_queue_depth - conn.inflight,
        )
        admitted = run if len(run) <= room else run[:room]
        n = len(admitted)
        if n:
            self.requests += n
            self._m_requests.inc(n)
            op = admitted[0].op
            if op is Op.GET or op is Op.PING:
                # Answered before this returns: never in flight.
                self._answer(conn, admitted)
            else:
                self._inflight += 1
                conn.inflight += 1
                self._idle.clear()
                if op in _WRITES:
                    self._write(conn, admitted[0])
                else:
                    asyncio.get_running_loop().create_task(
                        self._serve(conn, admitted[0])
                    )
            if n == len(run):
                return
        refused = run[n:]
        if self._draining:
            status, message = Status.SHUTTING_DOWN, "server is draining"
        else:
            # Load shedding: these were NOT accepted; the client knows
            # it can safely retry.
            status, message = Status.BUSY, "server overloaded"
            self.shed += len(refused)
            self._m_shed.inc(len(refused))
        for request in refused:
            conn.send(
                Response(
                    request.request_id, request.op, status, message=message
                )
            )

    def _answer(self, conn: _Connection, run: list[Request]) -> None:
        """Serve a GET run or a PING within this loop pass: routing
        first, per request (a misrouted one is answered from there and
        never reaches the store, pipelined or not), then one
        ``store.get_batch`` for a run or one ``store.get``."""
        start = time.perf_counter_ns()
        n = len(run)
        responses: list[Response | None] = [None] * n
        try:
            route = self._route_check
            if route is not None:
                responses = [route(request) for request in run]
            if n > 1:
                self._execute_gets(run, responses)
            elif responses[0] is None:
                responses[0] = self._execute_now(run[0])
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            for i, response in enumerate(responses):
                if response is None:
                    responses[i] = self._error(run[i], exc)
        elapsed_us = (time.perf_counter_ns() - start) / 1_000 / n
        for request, response in zip(run, responses):
            self._m_latency[request.op].observe(elapsed_us)
            conn.send(response)

    def _write(self, conn: _Connection, request: Request) -> None:
        """Route one write and enqueue it into group commit; the commit
        pass that applies its group calls :meth:`_acked`, which writes
        the ack — no task, no future. A value must be UTF-8: one that
        is not is answered ERROR and nothing of its request is applied.
        A traced write allocates its serve span's id now and hands
        (trace_id, span_id) to group commit — the batch span parents
        there."""
        start = time.perf_counter_ns()
        try:
            route = self._route_check
            response = route(request) if route is not None else None
            if response is None:
                op = request.op
                if op is Op.BATCH:
                    items = [
                        (key, TOMBSTONE)
                        if kind == KIND_DELETE
                        else (key, value.decode("utf-8"))
                        for kind, key, value in request.items
                    ]
                elif op is Op.DELETE:
                    items = [(request.key, TOMBSTONE)]
                else:
                    items = [(request.key, request.value.decode("utf-8"))]
                span_id = new_span_id() if request.trace_id else 0
                # One submission: a BATCH's items stay contiguous in the
                # commit queue, so a batch no larger than
                # group_commit_batch lands in one crash-atomic put_batch.
                self.commit.enqueue(
                    items,
                    partial(self._acked, conn, request, start, span_id),
                    (request.trace_id, span_id) if span_id else None,
                )
                return
        except Exception as exc:  # noqa: BLE001
            response = self._error(request, exc)
        self._reply(conn, request, response, start)

    def _acked(
        self,
        conn: _Connection,
        request: Request,
        start: int,
        span_id: int,
        error: BaseException | None,
    ) -> None:
        """A write's group settled: emit its serve span — under the
        wire trace context when it carries one, an instantaneous local
        span otherwise — and write the ack (or the ERROR)."""
        if error is not None:
            self._reply(conn, request, self._error(request, error), start)
            return
        op = request.op
        rid = request.request_id
        count = len(request.items) if op is Op.BATCH else 0
        attrs = {"size": count} if op is Op.BATCH else {"key": request.key}
        tracer = self.obs.tracer
        if span_id:
            tracer.record(
                _WRITES[op],
                trace_id=request.trace_id,
                parent_id=request.parent_span_id,
                span_id=span_id,
                wall_ns=float(time.perf_counter_ns() - start),
                request_id=rid,
                **attrs,
            )
        else:
            with tracer.span(_WRITES[op], request_id=rid, **attrs):
                pass
        response = Response(rid, op, Status.OK, count=count)
        self._reply(conn, request, response, start)

    async def _serve(self, conn: _Connection, request: Request) -> None:
        """Serve one request through the :meth:`_execute` coroutine —
        the only kind of request that gets a task."""
        start = time.perf_counter_ns()
        try:
            route = self._route_check
            response = route(request) if route is not None else None
            if response is None:
                response = await self._execute(request)
        except Exception as exc:  # noqa: BLE001
            response = self._error(request, exc)
        self._reply(conn, request, response, start)

    def _reply(
        self,
        conn: _Connection,
        request: Request,
        response: Response,
        start: int,
    ) -> None:
        """Answer an in-flight request. It stays "in flight" until its
        response has been written: drain() waits on that, so an
        acknowledged write's ack can never be dropped by a racing
        shutdown."""
        try:
            self._m_latency[request.op].observe(
                (time.perf_counter_ns() - start) / 1_000
            )
            conn.send(response)
        finally:
            self._inflight -= 1
            conn.inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _error(
        self, request: Request | Response, exc: BaseException
    ) -> Response:
        self.errors += 1
        self._m_errors.inc()
        return Response(
            request.request_id, request.op, Status.ERROR,
            message=f"{type(exc).__name__}: {exc}",
        )

    def _unsendable(self, response: Response, exc: ProtocolError) -> Response:
        """The ERROR sent instead of a response that cannot be encoded
        or framed — a SCAN answer over ``MAX_FRAME_BYTES``, say."""
        message = f"response not sent: {exc} (limit {MAX_FRAME_BYTES} bytes)"
        if response.op is Op.SCAN:
            message += "; narrow the range or pass a smaller limit"
        return self._error(response, ProtocolError(message))

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _execute_now(self, request: Request) -> Response:
        """A PING, or one GET under its ``serve_get`` span (span_for
        adopts the wire trace context when the request carries one; the
        family carrier then parents shard-level spans under it). An
        untraced GET on a tracer that would not keep its span opens
        none."""
        rid = request.request_id
        if request.op is Op.PING:
            return Response(rid, Op.PING, Status.OK)
        tracer = self.obs.tracer
        if not request.trace_id and not tracer.sampling():
            value = self.store.get(request.key)
        else:
            with tracer.span_for(
                "serve_get", request.trace_id, request.parent_span_id,
                request_id=rid, key=request.key,
            ):
                value = self.store.get(request.key)
        return self._get_response(rid, value)

    async def _execute(self, request: Request) -> Response:
        # Tracing discipline: the tracer's span stack assumes strictly
        # nested (synchronous) spans, so a span must NEVER be held
        # across an await — concurrent tasks would interleave on the
        # stack. Every op here is synchronous on a plain server; a
        # subclass's ops may await, outside any span.
        op = request.op
        rid = request.request_id
        tracer = self.obs.tracer
        trace_id = request.trace_id
        parent_id = request.parent_span_id
        if op is Op.SCAN:
            limit = min(
                request.limit or self.config.scan_limit, self.config.scan_limit
            )
            pairs = []
            with tracer.span_for(
                "serve_scan", trace_id, parent_id, request_id=rid,
                lo=request.lo, hi=request.hi,
            ):
                for key, value in self.store.scan(request.lo, request.hi):
                    pairs.append((key, self._encode_value(value)))
                    if len(pairs) >= limit:
                        break
            return Response(rid, op, Status.OK, pairs=tuple(pairs))
        if op is Op.STATS:
            with tracer.span_for("serve_stats", trace_id, parent_id,
                                 request_id=rid):
                payload = json.dumps(self.stats(), sort_keys=True)
            return Response(rid, op, Status.OK, value=payload.encode("utf-8"))
        if op is Op.TRACE:
            payload_dict = self._trace_payload(request.key)
            if payload_dict is None:
                return Response(rid, op, Status.NOT_FOUND)
            payload = json.dumps(payload_dict, sort_keys=True)
            return Response(rid, op, Status.OK, value=payload.encode("utf-8"))
        if op is Op.SHUTDOWN:
            # Acknowledge, then drain in the background so the response
            # still reaches the requester.
            asyncio.get_running_loop().create_task(self.drain("SHUTDOWN op"))
            return Response(rid, op, Status.OK)
        # An op of a richer server (the cluster ops on a plain one).
        self.errors += 1
        self._m_errors.inc()
        return Response(
            rid, op, Status.ERROR, message=f"op {op.name} is not served here"
        )

    def _execute_gets(
        self, run: list[Request], responses: list[Response | None]
    ) -> None:
        """Answer the GETs of ``run`` that routing left open (a None in
        ``responses``) through one ``store.get_batch``: counted I/Os per
        key are identical to serving them one by one. Only the server's
        per-request dispatch is amortised — a served store has
        observability on, so ``get_batch`` reads each key through
        ``get`` rather than the batched filter probe."""
        live = [i for i, response in enumerate(responses) if response is None]
        if not live:
            return
        with self.obs.tracer.span("serve_get_batch", size=len(live)):
            values = self.store.get_batch([run[i].key for i in live])
        self.get_batches += 1
        self.batched_gets += len(live)
        self._m_get_batches.inc()
        self._m_batched_gets.inc(len(live))
        for i, value in zip(live, values):
            responses[i] = self._get_response(run[i].request_id, value)

    def _get_response(self, rid: int, value) -> Response:
        if value is None:
            return Response(rid, Op.GET, Status.NOT_FOUND)
        return Response(
            rid, Op.GET, Status.OK, value=self._encode_value(value)
        )

    def _trace_payload(self, trace_id: int) -> dict | None:
        """Body of a TRACE response: one trace's spans, or (id 0) the
        sink summary. None → NOT_FOUND."""
        sink = self.obs.trace_sink
        if trace_id == 0:
            if sink is None:
                return {
                    "tracing_enabled": False,
                    "traces": 0,
                    "capacity": 0,
                    "trace_ids": [],
                    "dropped_traces": 0,
                    "dropped_spans": 0,
                }
            out = sink.summary()
            out["tracing_enabled"] = True
            out["spans_dropped_total"] = self.obs.dropped_spans_total()
            return out
        if sink is None:
            return None
        return sink.to_payload(trace_id)

    @staticmethod
    def _encode_value(value) -> bytes:
        if isinstance(value, bytes):
            return value
        return str(value).encode("utf-8")

    def stats(self) -> dict:
        """The STATS payload: server counters, a cheap (``fast``) store
        health block and, with observability on, the trace-sink summary
        and the metrics registry as it is now (``metrics``). History is
        the reader's to keep (``repro dash`` keeps its own polls)."""
        store_block = collect_metrics(self.store, fast=True).as_dict()
        store_block["num_entries"] = self.store.num_entries
        store_block["wal_batch_records"] = self.store.wal_batch_records
        out = {
            "server": {
                "requests": self.requests,
                "shed": self.shed,
                "errors": self.errors,
                "bad_frames": self.bad_frames,
                "get_batches": self.get_batches,
                "batched_gets": self.batched_gets,
                "inflight": self._inflight,
                "connections": len(self._connections),
                "draining": self._draining,
                "commit_batches": self.commit.batches,
                "commit_items": self.commit.items,
                "commit_failed_items": self.commit.failed_items,
                "commit_queue_depth": self.commit.queue_depth,
            },
            "store": store_block,
        }
        if self.obs.enabled:
            tracing = self.obs.trace_sink.summary()
            tracing.pop("trace_ids", None)  # ids live behind the TRACE op
            tracing["spans_dropped_total"] = self.obs.dropped_spans_total()
            out["tracing"] = tracing
            out["metrics"] = registry_to_dict(self.obs.registry)
        return out
