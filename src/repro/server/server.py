"""The asyncio TCP front-end over a (sharded) KVStore.

One :class:`ReproServer` owns one store and serves the wire protocol
of :mod:`repro.server.protocol` to any number of connections. The
event loop is the store's serialization point: every store call runs
synchronously on the loop thread, so the engine — which is not thread
safe and whose I/O counters must never race — sees a strictly serial
operation stream no matter how many clients are connected.

What earns this layer its keep beyond plumbing:

* **Group commit** — PUT/DELETE submissions from concurrent handlers
  coalesce into crash-atomic ``put_batch`` calls (one WAL batch record
  per group per shard) via :class:`GroupCommitWriter`.
* **One request path** — a request is a run of one; the untraced GETs
  a pipelining client already has buffered form a longer run, served
  by one ``store.get_batch``. Reading, admission, routing, accounting
  and responding are written once, for a run.
* **Admission control** — at most ``max_inflight`` requests in flight
  server-wide and ``max_queue_depth`` pipelined per connection; the
  part of a run beyond either limit is *shed* with an immediate
  ``BUSY`` response (clients retry; an accepted write is never
  dropped).
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
    Op,
    ProtocolError,
    Request,
    Response,
    Status,
    decode_request,
    encode_response,
    frame,
    read_frame,
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
            excess. Also the longest run of buffered GETs served as
            one ``store.get_batch`` (a longer one could never be
            admitted).
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


def _shares_a_run(request: Request) -> bool:
    """Only untraced GETs travel together: a traced one keeps its own
    serve span, anything else executes through its own op branch."""
    return request.op is Op.GET and not request.trace_id


class _Connection:
    """Per-connection bookkeeping: the write side and its queue depth."""

    __slots__ = ("writer", "inflight", "lock", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.inflight = 0
        self.lock = asyncio.Lock()
        self.closed = False


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

    async def start(self) -> int:
        """Bind, start accepting, and return the bound port."""
        self.commit.start()
        self._server = await asyncio.start_server(
            self._on_connect, host=self.config.host, port=self.config.port
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
            await self._close_connection(conn)
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

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            request = None
            while True:
                if request is None:
                    payload = await read_frame(reader)
                    if payload is None:
                        break
                    request = decode_request(payload)
                run, request = await self._read_run(reader, request)
                await self._dispatch(conn, run)
        except (ProtocolError, ConnectionResetError, BrokenPipeError):
            # Malformed frame (or a dead peer): error THIS connection,
            # keep serving everyone else. No response is possible (the
            # request id may itself be garbage).
            self.bad_frames += 1
            self._m_bad_frames.inc()
        finally:
            self._connections.discard(conn)
            await self._close_connection(conn)

    @staticmethod
    def _buffered_frame_ready(reader: asyncio.StreamReader) -> bool:
        """True when a complete frame is already in the reader's buffer
        (so ``read_frame`` completes without waiting). Peeks the
        stream's internal buffer; on a reader without one, every run
        is a run of one."""
        buffer = getattr(reader, "_buffer", None)
        if buffer is None or len(buffer) < 4:
            return False
        length = int.from_bytes(buffer[:4], "big")
        return len(buffer) >= 4 + length

    async def _read_run(
        self, reader: asyncio.StreamReader, first: Request
    ) -> tuple[list[Request], Request | None]:
        """The run ``first`` starts. A request is a run of one; an
        untraced GET is joined by the consecutive untraced GETs ALREADY
        buffered behind it — a pipelining client; never wait for more
        input — up to ``max_queue_depth``, the longest run that could
        be admitted. Returns (run, the request popped while probing
        that did not join — the next run's first — or None)."""
        run = [first]
        if _shares_a_run(first):
            while (
                len(run) < self.config.max_queue_depth
                and self._buffered_frame_ready(reader)
            ):
                request = decode_request(await read_frame(reader))
                if not _shares_a_run(request):
                    return run, request
                run.append(request)
        return run, None

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _dispatch(self, conn: _Connection, run: list[Request]) -> None:
        """Admission control: the prefix of ``run`` that fits both
        budgets goes to one task; the rest is refused, each request
        with its own response."""
        room = 0 if self._draining else min(
            self.config.max_inflight - self._inflight,
            self.config.max_queue_depth - conn.inflight,
        )
        admitted = run if len(run) <= room else run[:room]
        n = len(admitted)
        if n:
            self._inflight += n
            conn.inflight += n
            self._idle.clear()
            self.requests += n
            self._m_requests.inc(n)
            asyncio.get_running_loop().create_task(self._serve(conn, admitted))
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
            await self._respond(
                conn,
                Response(
                    request.request_id, request.op, status, message=message
                ),
            )

    async def _serve(self, conn: _Connection, run: list[Request]) -> None:
        # The run stays "in flight" until its responses have been
        # written: drain() waits on that, so an acknowledged write's
        # ack can never be dropped by a racing shutdown.
        start = time.perf_counter_ns()
        n = len(run)
        responses: list[Response | None] = [None] * n
        try:
            try:
                # Routing first, per request: a misrouted one is
                # answered here and never reaches the store, pipelined
                # or not.
                route = self._route_check
                if route is not None:
                    responses = [route(request) for request in run]
                if n > 1:
                    self._execute_gets(run, responses)
                elif responses[0] is None:
                    responses[0] = await self._execute(run[0])
            except Exception as exc:  # noqa: BLE001 — a request must never kill the server
                message = f"{type(exc).__name__}: {exc}"
                failed = [i for i, r in enumerate(responses) if r is None]
                self.errors += len(failed)
                self._m_errors.inc(len(failed))
                for i in failed:
                    responses[i] = Response(
                        run[i].request_id, run[i].op, Status.ERROR,
                        message=message,
                    )
            elapsed_us = (time.perf_counter_ns() - start) / 1_000 / n
            for request, response in zip(run, responses):
                self._m_latency[request.op].observe(elapsed_us)
                await self._respond(conn, response)
        finally:
            self._inflight -= n
            conn.inflight -= n
            if self._inflight == 0:
                self._idle.set()

    async def _respond(self, conn: _Connection, response: Response) -> None:
        if conn.closed:
            return
        try:
            async with conn.lock:
                conn.writer.write(frame(encode_response(response)))
                await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            await self._close_connection(conn)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    async def _execute(self, request: Request) -> Response:
        # Tracing discipline: the tracer's span stack assumes strictly
        # nested (synchronous) spans, so a span must NEVER be held
        # across an await — concurrent tasks would interleave on the
        # stack. Read-path ops are fully synchronous and get a span
        # around the store call (span_for adopts the wire trace
        # context when the request carries one; the family carrier
        # then parents shard-level spans under it). Write-path ops
        # allocate their span id up front, hand (trace_id, span_id) to
        # group commit — the batch span parents there — and record the
        # finished serve span after the ack.
        op = request.op
        rid = request.request_id
        tracer = self.obs.tracer
        trace_id = request.trace_id
        parent_id = request.parent_span_id
        if op is Op.PING:
            return Response(rid, op, Status.OK)
        if op is Op.GET:
            with tracer.span_for(
                "serve_get", trace_id, parent_id, request_id=rid,
                key=request.key,
            ):
                value = self.store.get(request.key)
            return self._get_response(rid, value)
        if op is Op.PUT:
            decoded = request.value.decode("utf-8", errors="replace")
            await self._commit(
                "serve_put", request, [(request.key, decoded)], key=request.key
            )
            return Response(rid, op, Status.OK)
        if op is Op.DELETE:
            await self._commit(
                "serve_delete", request, [(request.key, TOMBSTONE)],
                key=request.key,
            )
            return Response(rid, op, Status.OK)
        if op is Op.BATCH:
            items = [
                (
                    key,
                    TOMBSTONE
                    if kind == KIND_DELETE
                    else value.decode("utf-8", errors="replace"),
                )
                for kind, key, value in request.items
            ]
            # One submission: the items stay contiguous in the commit
            # queue, so a batch no larger than group_commit_batch lands
            # in a single crash-atomic put_batch call.
            await self._commit("serve_batch", request, items, size=len(items))
            return Response(rid, op, Status.OK, count=len(request.items))
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

    async def _commit(
        self, name: str, request: Request, items: list, **attrs
    ) -> None:
        """Group-commit ``items`` and emit the write's ``name`` serve
        span: recorded after the ack under the wire trace context when
        the request carries one, an instantaneous local span otherwise."""
        tracer = self.obs.tracer
        if request.trace_id:
            span_id = new_span_id()
            start = time.perf_counter_ns()
            await self.commit.submit(items, trace=(request.trace_id, span_id))
            tracer.record(
                name,
                trace_id=request.trace_id,
                parent_id=request.parent_span_id,
                span_id=span_id,
                wall_ns=float(time.perf_counter_ns() - start),
                request_id=request.request_id,
                **attrs,
            )
        else:
            await self.commit.submit(items)
            with tracer.span(name, request_id=request.request_id, **attrs):
                pass

    def _execute_gets(
        self, run: list[Request], responses: list[Response | None]
    ) -> None:
        """Answer the GETs of ``run`` that routing left open (a None in
        ``responses``) through one ``store.get_batch``: counted I/Os per
        key are identical to serving them one by one, only Python-level
        dispatch overhead is amortised."""
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
