"""Closed-loop load generator for the serving layer.

Replays the repo's workload generators — uniform, Zipfian, the YCSB
mixes, churn, denylist — over N concurrent connections. Closed loop
means each connection issues its next request only after the previous
response arrived, so offered load scales with the connection count and
measured latency includes queueing at the server, exactly the regime
the ROADMAP's "heavy traffic" goal cares about.

:func:`run_loadgen` is the only loop; what it drives is a *target*
(:class:`ServerTarget`: a running ``repro serve`` endpoint over TCP;
:class:`repro.cluster.loadgen.ClusterTarget`: a replicated cluster
through its coordinator, with a mid-run kill and an acked-write
read-back).

Per-operation wall-clock latencies are recorded exactly (lists, not
histogram buckets — op counts here are small enough) and the run
summary — throughput plus nearest-rank p50/p95/p99 per op type, with
error and BUSY-retry counts broken out *per op class* — is written as
the ``BENCH_serve.json`` artifact that starts the repo's serving-perf
trajectory.

``BUSY`` responses (admission-control shedding) are retried with a
small exponential backoff and counted separately: a shed request is
not an error, it is the backpressure mechanism working.

With ``trace_every > 0`` each server connection samples 1-in-N of its
requests into the wire trace header (plus the ``trace_slow_us``
slow-upgrade threshold); after the run the target pulls the server half
of every sampled trace over the TRACE op and can write the combined
span trees as a separate traces artifact — the end-to-end "one request,
one causal tree" view ``repro trace --request`` renders.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

from repro.common.quantile import nearest_rank
from repro.server.client import AsyncClient, ClientTraceConfig, ServerBusy
from repro.workloads.generators import OP_KINDS, WORKLOAD_KINDS, request_stream

#: How many times one op retries BUSY before counting as an error.
MAX_BUSY_RETRIES = 50

#: Cap on combined trace trees kept in the traces artifact.
MAX_TRACES_IN_ARTIFACT = 32

#: The op class a workload kind needs beyond the get / put / delete
#: every target has; a target that cannot issue it rejects the run.
WORKLOAD_NEEDS = {"ycsb-e": "scan"}

#: Workload kinds whose reads the generator *verifies*: each connection
#: owns a disjoint key slice, replays a per-connection membership model,
#: and flags any read that contradicts it. A key the model says is live
#: reading back absent is a **false negative** — the error class the
#: filter-delete contract exists to forbid — and fails the churn-smoke
#: gate; a deleted key reading back live is a stale read.
VERIFIED_WORKLOADS = ("churn", "denylist")

#: Span of one short scan op (``ycsb-e``) on the wire.
SCAN_WIDTH = 32


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run, as plain data."""

    host: str = "127.0.0.1"
    port: int = 7411
    connections: int = 8
    ops: int = 5000
    workload: str = "ycsb-b"  # any of WORKLOAD_KINDS
    key_space: int = 2000
    read_fraction: float = 0.95
    theta: float = 0.99
    value_size: int = 16
    seed: int = 0
    preload: bool = True
    #: Head-sample 1 in N requests into the wire trace header (0 = off).
    trace_every: int = 0
    #: Client-side slow-upgrade threshold in microseconds (0 = off).
    trace_slow_us: float = 0.0

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError(
                f"connections must be >= 1, got {self.connections}"
            )
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1, got {self.ops}")
        if self.key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {self.key_space}")
        if self.workload not in WORKLOAD_KINDS:
            raise ValueError(
                f"workload must be one of {'|'.join(WORKLOAD_KINDS)}, "
                f"got {self.workload!r}"
            )
        if self.trace_every < 0:
            raise ValueError(
                f"trace_every must be >= 0, got {self.trace_every}"
            )


def _summarize_op(latencies_us: list[float]) -> dict:
    count = len(latencies_us)
    return {
        "count": count,
        "mean_us": sum(latencies_us) / count if count else 0.0,
        "p50_us": nearest_rank(latencies_us, 0.50) or 0.0,
        "p95_us": nearest_rank(latencies_us, 0.95) or 0.0,
        "p99_us": nearest_rank(latencies_us, 0.99) or 0.0,
        "max_us": max(latencies_us, default=0.0),
    }


def owned_span(cfg: LoadgenConfig, who: str) -> int:
    """Keys per connection when the key space is split disjointly."""
    span = cfg.key_space // cfg.connections
    if span < 1:
        raise ValueError(
            f"{who} needs key_space >= connections "
            f"({cfg.key_space} < {cfg.connections})"
        )
    return span


class ServerTarget:
    """What a load run drives — here one ``repro serve`` endpoint, a
    socket per connection. A target names its artifact (``bench``), the
    op classes it can issue (``ops``), seeds the key population
    (``preload``), says which keys connection ``index`` draws from
    (``keys``), opens that connection (``connect`` — anything with
    ``get`` / ``put`` / ``delete`` / ``scan`` / ``close``) and adds its
    own sections to the run summary (``finish``)."""

    bench = "serve"
    ops = OP_KINDS

    def __init__(self, cfg: LoadgenConfig) -> None:
        self.cfg = cfg
        self.clients: list[AsyncClient] = []

    async def preload(self) -> None:
        """Seed the whole key population so reads have something to hit."""
        cfg = self.cfg
        client = await AsyncClient.connect(cfg.host, cfg.port)
        try:
            value = "x" * cfg.value_size
            keys = list(range(cfg.key_space))
            for start in range(0, len(keys), 500):
                chunk = keys[start : start + 500]
                await client.put_batch([(key, value) for key in chunk])
        finally:
            await client.close()

    def keys(self, index: int) -> list[int]:
        """Verified workloads slice the key space disjointly per
        connection so each worker's membership model is authoritative
        for every key it reads; the other kinds share the whole space
        (the historical behavior, draw-for-draw)."""
        cfg = self.cfg
        if cfg.workload not in VERIFIED_WORKLOADS:
            return list(range(cfg.key_space))
        span = owned_span(cfg, f"verified workload {cfg.workload!r}")
        lo = index * span
        return list(range(lo, lo + span))

    async def connect(self, index: int) -> AsyncClient:
        cfg = self.cfg
        trace = None
        if cfg.trace_every or cfg.trace_slow_us:
            trace = ClientTraceConfig(
                sample_every=cfg.trace_every, slow_us=cfg.trace_slow_us
            )
        client = await AsyncClient.connect(cfg.host, cfg.port, trace=trace)
        self.clients.append(client)
        return client

    async def finish(self, summary: dict) -> None:
        """With tracing on, fetch the server half of the sampled traces
        and combine the trees."""
        cfg = self.cfg
        if not cfg.trace_every and not cfg.trace_slow_us:
            return
        spans_by_trace: dict[int, list[dict]] = {}
        trace_ids: list[int] = []
        for worker in self.clients:
            trace_ids.extend(worker.sampled_trace_ids)
            for span in worker.client_spans():
                span = span.to_dict()
                if span.get("trace_id"):
                    spans_by_trace.setdefault(span["trace_id"], []).append(span)
        traces = {
            "sampled": sum(c.traces_sampled for c in self.clients),
            "slow_upgrades": sum(c.slow_upgrades for c in self.clients),
            "server": {},
            "traces": [],
        }
        client = await AsyncClient.connect(cfg.host, cfg.port)
        try:
            sink = await client.fetch_trace(0)
            if sink is not None:
                traces["server"] = {
                    "tracing_enabled": sink.get("tracing_enabled", False),
                    "dropped_traces": sink.get("dropped_traces", 0),
                    "dropped_spans": sink.get("dropped_spans", 0),
                }
            # Newest sampled ids first: the tail of the run is likeliest to
            # still be resident in the server's bounded sink.
            wanted = list(dict.fromkeys(reversed(trace_ids)))
            for trace_id in wanted[:MAX_TRACES_IN_ARTIFACT]:
                spans = list(spans_by_trace.get(trace_id, []))
                payload = await client.fetch_trace(trace_id)
                if payload is not None:
                    spans.extend(payload.get("spans", []))
                if spans:
                    traces["traces"].append(
                        {"trace_id": trace_id, "spans": spans}
                    )
        finally:
            await client.close()
        summary["tracing"] = {
            "sampled": traces["sampled"],
            "slow_upgrades": traces["slow_upgrades"],
            "complete_traces": len(traces["traces"]),
            "server": traces["server"],
        }
        summary["_traces"] = traces  # detached before the artifact


async def _worker(
    cfg: LoadgenConfig,
    target,
    index: int,
    stream,
    latencies: dict[str, list[float]],
    counters: dict[str, dict[str, int]],
    verify_state: dict,
) -> None:
    """One closed-loop connection: the next request leaves only after
    the previous response arrived."""
    conn = await target.connect(index)
    value = f"c{index}-" + "y" * max(0, cfg.value_size - 4)
    verifying = cfg.workload in VERIFIED_WORKLOADS
    # Membership model: True = must read back live, False = must read
    # back absent, None = unknown (the op that would have set it
    # errored). Untouched keys are live iff the population was preloaded
    # (the denylist scenario starts empty).
    preloaded = cfg.preload and cfg.workload != "denylist"
    model: dict[int, bool | None] = {}
    try:
        for op, key in stream:
            start = time.perf_counter_ns()
            backoff = 0.0005
            ok = False
            result = None
            for attempt in range(MAX_BUSY_RETRIES + 1):
                try:
                    if op == "read":
                        result = await conn.get(key)
                    elif op == "delete":
                        await conn.delete(key)
                    elif op == "scan":
                        await conn.scan(key, key + SCAN_WIDTH)
                    elif op == "rmw":
                        await conn.get(key)
                        await conn.put(key, value)
                    else:  # update / insert
                        await conn.put(key, value)
                    ok = True
                    break
                except ServerBusy:
                    counters[op]["busy_retries"] += 1
                    if attempt == MAX_BUSY_RETRIES:
                        counters[op]["errors"] += 1
                        break
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, 0.05)
                except Exception:  # noqa: BLE001 — survey run keeps going
                    counters[op]["errors"] += 1
                    break
            latencies[op].append((time.perf_counter_ns() - start) / 1_000)
            if not verifying:
                continue
            if op == "read":
                if ok:
                    expected = model.get(key, preloaded)
                    if expected is None:
                        continue
                    verify_state["verified_reads"] += 1
                    if expected and result is None:
                        verify_state["false_negatives"] += 1
                    elif not expected and result is not None:
                        verify_state["stale_reads"] += 1
            elif op in ("update", "insert", "rmw"):
                model[key] = True if ok else None
            elif op == "delete":
                model[key] = False if ok else None
    finally:
        await conn.close()


async def run_loadgen(cfg: LoadgenConfig, target=None) -> dict:
    """Run the configured load — the one closed loop, against
    ``target`` (default: the ``repro serve`` endpoint ``cfg`` names) —
    and return the summary dict, the exact structure written to
    ``BENCH_serve.json``. Raises :class:`ValueError` before any traffic
    when the workload needs an op class the target cannot issue."""
    if target is None:
        target = ServerTarget(cfg)
    needed = WORKLOAD_NEEDS.get(cfg.workload)
    if needed is not None and needed not in target.ops:
        raise ValueError(
            f"workload {cfg.workload!r} needs {needed!r} ops, which a "
            f"{target.bench} target cannot issue"
        )
    per_conn = [cfg.ops // cfg.connections] * cfg.connections
    for i in range(cfg.ops % cfg.connections):
        per_conn[i] += 1
    streams = [
        request_stream(
            cfg.workload,
            target.keys(index),
            ops,
            read_fraction=cfg.read_fraction,
            theta=cfg.theta,
            seed=cfg.seed * 1_000_003 + index,
        )
        for index, ops in enumerate(per_conn)
    ]
    if cfg.preload and cfg.workload != "denylist":
        # The denylist scenario's whole point is an (almost) empty
        # store: admission checks must be negative lookups.
        await target.preload()
    latencies: dict[str, list[float]] = {op: [] for op in OP_KINDS}
    counters = {op: {"busy_retries": 0, "errors": 0} for op in OP_KINDS}
    verify_state: dict = {
        "verified_reads": 0,
        "false_negatives": 0,
        "stale_reads": 0,
    }
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _worker(
                cfg, target, index, stream, latencies, counters, verify_state
            )
            for index, stream in enumerate(streams)
            if per_conn[index] > 0
        )
    )
    elapsed = time.perf_counter() - started
    total_ops = sum(len(v) for v in latencies.values())
    all_latencies = [x for v in latencies.values() for x in v]
    from repro.workloads.bench import host_fingerprint

    summary = {
        "bench": target.bench,
        "config": asdict(cfg),
        "host": host_fingerprint(),
        "elapsed_s": elapsed,
        "total_ops": total_ops,
        "throughput_ops_per_s": total_ops / elapsed if elapsed > 0 else 0.0,
        # Totals kept for artifact compatibility; the per-class
        # breakdown is below.
        "busy_retries": sum(c["busy_retries"] for c in counters.values()),
        "errors": sum(c["errors"] for c in counters.values()),
        "op_counters": {op: dict(c) for op, c in counters.items()},
        "latency_us": {
            "all": _summarize_op(all_latencies),
            # read/update always present (artifact schema compat); the
            # other op classes appear when the workload issued them.
            "read": _summarize_op(latencies["read"]),
            "update": _summarize_op(latencies["update"]),
            **{
                op: _summarize_op(latencies[op])
                for op in OP_KINDS
                if op not in ("read", "update") and latencies[op]
            },
        },
    }
    if cfg.workload in VERIFIED_WORKLOADS:
        summary["verification"] = dict(verify_state)
    await target.finish(summary)
    return summary
