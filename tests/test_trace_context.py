"""End-to-end request tracing: the wire trace header, head sampling,
cross-process span trees, the TRACE op, dropped-span accounting, and
the bit-identity guarantee (tracing off -> counted I/Os unchanged).

Same harness idiom as test_server.py: no pytest-asyncio, every test
runs its own loop via ``asyncio.run`` and binds port 0.
"""

import asyncio
import json
from contextlib import contextmanager, nullcontext

import pytest

from repro.cli import _span_forest
from repro.engine import EngineConfig, build_store
from repro.obs import Observability, registry_to_dict
from repro.obs.context import (
    HeadSampler,
    TraceBuffer,
    TraceCarrier,
    format_trace_id,
    new_span_id,
    new_trace_id,
    parse_trace_id,
)
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.server import (
    AsyncClient,
    ClientTraceConfig,
    Op,
    ProtocolError,
    ReproServer,
    Request,
    decode_request,
    encode_request,
)

HOST = "127.0.0.1"


def small_config(**overrides):
    fields = dict(
        size_ratio=3, buffer_entries=16, block_entries=4, shards=2,
        durable=True,
    )
    fields.update(overrides)
    return EngineConfig(**fields)


async def start_server(obs=None, shards=2):
    store = build_store(small_config(shards=shards), obs)
    server = ReproServer(store, observability=obs)
    port = await server.start()
    return server, store, port


def span_names(span_dict):
    yield span_dict["name"]
    for child in span_dict.get("children", []):
        yield from span_names(child)


class TestWireHeader:
    def test_trace_context_round_trips(self):
        req = Request(
            7, Op.GET, key=42, trace_id=0xDEAD_BEEF, parent_span_id=0x1234
        )
        decoded = decode_request(encode_request(req))
        assert decoded.trace_id == 0xDEAD_BEEF
        assert decoded.parent_span_id == 0x1234
        assert decoded.op is Op.GET and decoded.key == 42

    def test_untraced_request_has_zero_context(self):
        decoded = decode_request(encode_request(Request(1, Op.GET, key=5)))
        assert decoded.trace_id == 0
        assert decoded.parent_span_id == 0

    def test_untraced_encoding_is_byte_identical_to_pre_trace_wire(self):
        # The header is strictly additive: requests without a trace
        # context must not change on the wire at all.
        payload = encode_request(Request(3, Op.PUT, key=9, value=b"v"))
        assert payload[8] == Op.PUT.value  # opcode byte, no TRACE_FLAG

    def test_flagged_frame_with_truncated_header_rejected(self):
        payload = bytearray(encode_request(Request(1, Op.GET, key=5)))
        payload[8] |= 0x80  # claim a trace header that is not there
        with pytest.raises(ProtocolError):
            decode_request(bytes(payload))

    def test_flagged_frame_with_zero_trace_id_rejected(self):
        good = encode_request(
            Request(1, Op.GET, key=5, trace_id=1, parent_span_id=1)
        )
        bad = good[:9] + b"\x00" * 8 + good[17:]
        with pytest.raises(ProtocolError):
            decode_request(bad)

    def test_server_survives_malformed_trace_header(self):
        async def main():
            server, _, port = await start_server()
            reader, writer = await asyncio.open_connection(HOST, port)
            payload = bytearray(encode_request(Request(1, Op.GET, key=5)))
            payload[8] |= 0x80
            writer.write(len(payload).to_bytes(4, "big") + bytes(payload))
            await writer.drain()
            assert await reader.read(64) == b""  # connection dropped
            writer.close()
            # The listener is still healthy for well-formed clients.
            client = await AsyncClient.connect(HOST, port)
            await client.put(1, "one")
            assert await client.get(1) == b"one"
            await client.close()
            bad_frames = server.bad_frames
            await server.drain()
            return bad_frames

        assert asyncio.run(main()) == 1

    def test_id_formatting_round_trip(self):
        tid = new_trace_id()
        assert parse_trace_id(format_trace_id(tid)) == tid
        assert parse_trace_id(str(tid)) == tid


class TestHeadSampling:
    def test_sampler_is_deterministic_one_in_n(self):
        sampler = HeadSampler(every=3)
        decisions = [sampler.decide() for _ in range(9)]
        assert decisions == [False, False, True] * 3  # every Nth request
        assert sampler.sampled == 3

    def test_client_samples_and_server_honors(self):
        async def main():
            obs = Observability()
            server, _, port = await start_server(obs=obs)
            client = await AsyncClient.connect(
                HOST, port, trace=ClientTraceConfig(sample_every=4)
            )
            for key in range(8):
                await client.put(key, f"v{key}")
                await client.get(key)
            sampled_ids = list(client.sampled_trace_ids)
            held = set(obs.trace_sink.trace_ids())
            await client.close()
            await server.drain()
            return client.traces_sampled, sampled_ids, held

        sampled, ids, held = asyncio.run(main())
        assert sampled == 4  # 16 requests at 1-in-4
        assert len(ids) == 4
        # Every client-sampled trace reached the server's sink with the
        # *client's* trace id — context propagated over the wire.
        assert set(ids) <= held

    def test_unsampled_requests_leave_no_server_trace(self):
        async def main():
            obs = Observability()
            server, _, port = await start_server(obs=obs)
            client = await AsyncClient.connect(HOST, port)  # tracing off
            for key in range(10):
                await client.put(key, "x")
                await client.get(key)
            held = list(obs.trace_sink.trace_ids())
            await client.close()
            await server.drain()
            return held

        assert asyncio.run(main()) == []

    def test_slow_upgrade_records_client_side_span(self):
        async def main():
            server, _, port = await start_server()
            client = await AsyncClient.connect(
                HOST, port,
                trace=ClientTraceConfig(sample_every=0, slow_us=0.0001),
            )
            await client.put(1, "one")  # everything is slower than 0.1ns
            spans = client.client_spans()
            upgrades = client.slow_upgrades
            await client.close()
            await server.drain()
            return spans, upgrades

        spans, upgrades = asyncio.run(main())
        assert upgrades == 1
        assert spans and spans[0].attrs.get("slow_upgrade") is True


class TestEndToEndTrees:
    def collect(self, read_fraction_ops):
        async def main():
            obs = Observability()
            server, _, port = await start_server(obs=obs)
            client = await AsyncClient.connect(
                HOST, port, trace=ClientTraceConfig(sample_every=1)
            )
            for op, key in read_fraction_ops:
                if op == "put":
                    await client.put(key, f"v{key}")
                else:
                    await client.get(key)
            trees = []
            for trace_id in client.sampled_trace_ids:
                payload = await client.fetch_trace(trace_id)
                assert payload is not None
                client_half = [
                    s.to_dict() for s in client.client_spans()
                    if s.trace_id == trace_id
                ]
                trees.append((client_half, payload["spans"]))
            await client.close()
            await server.drain()
            return trees

        return asyncio.run(main())

    def test_get_tree_spans_client_server_and_engine(self):
        trees = self.collect([("put", 1), ("get", 1)])
        client_half, server_half = trees[1]
        assert [s["name"] for s in client_half] == ["client_get"]
        names = {n for s in server_half for n in span_names(s)}
        assert "serve_get" in names
        assert "memtable_probe" in names  # engine read-path probes ride along
        serve_get = next(s for s in server_half if s["name"] == "serve_get")
        assert serve_get["parent_id"] == client_half[0]["span_id"]
        assert serve_get["trace_id"] == client_half[0]["trace_id"]

    def test_put_tree_includes_group_commit(self):
        trees = self.collect([("put", 5)])
        client_half, server_half = trees[0]
        names = {n for s in server_half for n in span_names(s)}
        assert "serve_put" in names
        assert "group_commit" in names
        serve_put = next(s for s in server_half if s["name"] == "serve_put")
        commit = next(s for s in server_half if s["name"] == "group_commit")
        assert commit["parent_id"] == serve_put["span_id"]

    def test_trace_op_summary_and_unknown_id(self):
        async def main():
            obs = Observability()
            server, _, port = await start_server(obs=obs)
            client = await AsyncClient.connect(
                HOST, port, trace=ClientTraceConfig(sample_every=1)
            )
            await client.put(1, "one")
            summary = await client.fetch_trace(0)
            missing = await client.fetch_trace(0xDEAD)
            await client.close()
            await server.drain()
            return summary, missing

        summary, missing = asyncio.run(main())
        assert summary["tracing_enabled"] is True
        assert summary["traces"] == 1
        assert missing is None


class TestDroppedAccounting:
    def test_sink_evicts_oldest_and_counts_drops(self):
        sink = TraceBuffer(max_traces=2, max_spans=8)
        for i in range(3):
            span = Span(f"s{i}", {}, 0.0)
            span.trace_id = 100 + i
            sink.add(span)
        assert sink.trace_ids() == [101, 102]
        assert sink.dropped_traces == 1
        assert sink.dropped_spans == 1
        assert sink.to_payload(100) is None

    def test_per_trace_span_cap(self):
        sink = TraceBuffer(max_traces=4, max_spans=2)
        for _ in range(5):
            span = Span("s", {}, 0.0)
            span.trace_id = 7
            sink.add(span)
        assert len(sink.to_payload(7)["spans"]) == 2
        assert sink.dropped_spans == 3

    def test_server_exposes_dropped_span_metric(self):
        async def main():
            obs = Observability(trace_ring=4, max_traces=2)
            server, _, port = await start_server(obs=obs)
            client = await AsyncClient.connect(
                HOST, port, trace=ClientTraceConfig(sample_every=1)
            )
            for key in range(12):
                await client.put(key, "x")
            summary = await client.fetch_trace(0)
            stats = await client.stats()
            await client.close()
            await server.drain()
            return summary, stats

        summary, stats = asyncio.run(main())
        assert summary["dropped_traces"] > 0
        assert summary["spans_dropped_total"] > 0
        assert stats["tracing"]["dropped_traces"] > 0


@contextmanager
def sampled_request(obs):
    """What a sampled request's server span does for the engine under
    it: activate the family carrier with a fresh trace."""
    saved = obs.carrier.activate(new_trace_id(), new_span_id())
    try:
        yield
    finally:
        obs.carrier.restore(saved)


def drive_store(obs, ops=300, sampled=False):
    """A fixed put/get stream, every op under its own sampled trace when
    ``sampled``; returns (store, hits, snapshot)."""
    store = build_store(small_config(durable=False), obs)

    def op(fn, *args):
        with sampled_request(obs) if sampled else nullcontext():
            return fn(*args)

    for i in range(ops):
        op(store.put, i % 50, f"v{i}")
    hits = 0
    for i in range(ops):
        hits += op(store.get, (i * 7) % 80) is not None
    return store, hits, store.snapshot()


def tree_shapes(spans):
    """Each stitched tree as ``(name, sorted child shapes)``."""

    def shape(node):
        return node["name"], sorted(shape(c) for c in node["children"])

    return sorted(shape(root) for root in _span_forest(spans))


class TestBitIdentity:
    def test_snapshot_identical_across_tracing_setups(self):
        """Obs off, obs with a ring, a ring-less bundle unsampled and
        the same sampled 1-in-1: four runs, one snapshot."""
        snaps = [
            drive_store(None)[2],
            drive_store(Observability())[2],
            drive_store(Observability(trace_ring=0))[2],
            drive_store(Observability(trace_ring=0), sampled=True)[2],
        ]
        assert all(snap == snaps[0] for snap in snaps[1:])

    def test_counted_ios_identical_with_and_without_observability(self):
        """The whole observability stack — spans, probes, sink — must
        never touch a counter: counted I/Os are bit-identical whether
        instrumentation is on or off."""
        _, hits_plain, plain = drive_store(None)
        obs = Observability()
        store, hits_traced, traced = drive_store(obs)
        assert hits_plain == hits_traced
        assert traced.storage_reads == plain.storage_reads
        assert traced.storage_writes == plain.storage_writes
        assert traced.false_positives == plain.false_positives
        assert traced.memory == plain.memory
        # ... while the traced run really did record engine probe spans
        # (shard stores trace into their own child tracers).
        names = {s.name for s in store.recent_spans(64)}
        assert "read" in names

    def test_server_counted_ios_identical_traced_vs_untraced(self):
        def run(trace):
            async def main():
                obs = Observability() if trace else None
                server, store, port = await start_server(obs=obs)
                client = await AsyncClient.connect(
                    HOST, port,
                    trace=ClientTraceConfig(sample_every=1) if trace else None,
                )
                for key in range(40):
                    await client.put(key, f"v{key}")
                for key in range(60):
                    await client.get(key % 45)
                snap = store.snapshot()
                await client.close()
                await server.drain()
                return snap.storage_reads, snap.storage_writes

            return asyncio.run(main())

        assert run(trace=True) == run(trace=False)


class TestRingLessBundle:
    """``Observability(trace_ring=0)``, what ``repro serve`` runs: a
    sampled request builds the same tree as with a ring, an unsampled
    one builds no span, and the read metrics do not care which."""

    def test_tracer_builds_only_what_it_keeps(self):
        carrier, sink = TraceCarrier(), TraceBuffer()
        tracer = Tracer(ring=0, carrier=carrier, sink=sink)
        assert not tracer.sampling() and not NULL_TRACER.sampling()
        assert Tracer(ring=1).sampling()
        with tracer.span("untraced") as span:
            assert span is NULL_TRACER.record("x")
        assert tracer.record("untraced") is span
        assert tracer.span_for("untraced", 0, 0) is NULL_TRACER.span("x")
        saved = carrier.activate(77, 3)
        assert tracer.sampling()
        with tracer.span("traced"):
            tracer.record("child")
        carrier.restore(saved)
        (root,) = sink.get(77)
        assert (root.name, root.parent_id) == ("traced", 3)
        assert [c.name for c in root.children] == ["child"]
        assert tracer.record("filed", trace_id=78) in sink.get(78)
        assert tracer.recent() == [] and tracer.dropped == 0
        with pytest.raises(ValueError):
            Tracer(ring=-1)

    def test_sampled_trees_keep_their_shape(self):
        async def main():
            obs = Observability(trace_ring=0)
            server, _, port = await start_server(obs=obs)
            traced = await AsyncClient.connect(
                HOST, port, trace=ClientTraceConfig(sample_every=1)
            )
            plain = await AsyncClient.connect(HOST, port)
            await traced.put(1000, "fresh")  # empty memtables: no flush
            for key in range(100):
                await plain.put(key, f"v{key}")
            await traced.get(0)  # long since flushed into a run
            put_id, get_id = traced.sampled_trace_ids
            trees = [
                (await traced.fetch_trace(trace_id))["spans"]
                for trace_id in (put_id, get_id)
            ]
            await traced.close()
            await plain.close()
            await server.drain()
            return trees

        put_spans, get_spans = asyncio.run(main())
        assert tree_shapes(put_spans) == [
            ("serve_put", [("group_commit", [("put_batch", [])])]),
        ]
        assert tree_shapes(get_spans) == [
            ("serve_get", [
                ("read", [
                    ("filter_probe", [("run_probe", [])]),
                    ("memtable_probe", []),
                ]),
            ]),
        ]

    def test_unsampled_traffic_records_nothing(self):
        async def main():
            obs = Observability(trace_ring=0)
            server, store, port = await start_server(obs=obs)
            client = await AsyncClient.connect(HOST, port)
            for key in range(100):  # enough to flush and merge
                await client.put(key, "x")
                await client.get(key // 2)
            await client.close()
            await server.drain()
            return obs, store

        obs, store = asyncio.run(main())
        tracers = [obs.tracer] + [shard.obs.tracer for shard in store.shards]
        assert all(tracer.recent() == [] for tracer in tracers)
        assert len(obs.trace_sink) == 0
        assert obs.dropped_spans_total() == 0

    def test_read_metrics_equal_sampled_or_not(self):
        def read_metrics(sampled):
            obs = Observability(trace_ring=0)
            drive_store(obs, sampled=sampled)
            exported = registry_to_dict(obs.registry)
            reads = {
                name: value
                for name, value in exported["counters"].items()
                if name.endswith("kv_reads_total")
            }
            latency = {
                name: (hist["count"], hist["sum"])
                for name, hist in exported["histograms"].items()
                if name.endswith("kv_read_latency_ns")
            }
            return reads, latency

        unsampled = read_metrics(sampled=False)
        assert unsampled[0] and unsampled[1]
        assert read_metrics(sampled=True) == unsampled


#: The STATS ``server`` and ``store`` keys. The served benchmark reads
#: several of them, so they are pinned exactly.
STATS_SERVER_KEYS = {
    "bad_frames", "batched_gets", "commit_batches", "commit_failed_items",
    "commit_items", "commit_queue_depth", "connections", "draining",
    "errors", "get_batches", "inflight", "requests", "shed",
}
STATS_STORE_KEYS = {
    "blocks_in_storage", "filter_bits_per_entry", "live_entries",
    "num_entries", "num_levels", "num_runs", "space_amplification",
    "stored_entries", "wal_batch_records", "write_amplification",
}


async def _stats_after_load(obs, shards=2, keys=10):
    server, _, port = await start_server(obs, shards)
    client = await AsyncClient.connect(HOST, port)
    for key in range(keys):
        await client.put(key, "x")
        await client.get(key)
    stats = await client.stats()
    await client.close()
    await server.drain()
    return stats


class TestStatsBlocks:
    """STATS is the server as it is now: counters, store health, and —
    with observability on — the registry export. No history block."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_metrics_block_iff_observability(self, enabled):
        obs = Observability() if enabled else None
        stats = asyncio.run(_stats_after_load(obs))
        assert ("metrics" in stats) is enabled
        assert ("tracing" in stats) is enabled
        assert "telemetry" not in stats and "slo" not in stats
        assert set(stats["server"]) == STATS_SERVER_KEYS
        assert set(stats["store"]) == STATS_STORE_KEYS
        if enabled:
            metrics = stats["metrics"]
            assert metrics["counters"]["server_requests_total"] >= 20
            get = metrics["histograms"]["server_get_latency_us"]
            assert {"p50", "p95", "p99", "mean"} <= set(get)
            assert not any(key.endswith("_interp") for key in get)

    def test_registry_block_fits_well_under_the_frame_cap(self):
        # A 16-shard store exports every shard's instruments; the whole
        # payload must stay far from the 1 MiB frame cap.
        stats = asyncio.run(
            _stats_after_load(Observability(), shards=16, keys=500)
        )
        size = len(json.dumps(stats, sort_keys=True).encode("utf-8"))
        assert size < 128 * 1024, size
