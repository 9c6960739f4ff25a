"""The serving layer end to end: clients against a live in-process
server, group commit, admission control, drain, and crash recovery.

No pytest-asyncio in the toolchain — every test drives its own event
loop with ``asyncio.run`` and binds port 0 so runs never collide.
"""

import asyncio
import queue
import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, build_store, recover_store
from repro.obs import Observability, registry_to_dict
from repro.server import (
    AsyncClient,
    Op,
    ReproServer,
    Request,
    ServerBusy,
    ServerConfig,
    ServerError,
    Status,
)
from repro.server.group_commit import GroupCommitWriter
from repro.server.protocol import (
    HANDOFF_BEGIN,
    KIND_DELETE,
    KIND_PUT,
    MAX_FRAME_BYTES,
    FrameAssembler,
    Response,
    decode_response,
    encode_request,
    frame,
)
from repro.workloads.ops import Op as StoreOp
from repro.workloads.ops import apply, apply_remote

HOST = "127.0.0.1"


def small_config(**overrides):
    fields = dict(
        size_ratio=3, buffer_entries=16, block_entries=4, shards=4,
        durable=True,
    )
    fields.update(overrides)
    return EngineConfig(**fields)


async def read_responses(reader, count):
    """Read ``count`` response frames off a raw connection."""
    assembler, responses = FrameAssembler(), []
    while len(responses) < count:
        chunk = await reader.read(65536)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        responses.extend(decode_response(p) for p in assembler.feed(chunk))
    return responses


async def start_server(cfg=None, server_config=None, obs=None):
    store = build_store(cfg or small_config(), obs)
    server = ReproServer(store, server_config, observability=obs)
    port = await server.start()
    return server, store, port


class TestBasicOps:
    def test_put_get_delete_scan_over_tcp(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.ping()
            assert await client.get(1) is None
            await client.put(1, "one")
            await client.put(2, b"two")
            assert await client.get(1) == b"one"
            assert await client.get(2) == b"two"
            await client.delete(1)
            assert await client.get(1) is None
            applied = await client.put_batch(
                [(10, "ten"), (11, "eleven"), (2, None)]
            )
            assert applied == 3
            assert await client.get(2) is None
            assert await client.scan(0, 100) == [
                (10, b"ten"), (11, b"eleven")
            ]
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_scan_respects_limit(self):
        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(scan_limit=5)
            )
            client = await AsyncClient.connect(HOST, port)
            await client.put_batch([(k, f"v{k}") for k in range(20)])
            assert len(await client.scan(0, 100)) == 5  # server-side cap
            assert len(await client.scan(0, 100, limit=3)) == 3
            assert len(await client.scan(0, 100, limit=50)) == 5
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_stats_payload_shape(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put(5, "five")
            stats = await client.stats()
            assert stats["server"]["requests"] >= 2
            assert stats["server"]["shed"] == 0
            assert stats["server"]["errors"] == 0
            # fast collection skips the O(N) liveness scan
            assert stats["store"]["live_entries"] is None
            assert stats["store"]["space_amplification"] is None
            assert stats["store"]["num_entries"] == 1
            assert stats["store"]["wal_batch_records"] >= 1
            await client.close()
            await server.drain()

        asyncio.run(main())

    @pytest.mark.parametrize(
        "request_fields",
        [
            dict(op=Op.CLUSTER_STATUS),
            dict(op=Op.REPLICATE, shard=0, seq=1, epoch=1, value=b"x"),
            dict(op=Op.REPL_ACK, shard=0),
            dict(op=Op.HANDOFF, phase=HANDOFF_BEGIN, shard=0, epoch=1),
        ],
        ids=lambda fields: fields["op"].name,
    )
    def test_cluster_op_on_a_plain_server_is_an_error(self, request_fields):
        """An op only a cluster node serves is refused with ERROR; it
        used to fall through to the SHUTDOWN branch and drain the
        server."""

        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put(1, "one")
            response = await client.request(Request(99, **request_fields))
            assert response.status is Status.ERROR
            assert response.message == (
                f"op {request_fields['op'].name} is not served here"
            )
            assert not server.draining
            assert server.errors == 1
            assert await client.get(1) == b"one"
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_pipelined_responses_match_by_request_id(self):
        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(max_queue_depth=64)
            )
            client = await AsyncClient.connect(HOST, port)
            await asyncio.gather(
                *(client.put(k, f"v{k}") for k in range(40))
            )
            values = await asyncio.gather(
                *(client.get(k) for k in range(40))
            )
            assert values == [f"v{k}".encode() for k in range(40)]
            await client.close()
            await server.drain()

        asyncio.run(main())


class TestUtf8Values:
    """A served value is UTF-8 text: a PUT or BATCH carrying other bytes
    is refused whole with ERROR, never stored with replacement
    characters."""

    def test_non_utf8_put_and_batch_are_refused_whole(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            with pytest.raises(ServerError, match="UnicodeDecodeError"):
                await client.put(7, b"\xff\xfe\x00ok")
            assert await client.get(7) is None
            with pytest.raises(ServerError, match="UnicodeDecodeError"):
                await client.put_batch(
                    [(8, "fine"), (9, b"\xc3"), (10, None), (11, "also")]
                )
            assert [await client.get(k) for k in (7, 8, 9, 11)] == [None] * 4
            assert server.commit.items == 0
            assert server.errors == 2 and server.inflight == 0
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_non_ascii_utf8_round_trips(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            text = "gr\u00fc\u00dfe \u2603 \U0001f600"
            await client.put(1, text)
            await client.put_batch([(2, text.encode("utf-8")), (3, "\u00e9")])
            assert await client.get(1) == text.encode("utf-8")
            assert await client.get(2) == text.encode("utf-8")
            assert await client.get(3) == "\u00e9".encode("utf-8")
            assert store.get(1) == text
            await client.close()
            await server.drain()

        asyncio.run(main())


class TestMainThreadClient:
    def test_asyncio_run_client_over_real_socket(self):
        """The client runs under ``asyncio.run`` in the main thread; the
        server loop runs in a worker thread — the shape scripts and
        examples use."""
        ports: queue.Queue = queue.Queue()

        def serve():
            async def main():
                server, store, port = await start_server()
                ports.put(port)
                await server.serve_until_drained()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        port = ports.get(timeout=10)

        async def session():
            client = await AsyncClient.connect(HOST, port)
            await client.ping()
            await client.put(7, "seven")
            assert await client.get(7) == b"seven"
            assert await client.get(8) is None
            await client.put_batch([(8, "eight"), (9, "nine")])
            assert await client.scan(7, 9) == [
                (7, b"seven"), (8, b"eight"), (9, b"nine")
            ]
            await client.delete(8)
            assert await client.get(8) is None
            assert (await client.stats())["server"]["errors"] == 0
            await client.shutdown()
            await client.close()

        asyncio.run(session())
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestConcurrentEquivalence:
    def test_matches_single_threaded_sharded_store(self):
        """N pipelined connections mutating disjoint key ranges end in
        exactly the state a bare ShardedKVStore reaches replaying the
        same streams — the event loop serializes, nothing is lost."""
        clients, ops_per_client, span = 6, 150, 10_000

        def ops_for(idx):
            rng = random.Random(1000 + idx)
            base = idx * span
            out = []
            for i in range(ops_per_client):
                key = base + rng.randrange(200)
                if rng.random() < 0.15:
                    out.append(StoreOp("delete", key))
                else:
                    out.append(StoreOp("update", key, f"c{idx}v{i}"))
            return out

        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(max_queue_depth=64)
            )

            async def worker(idx):
                client = await AsyncClient.connect(HOST, port)
                for op in ops_for(idx):
                    await apply_remote(client, op)
                await client.close()

            await asyncio.gather(*(worker(i) for i in range(clients)))
            probe = await AsyncClient.connect(HOST, port)
            scanned = await probe.scan(0, clients * span)
            await probe.close()
            await server.drain()
            return store, scanned

        store, scanned = asyncio.run(main())

        reference = build_store(small_config())
        for idx in range(clients):
            for op in ops_for(idx):
                apply(reference, op)

        expected = list(reference.scan(0, clients * span))
        assert [(k, v.encode()) for k, v in expected] == scanned
        for key, value in expected:
            assert store.get(key) == value


class TestGroupCommit:
    def test_wal_batch_records_far_fewer_than_puts(self):
        """The acceptance criterion: under concurrency the WAL sees
        strictly fewer batch records than logical PUTs."""
        puts = 400

        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(
                    max_inflight=1024, max_queue_depth=1024
                )
            )
            client = await AsyncClient.connect(HOST, port)
            await asyncio.gather(
                *(client.put(k, f"v{k}") for k in range(puts))
            )
            batches = server.commit.batches
            records = store.wal_batch_records
            await client.close()
            await server.drain()
            return store, batches, records

        store, batches, records = asyncio.run(main())
        assert server_side_total(store) == puts
        assert batches < puts
        assert records < puts
        assert batches >= 1

    def test_client_batch_is_one_commit_group(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put_batch([(k, f"v{k}") for k in range(100)])
            assert server.commit.batches == 1
            assert server.commit.items == 100
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_cancelled_submit_is_applied_without_an_error_report(self):
        """A caller that stops waiting (a timeout, a cancelled task) does
        not turn the write's ack into an exception the loop reports."""

        async def main():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, ctx: reported.append(ctx))
            store = build_store(small_config())
            writer = GroupCommitWriter(store)
            waiting = asyncio.ensure_future(writer.submit([(1, "v")]))
            await asyncio.sleep(0)  # submit enqueued, commit scheduled
            waiting.cancel()
            await writer.close()
            assert waiting.cancelled()
            assert store.get(1) == "v"
            assert reported == []

        asyncio.run(main())


def server_side_total(store):
    return store.num_entries


class TestRobustness:
    def test_malformed_frame_errors_connection_not_server(self):
        async def main():
            server, store, port = await start_server()
            # A well-framed payload with a garbage opcode…
            reader, writer = await asyncio.open_connection(HOST, port)
            bad = struct.pack(">QB", 1, 250)
            writer.write(struct.pack(">I", len(bad)) + bad)
            await writer.drain()
            assert await reader.read() == b""  # server closed us
            writer.close()
            # …and an oversized length prefix.
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(struct.pack(">I", 1 << 30))
            await writer.drain()
            assert await reader.read() == b""
            writer.close()
            assert server.bad_frames == 2
            # The server itself is fine: a fresh client works.
            client = await AsyncClient.connect(HOST, port)
            await client.put(1, "survived")
            assert await client.get(1) == b"survived"
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_request_error_is_an_ERROR_response_not_a_crash(self):
        async def main():
            server, store, port = await start_server()

            def boom(*args, **kwargs):
                raise RuntimeError("injected")

            store.get = boom
            client = await AsyncClient.connect(HOST, port)
            resp = await client.request(Request(99, Op.GET, key=1))
            assert resp.status is Status.ERROR
            assert "injected" in resp.message
            assert server.errors == 1
            await client.ping()  # connection and server still alive
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_scan_too_large_to_frame_is_answered_error(self):
        """The default scan_limit lets a SCAN collect more than one frame
        holds (40k pairs of 17-byte values is ~1.2 MB): the client gets
        ERROR naming MAX_FRAME_BYTES, the in-flight slot is released and
        drain completes. Every wait is bounded, so a lost answer fails
        by timeout instead of hanging."""

        async def main():
            store = build_store(EngineConfig(buffer_entries=4096))
            for key in range(40_000):
                store.put(key, f"value-{key:011d}")
            server = ReproServer(store)
            port = await server.start()
            client = await AsyncClient.connect(HOST, port)
            with pytest.raises(ServerError, match="MAX_FRAME_BYTES"):
                await asyncio.wait_for(client.scan(0, 10**9), 10)
            assert server.inflight == 0
            assert server.errors == 1
            # The connection survives: a bounded SCAN is answered.
            pairs = await asyncio.wait_for(client.scan(0, 10**9, limit=3), 10)
            assert [key for key, _ in pairs] == [0, 1, 2]
            await client.close()
            await asyncio.wait_for(server.drain(), 10)

        asyncio.run(main())


class TestOverload:
    def test_burst_beyond_limits_is_shed_not_deadlocked(self):
        """Tiny admission limits + a deep pipelined burst: the excess
        gets BUSY, nothing hangs, and every acknowledged write is in
        the store."""
        burst = 64

        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(max_inflight=4, max_queue_depth=2)
            )
            client = await AsyncClient.connect(HOST, port)
            responses = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        client.request(
                            Request(i + 1, Op.PUT, key=i, value=b"v")
                        )
                        for i in range(burst)
                    )
                ),
                timeout=30,
            )
            ok = [r for r in responses if r.status is Status.OK]
            busy = [r for r in responses if r.status is Status.BUSY]
            assert len(ok) + len(busy) == burst
            assert busy, "burst above the limits must shed"
            assert ok, "admitted requests must complete"
            assert server.shed == len(busy)
            # every acknowledged write landed; shed writes never did
            acked = {r.request_id - 1 for r in ok}
            for key in acked:
                assert store.get(key) == "v"
            assert store.num_entries == len(acked)
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_typed_client_raises_ServerBusy(self):
        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(max_inflight=1, max_queue_depth=1)
            )
            client = await AsyncClient.connect(HOST, port)
            results = await asyncio.gather(
                *(client.put(k, "v") for k in range(16)),
                return_exceptions=True,
            )
            assert any(isinstance(r, ServerBusy) for r in results)
            await client.close()
            await server.drain()

        asyncio.run(main())


class TestDrainAndRecovery:
    def test_acked_writes_survive_crash_without_drain(self):
        """Kill-while-loaded: every acknowledged PUT is in the WAL (or
        flushed) the moment its response exists — crash the store with
        no flush and recover all of them."""
        cfg = small_config()

        async def main():
            server, store, port = await start_server(cfg=cfg)

            async def worker(idx):
                client = await AsyncClient.connect(HOST, port)
                for i in range(60):
                    await client.put(idx * 1000 + i, f"w{idx}.{i}")
                await client.close()

            await asyncio.gather(*(worker(i) for i in range(5)))
            state = store.crash()  # no drain, no flush
            # The crash must not drain, but the test may not leak its
            # listening socket: close just the listener.
            server._server.close()
            await server._server.wait_closed()
            return state

        state = asyncio.run(main())
        recovered = recover_store(state, cfg)
        for idx in range(5):
            for i in range(60):
                assert recovered.get(idx * 1000 + i) == f"w{idx}.{i}"

    def test_shutdown_op_drains_and_store_recovers(self):
        cfg = small_config()

        async def main():
            server, store, port = await start_server(cfg=cfg)
            client = await AsyncClient.connect(HOST, port)
            for k in range(50):
                await client.put(k, f"v{k}")
            await client.shutdown()
            await server.serve_until_drained()
            assert server.draining
            await client.close()
            return store.crash()

        state = asyncio.run(main())
        recovered = recover_store(state, cfg)
        for k in range(50):
            assert recovered.get(k) == f"v{k}"

    def test_drain_rejects_new_work_with_shutting_down(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put(1, "v")
            drain_task = asyncio.get_running_loop().create_task(
                server.drain()
            )
            await asyncio.sleep(0)  # let drain flip the flag
            resp = await client.request(Request(42, Op.GET, key=1))
            assert resp.status is Status.SHUTTING_DOWN
            await drain_task
            await client.close()

        asyncio.run(main())


class TestObservability:
    def test_metrics_and_spans_recorded(self):
        async def main():
            obs = Observability()
            server, store, port = await start_server(obs=obs)
            client = await AsyncClient.connect(HOST, port)
            await client.put(1, "one")
            await client.get(1)
            stats = await client.stats()
            assert "metrics" in stats
            await client.close()
            await server.drain()
            dump = registry_to_dict(obs.registry)
            assert dump["counters"]["server_requests_total"] == 3
            assert dump["counters"]["server_commit_batches_total"] >= 1
            assert dump["counters"]["server_commit_items_total"] == 1
            assert dump["histograms"]["server_put_latency_us"]["count"] == 1
            assert dump["histograms"]["server_get_latency_us"]["count"] == 1
            names = {span.name for span in obs.tracer.recent()}
            assert {"serve_get", "serve_put", "group_commit"} <= names

        asyncio.run(main())


class TestFusedGets:
    """A request is a run of one; consecutive pipelined GETs form one
    run served by one ``store.get_batch`` — same answers, same per-key
    counted I/Os, fewer task round-trips."""

    @staticmethod
    async def _burst(port, requests):
        """Write all frames at once, then collect one response each."""
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(b"".join(frame(encode_request(r)) for r in requests))
        await writer.drain()
        responses = {
            resp.request_id: resp
            for resp in await read_responses(reader, len(requests))
        }
        writer.close()
        await writer.wait_closed()
        return responses

    def test_burst_fuses_and_answers_correctly(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put_batch([(k, f"v{k}") for k in range(32)])
            await client.close()
            requests = [
                Request(100 + i, Op.GET, key=(i * 7) % 40) for i in range(24)
            ]
            responses = await self._burst(port, requests)
            for i, req in enumerate(requests):
                resp = responses[100 + i]
                if req.key < 32:
                    assert resp.status is Status.OK
                    assert bytes(resp.value) == f"v{req.key}".encode()
                else:
                    assert resp.status is Status.NOT_FOUND
            assert server.get_batches >= 1
            assert server.batched_gets >= 2
            stats = server.stats()["server"]
            assert stats["get_batches"] == server.get_batches
            assert stats["batched_gets"] == server.batched_gets
            await server.drain()

        asyncio.run(main())

    def test_interleaved_write_breaks_fusion_but_all_ops_land(self):
        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            await client.put(5, "five")
            requests = [
                Request(2, Op.GET, key=5),
                Request(3, Op.GET, key=99),
                Request(4, Op.PUT, key=6, value=b"six"),
                Request(5, Op.GET, key=5),
            ]
            responses = await self._burst(port, requests)
            assert bytes(responses[2].value) == b"five"
            assert responses[3].status is Status.NOT_FOUND
            assert responses[4].status is Status.OK
            assert bytes(responses[5].value) == b"five"
            # The PUT that broke the fusion run was still applied.
            assert await client.get(6) == b"six"
            await client.close()
            await server.drain()

        asyncio.run(main())

    def test_counted_ios_identical_with_and_without_fusion(self):
        """The same GETs as runs of one (awaited one at a time) and as
        one pipelined burst: same values, same counted I/Os."""
        async def main():
            keys = [(i * 11) % 48 for i in range(32)]
            observed = []
            for pipelined in (False, True):
                server, store, port = await start_server()
                client = await AsyncClient.connect(HOST, port)
                await client.put_batch([(k, f"v{k}") for k in range(48)])
                def io_state():
                    return (
                        sum(s.counters.storage.reads for s in store.shards),
                        sum(s.counters.memory.total for s in store.shards),
                    )

                before = io_state()
                requests = [
                    Request(200 + i, Op.GET, key=key)
                    for i, key in enumerate(keys)
                ]
                if pipelined:
                    responses = await self._burst(port, requests)
                else:
                    responses = {
                        r.request_id: await client.request(r) for r in requests
                    }
                await client.close()
                values = tuple(
                    bytes(responses[200 + i].value) for i in range(len(keys))
                )
                after = io_state()
                observed.append(
                    (
                        values,
                        after[0] - before[0],
                        after[1] - before[1],
                        server.get_batches,
                    )
                )
                await server.drain()
            (ref_vals, ref_reads, ref_mem, ref_batches) = observed[0]
            (fus_vals, fus_reads, fus_mem, fus_batches) = observed[1]
            assert ref_batches == 0 and fus_batches >= 1
            assert fus_vals == ref_vals
            assert fus_reads == ref_reads
            assert fus_mem == ref_mem

        asyncio.run(main())

    def test_burst_deeper_than_queue_depth_admits_a_prefix(self):
        """More pipelined GETs than the queue depth has room for: each
        run admits the prefix that fits and sheds the rest — every
        request gets exactly one response, and the counters add up. A
        GET run is answered in the pass that read it and never holds
        the depth, so pipelined PUTs waiting on group commit hold it
        (sent ahead of the GETs, in the same write)."""
        burst, puts = 40, 4

        async def main():
            server, store, port = await start_server(
                server_config=ServerConfig(max_queue_depth=8)
            )
            client = await AsyncClient.connect(HOST, port)
            await client.put_batch([(k, f"v{k}") for k in range(32)])
            await client.close()
            accepted_before = server.requests
            writes = [
                Request(50 + i, Op.PUT, key=1000 + i, value=b"w")
                for i in range(puts)
            ]
            requests = [
                Request(100 + i, Op.GET, key=(i * 7) % 40) for i in range(burst)
            ]
            responses = await asyncio.wait_for(
                self._burst(port, writes + requests), timeout=30
            )
            # one response per request id
            assert len(responses) == burst + puts
            for req in writes:
                assert responses[req.request_id].status is Status.OK
            busy = 0
            for req in requests:
                resp = responses[req.request_id]
                if resp.status is Status.BUSY:
                    busy += 1
                elif req.key < 32:
                    assert resp.status is Status.OK
                    assert bytes(resp.value) == f"v{req.key}".encode()
                else:
                    assert resp.status is Status.NOT_FOUND
            assert 0 < busy < burst
            assert server.shed == busy
            assert server.requests - accepted_before == burst + puts - busy
            assert server.batched_gets >= 2
            assert server.inflight == 0
            assert server.errors == 0
            await server.drain()

        asyncio.run(main())


class RecordingTransport(asyncio.Transport):
    """Stands in for a socket transport: keeps what the server writes,
    and closes the way a real one does (connection_lost, one loop pass
    later)."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.written = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closed

    def close(self):
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )

    abort = close

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_reading(self):
        return self.reading

    def responses(self):
        return {
            resp.request_id: resp
            for resp in map(
                decode_response, FrameAssembler().feed(bytes(self.written))
            )
        }


def attach(server):
    """A server-side connection over a RecordingTransport."""
    conn = server.protocol_factory()
    transport = RecordingTransport(conn)
    conn.connection_made(transport)
    return conn, transport


def comparable(resp):
    return (
        resp.op, resp.status, bytes(resp.value), resp.pairs, resp.count,
        resp.message,
    )


class TestOnePassPath:
    """Frames are read in protocol callbacks: a GET run (or a PING) is
    answered in the callback that read it, a write is acknowledged from
    its group's resolution, and only ops served by the ``_execute``
    coroutine get a task."""

    def test_get_response_is_in_the_transport_when_data_received_returns(self):
        async def main():
            store = build_store(small_config())
            store.put_batch([(k, f"v{k}") for k in range(8)])
            server = ReproServer(store)
            conn, transport = attach(server)
            get = Request(1, Op.GET, key=3)
            conn.data_received(frame(encode_request(get)))
            assert comparable(transport.responses()[1]) == comparable(
                Response(1, Op.GET, Status.OK, value=b"v3")
            )
            # A pipelined run, then a PING: all answered before return.
            conn.data_received(
                b"".join(
                    frame(encode_request(Request(10 + k, Op.GET, key=k)))
                    for k in range(6)
                )
                + frame(encode_request(Request(20, Op.PING)))
            )
            responses = transport.responses()
            assert sorted(responses) == [1, 10, 11, 12, 13, 14, 15, 20]
            assert responses[20].status is Status.OK
            assert server.get_batches == 1 and server.batched_gets == 6
            assert server.inflight == 0 and conn.inflight == 0

        asyncio.run(main())

    @pytest.mark.parametrize("ring", [0, 8])
    def test_untraced_unsampled_get_opens_no_span(self, ring):
        """On ``repro serve``'s bundle (no untraced ring) a GET without
        a trace context calls ``store.get`` with no ``span_for``; a
        traced GET, and any GET on a tracer that keeps roots, still
        opens its ``serve_get`` span. Every GET is timed."""

        async def main():
            obs = Observability(trace_ring=ring)
            store = build_store(small_config(), obs)
            store.put_batch([(k, f"v{k}") for k in range(8)])
            server = ReproServer(store, observability=obs)
            conn, transport = attach(server)
            opened = []
            span_for = obs.tracer.span_for

            def counting_span_for(name, *args, **attrs):
                opened.append(name)
                return span_for(name, *args, **attrs)

            obs.tracer.span_for = counting_span_for
            conn.data_received(frame(encode_request(Request(1, Op.GET, key=3))))
            assert opened == ([] if ring == 0 else ["serve_get"])
            traced = Request(2, Op.GET, key=4, trace_id=77, parent_span_id=5)
            conn.data_received(frame(encode_request(traced)))
            assert opened[-1] == "serve_get"
            names = {span.name for span in obs.trace_sink.get(77)}
            assert "serve_get" in names
            responses = transport.responses()
            assert responses[1].value == b"v3" and responses[2].value == b"v4"
            latency = registry_to_dict(obs.registry)["histograms"]
            assert latency["server_get_latency_us"]["count"] == 2

        asyncio.run(main())

    def test_untraced_get_run_and_put_create_no_task(self):
        async def main():
            server, store, port = await start_server()
            store.put_batch([(k, f"v{k}") for k in range(8)])
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            reader, writer = await asyncio.open_connection(HOST, port)
            while not server.connections:  # accepting runs a task
                await asyncio.sleep(0.001)
            loop.set_task_factory(factory)
            try:
                requests = [Request(1 + k, Op.GET, key=k) for k in range(8)]
                requests.append(Request(50, Op.PUT, key=100, value=b"w"))
                writer.write(
                    b"".join(frame(encode_request(r)) for r in requests)
                )
                responses = await read_responses(reader, len(requests))
                assert {r.status for r in responses} == {Status.OK}
                assert created == []
                # The counting works: STATS is served by a task.
                writer.write(frame(encode_request(Request(60, Op.STATS))))
                (stats,) = await read_responses(reader, 1)
                assert stats.status is Status.OK
                assert created == ["ReproServer._serve"]
                writer.close()
                await writer.wait_closed()
            finally:
                loop.set_task_factory(None)
            assert store.get(100) == "w"
            await server.drain()

        asyncio.run(main())

    def test_full_write_buffer_pauses_reading_until_the_client_reads(self):
        """A raw client pipelines large-value GETs and reads nothing:
        the server stops reading its socket once the transport's write
        buffer passes the high-water mark, and every response still
        arrives once the client reads."""
        gets, size = 64, 16 * 1024

        async def main():
            server, store, port = await start_server()
            store.put_batch([(k, chr(ord("a") + k) * size) for k in range(4)])
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((HOST, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            while not server.connections:
                await asyncio.sleep(0.001)
            (conn,) = server._connections
            conn.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            requests = [Request(1 + i, Op.GET, key=i % 4) for i in range(gets)]
            writer.write(b"".join(frame(encode_request(r)) for r in requests))
            for _ in range(2000):
                if conn.paused:
                    break
                await asyncio.sleep(0.001)
            assert conn.paused
            assert not conn.transport.is_reading()
            high = conn.transport.get_write_buffer_limits()[1]
            assert conn.transport.get_write_buffer_size() > high
            assert conn.backlog  # read, waiting for the buffer to drain
            responses = await asyncio.wait_for(
                read_responses(reader, gets), timeout=30
            )
            assert sorted(r.request_id for r in responses) == list(
                range(1, gets + 1)
            )
            for resp in responses:
                key = (resp.request_id - 1) % 4
                assert bytes(resp.value) == chr(ord("a") + key).encode() * size
            assert not conn.paused and conn.transport.is_reading()
            assert server.shed == 0 and server.errors == 0
            writer.close()
            await writer.wait_closed()
            await server.drain()

        asyncio.run(main())


class PassCountingLoop(asyncio.SelectorEventLoop):
    """Counts event-loop passes: one ``_run_once`` call is one pass."""

    passes = 0

    def _run_once(self):
        self.passes += 1
        super()._run_once()


def run_counting(main):
    loop = PassCountingLoop()
    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


class TestPassCounts:
    """Event-loop passes from a request frame's arrival (the pass whose
    ``data_received`` reads it) to its response's ``transport.write``,
    the count DESIGN.md "One request path" states: a write is applied
    and acknowledged by the commit pass that follows its read."""

    @staticmethod
    async def _passes(request):
        loop = asyncio.get_running_loop()
        store = build_store(small_config())
        store.put_batch([(k, f"v{k}") for k in range(8)])
        server = ReproServer(store)
        conn, transport = attach(server)
        arrived, written = [], []
        record = transport.write

        def write(data):
            written.append(loop.passes)
            record(data)

        def arrive():
            arrived.append(loop.passes)
            conn.data_received(frame(encode_request(request)))

        transport.write = write
        loop.call_soon(arrive)
        while not written:
            await asyncio.sleep(0)
        assert transport.responses()[request.request_id].status is Status.OK
        await server.drain()
        return written[0] - arrived[0] + 1

    @pytest.mark.parametrize(
        "request_, passes",
        [
            (Request(1, Op.PUT, key=3, value=b"w"), 2),
            (Request(1, Op.DELETE, key=3), 2),
            (
                Request(
                    1, Op.BATCH,
                    items=((KIND_PUT, 3, b"w"), (KIND_DELETE, 4, b"")),
                ),
                2,
            ),
            (Request(1, Op.GET, key=3), 1),
            (Request(1, Op.PING), 1),
        ],
        ids=["put", "delete", "batch", "get", "ping"],
    )
    def test_passes_from_arrival_to_response(self, request_, passes):
        assert run_counting(lambda: self._passes(request_)) == passes


class TestSamePassAck:
    """A group's acks, or its ERRORs, leave in the commit pass that
    applied it — the pass after the one that read its writes — on every
    connection of the group."""

    @staticmethod
    def _writes(server, count):
        """``count`` connections, each with one PUT read in one pass."""
        pairs = [attach(server) for _ in range(count)]
        for i, (conn, _) in enumerate(pairs):
            put = Request(1, Op.PUT, key=i, value=b"v%d" % i)
            conn.data_received(frame(encode_request(put)))
        return pairs

    @staticmethod
    async def _settled(server):
        """Yield until no write holds the server's budget (bounded)."""
        for _ in range(8):
            if not server.inflight:
                return
            await asyncio.sleep(0)
        raise AssertionError(f"{server.inflight} writes never settled")

    def test_failed_group_answers_every_write_error_in_its_pass(self):
        async def main():
            loop = asyncio.get_running_loop()
            store = build_store(small_config())
            server = ReproServer(store)
            applied_in, written_in = [], []

            def broken(items):
                applied_in.append(loop.passes)
                raise OSError("disk gone")

            store.put_batch = broken
            pairs = self._writes(server, 3)
            read_pass = loop.passes
            for _, transport in pairs:
                record = transport.write

                def write(data, record=record):
                    written_in.append(loop.passes)
                    record(data)

                transport.write = write
            assert server.inflight == 3
            await self._settled(server)
            assert applied_in == [read_pass + 1]
            assert written_in == [read_pass + 1] * 3
            for _, transport in pairs:
                (resp,) = transport.responses().values()
                assert resp.status is Status.ERROR
                assert "disk gone" in resp.message
            assert server.commit.failed_items == 3
            assert server.errors == 3
            await asyncio.wait_for(server.drain(), timeout=5)

        run_counting(main)

    def test_a_closed_connection_does_not_hold_back_the_group(self):
        async def main():
            store = build_store(small_config())
            server = ReproServer(store)
            pairs = self._writes(server, 3)
            pairs[1][1].close()  # mid group: read, not yet acknowledged
            await self._settled(server)
            assert server.commit.batches == 1
            for i in (0, 2):
                (resp,) = pairs[i][1].responses().values()
                assert resp.status is Status.OK
            assert not pairs[1][1].written
            assert [store.get(k) for k in range(3)] == ["v0", "v1", "v2"]
            await asyncio.wait_for(server.drain(), timeout=5)

        asyncio.run(main())

    def test_an_ack_that_raises_does_not_strand_the_rest(self):
        async def main():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, ctx: reported.append(ctx))
            server = ReproServer(build_store(small_config()))
            pairs = self._writes(server, 3)

            def reset(data):
                raise ConnectionResetError("peer gone")

            pairs[0][1].write = reset
            await self._settled(server)
            for i in (1, 2):
                (resp,) = pairs[i][1].responses().values()
                assert resp.status is Status.OK
            assert [type(ctx["exception"]) for ctx in reported] == [
                ConnectionResetError
            ]
            await asyncio.wait_for(server.drain(), timeout=5)

        asyncio.run(main())


class TestAsyncClientIds:
    def test_reused_inflight_request_id_raises_before_sending(self):
        """Two raw requests with one id: the second used to overwrite
        the first one's waiter, which then never resolved."""

        async def main():
            server, store, port = await start_server()
            client = await AsyncClient.connect(HOST, port)
            first = asyncio.ensure_future(
                client.request(Request(7, Op.GET, key=1))
            )
            await asyncio.sleep(0)  # the first is sent and waiting
            with pytest.raises(ValueError, match="already in flight"):
                await client.request(Request(7, Op.GET, key=1))
            resp = await asyncio.wait_for(first, timeout=10)
            assert resp.status is Status.NOT_FOUND
            assert server.requests == 1  # the second never went out
            # Once answered, the id is free again.
            assert (await client.request(Request(7, Op.PING))).status is (
                Status.OK
            )
            await client.close()
            await server.drain()

        asyncio.run(main())


def _mix_request(rid, op, key, items):
    if op is Op.PUT:
        return Request(rid, op, key=key, value=f"p{rid}".encode())
    if op is Op.BATCH:
        return Request(
            rid, op,
            items=tuple(
                (KIND_DELETE, k, b"") if delete else (KIND_PUT, k, b"b%d" % k)
                for k, delete in items
            ),
        )
    return Request(rid, op, key=key)


_MIX = st.lists(
    st.tuples(
        st.sampled_from(
            [Op.PING, Op.GET, Op.GET, Op.PUT, Op.DELETE, Op.BATCH]
        ),
        st.integers(0, 15),
        st.lists(st.tuples(st.integers(0, 15), st.booleans()), min_size=1,
                 max_size=4),
    ),
    min_size=1,
    max_size=30,
)


class TestChunkBoundaries:
    """Wire fuzzing, first slice: where TCP cuts the byte stream must
    not change what the server does."""

    @staticmethod
    async def _deliver(chunks, count):
        store = build_store(small_config())
        store.put_batch([(k, f"v{k}") for k in range(10)])
        # Deep enough that no run is ever shed: a GET run's admission
        # would otherwise depend on where the stream was cut.
        server = ReproServer(store, ServerConfig(max_queue_depth=64))
        conn, transport = attach(server)
        for chunk in chunks:
            conn.data_received(chunk)
        for _ in range(1000):
            if len(transport.responses()) == count:
                break
            await asyncio.sleep(0)
        await server.commit.close()
        responses = {
            rid: comparable(resp)
            for rid, resp in transport.responses().items()
        }
        return responses, store.snapshot().as_dict(), sorted(store.scan(0, 64))

    @settings(max_examples=25, deadline=None)
    @given(mix=_MIX, data=st.data())
    def test_one_chunk_byte_by_byte_and_random_cuts_agree(self, mix, data):
        requests = [
            _mix_request(100 + i, op, key, items)
            for i, (op, key, items) in enumerate(mix)
        ]
        stream = b"".join(frame(encode_request(r)) for r in requests)
        cuts = sorted(
            set(
                data.draw(
                    st.lists(st.integers(1, len(stream) - 1), max_size=12)
                )
            )
        )
        bounds = [0, *cuts, len(stream)]
        deliveries = [
            [stream],
            [stream[i : i + 1] for i in range(len(stream))],
            [stream[a:b] for a, b in zip(bounds, bounds[1:])],
        ]
        results = [
            asyncio.run(self._deliver(chunks, len(requests)))
            for chunks in deliveries
        ]
        responses = results[0][0]
        assert sorted(responses) == [r.request_id for r in requests]
        assert all(
            status is not Status.ERROR for _, status, *_ in responses.values()
        )
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_oversized_length_prefix_errors_only_its_own_connection(self):
        async def main():
            store = build_store(small_config())
            store.put_batch([(1, "one")])
            server = ReproServer(store)
            bad, bad_transport = attach(server)
            good, good_transport = attach(server)
            bad.data_received(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert server.bad_frames == 1
            assert bad_transport.closed and not bad_transport.written
            get = Request(5, Op.GET, key=1)
            good.data_received(frame(encode_request(get)))
            assert bytes(good_transport.responses()[5].value) == b"one"
            assert not good_transport.closed
            await asyncio.sleep(0)  # connection_lost of the bad one
            assert server.connections == 1

        asyncio.run(main())
