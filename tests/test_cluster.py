"""Cluster subsystem tests: shard maps, wire ops, WAL shipping,
follower bit-identity, staleness bounds, failover, live handoff, and
the crash campaign.

The live tests run a real 3-node loopback cluster inside one event
loop (actual sockets, actual frames — the same code production runs,
via the public ``LoopbackCluster`` fixture); the bit-identity tests
work at the WAL-record layer, where replication actually operates.
"""

import asyncio
import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterFaultcheckConfig,
    ClusterSpec,
    LoopbackCluster,
    NotOwnedError,
    ReplicatedGroupCommitWriter,
    ReplicationError,
    ReplicationLog,
    ShardMap,
    ShardMapError,
    ShardSubsetStore,
    even_map,
    run_cluster_faultcheck,
)
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.node import ClusterError, ClusterNode
from repro.engine.config import EngineConfig, build_shard
from repro.engine.sharded import shard_of
from repro.obs import Observability, registry_to_dict
from repro.server import AsyncClient, ClientTraceConfig
from repro.server.group_commit import GroupCommitWriter
from repro.server.protocol import (
    HANDOFF_ABORT,
    HANDOFF_BEGIN,
    HANDOFF_CHUNK,
    HANDOFF_COMMIT,
    HANDOFF_PROMOTE,
    HANDOFF_START,
    HANDOFF_TAIL_DONE,
    FrameAssembler,
    Op,
    Request,
    Response,
    Status,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame,
)


def _tiny_engine() -> EngineConfig:
    return EngineConfig.leveled(
        size_ratio=3,
        buffer_entries=8,
        block_entries=4,
        cache_blocks=8,
        durable=True,
        shards=1,
    )


def _cluster_cfg(**kw) -> ClusterFaultcheckConfig:
    defaults = dict(seeds=1, nodes=3, num_shards=6, replication=2)
    defaults.update(kw)
    return ClusterFaultcheckConfig(**defaults)


# ----------------------------------------------------------------------
# Shard maps
# ----------------------------------------------------------------------

class TestShardMap:
    def test_even_map_round_robin(self):
        m = even_map(["a", "b", "c"], 6, replication=2)
        assert m.epoch == 1
        assert m.leader_of(0) == "a" and m.followers_of(0) == ("b",)
        assert m.leader_of(1) == "b" and m.followers_of(1) == ("c",)
        assert m.leader_of(5) == "c"
        assert m.nodes() == ("a", "b", "c")
        assert m.shards_led_by("a") == (0, 3)
        assert set(m.shards_hosted_by("a")) == {0, 2, 3, 5}

    def test_replication_clamped_to_node_count(self):
        m = even_map(["a", "b"], 2, replication=5)
        assert all(len(names) == 2 for names in m.replicas)

    def test_with_moved_three_replicas(self):
        m = even_map(["a", "b", "c"], 3, replication=3)
        moved = m.with_moved(0, "a", "c")
        # Target leads; the source stays on as a trailing follower
        # because dropping it would shrink the replica list (a handoff
        # commit never reduces the replication factor).
        assert moved.replicas[0] == ("c", "b", "a")
        assert moved.epoch == m.epoch + 1

    def test_with_moved_to_outside_node(self):
        m = even_map(["a", "b", "c"], 3, replication=2)
        assert m.replicas[1] == ("b", "c")
        moved = m.with_moved(1, "b", "a")
        # Target was not a replica: it takes over, the follower stays,
        # the source leaves — same replica count, no source retained.
        assert moved.replicas[1] == ("a", "c")

    def test_with_moved_preserves_replication_factor(self):
        """Moving a shard onto its only follower must keep the source
        as follower — it holds a full copy, and dropping it would
        leave the shard one kill away from data loss."""
        m = even_map(["a", "b", "c"], 3, replication=2)
        assert m.replicas[0] == ("a", "b")
        moved = m.with_moved(0, "a", "b")
        assert moved.replicas[0] == ("b", "a")

    def test_illegal_transitions(self):
        m = even_map(["a", "b"], 2, replication=1)
        with pytest.raises(ShardMapError):
            m.with_moved(1, "a", "b")  # a does not lead shard 1

    def test_json_round_trip(self):
        m = even_map(["a", "b", "c"], 4, replication=2)
        assert ShardMap.from_json(m.to_json()) == m
        with pytest.raises(ShardMapError):
            ShardMap.from_json("{not json")
        with pytest.raises(ShardMapError):
            ShardMap.from_json('{"epoch": 1}')


# ----------------------------------------------------------------------
# Wire protocol: the four cluster ops
# ----------------------------------------------------------------------

class TestClusterProtocol:
    def _round_trip(self, req: Request) -> Request:
        return decode_request(encode_request(req))

    def test_replicate_round_trip(self):
        req = Request(
            7, Op.REPLICATE, shard=3, seq=41, epoch=9,
            value=b"\x00framed-record\xff",
        )
        out = self._round_trip(req)
        assert (out.shard, out.seq, out.epoch) == (3, 41, 9)
        assert bytes(out.value) == b"\x00framed-record\xff"

    def test_repl_ack_round_trip(self):
        out = self._round_trip(Request(8, Op.REPL_ACK, shard=5))
        assert out.op is Op.REPL_ACK and out.shard == 5

    @pytest.mark.parametrize(
        "phase",
        [
            HANDOFF_BEGIN,
            HANDOFF_CHUNK,
            HANDOFF_TAIL_DONE,
            HANDOFF_COMMIT,
            HANDOFF_ABORT,
            HANDOFF_PROMOTE,
            HANDOFF_START,
        ],
    )
    def test_handoff_round_trip_every_phase(self, phase):
        req = Request(
            9, Op.HANDOFF, phase=phase, shard=2, seq=13, epoch=4,
            value=b"blob",
        )
        out = self._round_trip(req)
        assert (out.phase, out.shard, out.seq, out.epoch) == (phase, 2, 13, 4)
        assert bytes(out.value) == b"blob"

    def test_cluster_status_round_trip(self):
        out = self._round_trip(Request(10, Op.CLUSTER_STATUS))
        assert out.op is Op.CLUSTER_STATUS

    def test_replicate_ok_carries_applied_count(self):
        resp = Response(7, Op.REPLICATE, Status.OK, count=41)
        out = decode_response(encode_response(resp))
        assert out.count == 41 and out.status is Status.OK


# ----------------------------------------------------------------------
# The shard-subset store
# ----------------------------------------------------------------------

class TestShardSubsetStore:
    def _store(self, shard_ids, num_global=6):
        return ShardSubsetStore(
            {i: build_shard(_tiny_engine()) for i in shard_ids},
            num_global=num_global,
        )

    def test_routes_by_global_hash(self):
        store = self._store(range(6))
        for key in range(50):
            store.put(key, f"v{key}")
        for key in range(50):
            assert store.get(key) == f"v{key}"
            assert store.shard_id_of(key) == shard_of(key, 6)

    def test_unhosted_key_raises_not_owned(self):
        hosted = {0, 1}
        store = self._store(hosted)
        key = next(k for k in range(100) if shard_of(k, 6) not in hosted)
        with pytest.raises(NotOwnedError):
            store.put(key, "x")
        with pytest.raises(NotOwnedError):
            store.get_batch([key])

    def test_add_remove_shard(self):
        store = self._store({0})
        assert store.shard_ids == (0,)
        fresh = build_shard(_tiny_engine())
        store.add_shard(3, fresh)
        assert store.owns(3)
        key = next(k for k in range(100) if shard_of(k, 6) == 3)
        store.put(key, "moved")
        assert store.remove_shard(3) is fresh
        with pytest.raises(NotOwnedError):
            store.get(key)
        with pytest.raises(ValueError):
            store.remove_shard(3)

    def test_batch_touching_unhosted_shard_writes_nothing(self):
        store = self._store({0, 1})
        mine = [k for k in range(100) if shard_of(k, 6) in (0, 1)][:4]
        foreign = next(k for k in range(100) if shard_of(k, 6) == 5)
        with pytest.raises(NotOwnedError):
            store.put_batch([(k, "x") for k in mine] + [(foreign, "x")])
        assert store.num_entries == 0
        assert store.get_batch(mine) == [None] * 4

    def test_metrics_rollup_follows_membership_down_to_zero_shards(self):
        """Handing off the last shard (or starting with none) must not
        break metrics export; ``kv_shards`` tracks live membership."""
        obs = Observability()
        store = ShardSubsetStore(
            {0: build_shard(_tiny_engine())}, 2, observability=obs
        )
        assert registry_to_dict(obs.registry)["gauges"]["kv_shards"] == 1
        store.remove_shard(0)
        gauges = registry_to_dict(obs.registry)["gauges"]
        assert gauges["kv_shards"] == 0
        assert gauges["shard_entries_max"] == 0
        assert gauges["shard_imbalance"] == 0.0
        assert store.imbalance == 0.0
        # born empty, populated later: the roll-up is registered anyway
        obs = Observability()
        store = ShardSubsetStore({}, 2, observability=obs)
        assert registry_to_dict(obs.registry)["gauges"]["kv_shards"] == 0
        store.add_shard(1, build_shard(_tiny_engine()))
        key = next(k for k in range(100) if shard_of(k, 2) == 1)
        store.put(key, "v")
        gauges = registry_to_dict(obs.registry)["gauges"]
        assert gauges["kv_shards"] == 1
        assert gauges["shard_entries_max"] == 1

    def test_removed_shard_leaves_the_registry(self):
        """A shard handed away takes its instruments and collector with
        it: nothing of it stays exported, and nothing keeps it alive."""
        obs = Observability()
        store = ShardSubsetStore(
            {i: build_shard(_tiny_engine(), obs, f"shard{i}_") for i in range(2)},
            2, observability=obs,
        )
        for key in range(500):
            store.put(key, f"v{key}")
        removed = weakref.ref(store.local[0])
        assert len(obs.registry._collectors) == 4
        store.remove_shard(0)
        gc.collect()
        assert removed() is None
        assert len(obs.registry._collectors) == 3
        names = [inst.name for inst in obs.registry.instruments()]
        assert not [n for n in names if n.startswith("shard0_")]
        assert [n for n in names if n.startswith("shard1_")]
        assert registry_to_dict(obs.registry)["gauges"]["kv_shards"] == 1

    def test_get_batch_alignment(self):
        store = self._store(range(6))
        for key in range(40):
            store.put(key, f"v{key}")
        keys = [31, 2, 17, 999, 5, 2]
        values = store.get_batch(keys)
        assert values == ["v31", "v2", "v17", None, "v5", "v2"]


# ----------------------------------------------------------------------
# Follower bit-identity: shipped records replay exactly like a
# standalone store's WAL
# ----------------------------------------------------------------------

class TestFollowerBitIdentity:
    def test_follower_wal_and_reads_match_standalone(self):
        """Apply the same batches to a leader (with a record sink, as
        the cluster installs) and a standalone store; feed the captured
        records to a follower via ``apply_wal_record``. The follower's
        WAL must be byte-identical to the standalone's and every read
        identical — including non-UTF-8 bytes values, which replication
        must carry verbatim at the record layer."""
        econf = _tiny_engine()
        leader = build_shard(econf)
        standalone = build_shard(econf)
        follower = build_shard(econf)
        shipped: list[bytes] = []
        leader.wal.record_sink = (
            lambda record, count, batch: shipped.append(record)
        )
        rng = random.Random(11)
        model: dict[int, object] = {}
        for group in range(12):
            if group and rng.random() < 0.3:
                key = rng.choice(sorted(model))
                leader.delete(key)
                standalone.delete(key)
                model[key] = None
                continue
            batch = []
            for _ in range(rng.randrange(1, 6)):
                key = rng.randrange(32)
                if rng.random() < 0.5:
                    value = bytes([rng.randrange(256) for _ in range(6)])
                else:
                    value = f"g{group}-{key}"
                batch.append((key, value))
                model[key] = value
            leader.put_batch(batch)
            standalone.put_batch(batch)
        assert shipped, "the record sink captured nothing"
        for record in shipped:
            follower.apply_wal_record(record)
        assert bytes(follower.wal.data) == bytes(standalone.wal.data)
        for key, value in model.items():
            assert follower.get(key) == value
            assert follower.get(key) == standalone.get(key)
        assert follower.wal.appended == standalone.wal.appended

    def test_reshipped_records_are_idempotent_on_a_live_follower(self):
        """Cluster-level: re-shipping an already-applied seq must not
        double-apply (the leader resends from the follower's reported
        applied count after any hiccup)."""
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(20):
                    await coordinator.put(key, f"v{key}")
                # Find a shard with traffic and its follower.
                name = cluster.names[0]
                node = cluster.nodes[name]
                shard_id, log = next(
                    (s, log)
                    for s, log in node.logs.items()
                    if log.last_seq > 0
                )
                follower = node.map.followers_of(shard_id)[0]
                fnode = cluster.nodes[follower]
                before = fnode.applied[shard_id]
                client = await node.peers.get(follower)
                resp = await client.request(
                    Request(
                        client._rid(), Op.REPLICATE, shard=shard_id,
                        seq=1, epoch=node.map.epoch, value=log.records[0],
                    )
                )
                assert resp.status is Status.OK
                assert resp.count == before  # no double apply
                assert fnode.applied[shard_id] == before
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Staleness bounds
# ----------------------------------------------------------------------

class TestStalenessBound:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=30))
    def test_replication_log_lag_accounting(self, acks):
        """lag_of = records a follower is missing; ``since`` returns
        exactly the lagging suffix, so shipped-then-acked always
        converges to lag 0."""
        log = ReplicationLog(0)
        for i in range(20):
            assert log.append(f"r{i}".encode()) == i + 1
        for seq in acks:
            log.ack("f", min(seq, log.last_seq))
        lag = log.lag_of("f")
        assert 0 <= lag <= log.last_seq
        tail = log.since(log.acked.get("f", 0))
        assert len(tail) == lag
        assert [seq for seq, _ in tail] == list(
            range(log.last_seq - lag + 1, log.last_seq + 1)
        )
        # Acks are authoritative, not monotone: the leader records the
        # epoch-matched count the follower reports, which legitimately
        # moves backwards after the follower reset on a map change —
        # keeping an inflated ack would skip records it never held.
        high = log.acked.get("f", 0)
        log.ack("f", max(high - 1, 0))
        assert log.acked.get("f", 0) == max(high - 1, 0)

    def test_acked_writes_leave_zero_lag_at_quiescence(self):
        """With replication=2 every ack requires the follower to cover
        the log tail — so after the last ack, every live follower's
        applied count equals the leader's log: staleness bound 0 at
        quiescence, and follower reads serve every acked write."""
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(30):
                    await coordinator.put(key, f"v{key}")
                for name, node in cluster.nodes.items():
                    for shard_id, log in node.logs.items():
                        for follower in node.live_followers_of(shard_id):
                            applied = cluster.nodes[follower].applied[
                                shard_id
                            ]
                            assert applied == log.last_seq, (
                                f"{follower} lags {name}'s shard "
                                f"{shard_id}: {applied}/{log.last_seq}"
                            )
                coordinator.read_mode = "follower"
                for key in range(30):
                    assert await coordinator.get(key) == f"v{key}".encode()
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Live cluster: failover and handoff
# ----------------------------------------------------------------------

class TestClusterLive:
    def test_leader_kill_and_failover_keeps_acked_writes(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(40):
                    await coordinator.put(key, f"v{key}")
                victim = coordinator.map.leader_of(0)
                await cluster.kill(victim)
                new_map = await coordinator.failover(victim)
                assert victim not in new_map.nodes()
                assert new_map.epoch > 1
                for key in range(40):
                    assert await coordinator.get(key) == f"v{key}".encode()
                await coordinator.put(99, "after")
                assert await coordinator.get(99) == b"after"
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())

    def test_live_handoff_moves_shard_without_losing_data(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(40):
                    await coordinator.put(key, f"v{key}")
                source = coordinator.map.leader_of(2)
                target = next(
                    n for n in cluster.names
                    if n != source
                )
                before = coordinator.map.epoch
                new_map = await coordinator.rebalance(2, target)
                assert new_map.epoch > before
                assert new_map.leader_of(2) == target
                # Source copy detached unless it must stay for
                # replication factor; either way reads are served.
                for key in range(40):
                    assert await coordinator.get(key) == f"v{key}".encode()
                await coordinator.put(7, "post-move")
                assert await coordinator.get(7) == b"post-move"
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())

    def test_write_to_non_leader_bounces_with_refresh_signal(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                shard_id = 0
                follower = coordinator.map.followers_of(shard_id)[0]
                key = next(
                    k for k in range(100)
                    if shard_of(k, coordinator.map.num_shards) == shard_id
                )
                node = cluster.nodes[follower]
                resp = node.route_check(
                    Request(1, Op.PUT, key=key, value=b"x")
                )
                assert resp is not None and resp.status is Status.ERROR
                assert resp.message.startswith("not leader")
                assert f"epoch {node.map.epoch}" in resp.message
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())


class TestPipelinedRouting:
    """Routing is one per-request hook: a GET bounces from the same
    place whether it arrived alone or inside a pipelined run."""

    def test_burst_bounces_exactly_the_unhosted_keys(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                keys = list(range(24))  # one admissible run (< queue depth)
                await coordinator.put_batch([(k, f"v{k}") for k in keys])
                node = cluster.nodes["n0"]
                hosted = {
                    k for k in keys
                    if node.store.owns(node.store.shard_id_of(k))
                }
                assert hosted and len(hosted) < len(keys)
                reader, writer = await asyncio.open_connection(
                    *cluster.addrs["n0"]
                )
                writer.write(
                    b"".join(
                        frame(encode_request(Request(100 + k, Op.GET, key=k)))
                        for k in keys
                    )
                )
                await writer.drain()
                assembler, responses = FrameAssembler(), {}
                while len(responses) < len(keys):
                    chunk = await reader.read(65536)
                    assert chunk, "server closed the connection"
                    for payload in assembler.feed(chunk):
                        resp = decode_response(payload)
                        responses[resp.request_id - 100] = resp
                writer.close()
                await writer.wait_closed()
                assert sorted(responses) == keys
                for key, resp in responses.items():
                    if key in hosted:
                        assert resp.status is Status.OK
                        assert bytes(resp.value) == f"v{key}".encode()
                    else:
                        assert resp.status is Status.ERROR
                        assert resp.message.startswith("wrong node:")
                # the hosted ones did travel as runs, not one by one
                assert node.server.get_batches >= 1
                assert node.server.errors == 0
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())

    def test_get_many_follows_a_map_refresh(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            operator = ClusterCoordinator(dict(cluster.addrs))
            try:
                keys = list(range(60))
                await coordinator.put_batch([(k, f"v{k}") for k in keys])
                # Move shard 2 to the one node that holds no copy of it,
                # behind the reading coordinator's back: the old leader
                # drops the shard, so the stale map now misroutes it.
                await operator.refresh_map()
                stale = coordinator.map
                target = next(
                    n for n in cluster.names if n not in stale.replicas[2]
                )
                moved = await operator.rebalance(2, target)
                assert coordinator.map.epoch == stale.epoch < moved.epoch
                assert not cluster.nodes[stale.leader_of(2)].store.owns(2)
                refreshes = coordinator.refreshes
                values = await coordinator.get_many(keys + [999])
                assert values == [f"v{k}".encode() for k in keys] + [None]
                assert coordinator.refreshes > refreshes
                assert coordinator.map.epoch == moved.epoch
                assert sum(
                    n.server.get_batches for n in cluster.nodes.values()
                ) >= 1
            finally:
                await operator.close()
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# The crash campaign (the full 8-seed rotation is pinned by
# tests/test_campaign_golden.py; CI runs 16 seeds)
# ----------------------------------------------------------------------

class TestClusterFaultcheck:
    def test_unreadable_key_is_one_violation(self, monkeypatch):
        """A post-failover read that raises is exactly one
        ``acked-durable`` violation naming the key — not a "read failed"
        line plus a second "expected a value, read nothing" line."""
        original = ClusterCoordinator.get
        failed: list[int] = []

        async def get_failing_once(self, key):
            value = await original(self, key)
            if value is not None and not failed:
                failed.append(key)
                raise ClusterError("injected read failure")
            return value

        monkeypatch.setattr(ClusterCoordinator, "get", get_failing_once)
        report = run_cluster_faultcheck(ClusterFaultcheckConfig(seeds=1))
        assert len(failed) == 1
        assert len(report.violations) == 1, report.violations
        assert "[acked-durable]" in report.violations[0]
        assert f"key {failed[0]}: " in report.violations[0]
        assert "injected read failure" in report.violations[0]


# ----------------------------------------------------------------------
# Epoch fencing: replication seqs are epoch-scoped, so counts must
# never cross an epoch boundary in either direction
# ----------------------------------------------------------------------

class TestEpochFencing:
    def test_replicate_rejects_both_epoch_directions(self):
        """A follower that missed a map broadcast holds an old-epoch
        applied count; answering a higher-epoch ship with it (seq 1 <=
        applied looks like an idempotent re-ship) would let the new
        leader ack writes the follower never applied. Both mismatch
        directions must bounce before the count is consulted."""
        m = even_map(["a", "b"], 2, replication=2)
        node = ClusterNode("b", m, _tiny_engine())
        shard_id = m.shards_led_by("a")[0]
        node.applied[shard_id] = 3  # stale progress from an old term
        resp = node.handle_replicate(
            Request(
                1, Op.REPLICATE, shard=shard_id, seq=1,
                epoch=m.epoch + 1, value=b"garbage",
            )
        )
        assert resp.status is Status.ERROR
        assert resp.message.startswith("behind epoch")
        resp = node.handle_replicate(
            Request(
                2, Op.REPLICATE, shard=shard_id, seq=1,
                epoch=m.epoch - 1, value=b"garbage",
            )
        )
        assert resp.status is Status.ERROR
        assert resp.message.startswith("stale epoch")
        assert node.applied[shard_id] == 3  # nothing applied either way

    # Every map-carrying request against a node at epoch e: which maps
    # the one fence lets replace the local map, and with what refusal.
    # A COMMIT must advance the epoch; a PROMOTE also accepts a
    # same-epoch identical map (an idempotent retried failover).
    FENCE_TABLE = [
        ("replicate", "e-1", "stale epoch"),
        ("replicate", "e", None),
        ("replicate", "e+1", "behind epoch"),
        ("commit", "e-1", "refusing commit"),
        ("commit", "e same", "refusing commit"),
        ("commit", "e other replicas", "refusing commit"),
        ("commit", "e+1", None),
        ("commit", "e+1 other num_shards", "refusing commit"),
        ("promote", "e-1", "refusing map epoch"),
        ("promote", "e same", None),
        ("promote", "e other replicas", "refusing map epoch"),
        ("promote", "e+1", None),
        ("promote", "e+1 other num_shards",
         "the global shard count is immutable"),
    ]

    @pytest.mark.parametrize(
        "kind,case,refusal",
        FENCE_TABLE,
        ids=[f"{kind}-{case}" for kind, case, _ in FENCE_TABLE],
    )
    def test_fence_table(self, kind, case, refusal):
        e = 3
        base = ShardMap(
            epoch=e, num_shards=2,
            replicas=even_map(["a", "b"], 2, replication=2).replicas,
        )
        node = ClusterNode("b", base, _tiny_engine())
        shard_id = base.shards_led_by("a")[0]
        moved = base.with_moved(shard_id, "a", "b")  # epoch e + 1
        maps = {
            "e-1": ShardMap(e - 1, 2, moved.replicas),
            "e same": base,
            "e other replicas": ShardMap(e, 2, moved.replicas),
            "e+1": moved,
            "e+1 other num_shards": ShardMap(
                e + 1, 3, moved.replicas + (("a", "b"),)
            ),
        }
        if kind == "replicate":
            node.applied[shard_id] = 3
            epoch = {"e-1": e - 1, "e": e, "e+1": e + 1}[case]
            # seq 1 <= applied: an idempotent re-ship, applies nothing.
            resp = node.handle_replicate(
                Request(
                    1, Op.REPLICATE, shard=shard_id, seq=1, epoch=epoch,
                    value=b"",
                )
            )
            new_map = base
        else:
            phase = HANDOFF_PROMOTE
            if kind == "commit":
                phase = HANDOFF_COMMIT
                assert node.handle_handoff(
                    Request(1, Op.HANDOFF, phase=HANDOFF_BEGIN,
                            shard=shard_id)
                ).status is Status.OK
            new_map = maps[case]
            resp = node.handle_handoff(
                Request(
                    2, Op.HANDOFF, phase=phase, shard=shard_id,
                    epoch=new_map.epoch,
                    value=new_map.to_json().encode("utf-8"),
                )
            )
        if refusal is None:
            assert resp.status is Status.OK, resp.message
            assert node.map == new_map
        else:
            assert resp.status is Status.ERROR
            assert resp.message.startswith(refusal), resp.message
            assert node.map == base

    def test_leader_heals_behind_follower_by_pushing_its_map(self):
        """A follower left behind by a best-effort map broadcast must
        not be silently acked against (old-epoch counts are
        untrusted): the leader pushes its map, the follower adopts,
        and replication resumes from the authoritative count."""
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(30):
                    await coordinator.put(key, f"v{key}")
                leader = cluster.nodes["n0"]
                shard_id = next(iter(leader.logs))
                follower_name = leader.map.followers_of(shard_id)[0]
                fnode = cluster.nodes[follower_name]
                bumped = ShardMap(
                    epoch=leader.map.epoch + 1,
                    num_shards=leader.map.num_shards,
                    replicas=leader.map.replicas,
                )
                leader.adopt_map(bumped)  # the broadcast "missed" fnode
                assert fnode.map.epoch == bumped.epoch - 1
                key = next(
                    k for k in range(1000)
                    if shard_of(k, bumped.num_shards) == shard_id
                )
                await coordinator.put(key, "healed")
                assert fnode.map.epoch == bumped.epoch
                assert (
                    fnode.applied[shard_id]
                    == leader.logs[shard_id].last_seq
                )
                assert follower_name not in leader.dead
                assert await coordinator.get(key) == b"healed"
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())

    def test_failover_election_ignores_stale_epoch_seqs(self):
        """A follower stuck on an old map epoch reports an old-term
        applied count; a raw seq comparison would elect it over a
        genuinely caught-up same-epoch replica."""
        async def run():
            map3 = ShardMap(
                epoch=3, num_shards=1, replicas=(("a", "b", "c"),)
            )
            map4 = ShardMap(
                epoch=4, num_shards=1, replicas=(("a", "b", "c"),)
            )
            coordinator = ClusterCoordinator(
                {
                    "a": ("127.0.0.1", 1),
                    "b": ("127.0.0.1", 2),
                    "c": ("127.0.0.1", 3),
                },
                shard_map=map3,
            )
            statuses = {
                "b": {
                    "epoch": 4, "map": map4.to_dict(),
                    "shards": {
                        "0": {"role": "follower", "seq": 1, "epoch": 4}
                    },
                },
                "c": {
                    "epoch": 3, "map": map3.to_dict(),
                    "shards": {
                        "0": {"role": "follower", "seq": 99, "epoch": 3}
                    },
                },
            }

            async def probe(name):
                return statuses.get(name)

            class _FakeClient:
                def _rid(self):
                    return 1

                async def request(self, req):
                    return Response(req.request_id, req.op, Status.OK)

            async def client(name):
                return _FakeClient()

            coordinator._probe = probe
            coordinator.peers.get = client
            new_map = await coordinator.failover("a")
            assert new_map.epoch == 5
            # b wins despite the far smaller seq: c's 99 was reported
            # at a stale epoch and is not comparable.
            assert new_map.leader_of(0) == "b"
            assert "c" not in new_map.replicas[0]

        asyncio.run(run())


# ----------------------------------------------------------------------
# Degraded replication: the round that watches the last follower die
# must fail its group, then degrade explicitly (retryable)
# ----------------------------------------------------------------------

class TestDegradedReplication:
    def test_last_follower_death_fails_the_observing_group(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            coordinator = await cluster.start()
            try:
                for key in range(20):
                    await coordinator.put(key, f"v{key}")
                leader = cluster.nodes["n0"]
                shard_id = next(iter(leader.logs))
                follower_name = leader.map.followers_of(shard_id)[0]
                await cluster.kill(follower_name)
                key = next(
                    k for k in range(1000)
                    if shard_of(k, leader.map.num_shards) == shard_id
                )
                # The first group discovers the death and fails (its
                # waiters were promised a follower copy); the
                # coordinator retries and the cluster acks single-copy
                # — degraded explicitly, never silently.
                await coordinator.put(key, "degraded")
                assert follower_name in leader.dead
                assert leader.server.commit.replication_failures >= 1
                assert coordinator.retries >= 1
                assert await coordinator.get(key) == b"degraded"
            finally:
                await coordinator.close()
                await cluster.stop()

        asyncio.run(run())


class TestReplGroupSpan:
    """The ``repl_group`` span covers the ship round it names: its wall
    time includes the follower round trip, and a failed round stamps
    the error."""

    def _round(self, ship) -> tuple[list, BaseException | None]:
        async def run():
            obs = Observability()
            store = ShardSubsetStore(
                {0: build_shard(_tiny_engine(), obs, "shard0_")},
                num_global=1, observability=obs,
            )
            writer = ReplicatedGroupCommitWriter(
                store, {0: ReplicationLog(0)}, ship, lambda shard: ("f",),
                observability=obs,
            )
            writer.start()
            error = None
            try:
                await writer.submit([(1, "v")])
            except ReplicationError as exc:
                error = exc
            await writer.close()
            spans = [
                s for s in obs.tracer.recent() if s.name == "repl_group"
            ]
            return spans, error

        return asyncio.run(run())

    def test_span_measures_the_ship_round(self):
        async def slow_ship(shard_id):
            await asyncio.sleep(0.005)
            return 1

        spans, error = self._round(slow_ship)
        assert error is None
        assert len(spans) == 1
        assert spans[0].wall_ns >= 5e6
        assert spans[0].error is None

    def test_failed_round_stamps_the_error(self):
        async def failing_ship(shard_id):
            raise ReplicationError("follower gone")

        spans, error = self._round(failing_ship)
        assert isinstance(error, ReplicationError)
        assert len(spans) == 1
        assert spans[0].error == "ReplicationError"

    def test_every_traced_write_in_a_group_gets_the_round(self):
        """Two sampled writes coalesced into one group: the first
        context hosts ``repl_group``, the second gets a mirror."""

        async def run():
            obs = Observability(trace_ring=0)
            store = ShardSubsetStore(
                {0: build_shard(_tiny_engine(), obs, "shard0_")},
                num_global=1, observability=obs,
            )

            async def ship(shard_id):
                return 1

            writer = ReplicatedGroupCommitWriter(
                store, {0: ReplicationLog(0)}, ship, lambda shard: ("f",),
                observability=obs,
            )
            writer.start()
            await asyncio.gather(
                writer.submit([(1, "a")], trace=(111, 5)),
                writer.submit([(2, "b")], trace=(222, 6)),
            )
            await writer.close()
            return writer.batches, obs

        batches, obs = asyncio.run(run())
        assert batches == 1
        assert obs.tracer.recent() == []
        for trace_id, parent_id in ((111, 5), (222, 6)):
            (repl,) = [
                s for s in obs.trace_sink.get(trace_id)
                if s.name == "repl_group"
            ]
            assert repl.parent_id == parent_id
        assert repl.attrs["shared_with"] == 111

    def test_sampled_cluster_write_shows_its_replication_round(self):
        async def run():
            cluster = LoopbackCluster(_cluster_cfg())
            cluster.nodes = {
                name: ClusterNode(
                    name, cluster.map, node.engine_config,
                    observability=Observability(trace_ring=0),
                )
                for name, node in cluster.nodes.items()
            }
            coordinator = await cluster.start()
            key = 7
            leader = cluster.map.leader_of(shard_of(key, cluster.map.num_shards))
            client = await AsyncClient.connect(
                *cluster.addrs[leader], trace=ClientTraceConfig(sample_every=1)
            )
            try:
                await client.put(key, "traced")
                (trace_id,) = client.sampled_trace_ids
                return await client.fetch_trace(trace_id)
            finally:
                await client.close()
                await coordinator.close()
                await cluster.stop()

        spans = asyncio.run(run())["spans"]
        by_name = {s["name"]: s for s in spans}
        assert {"serve_put", "group_commit", "repl_group"} <= set(by_name)
        serve_put = by_name["serve_put"]
        assert by_name["repl_group"]["parent_id"] == serve_put["span_id"]
        assert by_name["group_commit"]["parent_id"] == serve_put["span_id"]


# ----------------------------------------------------------------------
# Torn handoff commits
# ----------------------------------------------------------------------

class TestTornHandoffCommit:
    def test_aborted_staging_leaves_the_registry(self):
        """A staging store dropped by HANDOFF_ABORT is released like a
        removed shard: no instrument of it stays exported."""
        m = even_map(["a", "b"], 2, replication=2)
        obs = Observability()
        node = ClusterNode("b", m, _tiny_engine(), observability=obs)
        shard_id = m.shards_led_by("a")[0]
        collectors = len(obs.registry._collectors)
        assert node.handle_handoff(
            Request(1, Op.HANDOFF, phase=HANDOFF_BEGIN, shard=shard_id)
        ).status is Status.OK
        staged = weakref.ref(node.staging[shard_id]["store"])
        prefix = f"staging{shard_id}_"
        assert [i for i in obs.registry.instruments() if i.name.startswith(prefix)]
        assert node.handle_handoff(
            Request(2, Op.HANDOFF, phase=HANDOFF_ABORT, shard=shard_id)
        ).status is Status.OK
        gc.collect()
        assert staged() is None
        assert len(obs.registry._collectors) == collectors
        assert not [
            i for i in obs.registry.instruments() if i.name.startswith(prefix)
        ]

    def test_a_shard_handed_back_keeps_its_own_instruments(self):
        """A followed shard whose copy came by an earlier handoff (prefix
        ``staging<i>_``) is handed to this node again: the new staging
        store must not share the hosted copy's instruments, so releasing
        the superseded copy at commit leaves the new one exported."""
        m = even_map(["a", "b", "c"], 3, replication=2)
        obs = Observability()
        node = ClusterNode("b", m, _tiny_engine(), observability=obs)
        shard_id = next(
            i for i in range(3) if "b" in m.replicas[i] and m.leader_of(i) != "b"
        )
        leader = m.leader_of(shard_id)

        def hand_to_b(current, rid):
            new_map = current.with_moved(shard_id, leader, "b")
            for phase, extra in ((HANDOFF_BEGIN, {}), (HANDOFF_COMMIT, dict(
                epoch=new_map.epoch, value=new_map.to_json().encode("utf-8"),
            ))):
                assert node.handle_handoff(Request(
                    rid, Op.HANDOFF, phase=phase, shard=shard_id, **extra,
                )).status is Status.OK
            return new_map

        first = hand_to_b(m, 10)
        back = first.with_moved(shard_id, "b", leader)
        node.adopt_map(back)  # b follows again, on its handed-over copy
        hand_to_b(back, 20)
        store = node.store.local[shard_id]
        live = store.obs.registry
        assert obs.registry.get(live.prefix + "kv_reads_total") is store._m_reads
        others = [
            i.name for i in obs.registry.instruments()
            if i.name.startswith((f"shard{shard_id}_", f"staging{shard_id}_"))
            and not i.name.startswith(live.prefix)
        ]
        assert others == []

    def test_commit_without_staging_cannot_seize_leadership(self):
        """A COMMIT that raced an ABORT (torn-commit resolution at the
        source) must bounce, not adopt a map that names this node
        leader of a shard it holds no data for."""
        m = even_map(["a", "b"], 2, replication=2)
        node = ClusterNode("b", m, _tiny_engine())
        shard_id = m.shards_led_by("a")[0]
        new_map = m.with_moved(shard_id, "a", "b")
        blob = new_map.to_json().encode("utf-8")
        resp = node.handle_handoff(
            Request(
                1, Op.HANDOFF, phase=HANDOFF_COMMIT, shard=shard_id,
                epoch=new_map.epoch, value=blob,
            )
        )
        assert resp.status is Status.ERROR
        assert "no staging" in resp.message
        assert node.map.epoch == m.epoch and not node.leads(shard_id)
        # A commit at a non-advancing epoch bounces too.
        resp = node.handle_handoff(
            Request(
                2, Op.HANDOFF, phase=HANDOFF_COMMIT, shard=shard_id,
                epoch=m.epoch, value=m.to_json().encode("utf-8"),
            )
        )
        assert resp.status is Status.ERROR
        assert "refusing commit" in resp.message
        # With a staged store the same commit lands.
        assert node.handle_handoff(
            Request(3, Op.HANDOFF, phase=HANDOFF_BEGIN, shard=shard_id)
        ).status is Status.OK
        resp = node.handle_handoff(
            Request(
                4, Op.HANDOFF, phase=HANDOFF_COMMIT, shard=shard_id,
                epoch=new_map.epoch, value=blob,
            )
        )
        assert resp.status is Status.OK
        assert node.leads(shard_id)
        assert node.map.epoch == new_map.epoch


# ----------------------------------------------------------------------
# Scoped commit drain: a handoff only waits for the migrating shard
# ----------------------------------------------------------------------

class TestScopedDrain:
    def test_drain_ignores_other_shards_and_waits_for_own(self):
        async def run():
            m = even_map(["a", "b"], 2, replication=2)
            node = ClusterNode("a", m, _tiny_engine())
            commit = node.server.commit
            loop = asyncio.get_running_loop()
            # A never-resolving write for the *other* shard must not
            # stall the drain (the old global drain hung here under
            # sustained foreign traffic).
            other_key = next(
                k for k in range(100) if shard_of(k, 2) == 1
            )
            commit._pending.append(
                (other_key, b"v", loop.create_future(), None)
            )
            await asyncio.wait_for(node._drain_commits(0), timeout=2)
            # A write for the migrating shard IS waited for.
            our_key = next(k for k in range(100) if shard_of(k, 2) == 0)
            fut = loop.create_future()
            commit._pending.append((our_key, b"v", fut, None))
            drain = asyncio.create_task(node._drain_commits(0))
            await asyncio.sleep(0.02)
            assert not drain.done()
            fut.set_result(None)
            await asyncio.wait_for(drain, timeout=2)

        asyncio.run(run())

    def test_waiters_for_filters_queued_and_inflight(self):
        async def run():
            writer = GroupCommitWriter(store=None)
            loop = asyncio.get_running_loop()
            futs = {k: loop.create_future() for k in range(4)}
            for k, fut in futs.items():
                writer._pending.append((k, b"v", fut, None))
            inflight_fut = loop.create_future()
            writer.inflight = [(9, b"v", inflight_fut, None)]
            even = writer.waiters_for(lambda k: k % 2 == 0)
            assert set(even) == {futs[0], futs[2]}
            assert len(writer.waiters_for(lambda k: True)) == 5
            futs[0].set_result(None)
            assert futs[0] not in writer.waiters_for(lambda k: True)

        asyncio.run(run())


# ----------------------------------------------------------------------
# Launcher spec
# ----------------------------------------------------------------------

class TestClusterSpec:
    def test_round_trip(self):
        spec = ClusterSpec(
            nodes={
                "n0": {"host": "127.0.0.1", "port": 7651, "pid": 0},
                "n1": {"host": "127.0.0.1", "port": 7652, "pid": 0},
            },
            map=even_map(["n0", "n1"], 4, replication=2).to_dict(),
            engine={"buffer_entries": 8, "block_entries": 4},
        )
        again = ClusterSpec.from_dict(spec.to_dict())
        assert again.addresses() == spec.addresses()
        assert again.shard_map() == spec.shard_map()
        assert again.commit_batch == spec.commit_batch
