"""The cluster crash campaign: kill nodes at the worst moments, then
prove no acknowledged write was lost.

Each seed runs one schedule against a real 3-node loopback cluster
(actual sockets, actual frames — the same code paths production runs)
on the single-node campaign's skeleton,
:func:`repro.faults.harness._run_schedule`, with
:class:`_ClusterUnderTest` as the system under test:

1. *start* boots the cluster and drives seeded puts/deletes through a
   :class:`ClusterCoordinator` with no crash armed; every acknowledged
   operation enters the reference model;
2. the drive provokes the armed ``cluster.*`` point (point and
   occurrence rotate with the seed): more writes for ``replicate``, a
   live rebalance for ``handoff``, a leader kill plus failover for
   ``promote``. The operation the crash interrupts is unacknowledged:
   its keys may read before-or-after;
3. *recover* kills the victim for real — its server closes, its commit
   task dies, its state is never consulted again — and fails over;
4. the skeleton reads **every key the model ever touched** back through
   the survivors with the campaigns' one oracle ("acked ⇒ durable"
   across node kills); the post-failover probe write is the cluster's
   structure check.

Crashes raised by the injector surface on the victim as ERROR
responses (a request must never kill the server's *loop*), which the
drive treats as the moment of death. The cluster itself is
:class:`LoopbackCluster`, a public fixture the cluster tests and the
in-process load runs share. Deterministic in (config, seed).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.node import ClusterError, ClusterNode
from repro.cluster.shardmap import even_map
from repro.faults.harness import (
    FaultcheckConfig,
    FaultcheckReport,
    _run_schedule,
)
from repro.faults.injector import CRASH_AT_POINT, FaultInjector, FaultPlan
from repro.faults.invariants import ABSENT, Violation
from repro.workloads.ops import KeyModel, Op, apply_remote

#: The schedule rotation: which cluster crash point a seed provokes.
CLUSTER_POINTS = (
    "cluster.replicate.before_send",
    "cluster.replicate.before_ack",
    "cluster.handoff.before_snapshot",
    "cluster.handoff.mid_stream",
    "cluster.handoff.before_commit",
    "cluster.handoff.after_commit",
    "cluster.promote.before_adopt",
    "cluster.promote.after_adopt",
)

_KEY_SPACE = 64


@dataclass(frozen=True)
class ClusterFaultcheckConfig:
    """Knobs of one cluster crash campaign."""

    seeds: int = 50
    nodes: int = 3
    num_shards: int = 6
    replication: int = 2
    writes_before: int = 40
    writes_during: int = 30

    def __post_init__(self) -> None:
        FaultcheckConfig(seeds=self.seeds)  # the campaigns' one seeds check
        if self.nodes < 2:
            raise ValueError("a cluster campaign needs >= 2 nodes")

    def banner(self) -> str:
        """The line ``repro faultcheck --cluster`` prints first."""
        return (
            f"cluster-faultcheck: {self.seeds} seeds over "
            f"{self.nodes} nodes / {self.num_shards} shards "
            "(kills mid-replication, mid-handoff, mid-promotion)"
        )


# ----------------------------------------------------------------------
# One live loopback cluster
# ----------------------------------------------------------------------

class LoopbackCluster:
    """A real multi-node cluster inside one event loop — the fixture the
    campaign, the cluster tests and the in-process load runs share.
    ``cfg`` supplies ``nodes`` / ``num_shards`` / ``replication``; every
    shard has the single-node campaign's tiny geometry."""

    def __init__(self, cfg: ClusterFaultcheckConfig) -> None:
        self.cfg = cfg
        self.names = [f"n{i}" for i in range(cfg.nodes)]
        self.map = even_map(
            self.names, cfg.num_shards, replication=cfg.replication
        )
        econf = FaultcheckConfig().engine_config()
        self.nodes = {
            name: ClusterNode(name, self.map, econf) for name in self.names
        }
        self.servers: dict[str, asyncio.Server] = {}
        self.addrs: dict[str, tuple[str, int]] = {}
        self.killed: set[str] = set()

    async def start(self) -> ClusterCoordinator:
        loop = asyncio.get_running_loop()
        for name, node in self.nodes.items():
            server = await loop.create_server(
                node.server.protocol_factory, "127.0.0.1", 0
            )
            self.servers[name] = server
            self.addrs[name] = (
                "127.0.0.1", server.sockets[0].getsockname()[1]
            )
        for name, node in self.nodes.items():
            node.peers.addresses.update(
                (other, addr)
                for other, addr in self.addrs.items()
                if other != name
            )
        coordinator = ClusterCoordinator(dict(self.addrs))
        await coordinator.refresh_map()
        return coordinator

    def _abort_connections(self, name: str) -> None:
        """Closing a listener is not enough: established connections
        keep serving, so survivors would happily talk to the corpse.
        Abort every open transport so peers see a connection reset and
        nothing more is read or written; the caller then yields so the
        connection_lost callbacks run and the serve tasks of ops still
        in flight unwind before the loop is torn down (else asyncio
        logs cancelled-task noise)."""
        for conn in list(self.nodes[name].server._connections):
            conn.transport.abort()

    async def kill(self, name: str) -> None:
        """Process death: stop serving, stop group commit, sever peer
        links. The node's state is never consulted again."""
        if name in self.killed:
            return
        self.killed.add(name)
        server = self.servers[name]
        server.close()
        await server.wait_closed()
        node = self.nodes[name]
        node.server.commit.stop()
        self._abort_connections(name)
        await asyncio.sleep(0.01)
        await node.peers.close()

    async def stop(self) -> None:
        alive = [name for name in self.names if name not in self.killed]
        for name in alive:
            server = self.servers.get(name)
            if server is not None:
                server.close()
            try:
                await self.nodes[name].server.commit.close()
            except Exception:  # noqa: BLE001 — teardown only
                pass
            await self.nodes[name].peers.close()
        for name in alive:
            self._abort_connections(name)
        await asyncio.sleep(0.01)


# ----------------------------------------------------------------------
# One schedule: the system under test and its three drives
# ----------------------------------------------------------------------

def _shard_keys(shard_id: int, num_shards: int, count: int):
    """The first ``count`` keys hashing to ``shard_id``."""
    from repro.engine.sharded import shard_of

    found = []
    key = 0
    while len(found) < count:
        if shard_of(key, num_shards) == shard_id:
            found.append(key)
        key += 1
    return found


def _value_for(rng: random.Random, seed: int, key: int) -> bytes:
    """Wire PUT values are UTF-8 strings by protocol contract (bytes
    fidelity through replication is the follower bit-identity test's
    job, at the WAL-record layer); non-ASCII code points keep the
    encode/decode path honest."""
    if rng.random() < 0.3:
        return f"π{seed}·{key}·{rng.randrange(1000)}µ".encode("utf-8")
    return f"s{seed}-{key}-{rng.randrange(1000)}".encode("utf-8")


class _ClusterUnderTest:
    """A :class:`LoopbackCluster` behind the shared schedule skeleton.
    ``victim`` is the node the drive condemns; ``rng`` draws the whole
    schedule (warm-up writes, drive, probe key) in that order."""

    def __init__(self, cfg: ClusterFaultcheckConfig, seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.rng = random.Random(f"cluster-faultcheck:{seed}")
        self.cluster = LoopbackCluster(cfg)
        self.coordinator: ClusterCoordinator | None = None
        self.model = KeyModel()
        self.victim = ""

    async def start(self, injector: FaultInjector) -> None:
        """Boot, then healthy acked traffic before the armed window."""
        self.coordinator = await self.cluster.start()
        for _ in range(self.cfg.writes_before):
            key = self.rng.randrange(_KEY_SPACE)
            live = self.model.allowed(key) != (ABSENT,)
            if live and self.rng.random() < 0.15:
                op = Op("delete", key)
            else:
                op = Op("update", key, _value_for(self.rng, self.seed, key))
            await apply_remote(self.coordinator, op)
            self.model.ack(op)

    async def recover(self) -> None:
        """The victim dies for real; the cluster must carry on."""
        await self.cluster.kill(self.victim)
        await self.coordinator.failover(self.victim)

    async def get(self, key: int) -> bytes | None:
        return await self.coordinator.get(key)

    async def check_structure(self) -> list[Violation]:
        """Writes must still flow after the kill."""
        probe, value = self.rng.randrange(_KEY_SPACE), f"post-{self.seed}"
        await self.coordinator.put(probe, value)
        got = await self.coordinator.get(probe)
        if got == value.encode("utf-8"):
            return []
        return [Violation("post-failover", f"probe write read back {got!r}")]

    async def close(self) -> None:
        if self.coordinator is not None:
            await self.coordinator.close()
        await self.cluster.stop()


async def _drive_replicate(
    sut: _ClusterUnderTest, injector: FaultInjector, violations: list[str]
) -> None:
    """Crash a leader mid-replication: hammer one chosen shard until the
    leader's ship path fires the armed point. Every write acked inside
    the window joins the model; the one the crash interrupts was never
    acked, so it may read before-or-after."""
    cfg, rng = sut.cfg, sut.rng
    shard_id = rng.randrange(cfg.num_shards)
    sut.victim = sut.coordinator.map.leader_of(shard_id)
    keys = _shard_keys(shard_id, cfg.num_shards, 8)
    for i in range(cfg.writes_during):
        key = keys[i % len(keys)]
        op = Op("update", key, _value_for(rng, sut.seed, key))
        try:
            await apply_remote(sut.coordinator, op)
        except ClusterError:
            sut.model.unacked(op)
            return
        sut.model.ack(op)


async def _drive_handoff(
    sut: _ClusterUnderTest, injector: FaultInjector, violations: list[str]
) -> None:
    """Crash a live handoff on the source leader. No writes are in
    flight, so the model is exact; whether the map flip landed decides
    who serves the shard afterwards — either answer must read clean.

    Each migration passes every handoff point once, so occurrence N
    shuttles the shard through N migrations; the crash lands on the
    last one's source leader."""
    coordinator, cluster = sut.coordinator, sut.cluster
    shard_id = sut.rng.randrange(coordinator.map.num_shards)
    for _ in range(injector.plan.crash_occurrence):
        await coordinator.refresh_map()
        sut.victim = coordinator.map.leader_of(shard_id)
        others = [
            n
            for n in cluster.names
            if n != sut.victim and n not in cluster.killed
        ]
        target = others[sut.rng.randrange(len(others))]
        try:
            await coordinator.rebalance(shard_id, target)
        except ClusterError:
            return
        if injector.crashed:
            # after_commit fires outside the request's error path: the
            # rebalance RPC may have succeeded while the injector still
            # crashed the source.
            return


async def _drive_promote(
    sut: _ClusterUnderTest, injector: FaultInjector, violations: list[str]
) -> None:
    """Kill a leader cold, then crash the *promotion* on the winner.
    The winner survives (only its promotion RPC crashed); the victim is
    the cold-killed leader, and the failover that brings the survivor
    back retries the promotion, which must converge (map adoption is
    idempotent forward: same-epoch identical maps are accepted)."""
    names = sut.cluster.names
    sut.victim = names[sut.rng.randrange(len(names))]
    await sut.cluster.kill(sut.victim)
    try:
        await sut.coordinator.failover(sut.victim)
    except ClusterError:
        pass  # the crashed promotion


_DRIVES = {
    "replicate": _drive_replicate,
    "handoff": _drive_handoff,
    "promote": _drive_promote,
}


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def run_cluster_faultcheck(cfg: ClusterFaultcheckConfig) -> FaultcheckReport:
    """Run the whole campaign. Deterministic in ``cfg``."""
    report = FaultcheckReport(
        campaign="cluster-faultcheck",
        params={
            "seeds": cfg.seeds,
            "nodes": cfg.nodes,
            "num_shards": cfg.num_shards,
        },
        counters={"crashes_injected": 0, "failovers": 0},
    )
    for seed in range(cfg.seeds):
        point = CLUSTER_POINTS[seed % len(CLUSTER_POINTS)]
        kind = point.split(".")[1]
        # Occurrence schedules must be reachable: a promotion broadcast
        # touches at most the two survivors of a 3-node cluster, so its
        # points cap at occurrence 2; handoff points fire once per
        # migration, so later occurrences shuttle the shard through that
        # many migrations before the crash lands.
        cycle = seed // len(CLUSTER_POINTS)
        occurrence = 1 + cycle % (2 if kind == "promote" else 3)
        plan = FaultPlan(
            seed=seed,
            crash_kind=CRASH_AT_POINT,
            crash_point_name=point,
            crash_occurrence=occurrence,
        )
        sut = _ClusterUnderTest(cfg, seed)
        label = f"{point}#{occurrence}"
        result, _ = asyncio.run(
            _run_schedule(sut, plan, label, _DRIVES[kind])
        )
        result.detail = {
            "point": point,
            "occurrence": occurrence,
            "victim": sut.victim,
            "acked_writes": sut.model.acked_keys,
        }
        report.results.append(result)
        report.counters["crashes_injected"] += result.crashed
        report.counters["failovers"] += bool(sut.victim)
    return report
