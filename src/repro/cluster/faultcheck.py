"""The cluster crash campaign: kill nodes at the worst moments, then
prove no acknowledged write was lost.

Each seed runs one schedule against a real 3-node loopback cluster
(actual sockets, actual frames — the same code paths production runs):

1. a seeded workload of puts/deletes (str *and* non-UTF-8 bytes
   values) is driven through a :class:`ClusterCoordinator` and every
   acknowledged operation recorded in a reference model;
2. the fault injector is armed at one of the ``cluster.*`` crash
   points (rotating point and occurrence with the seed) and the
   schedule provokes it — more writes for the ``replicate`` points, a
   live rebalance for the ``handoff`` points, a leader kill plus
   failover for the ``promote`` points. Whatever operation the crash
   interrupts is *unacknowledged* (its keys join the in-flight
   ``touched`` set, allowed before-or-after);
3. the victim node is killed for real — its server closes, its commit
   task dies, its in-memory state is never consulted again (exactly a
   process kill, since all surviving state lives in other nodes);
4. the coordinator fails over and the checker reads **every key the
   model ever touched** back through the surviving cluster:
   :meth:`InvariantChecker.check_acked_reads` demands each
   acknowledged write durable with its exact value and each
   acknowledged delete still dead — "acked ⇒ durable" across node
   kills.

Verdicts land in the single-node campaign's own
:class:`~repro.faults.harness.ScheduleResult` /
:class:`~repro.faults.harness.FaultcheckReport`, and the expectations
come from the same :func:`~repro.faults.invariants.merge_expected`.
The cluster itself is :class:`LoopbackCluster`, a public fixture the
cluster tests and the in-process load runs share.

Crashes raised by the injector surface on the victim as ERROR
responses (a request must never kill the server's *loop*), which the
campaign treats as the moment of death; the arbiter is deactivated
immediately after so survivors run healthy. Deterministic in
(config, seed).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.node import ClusterError, ClusterNode
from repro.cluster.shardmap import even_map
from repro.engine.config import EngineConfig
from repro.faults import crashpoints
from repro.faults.harness import FaultcheckReport, ScheduleResult
from repro.faults.injector import CRASH_AT_POINT, FaultInjector, FaultPlan
from repro.faults.invariants import ABSENT, InvariantChecker, merge_expected

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
        if self.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {self.seeds}")
        if self.nodes < 2:
            raise ValueError("a cluster campaign needs >= 2 nodes")

    def engine_config(self) -> EngineConfig:
        """Tiny per-shard geometry: a few dozen ops must cross flushes
        and WAL batch records on every node."""
        return EngineConfig.leveled(
            size_ratio=3,
            buffer_entries=8,
            block_entries=4,
            cache_blocks=8,
            durable=True,
            shards=1,
        )


# ----------------------------------------------------------------------
# One live loopback cluster
# ----------------------------------------------------------------------

class LoopbackCluster:
    """A real multi-node cluster inside one event loop — the fixture the
    campaign, the cluster tests and the in-process load runs share.
    ``cfg`` supplies ``nodes`` / ``num_shards`` / ``replication`` and
    the per-shard ``engine_config()``."""

    def __init__(self, cfg: ClusterFaultcheckConfig) -> None:
        self.cfg = cfg
        self.names = [f"n{i}" for i in range(cfg.nodes)]
        self.map = even_map(
            self.names, cfg.num_shards, replication=cfg.replication
        )
        econf = cfg.engine_config()
        self.nodes = {
            name: ClusterNode(name, self.map, econf) for name in self.names
        }
        self.servers: dict[str, asyncio.Server] = {}
        self.addrs: dict[str, tuple[str, int]] = {}
        self.killed: set[str] = set()

    async def start(self) -> ClusterCoordinator:
        for name, node in self.nodes.items():
            server = await asyncio.start_server(
                node.server._on_connect, "127.0.0.1", 0
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
            node.server.commit.start()
        coordinator = ClusterCoordinator(dict(self.addrs))
        await coordinator.refresh_map()
        return coordinator

    def _abort_connections(self, name: str) -> None:
        """Closing a listener is not enough: established connections
        keep serving, so survivors would happily talk to the corpse.
        Abort every open transport so peers see a connection reset; the
        caller then yields so the connection_lost callbacks run and the
        per-connection serve tasks unwind before the loop is torn down
        (else asyncio logs cancelled-task noise)."""
        for conn in list(self.nodes[name].server._connections):
            conn.closed = True
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()

    async def kill(self, name: str) -> None:
        """Process death: stop serving, stop the commit task, sever
        peer links. The node's state is never consulted again."""
        if name in self.killed:
            return
        self.killed.add(name)
        server = self.servers[name]
        server.close()
        await server.wait_closed()
        node = self.nodes[name]
        task = node.server.commit._task
        if task is not None:
            task.cancel()
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
# One schedule
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


async def _seeded_writes(
    coordinator: ClusterCoordinator,
    model: dict[int, Any],
    rng: random.Random,
    seed: int,
    count: int,
) -> None:
    """Acked ops enter the model; the caller ensures no crash is armed."""
    for _ in range(count):
        key = rng.randrange(_KEY_SPACE)
        if model.get(key) is not None and rng.random() < 0.15:
            await coordinator.delete(key)
            model[key] = ABSENT
        else:
            value = _value_for(rng, seed, key)
            await coordinator.put(key, value)
            model[key] = value


async def _run_schedule(
    cfg: ClusterFaultcheckConfig, seed: int
) -> ScheduleResult:
    point = CLUSTER_POINTS[seed % len(CLUSTER_POINTS)]
    cycle = seed // len(CLUSTER_POINTS)
    # Occurrence schedules must be reachable: a promotion broadcast
    # touches at most the two survivors of a 3-node cluster, so its
    # points cap at occurrence 2; handoff points fire once per
    # migration, so later occurrences shuttle the shard through that
    # many migrations before the crash lands.
    if point.startswith("cluster.promote."):
        occurrence = 1 + cycle % 2
    else:
        occurrence = 1 + cycle % 3
    result = ScheduleResult(
        seed=seed,
        schedule=f"{point}#{occurrence}",
        detail={
            "point": point,
            "occurrence": occurrence,
            "victim": "",
            "acked_writes": 0,
        },
    )
    rng = random.Random(f"cluster-faultcheck:{seed}")
    cluster = LoopbackCluster(cfg)
    coordinator = await cluster.start()
    plan = FaultPlan(
        seed=seed,
        crash_kind=CRASH_AT_POINT,
        crash_point_name=point,
        crash_occurrence=occurrence,
        transient_rate=0.0,
    )
    injector = FaultInjector(plan)
    try:
        # Phase 1: healthy acked traffic.
        model: dict[int, Any] = {}
        await _seeded_writes(
            coordinator, model, rng, seed, cfg.writes_before
        )
        # Phase 2: provoke the armed crash point. Every op acked inside
        # the window still joins the model; the op the crash interrupts
        # joins `touched` (before-or-after).
        touched: dict[int, Any] = {}
        if point.startswith("cluster.replicate."):
            victim, crashed = await _provoke_replicate(
                cluster, coordinator, model, touched, rng, seed,
                injector, cfg,
            )
        elif point.startswith("cluster.handoff."):
            victim, crashed = await _provoke_handoff(
                cluster, coordinator, injector, rng, occurrence
            )
        else:
            victim, crashed = await _provoke_promote(
                cluster, coordinator, injector, rng
            )
        result.crashed = crashed
        result.detail["victim"] = victim
        if not crashed:
            result.violations.append(
                f"[harness] scheduled crash never fired at "
                f"{result.schedule}"
            )
            return result
        # Phase 3: the victim dies for real; the cluster must carry on.
        if victim and victim not in cluster.killed:
            await cluster.kill(victim)
        # Phase 4: read every touched key back through the survivors.
        expectations = merge_expected(model, touched)
        result.detail["acked_writes"] = len(model)
        actuals: dict[int, Any] = {}
        for key in expectations:
            try:
                actuals[key] = await coordinator.get(key)
            except ClusterError as exc:
                result.violations.append(
                    f"[acked-durable] key {key}: post-failover read "
                    f"failed: {exc}"
                )
        result.violations.extend(
            str(v)
            for v in InvariantChecker().check_acked_reads(
                actuals, expectations
            )
        )
        # Writes must still flow after the kill.
        try:
            probe = rng.randrange(_KEY_SPACE)
            await coordinator.put(probe, f"post-{seed}")
            got = await coordinator.get(probe)
            if got != f"post-{seed}".encode("utf-8"):
                result.violations.append(
                    f"[post-failover] probe write read back {got!r}"
                )
        except ClusterError as exc:
            result.violations.append(
                f"[post-failover] probe write failed: {exc}"
            )
        return result
    finally:
        await coordinator.close()
        await cluster.stop()


async def _provoke_replicate(
    cluster: LoopbackCluster,
    coordinator: ClusterCoordinator,
    model: dict[int, Any],
    touched: dict[int, Any],
    rng: random.Random,
    seed: int,
    injector: FaultInjector,
    cfg: ClusterFaultcheckConfig,
) -> tuple[str, bool]:
    """Crash a leader mid-replication: arm the point, then hammer one
    chosen shard until the leader's ship path fires it."""
    shard_id = rng.randrange(cfg.num_shards)
    victim = coordinator.map.leader_of(shard_id)
    keys = _shard_keys(shard_id, cfg.num_shards, 8)
    crashed = False
    with crashpoints.activated(injector):
        for i in range(cfg.writes_during):
            key = keys[i % len(keys)]
            value = _value_for(rng, seed, key)
            try:
                await coordinator.put(key, value)
            except ClusterError:
                # The interrupted write was never acked: before-or-after.
                touched[key] = value
                crashed = injector.crashed
                break
            model[key] = value
    return victim, crashed


async def _provoke_handoff(
    cluster: LoopbackCluster,
    coordinator: ClusterCoordinator,
    injector: FaultInjector,
    rng: random.Random,
    occurrence: int,
) -> tuple[str, bool]:
    """Crash a live handoff on the source leader. No writes are in
    flight, so the model is exact; whether the map flip landed decides
    who serves the shard afterwards — either answer must read clean.

    Each migration passes every handoff point once, so occurrence N
    shuttles the shard through N migrations; the crash lands on the
    last one's source leader."""
    shard_id = rng.randrange(coordinator.map.num_shards)
    victim = ""
    crashed = False
    with crashpoints.activated(injector):
        for _ in range(occurrence):
            await coordinator.refresh_map()
            victim = coordinator.map.leader_of(shard_id)
            others = [
                n
                for n in cluster.names
                if n != victim and n not in cluster.killed
            ]
            target = others[rng.randrange(len(others))]
            try:
                await coordinator.rebalance(shard_id, target)
            except ClusterError:
                crashed = injector.crashed
                break
            if injector.crashed:
                # after_commit fires outside the request's error path:
                # the rebalance RPC may have succeeded while the
                # injector still crashed the source.
                crashed = True
                break
    if not crashed:
        crashed = injector.crashed
    return victim, crashed


async def _provoke_promote(
    cluster: LoopbackCluster,
    coordinator: ClusterCoordinator,
    injector: FaultInjector,
    rng: random.Random,
) -> tuple[str, bool]:
    """Kill a leader cold, then crash the *promotion* on the winner.
    The retried failover must converge (map adoption is idempotent
    forward: same-epoch identical maps are accepted)."""
    first = cluster.names[rng.randrange(len(cluster.names))]
    await cluster.kill(first)
    crashed = False
    with crashpoints.activated(injector):
        try:
            await coordinator.failover(first)
        except ClusterError:
            crashed = injector.crashed
    if not crashed:
        crashed = injector.crashed
    # The winner survived (only its promotion RPC crashed); the
    # campaign's "victim" is the cold-killed leader, already dead.
    await coordinator.failover(first)
    return first, crashed


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
        result = asyncio.run(_run_schedule(cfg, seed))
        report.results.append(result)
        report.counters["crashes_injected"] += result.crashed
        report.counters["failovers"] += bool(result.detail["victim"])
    return report
