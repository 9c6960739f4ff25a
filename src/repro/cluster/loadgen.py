"""The cluster as a load-generation *target* — the CI ``cluster-smoke``
gate.

:func:`repro.server.loadgen.run_loadgen` owns the closed loop; this
target issues its ops through a :class:`ClusterCoordinator`, can **kill
a node mid-run**, and gives every connection a
:class:`~repro.workloads.ops.KeyModel` its writes enter. After the run
a verification pass reads every modelled key back through the
coordinator; a key that reads anything its history does not allow
counts as ``lost_acked`` — the number the CI job gates on being exactly
zero.

The model and the oracle are the crash campaigns' (:class:`KeyModel`,
:meth:`InvariantChecker.check_reads`): an acknowledged write must read
back exactly; an *unacknowledged* one — a request that raised — may
have been applied anyway (the leader can die between shipping a write
and acking it), so its key may read before or after.

To keep the model exact under concurrency, connection ``index`` of
``C`` owns the residue class ``key % C == index``: its stream draws
from ``range(key_space // C)`` and key ``j`` goes on the wire as
``j * C + index`` — injective for every ``j``, so the fresh keys the
insert-appending workloads mint stay owned too.
"""

from __future__ import annotations

import inspect
import os
import signal
from dataclasses import dataclass

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.launcher import ClusterSpec
from repro.cluster.node import ClusterError
from repro.faults.invariants import InvariantChecker
from repro.server.loadgen import LoadgenConfig, owned_span, run_loadgen
from repro.workloads.ops import STREAM_KINDS, KeyModel


@dataclass
class ClusterLoadgenConfig:
    """What a cluster run sets on top of :class:`LoadgenConfig`."""

    #: "" = no kill; a node name; or "auto" (leader of shard 0 at the
    #: moment the kill triggers).
    kill: str = ""
    #: Fire the kill when this fraction of total ops has been issued.
    kill_after_fraction: float = 0.5
    #: Read mode for the verification pass (leader = read-your-writes).
    verify_read_mode: str = "leader"

    def __post_init__(self) -> None:
        # At 1 or more the kill would never fire, and the run would
        # pass the gate without the failover it was asked to survive.
        if not 0.0 <= self.kill_after_fraction < 1.0:
            raise ValueError(
                f"kill_after_fraction must be in [0, 1), got "
                f"{self.kill_after_fraction}"
            )


def kill_via_spec(spec: ClusterSpec, name: str) -> None:
    """SIGKILL a worker by the pid recorded in the spec file."""
    pid = spec.pid_of(name)
    if not pid:
        raise ClusterError(f"spec has no pid for node {name!r}")
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone — the point stands


class ClusterTarget:
    """A replicated cluster behind one shared coordinator (which
    already holds the shard map). ``kill_fn(name)`` is the kill mechanism (the CLI SIGKILLs the
    spec-recorded pid; an in-process fixture passes its own, sync or
    async)."""

    bench = "cluster"
    ops = tuple(op for op in STREAM_KINDS if op != "scan")

    def __init__(
        self,
        cfg: LoadgenConfig,
        cluster: ClusterLoadgenConfig,
        coordinator: ClusterCoordinator,
        kill_fn,
    ) -> None:
        self.cfg = cfg
        self.cluster = cluster
        self.coordinator = coordinator
        self.kill_fn = kill_fn
        self._preloaded = False
        #: Connection index -> the model of its keys (stream key space).
        self.models: dict[int, KeyModel] = {}
        self.issued = 0
        self._kill_fired = False
        #: The node whose kill returned ("" until one did).
        self.killed = ""

    async def preload(self) -> None:
        """Every owned key, sequentially, so each is an acked write."""
        span = owned_span(self.cfg, "a cluster run")
        for key in range(span * self.cfg.connections):
            await self.coordinator.put(key, _preload_value(key))
        self._preloaded = True

    def keys(self, index: int) -> list[int]:
        return list(range(owned_span(self.cfg, "a cluster run")))

    def model(self, index: int) -> KeyModel:
        """Connection ``index``'s model: stream key ``j`` starts as the
        preload left its wire key."""
        start = {}
        if self._preloaded:
            start = {
                key: _preload_value(_wire_key(self.cfg, index, key))
                for key in self.keys(index)
            }
        model = self.models[index] = KeyModel(start)
        return model

    async def connect(self, index: int) -> "_OwnedKeys":
        return _OwnedKeys(self, index)

    async def before_request(self) -> None:
        """Fire the kill, once, when the run is far enough along. A kill
        that raises is not retried, and ``killed`` stays empty."""
        self.issued += 1
        after = self.cfg.ops * self.cluster.kill_after_fraction
        if not self.cluster.kill or self._kill_fired or self.issued <= after:
            return
        self._kill_fired = True
        victim = self.cluster.kill
        if victim == "auto":
            victim = self.coordinator.map.leader_of(0)
        done = self.kill_fn(victim)
        if inspect.isawaitable(done):
            await done
        self.killed = victim

    async def finish(self, summary: dict) -> None:
        """The verification pass: every key must read back one of the
        values its acked / unacked history allows."""
        coordinator = self.coordinator
        coordinator.read_mode = self.cluster.verify_read_mode
        await coordinator.refresh_map()
        expectations = {
            _wire_key(self.cfg, index, key): allowed
            for index, model in self.models.items()
            for key, allowed in model.expectations().items()
        }
        checker = InvariantChecker()
        lost: list[int] = []
        for key in sorted(expectations):
            try:
                got = await coordinator.get(key)
            except (ClusterError, OSError) as exc:
                got = exc  # unreadable is lost, whatever it should hold
            if checker.check_reads({key: got}, {key: expectations[key]}):
                lost.append(key)
        summary["config"]["kill"] = self.cluster.kill
        summary.update(
            op_errors={
                op: c["errors"] for op, c in summary["op_counters"].items()
            },
            killed=self.killed,
            failovers=coordinator.failovers,
            map_refreshes=coordinator.refreshes,
            retries=coordinator.retries,
            final_epoch=coordinator.map.epoch,
            acked_writes=sum(m.acked_keys for m in self.models.values()),
            lost_acked=len(lost),
            lost_keys=lost[:20],
        )


def _preload_value(key: int) -> bytes:
    return f"pre-{key}".encode()


def _wire_key(cfg: LoadgenConfig, index: int, key: int) -> int:
    """Connection ``index``'s stream key ``key`` on the wire."""
    return key * cfg.connections + index


class _OwnedKeys:
    """Connection ``index``'s view of the shared coordinator: its own
    residue class of the key space; every request may fire the kill."""

    def __init__(self, target: ClusterTarget, index: int) -> None:
        self.target = target
        self.index = index

    def _own(self, key: int) -> int:
        return _wire_key(self.target.cfg, self.index, key)

    async def get(self, key: int) -> bytes | None:
        await self.target.before_request()
        return await self.target.coordinator.get(self._own(key))

    async def put(self, key: int, value: bytes) -> None:
        await self.target.before_request()
        await self.target.coordinator.put(self._own(key), value)

    async def delete(self, key: int) -> None:
        await self.target.before_request()
        await self.target.coordinator.delete(self._own(key))

    async def close(self) -> None:
        pass  # the coordinator is shared and outlives the connection


async def run_cluster_loadgen(
    cfg: LoadgenConfig,
    cluster: ClusterLoadgenConfig,
    addresses: dict[str, tuple[str, int]],
    kill_fn,
) -> dict:
    """Drive the cluster at ``addresses``, optionally kill a node
    mid-run, verify — the structure written to ``BENCH_cluster.json``."""
    coordinator = ClusterCoordinator(addresses)
    try:
        await coordinator.refresh_map()
        return await run_loadgen(
            cfg, ClusterTarget(cfg, cluster, coordinator, kill_fn)
        )
    finally:
        await coordinator.close()
