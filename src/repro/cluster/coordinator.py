"""Client-side routing and failover: the cluster's front door.

The coordinator holds a cached :class:`~repro.cluster.shardmap.ShardMap`
and routes every operation by the global key hash — writes to the
shard's leader, reads per ``read_mode`` (``"leader"`` for
read-your-writes, ``"follower"``/``"any"`` for bounded-staleness reads
that spread load over replicas). It is deliberately *stateless about
correctness*: the nodes enforce routing (a misrouted write bounces with
a ``not leader``/``wrong node``/``stale epoch`` ERROR), and the
coordinator's job is merely to react — refresh the map from whichever
node reports the highest epoch and retry. ``BUSY`` (a shard mid-handoff
parking writes) retries after a short delay, by which time the map flip
normally landed.

Leader *death* is detected as a connection failure and handled by
:meth:`failover`: probe every surviving node's CLUSTER_STATUS, and for
each shard the dead node led, promote the most-caught-up surviving
follower — highest applied replication seq *among followers at the
highest reported map epoch*, because seqs are epoch-scoped and a count
reported at an older epoch is incomparable (and possibly inflated).
Followers whose epoch or applied seq is behind the winner's are
dropped from that shard's replica list —
their copies miss records the winner holds, and per-epoch replication
seqs cannot splice logs across terms — so the post-failover map only
names provably complete replicas. The new map broadcasts as
HANDOFF_PROMOTE; every promoted winner must adopt it (hard failure
otherwise), remaining nodes learn best-effort and self-correct via
routing errors. This recovers every *acknowledged* write after a single
node loss (an ack required a follower covering the log tail); losing a
leader plus every up-to-date follower of some shard at once is declared
unrecoverable rather than silently served empty.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.cluster.peers import ClusterError, PeerPool
from repro.cluster.shardmap import ShardMap
from repro.engine.sharded import shard_of
from repro.server.protocol import (
    HANDOFF_START,
    KIND_DELETE,
    KIND_PUT,
    Op,
    Request,
    Response,
    Status,
)

#: ERROR-message prefixes that mean "your map is stale, refresh it".
_ROUTING_ERRORS = ("not leader", "wrong node", "stale epoch")

_NET_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError, EOFError)


class ClusterCoordinator:
    """Routes requests across cluster nodes by shard-map epoch."""

    def __init__(
        self,
        addresses: dict[str, tuple[str, int]],
        shard_map: ShardMap | None = None,
        read_mode: str = "leader",
        max_attempts: int = 6,
        retry_delay: float = 0.05,
    ) -> None:
        if read_mode not in ("leader", "follower", "any"):
            raise ValueError(f"unknown read_mode {read_mode!r}")
        self.peers = PeerPool(addresses)
        self.map = shard_map
        self.read_mode = read_mode
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self._failover_lock = asyncio.Lock()
        self._rr = 0
        #: Lifetime event counts, surfaced by the CLI.
        self.refreshes = 0
        self.failovers = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # Connections and the map
    # ------------------------------------------------------------------

    async def close(self) -> None:
        await self.peers.close()

    async def refresh_map(self) -> ShardMap:
        """Adopt the highest-epoch map any reachable node reports."""
        newest, _ = await self._newest_map()
        if newest is None:
            raise ClusterError("no node answered a status probe")
        self.map = newest
        self.refreshes += 1
        return newest

    async def _newest_map(
        self, skip: str | None = None
    ) -> tuple[ShardMap | None, dict[str, dict]]:
        """Probe every node but ``skip``: the highest-epoch map among
        ours and the reported ones, and the statuses that answered."""
        statuses: dict[str, dict] = {}
        for name in list(self.peers.addresses):
            if name == skip:
                continue
            status = await self._probe(name)
            if status is not None:
                statuses[name] = status
        newest = self.map
        for status in statuses.values():
            candidate = ShardMap.from_dict(status["map"])
            if newest is None or candidate.epoch > newest.epoch:
                newest = candidate
        return newest, statuses

    async def _probe(self, name: str) -> dict | None:
        try:
            client = await self.peers.get(name)
            resp = await client.request(
                Request(client._rid(), Op.CLUSTER_STATUS)
            )
        except _NET_ERRORS:
            self.peers.drop(name)
            return None
        if resp.status is not Status.OK:
            return None
        return json.loads(bytes(resp.value))

    def shard_id_of(self, key: int | str | bytes) -> int:
        if self.map is None:
            raise ClusterError("no shard map yet: call refresh_map()")
        return shard_of(key, self.map.num_shards)

    def _read_target(self, shard_id: int) -> str:
        names = self.map.replicas[shard_id]
        if self.read_mode == "leader" or len(names) == 1:
            return names[0]
        self._rr += 1
        if self.read_mode == "follower":
            return names[1 + (self._rr % (len(names) - 1))]
        return names[self._rr % len(names)]

    # ------------------------------------------------------------------
    # The retry loop every data op runs through
    # ------------------------------------------------------------------

    async def _routed(self, pick_node, make_request) -> Response:
        """pick_node(map) → node name; make_request(client) → Request.
        Retries through map refreshes, BUSY backoff and leader
        failover until an authoritative answer arrives."""
        last = "routing retries exhausted"
        for attempt in range(self.max_attempts):
            if attempt:
                self.retries += 1
            if self.map is None:
                await self.refresh_map()
            name = pick_node(self.map)
            try:
                client = await self.peers.get(name)
                resp = await client.request(make_request(client))
            except (*_NET_ERRORS, ClusterError):
                # Unreachable (or address-less) node: treat as dead.
                self.peers.drop(name)
                last = f"node {name!r} unreachable"
                await self.failover(name)
                continue
            if resp.status in (Status.OK, Status.NOT_FOUND):
                return resp
            message = resp.message or resp.status.name
            if resp.status is Status.BUSY or (
                resp.status is Status.ERROR
                and "replication unavailable" in message
            ):
                # BUSY: a shard mid-handoff parking writes. Replication
                # unavailable: the leader failed the group that watched
                # its last live follower die (never acked, so a retry
                # cannot duplicate an acknowledgement); the next round
                # runs against the post-death live set, or a refreshed
                # map routes us to the shard's real leader.
                last = message
                await asyncio.sleep(self.retry_delay)
                await self.refresh_map()
                continue
            if resp.status is Status.ERROR and message.startswith(
                _ROUTING_ERRORS
            ):
                last = message
                await self.refresh_map()
                continue
            raise ClusterError(message)
        raise ClusterError(f"gave up after {self.max_attempts} attempts: {last}")

    # ------------------------------------------------------------------
    # Data ops
    # ------------------------------------------------------------------

    async def put(self, key: int, value: str | bytes) -> None:
        blob = value.encode("utf-8") if isinstance(value, str) else value
        shard_id = self.shard_id_of(key)
        await self._routed(
            lambda m: m.leader_of(shard_id),
            lambda c: Request(c._rid(), Op.PUT, key=key, value=blob),
        )

    async def delete(self, key: int) -> None:
        shard_id = self.shard_id_of(key)
        await self._routed(
            lambda m: m.leader_of(shard_id),
            lambda c: Request(c._rid(), Op.DELETE, key=key),
        )

    async def get(self, key: int) -> bytes | None:
        shard_id = self.shard_id_of(key)
        resp = await self._routed(
            lambda m: self._read_target(shard_id),
            lambda c: Request(c._rid(), Op.GET, key=key),
        )
        if resp.status is Status.NOT_FOUND:
            return None
        return bytes(resp.value)

    async def put_batch(self, items: list[tuple[int, Any]]) -> None:
        """Apply a batch cluster-wide: one BATCH request per leader,
        each all-or-nothing on its node (cross-node atomicity is *not*
        provided — same contract as the sharded engine's per-shard
        batches)."""
        if self.map is None:
            await self.refresh_map()
        groups: dict[int, list[tuple[int, int, bytes]]] = {}
        for key, value in items:
            if value is None:
                wire = (KIND_DELETE, key, b"")
            else:
                blob = (
                    value.encode("utf-8") if isinstance(value, str) else value
                )
                wire = (KIND_PUT, key, blob)
            groups.setdefault(self.shard_id_of(key), []).append(wire)
        async def send(shard_id: int, wired: list) -> None:
            await self._routed(
                lambda m: m.leader_of(shard_id),
                lambda c: Request(c._rid(), Op.BATCH, items=tuple(wired)),
            )
        await asyncio.gather(
            *(send(shard_id, wired) for shard_id, wired in groups.items())
        )

    async def get_many(self, keys: list[int]) -> list[bytes | None]:
        """Pipelined point reads (each node serves the GETs buffered on
        its connection as runs through engine ``get_batch`` calls)."""
        return list(await asyncio.gather(*(self.get(key) for key in keys)))

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    async def failover(self, dead: str) -> ShardMap:
        """Promote the most-caught-up surviving follower of every shard
        the dead node led, and drop the dead node (and any behind
        follower of those shards) from the map."""
        async with self._failover_lock:
            if self.map is None or dead in self.map.nodes():
                # Refresh first: a concurrent coordinator (or the nodes
                # themselves, post-handoff) may already have moved on.
                try:
                    await self.refresh_map()
                except ClusterError:
                    pass
            if self.map is not None and dead not in self.map.nodes():
                return self.map
            base, statuses = await self._newest_map(skip=dead)
            if not statuses:
                raise ClusterError(
                    f"failover from {dead!r}: no surviving node reachable"
                )
            replicas = [list(names) for names in base.replicas]
            winners: set[str] = set()
            for shard_id in range(base.num_shards):
                names = replicas[shard_id]
                if dead not in names:
                    continue
                if names[0] != dead:
                    names.remove(dead)
                    continue
                candidates: list[tuple[int, int, str]] = []
                for follower in names[1:]:
                    status = statuses.get(follower)
                    if status is None:
                        continue
                    info = status["shards"].get(str(shard_id))
                    if info is None:
                        continue
                    epoch = int(info.get("epoch", status["epoch"]))
                    candidates.append((epoch, int(info["seq"]), follower))
                if not candidates:
                    raise ClusterError(
                        f"shard {shard_id} is unrecoverable: leader "
                        f"{dead!r} died with no reachable follower"
                    )
                # Applied seqs are epoch-scoped, so a count reported at
                # an older map epoch is not comparable — a follower
                # stuck on an old epoch (missed a best-effort map push)
                # carries a stale, possibly inflated count. Elect only
                # among followers at the highest reported epoch; the
                # rest are dropped with the behind ones below.
                top_epoch = max(epoch for epoch, _, _ in candidates)
                candidates = [c for c in candidates if c[0] == top_epoch]
                candidates.sort(key=lambda c: (-c[1], c[2]))
                _, top_seq, winner = candidates[0]
                winners.add(winner)
                # Equal-applied same-epoch followers stay; behind ones
                # are dropped (their logs miss records the winner
                # acked).
                replicas[shard_id] = [winner] + [
                    f for _, seq, f in candidates[1:] if seq == top_seq
                ]
            new_map = ShardMap(
                epoch=base.epoch + 1,
                num_shards=base.num_shards,
                replicas=tuple(tuple(names) for names in replicas),
            )
            for name in sorted(
                new_map.nodes(), key=lambda n: (n not in winners, n)
            ):
                try:
                    resp = await self.peers.push_map(name, new_map)
                    ok = resp.status is Status.OK
                except _NET_ERRORS:
                    self.peers.drop(name)
                    ok = False
                if not ok and name in winners:
                    raise ClusterError(
                        f"promotion of {name!r} failed — cluster needs "
                        f"operator attention"
                    )
            self.map = new_map
            self.failovers += 1
            return new_map

    # ------------------------------------------------------------------
    # Operations: rebalance
    # ------------------------------------------------------------------

    async def rebalance(self, shard_id: int, target: str) -> ShardMap:
        """Drive a live handoff of ``shard_id`` to ``target`` (by node
        name) and return the refreshed map."""
        if self.map is None:
            await self.refresh_map()
        if target not in self.peers.addresses:
            raise ClusterError(f"unknown target node {target!r}")
        source = self.map.leader_of(shard_id)
        if source == target:
            return self.map
        client = await self.peers.get(source)
        resp = await client.request(
            Request(
                client._rid(), Op.HANDOFF, phase=HANDOFF_START,
                shard=shard_id, value=target.encode("utf-8"),
            )
        )
        if resp.status is not Status.OK:
            raise ClusterError(
                f"rebalance of shard {shard_id} to {target!r} failed: "
                f"{resp.message or resp.status.name}"
            )
        return await self.refresh_map()
