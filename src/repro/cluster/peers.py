"""Reaching other cluster members: one connection pool, one map push.

Nodes (shipping, handing off, gossiping a map) and coordinators
(routing, probing, failing over) both talk to members *by name*.
:class:`PeerPool` is that name → address → cached
:class:`~repro.server.client.AsyncClient` table: a failed connection is
dropped and the next :meth:`~PeerPool.get` reconnects, and an unknown
name raises :class:`ClusterError` — which a coordinator's retry loop
treats like an unreachable node. :meth:`PeerPool.push_map` is the one
HANDOFF phase-PROMOTE request; its callers (a leader healing a behind
follower, a handoff source broadcasting its commit, a coordinator
announcing a failover) each judge the answer by their own policy.
"""

from __future__ import annotations

from repro.cluster.shardmap import ShardMap
from repro.common.errors import ReproError
from repro.server.client import AsyncClient
from repro.server.protocol import HANDOFF_PROMOTE, Op, Request, Response


class ClusterError(ReproError):
    """An illegal cluster operation (bad role, unknown peer, ...)."""


class PeerPool:
    """One cached client per named cluster member."""

    def __init__(
        self, addresses: dict[str, tuple[str, int]] | None = None
    ) -> None:
        self.addresses = dict(addresses or {})
        self._clients: dict[str, AsyncClient] = {}

    async def get(self, name: str) -> AsyncClient:
        client = self._clients.get(name)
        if client is not None and not client._closed:
            return client
        addr = self.addresses.get(name)
        if addr is None:
            raise ClusterError(f"unknown peer {name!r}")
        client = await AsyncClient.connect(addr[0], addr[1])
        self._clients[name] = client
        return client

    def drop(self, name: str) -> None:
        """Forget a failed connection; the next :meth:`get` reconnects."""
        client = self._clients.pop(name, None)
        if client is not None:
            try:
                client._transport.close()
            except Exception:  # noqa: BLE001 — already dead is fine
                pass

    async def close(self) -> None:
        for name in list(self._clients):
            client = self._clients.pop(name)
            try:
                await client.close()
            except Exception:  # noqa: BLE001
                pass

    async def push_map(self, name: str, shard_map: ShardMap) -> Response:
        """Offer ``name`` a shard map and return its raw answer."""
        client = await self.get(name)
        return await client.request(
            Request(
                client._rid(), Op.HANDOFF, phase=HANDOFF_PROMOTE,
                epoch=shard_map.epoch,
                value=shard_map.to_json().encode("utf-8"),
            )
        )
