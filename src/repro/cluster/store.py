"""A node's slice of the keyspace: a sparse subset of the global shards.

:class:`ShardSubsetStore` is a :class:`~repro.engine.sharded.ShardedKVStore`
whose routing is **global**: keys hash over ``num_global`` shards (the
cluster-wide count) but only the shards this node hosts are present.
Everything the base class provides over its shard list — flush, scan
merge, per-shard crash, snapshot aggregation, metric rollup —
works unchanged because the list simply holds fewer stores (``scan``
merges the *hosted* shards only; a cluster-wide scan is the
coordinator's job); only the two routing hooks (``shard_id_of`` /
``_shard_at``) are overridden, to use the global hash and to raise
:class:`NotOwnedError` for shards the node does not host — for a batch,
before any shard is written — which is the signal the serving layer
turns into a routing error the client answers by refreshing its shard
map.

Shards attach and detach live (:meth:`add_shard` / :meth:`remove_shard`)
— the mechanics of a handoff commit: the target attaches its fully
caught-up staging store and the source detaches its copy, each a
single dict/list swap on the event loop, so there is never a moment
when a request sees a half-moved shard.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.engine.kvstore import KVStore
from repro.engine.sharded import ShardedKVStore, shard_of
from repro.obs import NULL_OBS, Observability


class NotOwnedError(ReproError):
    """A key routed to a shard this node does not host."""


class ShardSubsetStore(ShardedKVStore):
    """Sparse {global shard id → KVStore} behind the KVStore surface."""

    def __init__(
        self,
        shards: dict[int, KVStore],
        num_global: int,
        observability: Observability | None = None,
    ) -> None:
        if num_global < 1:
            raise ValueError(f"num_global must be >= 1, got {num_global}")
        for shard_id in shards:
            if not 0 <= shard_id < num_global:
                raise ValueError(
                    f"shard id {shard_id} out of range for "
                    f"{num_global} global shards"
                )
        self.num_global = num_global
        self.local: dict[int, KVStore] = dict(shards)
        # Base-class state, set directly: the base __init__ rejects an
        # empty shard list, but a node may legitimately host zero
        # shards after handing its last one away.
        self.shards = [self.local[i] for i in sorted(self.local)]
        self.obs = observability if observability is not None else NULL_OBS
        self.scans = 0
        if self.obs.enabled:
            self.obs.registry.add_collector(self._collect_aggregates)

    # -- live membership ------------------------------------------------

    def add_shard(self, shard_id: int, store: KVStore) -> None:
        """Attach a (caught-up) store for a global shard this node did
        not host. Atomic from the event loop's point of view."""
        if shard_id in self.local:
            raise ValueError(f"shard {shard_id} is already hosted")
        if not 0 <= shard_id < self.num_global:
            raise ValueError(f"shard id {shard_id} out of range")
        self.local[shard_id] = store
        self.shards = [self.local[i] for i in sorted(self.local)]

    def remove_shard(self, shard_id: int) -> KVStore:
        """Detach a hosted shard (after a handoff committed elsewhere)
        and return its store, its WAL no longer feeding replication and
        its instruments no longer exported by the node
        (:meth:`~repro.obs.Observability.release`)."""
        store = self.local.pop(shard_id, None)
        if store is None:
            raise ValueError(f"shard {shard_id} is not hosted here")
        self.shards = [self.local[i] for i in sorted(self.local)]
        if store.wal is not None:
            store.wal.record_sink = None
        store.obs.release()
        return store

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.local))

    def owns(self, shard_id: int) -> bool:
        return shard_id in self.local

    # -- routing hooks (global hash, sparse ownership) ------------------

    def shard_id_of(self, key: int | str | bytes) -> int:
        """The *global* shard a key belongs to, hosted here or not."""
        return shard_of(key, self.num_global)

    def _shard_at(self, shard_id: int) -> KVStore:
        store = self.local.get(shard_id)
        if store is None:
            raise NotOwnedError(
                f"shard {shard_id} is not hosted on this node"
            )
        return store
