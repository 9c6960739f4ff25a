"""The key-value store engine: memtable + LSM-tree + filter policy +
block cache + cost model, wired together behind one public facade —
plus the declarative construction layer (:class:`EngineConfig` /
:func:`build_store` / :func:`build_shard`) and the hash-sharded router
(:class:`ShardedKVStore`). Only this package tells a router from a plain
store: everything above asks :func:`shards_of`."""

from repro.engine.config import (
    EngineConfig,
    build_shard,
    build_store,
    recover_store,
)
from repro.engine.kvstore import CrashState, IOSnapshot, KVStore, ReadResult
from repro.engine.sharded import (
    ShardedCrashState,
    ShardedKVStore,
    aggregate_snapshots,
    shard_of,
    shards_of,
)

__all__ = [
    "CrashState",
    "EngineConfig",
    "IOSnapshot",
    "KVStore",
    "ReadResult",
    "ShardedCrashState",
    "ShardedKVStore",
    "aggregate_snapshots",
    "build_shard",
    "build_store",
    "recover_store",
    "shard_of",
    "shards_of",
]
