"""Replicated multi-node cluster: WAL shipping, failover, live handoff.

The pieces, bottom-up:

* :mod:`repro.cluster.shardmap` — the epoch-stamped routing truth.
* :mod:`repro.cluster.store` — a node's sparse subset of the global
  shards behind the ordinary KVStore surface.
* :mod:`repro.cluster.replication` — per-shard record logs and the
  group-commit writer whose acks wait for follower replication.
* :mod:`repro.cluster.peers` — the one connection pool nodes and
  coordinators reach members through, and the one map push.
* :mod:`repro.cluster.node` — one member: server, follower apply,
  the one map fence, promotion, live shard handoff.
* :mod:`repro.cluster.coordinator` — client-side routing, map refresh,
  and leader-failover election.
* :mod:`repro.cluster.faultcheck` — the in-process crash campaign that
  checks "acked ⇒ durable" across node kills, and the loopback-cluster
  fixture it runs on.
* :mod:`repro.cluster.loadgen` — the cluster as a load-generation
  target: mid-run kill plus an acked-write read-back.
* :mod:`repro.cluster.launcher` — multi-process cluster bring-up for
  the CLI and CI.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.faultcheck import (
    ClusterFaultcheckConfig,
    LoopbackCluster,
    run_cluster_faultcheck,
)
from repro.cluster.launcher import (
    ClusterLauncher,
    ClusterSpec,
    read_spec,
    run_worker,
    write_spec,
)
from repro.cluster.loadgen import (
    ClusterLoadgenConfig,
    ClusterTarget,
    run_cluster_loadgen,
)
from repro.cluster.node import ClusterError, ClusterNode, ClusterServer
from repro.cluster.peers import PeerPool
from repro.cluster.replication import (
    ReplicatedGroupCommitWriter,
    ReplicationError,
    ReplicationLog,
)
from repro.cluster.shardmap import ShardMap, ShardMapError, even_map
from repro.cluster.store import NotOwnedError, ShardSubsetStore

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterFaultcheckConfig",
    "ClusterLauncher",
    "ClusterLoadgenConfig",
    "ClusterNode",
    "ClusterServer",
    "ClusterSpec",
    "ClusterTarget",
    "LoopbackCluster",
    "NotOwnedError",
    "PeerPool",
    "ReplicatedGroupCommitWriter",
    "ReplicationError",
    "ReplicationLog",
    "ShardMap",
    "ShardMapError",
    "ShardSubsetStore",
    "even_map",
    "read_spec",
    "run_cluster_faultcheck",
    "run_cluster_loadgen",
    "run_worker",
    "write_spec",
]
