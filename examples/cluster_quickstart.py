"""A replicated cluster in one process: WAL shipping, failover, handoff.

``repro.cluster`` turns N independent servers into one replicated
store: an epoch-stamped :class:`ShardMap` assigns every global shard a
leader and followers, leaders ship their group-commit WAL records
verbatim to followers *before* acking (acked => durable beyond the
leader), and a :class:`ClusterCoordinator` routes by the map — chasing
epoch bumps, electing the most-caught-up follower when a leader dies,
and driving live shard handoffs. This example boots a real 3-node
cluster inside one event loop with :class:`LoopbackCluster` (actual
sockets, actual frames — the same code paths ``repro cluster`` runs
across processes, on the fixture the cluster tests share), writes
through the coordinator, inspects the replication logs, reads from
followers, migrates a shard live, kills the leader of shard 0 and
fails over, then proves every acknowledged write survived. A tiny
crash campaign caps it off.

Run with::

    python examples/cluster_quickstart.py
"""

import asyncio

from repro.cluster import (
    ClusterCoordinator,
    ClusterFaultcheckConfig,
    LoopbackCluster,
    run_cluster_faultcheck,
)

NUM_SHARDS = 6


async def main() -> None:
    # LoopbackCluster boots every node on an ephemeral port, wires each
    # node's peer pool and hands back a coordinator pointed at them.
    cluster = LoopbackCluster(
        ClusterFaultcheckConfig(nodes=3, num_shards=NUM_SHARDS, replication=2)
    )
    coordinator = await cluster.start()
    try:
        await tour(cluster, coordinator)
    finally:
        await coordinator.close()
        await cluster.stop()


async def tour(
    cluster: LoopbackCluster, coordinator: ClusterCoordinator
) -> None:
    nodes = cluster.nodes
    shard_map = coordinator.map
    print(f"3-node cluster up: {NUM_SHARDS} shards, replication 2, "
          f"epoch {shard_map.epoch}")
    for shard in range(NUM_SHARDS):
        print(f"  shard {shard}: leader {shard_map.leader_of(shard)}, "
              f"followers {shard_map.followers_of(shard)}")

    # -- acked writes are replicated writes ----------------------------
    # The coordinator hashes each key to its global shard and sends the
    # write to that shard's leader; the leader's group-commit writer
    # ships the WAL batch record to every live follower and waits for
    # their acks before answering OK.
    model = {key: f"v{key}" for key in range(48)}
    for key, value in model.items():
        await coordinator.put(key, value)
    await coordinator.delete(13)
    del model[13]
    print(f"\n{len(model)} puts + 1 delete acknowledged")

    leader = nodes[shard_map.leader_of(0)]
    log = leader.logs[0]
    print(f"shard 0 log on {leader.name}: {log.last_seq} records, "
          f"follower acks {dict(log.acked)}")
    for follower in shard_map.followers_of(0):
        applied = nodes[follower].applied[0]
        assert applied == log.last_seq, "follower lag at quiescence"
        print(f"  {follower} applied {applied}/{log.last_seq} -> lag 0")

    # -- follower reads ------------------------------------------------
    # Followers hold byte-identical WALs, so bounded-staleness reads
    # can come straight off a replica; at quiescence they see
    # everything acked.
    coordinator.read_mode = "follower"
    assert await coordinator.get(7) == b"v7"
    assert await coordinator.get(13) is None
    coordinator.read_mode = "leader"
    print("follower-mode reads served every acked write")

    # -- live shard handoff --------------------------------------------
    # Snapshot ships to the target, the WAL tail catches it up, then
    # one epoch bump flips routing — writes keep flowing throughout.
    victim_shard = 2
    old_leader = coordinator.map.leader_of(victim_shard)
    target = next(n for n in cluster.names
                  if n not in coordinator.map.replicas[victim_shard])
    new_map = await coordinator.rebalance(victim_shard, target)
    assert new_map.leader_of(victim_shard) == target
    print(f"\nshard {victim_shard} moved live {old_leader} -> {target} "
          f"(epoch {shard_map.epoch} -> {new_map.epoch})")
    for key in model:
        assert await coordinator.get(key) == model[key].encode()
    print("every key intact after the handoff")

    # -- leader failover -----------------------------------------------
    # Kill the leader of shard 0 outright. The coordinator promotes the
    # most-caught-up live follower; because acks waited for
    # replication, no acknowledged write can be lost.
    dead = coordinator.map.leader_of(0)
    await cluster.kill(dead)  # listener, commit task, connections
    promoted_map = await coordinator.failover(dead)
    assert dead not in promoted_map.nodes()
    print(f"\nkilled {dead}; shard 0 promoted to "
          f"{promoted_map.leader_of(0)} (epoch {promoted_map.epoch})")

    survivors = {key: model[key] for key in model}
    for key, value in survivors.items():
        assert await coordinator.get(key) == value.encode()
    assert await coordinator.get(13) is None
    await coordinator.put(999, "post-failover")
    assert await coordinator.get(999) == b"post-failover"
    print(f"all {len(survivors)} acked writes (and the delete) survived; "
          f"new writes flow")


def crash_campaign() -> None:
    """A taste of `repro faultcheck --cluster`: seeded schedules crash
    nodes at the nastiest moments (mid-replication, mid-handoff,
    mid-promotion) and re-read every key ever touched. Runs its own
    event loop per schedule, so it lives outside main()."""
    report = run_cluster_faultcheck(ClusterFaultcheckConfig(seeds=2))
    assert report.ok, report.as_dict()
    print(f"\ncrash campaign: {len(report.results)} schedules, "
          f"{report.counters['crashes_injected']} crashes injected, "
          f"{report.counters['failovers']} failovers, 0 acked writes lost")


if __name__ == "__main__":
    asyncio.run(main())
    crash_campaign()
