"""Sharding the store: N independent trees, N independent Chucky filters.

Because one Chucky filter answers for a whole tree in two memory I/Os,
the store partitions cleanly by key hash: each shard carries its own
memtable + LSM-tree + filter, the convergent-FPR guarantee (Eq 16)
holds per shard, and every operation costs exactly what it would on a
standalone store of that shard's data. This example builds a 4-shard
store and shows routing stability, batched cross-shard operations, the
k-way merged scan, per-shard skew diagnosis, and whole-store crash
recovery.

Run with::

    python examples/sharded_store.py
"""

import random

from repro import EngineConfig, build_store, recover_store
from repro.engine import shard_of

SHARDS = 4


def main() -> None:
    cfg = EngineConfig.lazy_leveled(
        size_ratio=4, buffer_entries=32, block_entries=8,
        policy="chucky", bits_per_entry=10, durable=True, shards=SHARDS,
    )
    store = build_store(cfg)

    print(f"writing 8,000 entries across {SHARDS} shards ...")
    rng = random.Random(11)
    reference = {}
    for i in range(8_000):
        key = rng.randrange(3_000)
        if rng.random() < 0.05:
            store.delete(key)
            reference.pop(key, None)
        else:
            store.put(key, f"v{i}")
            reference[key] = f"v{i}"

    entries = store.entries_per_shard()
    print(f"  entries per shard: {entries} "
          f"(imbalance {store.imbalance:.3f} — hash routing stays flat)")

    # Routing is a pure function of the key digest: the same key always
    # lands on the same shard, across restarts and processes.
    assert all(shard_of(k, SHARDS) == shard_of(k, SHARDS) for k in range(100))

    # Batched operations visit each shard once with its whole group.
    batch = [(10_000 + i, f"batch-{i}") for i in range(200)]
    store.put_batch(batch)
    values = store.get_batch([key for key, _ in batch])
    assert values == [value for _, value in batch]
    print(f"  put_batch/get_batch of {len(batch)} keys: OK "
          f"(each shard's memtable and WAL touched once)")

    # Range reads k-way merge the per-shard sorted scans.
    window = list(store.scan(100, 120))
    expected = sorted((k, v) for k, v in reference.items() if 100 <= k <= 120)
    assert window == expected
    print(f"  scan [100, 120] merged across shards: {len(window)} keys, "
          f"sorted and tombstone-free")

    # Skew diagnosis: the store's snapshot is the sum of its shards',
    # and per-shard latency breakdowns come from the shards' own.
    snap = store.snapshot()
    shard_snaps = [shard.snapshot() for shard in store.shards]
    for _ in range(2_000):
        store.get(rng.randrange(3_000))
    per_shard = store.shard_latencies(shard_snaps)
    agg = store.latency_since(snap, operations=2_000)
    print(f"\nreads: {agg.total_ns:.0f} ns/read modelled; per-shard totals:")
    for index, lat in enumerate(per_shard):
        print(f"  shard {index}: {lat.total_ns:>12,.0f} ns "
              f"(filter {lat.filter_ns:,.0f}, storage {lat.storage_ns:,.0f})")

    # Crash and recover the whole fleet: every shard's manifest, WAL
    # and persisted filter fingerprints round-trip.
    print("\n... power cut! recovering all shards ...")
    state = store.crash()
    recovered = recover_store(state, cfg)
    mismatches = sum(
        1 for key in range(3_000) if recovered.get(key) != reference.get(key)
    )
    assert mismatches == 0
    assert recovered.get(10_000) == "batch-0"
    print(f"  {len(state.shards)} shards recovered, 0 mismatches — "
          f"writes continue.")


if __name__ == "__main__":
    main()
