"""Serving the store over TCP: protocol, group commit, drain, recovery.

``repro.server`` puts an asyncio front-end over any store
``build_store`` returns: a length-prefixed binary protocol with
pipelining, a group-commit writer that coalesces concurrent writes
into crash-atomic ``put_batch`` calls, admission control that sheds
overload with BUSY, and a graceful drain that leaves every
acknowledged write recoverable. This example boots a 4-shard durable
store in process, talks to it with the client (from the event loop
and from another thread), shows the group-commit coalescing in the WAL
accounting, then drains and crash-recovers.

Run with::

    python examples/server_quickstart.py
"""

import asyncio

from repro import EngineConfig, build_store, recover_store
from repro.server import AsyncClient, ReproServer, ServerConfig

SHARDS = 4


async def main() -> None:
    cfg = EngineConfig.lazy_leveled(
        size_ratio=4, buffer_entries=64, block_entries=8,
        policy="chucky", bits_per_entry=10, durable=True, shards=SHARDS,
    )
    store = build_store(cfg)
    server = ReproServer(store, ServerConfig(port=0, max_queue_depth=256))
    port = await server.start()
    print(f"serving a {SHARDS}-shard store on 127.0.0.1:{port}")

    # -- the pipelined asyncio client ---------------------------------
    client = await AsyncClient.connect("127.0.0.1", port)
    await client.put(1, "one")
    await client.put(2, "two")
    print("get(1) ->", await client.get(1))
    await client.delete(1)
    print("get(1) after delete ->", await client.get(1))
    await client.put_batch([(k, f"bulk{k}") for k in range(10, 15)])
    print("scan(10, 14) ->", await client.scan(10, 14))

    # -- group commit under concurrency -------------------------------
    # 200 pipelined PUTs: the writes the server reads in one event-loop
    # pass become ONE put_batch call in the next (one WAL batch record
    # per touched shard), so the WAL sees far fewer records than
    # logical writes.
    burst = 200
    await asyncio.gather(*(client.put(1000 + k, f"v{k}") for k in range(burst)))
    print(
        f"{burst} concurrent PUTs -> {server.commit.batches} commit "
        f"batches, {store.wal_batch_records} WAL batch records"
    )

    # -- the same client, from any thread -----------------------------
    # A thread (or a script) gives the client its own event loop with
    # asyncio.run; nothing else changes.
    async def round_trip() -> bytes | None:
        kv = await AsyncClient.connect("127.0.0.1", port)
        await kv.put(9001, "from-a-thread")
        value = await kv.get(9001)
        await kv.close()
        return value

    value = await asyncio.get_running_loop().run_in_executor(
        None, lambda: asyncio.run(round_trip())
    )
    print("round-trip from another thread ->", value)

    # -- STATS over the wire ------------------------------------------
    stats = await client.stats()
    print(
        "server stats: {requests} requests, {shed} shed, {errors} errors"
        .format(**stats["server"])
    )
    print("store holds", stats["store"]["num_entries"], "entries")

    # -- graceful drain, then crash recovery --------------------------
    await client.shutdown()          # server finishes in-flight, flushes
    await server.serve_until_drained()
    await client.close()
    print("server drained")

    recovered = recover_store(store.crash(), cfg)
    assert recovered.get(2) == "two"
    assert recovered.get(1000) == "v0"
    assert recovered.get(9001) == "from-a-thread"
    print("crash recovery: every acknowledged write survived")


if __name__ == "__main__":
    asyncio.run(main())
