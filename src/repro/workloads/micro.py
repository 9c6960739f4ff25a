"""ns/op micro-suite for the probe/insert/decode hot path.

Where ``repro bench`` measures whole-store behaviour (counted I/Os,
modelled latency), this suite times the individual hot operations the
PR-level refactors target — Chucky query/insert, bucket pack/unpack,
prefix decode, cuckoo probe, blocked-Bloom probe — in plain Python
``perf_counter_ns`` loops, best-of-N so scheduler noise mostly cancels.
``repro microbench`` prints the table and can write it as a JSON
artifact carrying the host fingerprint, making before/after comparisons
honest about where they ran.

``bucket_pack`` and ``decode_table`` report ns/op only: the bit-serial
reference codec they used to be timed against left the runtime for
``tests/reference_codec.py``, where ``test_hotpath_identity.py`` still
holds the table decode to >= 2x of it. The comparative cases that remain
report a speedup alongside the ns/op:

* ``chucky_query_many`` — per-key ns of one 64-key ``query_many`` call
  against the same keys through per-key ``query`` (both run the one
  probe loop; the batch shares its setup and its counted-I/O charge);
* ``chucky_maintain_many`` — per-edit ns of a 256-edit merge event
  through one ``maintain_many`` call against the same edits as
  per-entry ``insert`` / ``update_lid`` / ``remove`` calls (one-edit
  calls of the same maintenance loop);
* ``get_batch_fused`` — one ``store.get_batch`` pass (how the server
  executes a run of pipelined GETs) against the per-key ``store.get``
  loop (the same GETs as runs of one);
* ``kv_get_observed`` — a point read on a store with ``repro serve``'s
  observability bundle, against the same store with observability off
  (``reference_ns_per_op``); ``overhead`` is their ratio, the stated
  wall cost of a read's metrics.

``kv_get_hit`` times a point hit on a store (observability off) whose
data is 6x its block cache: the fence search, the block cache and, on
most reads, a device read — the path of the end-to-end ``lookup-hit``
workload.

``store_bytes_per_version`` is a memory row: the bytes ``tracemalloc``
traces per stored version of a durable Chucky store (the end-to-end
benchmark's shape) built and loaded with :data:`STORE_VERSIONS` fresh
keys, then flushed — ``bytes_per_version`` once the load is done,
``peak_bytes_per_version`` at the load's high-water mark. Keys and
values are allocated before tracing starts, so the row counts what the
store holds, and it is the same on every run. Its ``ns_per_op`` is the
traced load's wall time per put, slowed by the tracing itself.
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
from typing import Any, Callable

from repro.chucky.bucket import BucketCodec
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter
from repro.chucky.tables import CodecTables
from repro.coding.distributions import LidDistribution
from repro.common.hashing import fingerprint_bits
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.workloads.bench import host_fingerprint

DIST = LidDistribution(5, 6)


def time_op(
    op: Callable[[int], Any], inner: int = 256, rounds: int = 5
) -> float:
    """Best-of-``rounds`` mean ns per call of ``op`` over ``inner``
    calls; ``op`` receives the loop index (use it to vary the key)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for i in range(inner):
            op(i)
        elapsed = (time.perf_counter_ns() - start) / inner
        best = min(best, elapsed)
    return best


def _loaded_chucky() -> tuple[ChuckyFilter, list[tuple[int, int]]]:
    filt = ChuckyFilter(20000, DIST, bits_per_entry=10.0)
    rng = random.Random(0)
    probs = [float(p) for p in DIST.probabilities()]
    pairs = [
        (k, rng.choices(list(DIST.lids), weights=probs)[0])
        for k in rng.sample(range(1 << 50), 15000)
    ]
    for k, lid in pairs:
        filt.insert(k, lid)
    return filt, pairs


def _codec_fixture():
    cb = ChuckyCodebook(DIST, slots=4, bucket_bits=40)
    codec = BucketCodec(cb, CodecTables(cb))
    slots = [
        (6, fingerprint_bits(1, cb.fp_length(6))),
        (6, fingerprint_bits(2, cb.fp_length(6))),
        (4, fingerprint_bits(3, cb.fp_length(4))),
        (cb.empty_lid, 0),
    ]
    packed, ovf = codec.pack(slots)
    assert not ovf
    return cb, codec, slots, packed


#: Fresh keys the memory row loads.
STORE_VERSIONS = 40_000


def store_bytes_per_version(versions: int = STORE_VERSIONS) -> dict[str, float]:
    """The ``store_bytes_per_version`` row's figures (see the module
    docstring)."""
    from repro.engine import EngineConfig, build_store

    config = EngineConfig.lazy_leveled(
        4, buffer_entries=256, block_entries=32, policy="chucky",
        bits_per_entry=10.0, durable=True,
    )
    keys = random.Random(5).sample(range(1 << 40), versions)
    values = [f"v{i:07d}" for i in range(versions)]
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter_ns()
    store = build_store(config)
    for key, value in zip(keys, values):
        store.put(key, value)
    store.flush()
    elapsed = time.perf_counter_ns() - start
    gc.collect()
    steady, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "ns_per_op": elapsed / versions,
        "bytes_per_version": round(steady / versions, 1),
        "peak_bytes_per_version": round(peak / versions, 1),
    }


def run_micro(inner: int = 256, rounds: int = 5) -> dict[str, Any]:
    """Run the suite; returns the JSON-ready report."""
    cases: list[dict[str, Any]] = []

    def case(name: str, ns: float, **extra: Any) -> None:
        cases.append({"name": name, "ns_per_op": round(ns, 1), **extra})

    filt, pairs = _loaded_chucky()
    keys = [k for k, _ in pairs[:512]]
    case("chucky_query", time_op(
        lambda i: filt.query(keys[i % 512]), inner, rounds))

    # A 64-key batch through the one probe loop against the same keys
    # queried one by one (same answers and counted I/Os by contract).
    many_keys = keys[:64]
    many_ns = time_op(lambda i: filt.query_many(many_keys), 16, rounds) / 64
    each_ns = time_op(
        lambda i: [filt.query(k) for k in many_keys], 16, rounds) / 64
    case("chucky_query_many", many_ns,
         reference_ns_per_op=round(each_ns, 1),
         speedup=round(each_ns / many_ns, 2) if many_ns else None)

    # A 256-edit merge event through the one maintenance loop against
    # the same edits as per-entry insert / update_lid / remove calls
    # (both run the loop; the event shares its setup and its charge):
    # 192 entries move one sub-level down and 64 fresh buffer entries
    # land. The inverse event restores the mappings, so every round
    # starts from the same contents.
    moved = [(k, lid) for k, lid in pairs if lid < DIST.num_sublevels][:192]
    fresh_keys = [k | 1 << 50 for k, _ in pairs[:64]]
    merge = [(k, lid, lid + 1) for k, lid in moved]
    merge += [(k, None, 1) for k in fresh_keys]
    undo = [(k, lid + 1, lid) for k, lid in moved]
    undo += [(k, 1, None) for k in fresh_keys]

    def per_entry(edits) -> None:
        for key, old, new in edits:
            if old is None:
                filt.insert(key, new)
            elif new is None:
                filt.remove(key, old)
            else:
                filt.update_lid(key, old, new)

    event_ns = time_op(
        lambda i: (filt.maintain_many(merge), filt.maintain_many(undo)),
        8, rounds) / 512
    entry_ns = time_op(
        lambda i: (per_entry(merge), per_entry(undo)), 8, rounds) / 512
    case("chucky_maintain_many", event_ns,
         reference_ns_per_op=round(entry_ns, 1),
         speedup=round(entry_ns / event_ns, 2) if event_ns else None)

    fresh = ChuckyFilter(10**6, DIST, bits_per_entry=10.0)
    counter = iter(range(10**9))
    case("chucky_insert", time_op(
        lambda i: fresh.insert(next(counter), 6), inner, rounds))

    cb, codec, slots, packed = _codec_fixture()
    case("bucket_pack", time_op(
        lambda i: codec.pack(slots), inner, rounds))
    case("bucket_unpack", time_op(
        lambda i: codec.unpack(packed, None), inner, rounds))

    tables = CodecTables(cb)
    bits = cb.bucket_bits
    case("decode_table", time_op(
        lambda i: tables.decode_prefix(packed, bits), inner, rounds))

    # A run of pipelined GETs: the server executes it as one
    # store.get_batch call. Time the batched pass against the per-key
    # loop of runs of one (same counted I/Os per key by contract).
    from repro.engine.kvstore import KVStore

    store = KVStore()
    for k in range(4096):
        store.put(k, f"v{k}")
    batch = [(i * 37) % 4096 for i in range(32)]
    batch_ns = time_op(lambda i: store.get_batch(batch), 32, rounds) / 32
    loop_ns = time_op(
        lambda i: [store.get(k) for k in batch], 32, rounds) / 32
    case("get_batch_fused", batch_ns,
         reference_ns_per_op=round(loop_ns, 1),
         speedup=round(loop_ns / batch_ns, 2) if batch_ns else None)

    # A point read on a store with `repro serve`'s observability bundle
    # against the same store with observability off: the wall cost of a
    # read's instruments (counter, latency and sub-level histograms).
    # Half the keys are stored, half absent.
    from repro.engine import EngineConfig, build_store
    from repro.obs import Observability

    def loaded(observability):
        kv = build_store(EngineConfig(), observability=observability)
        for k in range(0, 8192, 2):
            kv.put(k, f"v{k}")
        return kv

    observed = loaded(Observability(trace_ring=0))
    plain = loaded(None)
    # 12288 stored keys in 32-entry blocks: 384 blocks, 6x the cache.
    cached = build_store(EngineConfig(cache_blocks=64))
    for k in range(12288):
        cached.put(k, f"v{k}")
    cached.flush()
    # Interleaved rounds, best of at least five: a ratio of two close
    # timings must not rest on one noisy stretch of either side.
    reads = [(i * 37) % 8192 for i in range(256)]
    hits = [(i * 7919) % 12288 for i in range(256)]
    observed_ns = plain_ns = hit_ns = float("inf")
    for _ in range(max(rounds, 5)):
        observed_ns = min(
            observed_ns, time_op(lambda i: observed.get(reads[i]), 256, 1))
        plain_ns = min(plain_ns, time_op(lambda i: plain.get(reads[i]), 256, 1))
        hit_ns = min(hit_ns, time_op(lambda i: cached.get(hits[i]), 256, 1))
    case("kv_get_observed", observed_ns,
         reference_ns_per_op=round(plain_ns, 1),
         overhead=round(observed_ns / plain_ns, 2) if plain_ns else None)
    case("kv_get_hit", hit_ns)

    cuckoo = CuckooFilter(20000, fingerprint_bits=12)
    for k in range(15000):
        cuckoo.add(k)
    case("cuckoo_query", time_op(
        lambda i: cuckoo.may_contain(i), inner, rounds))

    bloom = BlockedBloomFilter(20000, 10.0)
    for k in range(15000):
        bloom.add(k)
    case("blocked_bloom_query", time_op(
        lambda i: bloom.may_contain(i), inner, rounds))

    memory = store_bytes_per_version()
    case("store_bytes_per_version", memory.pop("ns_per_op"), **memory)

    return {
        "suite": "micro",
        "inner": inner,
        "rounds": rounds,
        "host": host_fingerprint(),
        "cases": cases,
    }


def format_micro(report: dict[str, Any]) -> str:
    lines = [
        f"microbench: best-of-{report['rounds']}, "
        f"{report['inner']} calls/round"
    ]
    for row in report["cases"]:
        line = f"  {row['name']:24s} {row['ns_per_op']:>10,.1f} ns/op"
        if "speedup" in row and row["speedup"] is not None:
            line += f"  ({row['speedup']:.2f}x vs reference)"
        if row.get("overhead") is not None:
            line += f"  ({row['overhead']:.2f}x the unobserved read)"
        if "bytes_per_version" in row:
            line += (
                f"  ({row['bytes_per_version']:.1f} B per stored version, "
                f"{row['peak_bytes_per_version']:.1f} at peak)"
            )
        lines.append(line)
    return "\n".join(lines)
