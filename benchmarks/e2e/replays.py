"""Isolated replays: public functions the hot path calls too often, or
binds too early, to wrap with a span. Each is timed on inputs sampled
from the run that just finished (the keys it read, the two buckets each
probe touched, the requests it would have put on the wire).
"""

from __future__ import annotations

import random

from harness import batch_median_ns, median, now, store_config, value_for

SAMPLE = 2_048
OBS_PROBE_KEYS = 4_096


def filter_of(store):
    """The Chucky filter of a store (first shard of a sharded one)."""
    shard = getattr(store, "shards", [store])[0]
    return shard.policy.filter


def hashing_and_codec(filt, keys) -> dict[str, float]:
    """``bucket_pair`` (digest + both bucket indexes) and the bucket
    codec on the buckets those keys map to."""
    keys = keys[:SAMPLE]
    out = {"hashing.digest_pair_ns": batch_median_ns(filt.bucket_pair, keys)}
    codec = filt.codec
    packed = []
    for key in keys:
        for bucket in filt.bucket_pair(key):
            # The one private read in the benchmark: the packed word of a
            # bucket has no public accessor short of persisting the filter.
            packed.append((filt._buckets[bucket], filt.overflow.get(bucket)))
    out["chucky.bucket.unpack_ns"] = batch_median_ns(
        lambda item: codec.unpack(item[0], item[1]), packed
    )
    slots = [codec.unpack(word, overflow) for word, overflow in packed]
    out["chucky.bucket.pack_ns"] = batch_median_ns(codec.pack, slots)
    return out


def protocol(read_keys, write_keys) -> dict[str, float]:
    """Encode/decode of the run's own requests and their responses,
    framing included (``frame`` / ``FrameAssembler.feed``)."""
    from repro.server.protocol import (
        FrameAssembler,
        Op,
        Request,
        Response,
        Status,
        decode_request,
        decode_response,
        encode_request,
        encode_response,
        frame,
    )

    requests, responses = [], []
    for rid, key in enumerate(read_keys[: SAMPLE // 2], start=1):
        requests.append(Request(rid, Op.GET, key=key))
        responses.append(
            Response(rid, Op.GET, Status.OK, value=value_for(key).encode())
        )
    for rid, key in enumerate(write_keys[: SAMPLE // 2], start=len(requests) + 1):
        requests.append(Request(rid, Op.PUT, key=key, value=value_for(key).encode()))
        responses.append(Response(rid, Op.PUT, Status.OK))
    order = list(range(len(requests)))
    random.Random(0).shuffle(order)  # interleave GETs and PUTs
    requests = [requests[i] for i in order]
    responses = [responses[i] for i in order]
    wire_requests = [frame(encode_request(r)) for r in requests]
    wire_responses = [frame(encode_response(r)) for r in responses]
    assembler = FrameAssembler()
    ns = {
        "encode_request": batch_median_ns(
            lambda r: frame(encode_request(r)), requests
        ),
        "decode_request": batch_median_ns(
            lambda b: decode_request(assembler.feed(b)[0]), wire_requests
        ),
        "encode_response": batch_median_ns(
            lambda r: frame(encode_response(r)), responses
        ),
        "decode_response": batch_median_ns(
            lambda b: decode_response(assembler.feed(b)[0]), wire_responses
        ),
    }
    return {f"server.protocol.{name}_us": value / 1e3 for name, value in ns.items()}


def route_us(store, keys) -> float:
    """``ShardedKVStore.get`` minus the owning shard's ``KVStore.get`` on
    the same key, call by call. Whichever call goes second finds the data
    warm, so the order alternates and the two halves are averaged. A
    single store is wrapped as a one-shard router."""
    from repro.engine.sharded import ShardedKVStore

    sharded = store if hasattr(store, "shards") else ShardedKVStore([store])
    routed_get = sharded.get
    routed_first, direct_first = [], []
    for index, key in enumerate(keys[:SAMPLE]):
        direct_get = sharded.shard_for(key).get
        if index % 2:
            t0 = now()
            routed_get(key)
            t1 = now()
            direct_get(key)
            t2 = now()
            routed_first.append((t1 - t0) - (t2 - t1))
        else:
            t0 = now()
            direct_get(key)
            t1 = now()
            routed_get(key)
            t2 = now()
            direct_first.append((t2 - t1) - (t1 - t0))
    return (median(routed_first) + median(direct_first)) / 2 / 1e3


def obs_overhead_ratio(seed: int) -> float:
    """``KVStore.get`` with an enabled ``Observability`` over the default,
    on two small stores holding the same keys."""
    from repro.engine.config import build_store
    from repro.obs import Observability

    rng = random.Random(seed)
    keys = [2 * k for k in range(OBS_PROBE_KEYS)]
    rng.shuffle(keys)
    stores = [
        build_store(store_config()),
        build_store(store_config(), observability=Observability()),
    ]
    for store in stores:
        for key in keys:
            store.put(key, value_for(key))
        store.flush()
    probes = [rng.choice(keys) for _ in range(OBS_PROBE_KEYS)]
    plain, observed = [], []
    for _ in range(3):
        plain.append(batch_median_ns(stores[0].get, probes))
        observed.append(batch_median_ns(stores[1].get, probes))
    return median(observed) / median(plain)
