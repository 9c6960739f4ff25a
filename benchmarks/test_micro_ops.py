"""Micro-benchmarks of the core operations (library-performance view).

Not a paper figure: wall-clock timings of the hot operations so
regressions in the implementation itself are visible. The paper-shape
benches measure counted I/Os; these measure Python time.
"""

import random

import pytest

from repro.coding.distributions import LidDistribution
from repro.coding.huffman import huffman_code_lengths
from repro.common.hashing import fingerprint_bits
from repro.chucky.bucket import BucketCodec
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.filter import ChuckyFilter
from repro.chucky.tables import CodecTables
from repro.filters.blocked_bloom import BlockedBloomFilter

DIST = LidDistribution(5, 6)


@pytest.fixture(scope="module")
def loaded_chucky():
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


def test_chucky_query(benchmark, loaded_chucky):
    filt, pairs = loaded_chucky
    keys = [k for k, _ in pairs[:512]]
    i = iter(range(10**9))
    result = benchmark(lambda: filt.query(keys[next(i) % len(keys)]))
    assert isinstance(result, list)


def test_chucky_insert(benchmark):
    filt = ChuckyFilter(10**6, DIST, bits_per_entry=10.0)
    counter = iter(range(10**9))
    benchmark(lambda: filt.insert(next(counter), 6))


def test_chucky_update_lid(benchmark, loaded_chucky):
    filt, pairs = loaded_chucky
    movable = [(k, lid) for k, lid in pairs if lid < DIST.num_sublevels][:2000]
    state = {"i": 0}

    def update():
        k, lid = movable[state["i"] % len(movable)]
        state["i"] += 1
        filt.update_lid(k, lid, lid + 1)
        filt.update_lid(k, lid + 1, lid)  # restore

    benchmark(update)


def test_cuckoo_query(benchmark):
    from repro.filters.cuckoo import CuckooFilter

    filt = CuckooFilter(20000, fingerprint_bits=12)
    for k in range(15000):
        filt.add(k)
    i = iter(range(10**9))
    benchmark(lambda: filt.may_contain(next(i)))


def test_bucket_unpack(benchmark):
    """The fused table-driven decode path on its own (the pack/unpack
    roundtrip below times both directions together)."""
    cb = ChuckyCodebook(DIST, slots=4, bucket_bits=40)
    codec = BucketCodec(cb, CodecTables(cb))
    packed, ovf = codec.pack([
        (6, fingerprint_bits(1, cb.fp_length(6))),
        (6, fingerprint_bits(2, cb.fp_length(6))),
        (4, fingerprint_bits(3, cb.fp_length(4))),
        (cb.empty_lid, 0),
    ])
    assert not ovf
    result = benchmark(lambda: codec.unpack(packed, None))
    assert len(result) == 4


def test_blocked_bloom_query(benchmark):
    filt = BlockedBloomFilter(20000, 10.0)
    for k in range(15000):
        filt.add(k)
    i = iter(range(10**9))
    benchmark(lambda: filt.may_contain(next(i)))


def test_bucket_codec_roundtrip(benchmark):
    cb = ChuckyCodebook(DIST, slots=4, bucket_bits=40)
    codec = BucketCodec(cb, CodecTables(cb))
    slots = [
        (6, fingerprint_bits(1, cb.fp_length(6))),
        (6, fingerprint_bits(2, cb.fp_length(6))),
        (4, fingerprint_bits(3, cb.fp_length(4))),
        (cb.empty_lid, 0),
    ]

    def roundtrip():
        packed, ovf = codec.pack(slots)
        return codec.unpack(packed, ovf)

    result = benchmark(roundtrip)
    assert len(result) == 4


def test_codebook_construction(benchmark):
    """Section 4.3 claims codebook construction is 'a fraction of a
    second'; it only runs when the level count changes."""
    result = benchmark(
        lambda: ChuckyCodebook(DIST, slots=4, bucket_bits=40)
    )
    assert result.overflow_probability() < 0.001


def test_huffman_construction(benchmark):
    weights = ChuckyCodebook(DIST, slots=4, bucket_bits=40).probabilities
    lengths = benchmark(lambda: huffman_code_lengths(weights))
    assert len(lengths) == len(weights)
