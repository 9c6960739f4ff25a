"""Bit-packed bucket codec: pack/unpack round-trips under FAC."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.distributions import LidDistribution
from repro.common.counters import MemoryIOCounter
from repro.common.errors import FilterError
from repro.common.hashing import fingerprint_bits
from repro.chucky.bucket import BucketCodec
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.decode import BucketFastTables
from repro.chucky.tables import CodecTables


@pytest.fixture(scope="module")
def codec():
    cb = ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=40)
    return BucketCodec(cb, CodecTables(cb))


def make_slots(codec, lids, key_base=1000):
    """Build realistic slots: real fingerprints for given lids, empties
    for the rest."""
    slots = []
    for i, lid in enumerate(lids):
        fp = fingerprint_bits(key_base + i, codec.codebook.fp_length(lid))
        slots.append((lid, fp))
    while len(slots) < codec.codebook.slots:
        slots.append(codec.empty_slot)
    return slots


class TestCompiledPackFreedByRefcount:
    def test_pack_function_dies_with_its_tables(self):
        """A compiled pack function must not keep itself alive through
        its own globals: dropping a rebuilt codebook's tables frees them
        with the cyclic collector off."""
        cb = ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=40)
        tables = BucketFastTables(cb)
        assert tables.pack_fns
        pack = weakref.ref(next(iter(tables.pack_fns.values())))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del tables
            assert pack() is None
        finally:
            if was_enabled:
                gc.enable()


class TestPackUnpack:
    def test_empty_bucket(self, codec):
        slots = [codec.empty_slot] * 4
        packed, ovf = codec.pack(slots)
        assert ovf is None
        assert packed == codec.empty_packed
        assert codec.unpack(packed) == sorted(slots)

    def test_mixed_bucket(self, codec):
        slots = make_slots(codec, [2, 6, 6])
        packed, ovf = codec.pack(slots)
        assert ovf is None
        assert sorted(codec.unpack(packed)) == sorted(slots)

    def test_wrong_slot_count_rejected(self, codec):
        with pytest.raises(FilterError):
            codec.pack([codec.empty_slot] * 3)

    def test_rare_combo_spills_to_overflow(self, codec):
        """A bucket full of smallest-level LIDs is rare: it packs to the
        B-bit escape code and hands the fingerprints back."""
        rare_combo = codec.codebook.rare[0]
        slots = [
            (lid, fingerprint_bits(i + 1, codec.codebook.fp_length(lid)))
            for i, lid in enumerate(rare_combo)
        ]
        packed, ovf = codec.pack(slots)
        assert ovf is not None
        assert codec.is_rare(packed)
        assert sorted(codec.unpack(packed, ovf)) == sorted(slots)

    def test_rare_without_overflow_rejected(self, codec):
        rare_combo = codec.codebook.rare[0]
        slots = [
            (lid, fingerprint_bits(i + 1, codec.codebook.fp_length(lid)))
            for i, lid in enumerate(rare_combo)
        ]
        packed, _ = codec.pack(slots)
        with pytest.raises(FilterError):
            codec.unpack(packed)

    def test_frequent_is_not_rare(self, codec):
        packed, _ = codec.pack(make_slots(codec, [6, 6]))
        assert not codec.is_rare(packed)

    def test_packed_fits_bucket(self, codec):
        packed, _ = codec.pack(make_slots(codec, [1, 3, 5, 6]) if False else make_slots(codec, [5, 6]))
        assert packed.bit_length() <= codec.codebook.bucket_bits

    def test_requires_fac_codebook(self):
        cb = ChuckyCodebook(
            LidDistribution(5, 4), slots=4, bucket_bits=40, mode="mf"
        )
        with pytest.raises(FilterError):
            BucketCodec(cb, CodecTables(cb))


class TestIOAccounting:
    def test_rare_decode_charges_dt(self):
        mem = MemoryIOCounter()
        cb = ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=40)
        tables = CodecTables(cb, mem)
        codec = BucketCodec(cb, tables)
        rare_combo = cb.rare[0]
        slots = [
            (lid, fingerprint_bits(i + 1, cb.fp_length(lid)))
            for i, lid in enumerate(rare_combo)
        ]
        packed, ovf = codec.pack(slots)
        rt_before = mem.get("filter_rt")
        assert rt_before >= 1  # rare encode touched the recoding table
        codec.unpack(packed, ovf)
        assert mem.get("filter_dt") == 1
        assert tables.dt_accesses == 1

    def test_frequent_decode_is_free(self):
        mem = MemoryIOCounter()
        cb = ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=40)
        tables = CodecTables(cb, mem)
        codec = BucketCodec(cb, tables)
        packed, _ = codec.pack([codec.empty_slot] * 4)
        codec.unpack(packed)
        assert mem.get("filter_dt") == 0
        assert mem.get("filter_rt") == 0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_roundtrip_random_slots(data):
    """Property: any multiset of (lid, realistic fingerprint) slots
    survives pack -> unpack exactly (modulo slot order)."""
    cb = ChuckyCodebook(LidDistribution(4, 5), slots=4, bucket_bits=40)
    codec = BucketCodec(cb, CodecTables(cb))
    n_real = data.draw(st.integers(0, 4))
    lids = data.draw(
        st.lists(
            st.integers(1, cb.dist.num_sublevels), min_size=n_real, max_size=n_real
        )
    )
    keys = data.draw(
        st.lists(st.integers(0, 2**50), min_size=n_real, max_size=n_real)
    )
    slots = [
        (lid, fingerprint_bits(key, cb.fp_length(lid)))
        for lid, key in zip(lids, keys)
    ]
    slots += [(cb.empty_lid, 0)] * (4 - n_real)
    packed, ovf = codec.pack(slots)
    assert sorted(codec.unpack(packed, ovf)) == sorted(slots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_across_geometries(data):
    t = data.draw(st.integers(2, 6))
    l = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(1, min(4, t)))
    cb = ChuckyCodebook(
        LidDistribution(t, l, k, 1), slots=4, bucket_bits=44
    )
    codec = BucketCodec(cb, CodecTables(cb))
    lids = data.draw(
        st.lists(st.integers(1, cb.dist.num_sublevels), min_size=4, max_size=4)
    )
    slots = [
        (lid, fingerprint_bits(data.draw(st.integers(0, 2**40)), cb.fp_length(lid)))
        for lid in lids
    ]
    packed, ovf = codec.pack(slots)
    assert sorted(codec.unpack(packed, ovf)) == sorted(slots)
