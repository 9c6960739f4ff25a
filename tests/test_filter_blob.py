"""A persisted Chucky filter proves itself, or the store rebuilds it.

The blob is the filter's words — header, bucket words, overflow runs,
AHT rows — under a CRC-32 trailer (paper section 4.5: recovery reads
only the fingerprints). A damaged blob must never recover a filter that
has lost a key: :meth:`ChuckyFilter.recover` refuses it with
:class:`FilterError` and nothing else, and ``ChuckyPolicy.recover``
falls back to the scan of the runs, counting one
``filter_recover_fallbacks_total``.
"""

import random
import struct
import tracemalloc
import zlib
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chucky.filter import ChuckyFilter
from repro.coding.distributions import LidDistribution
from repro.common.errors import FilterError
from repro.engine.config import EngineConfig, build_store, recover_store
from repro.obs import Observability

HEADER = struct.Struct("=6Q")
FIELDS = ("buckets", "slots", "bucket_bits", "entries", "ovf_words", "aht_rows")
CRC = 4


def _regions(blob: bytes) -> dict[str, tuple[int, int]]:
    """Byte ranges of a blob's parts, from its own header."""
    header = dict(zip(FIELDS, HEADER.unpack_from(blob)))
    buckets_end = HEADER.size + 8 * header["buckets"]
    ovf_end = buckets_end + 8 * header["ovf_words"]
    return {
        "header": (0, HEADER.size),
        "body": (HEADER.size, buckets_end),
        "overflow": (buckets_end, ovf_end),
        "aht": (ovf_end, len(blob) - CRC),
        "crc": (len(blob) - CRC, len(blob)),
    }


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _flip_field(blob: bytes, field: str, bit: int) -> bytes:
    """``blob`` with bit ``bit`` of one header field flipped."""
    out = bytearray(blob)
    offset = 8 * FIELDS.index(field)
    (value,) = struct.unpack_from("=Q", out, offset)
    struct.pack_into("=Q", out, offset, value ^ (1 << bit))
    return bytes(out)


def _forge(fields, words=()) -> bytes:
    """A blob whose CRC is right for whatever it claims."""
    body = HEADER.pack(*fields) + struct.pack(f"={len(words)}Q", *words)
    return body + struct.pack("=I", zlib.crc32(body))


# ----------------------------------------------------------------------
# Store level: every corruption recovers every acked key
# ----------------------------------------------------------------------

#: Tiered, small buffer, one hot key rewritten every tenth put: a 3 300
#: put store whose blob carries overflow runs and AHT rows too.
CONFIG = EngineConfig.tiered(size_ratio=5, buffer_entries=32, durable=True)


def _crash(late_puts: int):
    """A crash of the store, and the acked value of every key."""
    store = build_store(CONFIG)
    rng = random.Random(1)
    acked = {}
    for i in range(3000 + late_puts):
        for key in (rng.getrandbits(40),) + ((7,) if i % 10 == 0 else ()):
            store.put(key, b"v%d" % i)
            acked[key] = b"v%d" % i
    return store.crash(), acked


@pytest.fixture(scope="module")
def crashed():
    """``(state, acked, later)``: a crash state, the acked value of
    every key, and the blob of the same store 20 puts later to splice
    with."""
    state, acked = _crash(0)
    later = _crash(20)[0].filter_blob
    blob = state.filter_blob
    regions = _regions(blob)
    assert all(hi > lo for lo, hi in regions.values()), regions
    lo, hi = regions["body"]
    assert later[lo:hi] != blob[lo:hi] and _regions(later)["body"] == (lo, hi)
    return state, acked, later


def _corruptions(blob: bytes, later: bytes) -> dict[str, bytes]:
    """Bit flips in every part, truncations and splices. (Each recovery
    builds its codebook, ~0.3 s, so the set is small; the properties
    below range over every bit.)"""
    rng = random.Random(1)
    out = {
        "buckets bit 0": _flip_field(blob, "buckets", 0),
        "buckets bit 31": _flip_field(blob, "buckets", 31),
        "buckets bit 40": _flip_field(blob, "buckets", 40),
        "truncated by 1 B": blob[:-1],
        "truncated by half": blob[: len(blob) // 2],
        "spliced with a later blob": blob[: len(blob) // 2] + later[len(blob) // 2 :],
    }
    regions = _regions(blob)
    lo, hi = regions["body"]
    out["the later blob's buckets"] = blob[:lo] + later[lo:hi] + blob[hi:]
    for region in ("body", "overflow", "aht", "crc"):
        lo, hi = regions[region]
        bit = rng.randrange(8 * lo, 8 * hi)
        out[f"{region} bit {bit}"] = _flip(blob, bit)
    return out


def _recover(state, blob):
    obs = Observability()
    store = recover_store(replace(state, filter_blob=blob), CONFIG, observability=obs)
    fallbacks = obs.registry.get("filter_recover_fallbacks_total")
    return store, 0 if fallbacks is None else fallbacks.value


def test_every_corruption_rebuilds_and_keeps_every_acked_key(crashed):
    state, acked, later = crashed
    corruptions = _corruptions(state.filter_blob, later)
    for name, blob in corruptions.items():
        store, fallbacks = _recover(state, blob)
        lost = [key for key, value in acked.items() if store.get(key) != value]
        assert lost == [], f"{name}: lost {len(lost)} acked keys"
        assert fallbacks == 1, name


def test_a_clean_blob_restores_at_one_memory_io_per_bucket(crashed):
    """Section 4.5's cost: one ``filter`` memory I/O per restored bucket,
    no storage read, no fallback."""
    state, acked, _ = crashed
    store, fallbacks = _recover(state, state.filter_blob)
    assert fallbacks == 0
    assert store.counters.storage.reads == 0
    assert store.counters.memory.get("filter") == HEADER.unpack_from(
        state.filter_blob
    )[0]
    assert all(store.get(key) == value for key, value in acked.items())


# ----------------------------------------------------------------------
# Filter level: a damaged blob raises FilterError and nothing else
# ----------------------------------------------------------------------

DIST = LidDistribution(5, 6)


def _filter_blobs() -> tuple[bytes, bytes]:
    """Two blobs of one filter (overflow and AHT non-empty), before and
    after a few more inserts."""
    f = ChuckyFilter(400, DIST)
    rng = random.Random(13)
    for k in rng.sample(range(10**9), 200):
        f.insert(k, 1)
    for _ in range(12):
        f.insert(42, 6)
    assert f.overflow and f.aht
    first = f.persist()
    for k in rng.sample(range(10**9), 5):
        f.insert(k, 2)
    return first, f.persist()


BLOB, LATER = _filter_blobs()


def _refused(blob: bytes) -> None:
    with pytest.raises(FilterError):
        ChuckyFilter.recover(blob, DIST, bits_per_entry=10.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8 * len(BLOB) - 1))
def test_any_bit_flip_is_refused(bit):
    _refused(_flip(BLOB, bit))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(BLOB) - 1))
def test_any_truncation_is_refused(length):
    _refused(BLOB[:length])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(BLOB)), st.booleans())
def test_any_splice_is_refused(cut, later_first):
    first, second = (LATER, BLOB) if later_first else (BLOB, LATER)
    spliced = first[:cut] + second[cut:]
    assume(spliced not in (BLOB, LATER))
    _refused(spliced)


def test_the_clean_blob_recovers():
    g = ChuckyFilter.recover(BLOB, DIST, bits_per_entry=10.0)
    assert g.persist() == BLOB


def test_a_forged_bucket_count_raises_before_allocating():
    """A CRC-valid header claiming 2**31 buckets (16 GiB of words) is
    refused on its length, before anything near that is allocated."""
    forged = _forge((2**31, 4, 40, 0, 0, 0))
    tracemalloc.start()
    try:
        _refused(forged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "fields, words",
    [
        ((1, 4, 40, 0, 0, 0), [0]),  # below the two-bucket minimum
        ((2, 8, 40, 0, 0, 0), [0, 0]),  # another S
        ((2, 4, 48, 0, 0, 0), [0, 0]),  # another bucket width
        ((2, 4, 40, 0, 2, 0), [0, 0, 1, 5]),  # a run past its table
        ((2, 4, 40, 0, 2, 0), [0, 0, 9, 0]),  # an empty run
        ((2, 4, 40, 0, 3, 0), [0, 0, 2, 1, 7]),  # a bucket past the end
        ((2, 4, 40, 0, 1, 0), [0, 0, 1]),  # an index without a count
    ],
)
def test_a_forged_blob_with_a_valid_crc_is_refused(fields, words):
    _refused(_forge(fields, words))
