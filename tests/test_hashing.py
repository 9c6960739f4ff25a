"""Hashing and fingerprint derivation — especially the prefix property
Malleable Fingerprinting depends on."""

import functools
import operator
from itertools import count, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    BUCKET_SEED,
    FP_MIN,
    alt_offset,
    digest_pair,
    digest_pairs,
    fingerprint_bits,
    fold64,
    fp_digest,
    key_digest,
    seeded,
    splitmix64,
)

#: Keys of every kind a digest accepts: ints (negative, >= 2^64, bool),
#: str and bytes.
KEYS = st.one_of(
    st.integers(-(2**70), 2**70), st.booleans(), st.text(), st.binary()
)


@functools.total_ordering
class IntLike:
    """An int-like key that is not an int, as ``numpy.int64`` is: it
    has ``__index__``, and orders and hashes as its index."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        return self.value == operator.index(other)

    def __lt__(self, other) -> bool:
        return self.value < operator.index(other)

    def __hash__(self) -> int:
        return hash(self.value)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_spreads_consecutive_inputs(self):
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000

    def test_stays_in_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64


class TestKeyDigest:
    def test_int_str_bytes_supported(self):
        assert isinstance(key_digest(42), int)
        assert isinstance(key_digest("hello"), int)
        assert isinstance(key_digest(b"hello"), int)

    def test_str_equals_its_utf8_bytes(self):
        assert key_digest("hello") == key_digest(b"hello")

    def test_seed_decorrelates(self):
        assert key_digest(42, seed=0) != key_digest(42, seed=1)

    def test_long_bytes(self):
        a = key_digest(b"x" * 100)
        b = key_digest(b"x" * 99 + b"y")
        assert a != b

    @given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=12))
    def test_int_like_key_hashes_as_its_index(self, values):
        """Every digest path reads an ``__index__``-only key as its
        index — the scalar ones as the bulk ``digest_pairs`` does."""
        keys = [IntLike(v) for v in values]
        assert [key_digest(k, 7) for k in keys] == [key_digest(v, 7) for v in values]
        assert _pairs(keys) == _pairs(values)
        assert list(zip(*digest_pairs(keys))) == _pairs(values)

    @pytest.mark.parametrize("key", [1.5, None, object()])
    def test_other_key_types_are_refused_by_name(self, key):
        name = type(key).__name__
        with pytest.raises(TypeError, match=f"key of type '{name}'"):
            key_digest(key)
        with pytest.raises(TypeError, match=f"key of type '{name}'"):
            digest_pair(key)
        with pytest.raises(TypeError, match=f"key of type '{name}'"):
            digest_pairs([key] * 9)


def _bound_digests():
    """Every seed constant ``src/`` binds at import, beside the closure
    it bound — so a seed that drifts fails here before it moves a golden
    digest."""
    from repro.chucky import partitioned
    from repro.common import hashing
    from repro.engine import sharded
    from repro.filters import blocked_bloom, cuckoo, quotient

    return [
        (1, hashing._fingerprint_digest),
        (4000, hashing._bucket_digest),
        (3000, cuckoo._bucket_digest),
        (sharded.SHARD_SEED, sharded._shard_digest),
        (5000, partitioned._partition_digest),
        (blocked_bloom._BLOCK_SEED, blocked_bloom._block_digest),
        (blocked_bloom._PROBE_SEED, blocked_bloom._probe_digest),
        (8100, quotient._quotient_digest),
    ]


class TestSeeded:
    """``seeded(s)`` is ``key_digest(., s)`` with the seed's mix hoisted:
    an identity, not a new hash."""

    @given(KEYS, st.integers(0, 2**64))
    def test_equals_key_digest_for_any_seed(self, key, seed):
        assert seeded(seed)(key) == key_digest(key, seed)

    @given(KEYS)
    def test_every_bound_seed_constant(self, key):
        for seed, bound in _bound_digests():
            assert bound(key) == key_digest(key, seed), seed

    @given(KEYS)
    def test_fp_digest_is_the_forced_seed_1_digest(self, key):
        digest = key_digest(key, seed=1)
        if digest >> (64 - FP_MIN) == 0:
            digest |= 1 << (64 - FP_MIN)
        assert fp_digest(key) == digest
        assert fp_digest(key) >> (64 - FP_MIN) != 0

    @given(KEYS, st.integers(FP_MIN, 64))
    def test_fingerprint_bits_is_a_prefix_of_fp_digest(self, key, length):
        assert fingerprint_bits(key, length) == fp_digest(key) >> (64 - length)

    def test_forcing_fires_on_a_zero_prefix(self, monkeypatch):
        """No small key has an all-zero prefix, so pin the branch with a
        digest that does."""
        from repro.common import hashing

        monkeypatch.setattr(hashing, "_fingerprint_digest", lambda key: 0x7FF)
        assert fp_digest(0) == (1 << (64 - FP_MIN)) | 0x7FF


class TestDigestPair:
    """``digest_pair`` inlines SplitMix64 for int keys: it must stay the
    pair of seeded digests it replaced, for every kind of key."""

    @given(KEYS)
    def test_equals_fp_digest_and_the_bucket_digest(self, key):
        assert digest_pair(key) == (fp_digest(key), seeded(4000)(key))

    def test_forced_prefix_matches_fp_digest(self):
        """An int key whose seed-1 digest has a zero ``FP_MIN`` prefix
        is forced the same way on both paths."""
        key = next(
            k for k in range(200_000) if key_digest(k, 1) >> (64 - FP_MIN) == 0
        )
        assert digest_pair(key)[0] == fp_digest(key) != key_digest(key, 1)


#: Int keys whose seed-1 digest has an all-zero ``FP_MIN`` prefix: the
#: ones ``fp_digest`` forces a prefix bit on.
_ZERO_PREFIX_KEYS = list(
    islice((k for k in count() if key_digest(k, 1) >> (64 - FP_MIN) == 0), 40)
)


def _pairs(keys):
    return [digest_pair(key) for key in keys]


class TestTwoLaneDigestPair:
    """An int key's ``digest_pair`` runs both SplitMix64 mixes as two
    128-bit lanes of one int: each lane must compute exactly its scalar
    digest (no lane reads the other's bits), and the batched
    ``digest_pairs`` must still agree with it."""

    @settings(max_examples=400, deadline=None)
    @given(KEYS)
    @example(True)
    @example(False)
    @example(0)
    @example(2**64 - 1)
    @example(2**64)
    @example(-(2**70))
    @example(2**70)
    @example("")
    @example(b"\xff" * 9)
    def test_equals_the_two_seeded_digests(self, key):
        assert digest_pair(key) == (fp_digest(key), seeded(BUCKET_SEED)(key))

    @pytest.mark.parametrize("key", _ZERO_PREFIX_KEYS[:8])
    def test_forced_prefix(self, key):
        assert digest_pair(key) == (fp_digest(key), seeded(BUCKET_SEED)(key))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(KEYS, max_size=40))
    @example([True, False, 0, 2**64 - 1, 2**64, -1, "a", b"b"] * 2)
    def test_digest_pairs_agrees(self, keys):
        assert list(zip(*digest_pairs(keys))) == list(map(digest_pair, keys))


class TestDigestPairs:
    """``digest_pairs`` runs SplitMix64 on whole chunks of keys at once
    (SWAR lanes of one big int): it must be ``digest_pair`` of every key,
    whatever the keys and however many."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**20)),
            max_size=600,
        )
    )
    def test_int_keys_across_chunks(self, keys):
        """Lengths 0-600 cross the 8-key fallback and the 256-key
        chunk."""
        assert list(zip(*digest_pairs(keys))) == _pairs(keys)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(KEYS, max_size=300))
    @example([-1] * 9 + ["a"])  # masking is tried, then falls back
    @example([2**64] * 9 + [b"x", True])
    def test_any_keys(self, keys):
        """Negative ints, ints >= 2^64, bools, str, bytes, mixed."""
        assert list(zip(*digest_pairs(keys))) == _pairs(keys)

    @given(st.lists(st.integers(-(2**70), 2**70), min_size=8, max_size=300))
    def test_ints_outside_64_bits_are_masked(self, keys):
        assert list(zip(*digest_pairs(keys))) == _pairs(keys)

    @pytest.mark.parametrize("size", [8, 40])
    def test_forced_prefix_lanes(self, size):
        """Every fp lane with a zero prefix gets the forced bit, beside
        lanes that do not."""
        keys = [k for pair in zip(_ZERO_PREFIX_KEYS, range(40)) for k in pair]
        keys = keys[:size]
        fps, buckets = digest_pairs(keys)
        assert list(zip(fps, buckets)) == _pairs(keys)
        assert sum(fp >> (64 - FP_MIN) == 1 for fp in fps) >= size // 2

    def test_returns_lists(self):
        for keys in ([], [1, 2], list(range(300))):
            fps, buckets = digest_pairs(keys)
            assert type(fps) is list and type(buckets) is list
            assert len(fps) == len(buckets) == len(keys)


def _fold_per_slice(acc: int, data: bytes) -> int:
    """The fold ``fold64`` replaced: one ``int.from_bytes`` slice and one
    ``splitmix64`` call per 8 bytes (the WAL checksum's old loop)."""
    for i in range(0, len(data), 8):
        acc = splitmix64(acc ^ int.from_bytes(data[i : i + 8], "little"))
    return acc


class TestFold64:
    @given(st.binary(max_size=300), st.integers(0, 2**64 - 1))
    def test_equals_the_per_slice_fold(self, data, acc):
        """A short tail folds as its zero-padded word, so the word-wise
        fold equals the slice-wise one on every length."""
        assert fold64(acc, data) == _fold_per_slice(acc, data)


class TestFingerprintPrefixProperty:
    @given(st.integers(0, 2**62), st.integers(FP_MIN, 30), st.integers(FP_MIN, 30))
    def test_all_lengths_share_fp_min_prefix(self, key, len_a, len_b):
        """The core MF requirement: every fingerprint length of one key
        agrees on the first FP_MIN bits, so the bucket pair is shared."""
        fa = fingerprint_bits(key, len_a)
        fb = fingerprint_bits(key, len_b)
        assert fa >> (len_a - FP_MIN) == fb >> (len_b - FP_MIN)

    @given(st.integers(0, 2**62), st.integers(FP_MIN, 40))
    def test_longer_is_extension_of_shorter(self, key, length):
        short = fingerprint_bits(key, length)
        longer = fingerprint_bits(key, length + 3)
        assert longer >> 3 == short

    @given(st.integers(0, 2**62), st.integers(FP_MIN, 40))
    def test_never_zero(self, key, length):
        """Zero is reserved for empty Chucky slots."""
        assert fingerprint_bits(key, length) != 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_bits(1, FP_MIN - 1)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_bits(1, 65)


class TestBucketPair:
    """Eq 4's xor pair, over :func:`alt_offset` (the plain Cuckoo
    filter's ``b2 = b1 ^ alt_offset(fp)``)."""

    @given(st.integers(0, 2**62), st.integers(0, (1 << 10) - 1))
    def test_xor_alternative_is_involution(self, key, b1):
        num_buckets = 1 << 10
        off = alt_offset(fingerprint_bits(key, 12), 12, num_buckets)
        b2 = b1 ^ off
        assert 0 <= b2 < num_buckets
        assert b2 ^ off == b1

    @given(st.integers(0, 2**62))
    def test_buckets_differ(self, key):
        assert alt_offset(fingerprint_bits(key, 12), 12, 1 << 8) != 0

    @given(st.integers(0, 2**62), st.integers(FP_MIN, 20), st.integers(FP_MIN, 20))
    def test_pair_independent_of_fp_length(self, key, len_a, len_b):
        """Different malleable lengths of one key map to the same pair."""
        n = 1 << 9
        off_a = alt_offset(fingerprint_bits(key, len_a), len_a, n)
        off_b = alt_offset(fingerprint_bits(key, len_b), len_b, n)
        assert off_a == off_b

    def test_alt_offset_requires_min_length(self):
        with pytest.raises(ValueError):
            alt_offset(0b1111, 4, 1 << 8)
