"""Deterministic 64-bit hashing and fingerprint derivation.

Chucky's Malleable Fingerprinting assigns *different fingerprint lengths*
to versions of the same key at different LSM-tree levels, yet all
versions must land in the same pair of Cuckoo-filter buckets (paper
section 4.3). We achieve this the way the paper prescribes: a
fingerprint of length F is the *top F bits* of a fixed 64-bit digest, so
every fingerprint of a key shares its first ``FP_MIN`` bits, and the
partial-key bucket computation (Eq 4) uses only those shared bits.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from typing import Callable, Sequence

_MASK64 = (1 << 64) - 1
#: The little-endian 64-bit words of a buffer whose length is a
#: multiple of 8.
_words = struct.Struct("<Q").iter_unpack

#: Minimum fingerprint length in bits (paper section 4.3 sets this to 5,
#: following the original Cuckoo-filter paper, so that the two candidate
#: buckets are independent enough for 95% occupancy).
FP_MIN = 5


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, high-quality 64-bit mix function.

    Used for key digests, bucket addressing and fingerprint-to-offset
    hashing. Deterministic across runs and platforms.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fold64(acc: int, data: bytes) -> int:
    """``acc = splitmix64(acc ^ word)`` for each little-endian 64-bit
    word of ``data``, a short tail read as its zero-padded word (which
    is what ``int.from_bytes(tail, "little")`` reads it as).

    The one byte-string fold, behind every str and bytes key digest,
    with the mix inlined so a word costs no call. (The WAL checksum is
    not a fold: it is ``zlib.crc32``, see :mod:`repro.lsm.wal`.)
    """
    tail = len(data) & 7
    if tail:
        data = bytes(data) + bytes(8 - tail)
    for (word,) in _words(data):
        x = ((acc ^ word) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = x ^ (x >> 31)
    return acc


def key_digest(key: int | str | bytes, seed: int = 0) -> int:
    """A stable 64-bit digest of a key.

    Integer keys are mixed directly; strings/bytes are folded 8 bytes at
    a time through splitmix64 (:func:`fold64`). Any other key is read as
    ``operator.index(key)`` — the way :func:`digest_pairs` reads it — so
    an int-like key (one with ``__index__`` only) hashes as its index on
    every path; a key that is none of these raises ``TypeError``. The
    ``seed`` decorrelates independent hash uses (e.g. the h probes of a
    Bloom filter).
    """
    if not isinstance(key, int):
        if isinstance(key, str):
            key = key.encode("utf-8")
        if isinstance(key, (bytes, bytearray, memoryview)):
            return fold64(splitmix64(seed ^ len(key)), key)
        try:
            key = operator.index(key)
        except TypeError:
            raise TypeError(
                f"cannot hash a key of type {type(key).__name__!r}"
            ) from None
    return splitmix64((key & _MASK64) ^ splitmix64(seed))


def seeded(seed: int) -> Callable[[int | str | bytes], int]:
    """:func:`key_digest` bound to ``seed``: ``seeded(s)(k) ==
    key_digest(k, s)`` for every key, with the seed's own mix paid here,
    once, instead of on every call.

    Every module-constant seed binds its digest this way at import; a
    seed that varies per index or per instance keeps :func:`key_digest`.
    """
    mix = splitmix64(seed)

    def digest(key: int | str | bytes) -> int:
        if isinstance(key, int):
            return splitmix64((key & _MASK64) ^ mix)
        return key_digest(key, seed)

    return digest


#: Seed of the digest a Chucky key's first candidate bucket is reduced
#: from (the fingerprint digest is seed 1).
BUCKET_SEED = 4000
_fingerprint_digest = seeded(1)
_bucket_digest = seeded(BUCKET_SEED)
_FP_MIX = splitmix64(1)
_BUCKET_MIX = splitmix64(BUCKET_SEED)
_PREFIX_SHIFT = 64 - FP_MIN
#: :func:`digest_pair`'s two-lane constants: the fp lane is bits 0-127,
#: the bucket lane bits 128-255, each holding its 64-bit word.
_PAIR_MASK = (_MASK64 << 128) | _MASK64
_PAIR_MIX = (_BUCKET_MIX << 128) | _FP_MIX
_PAIR_GAMMA = (0x9E3779B97F4A7C15 << 128) | 0x9E3779B97F4A7C15


def fp_digest(key: int | str | bytes) -> int:
    """The 64-bit digest every fingerprint of ``key`` is a prefix of.

    Its top ``FP_MIN`` bits — the prefix all fingerprint lengths share
    and the only bits bucket addressing reads (Eq 4) — are forced
    non-zero, by setting their lowest bit when they happen to be zero,
    so no fingerprint of length >= ``FP_MIN`` can collide with the
    reserved all-zero empty-slot marker (paper section 4.5), and the
    forcing is identical for every length.
    """
    digest = _fingerprint_digest(key)
    if digest >> _PREFIX_SHIFT == 0:
        digest |= 1 << _PREFIX_SHIFT
    return digest


def digest_pair(key: int | str | bytes) -> tuple[int, int]:
    """``(fp_digest(key), seeded(BUCKET_SEED)(key))``: both digests a
    Chucky filter addresses a key by — the one every fingerprint length
    is sliced from and the one its first candidate bucket is reduced
    from — in one call.

    How a Chucky filter hashes a key, one at a time; a batch of
    ``_BULK_MIN`` keys or more takes :func:`digest_pairs`. An int key
    (the hot case) runs both SplitMix64 mixes as one: the key's word
    fills two 128-bit lanes of one int, each lane is mixed with its own
    seed, and every shift is masked back to the low 64 bits of its lane,
    as :func:`digest_pairs` does for a chunk of keys. Any other key
    takes the two seeded digests.
    """
    if isinstance(key, int):
        k = key & _MASK64
        x = ((((k << 128) | k) ^ _PAIR_MIX) + _PAIR_GAMMA) & _PAIR_MASK
        x = ((x ^ ((x >> 30) & _PAIR_MASK)) * 0xBF58476D1CE4E5B9) & _PAIR_MASK
        x = ((x ^ ((x >> 27) & _PAIR_MASK)) * 0x94D049BB133111EB) & _PAIR_MASK
        x ^= (x >> 31) & _PAIR_MASK
        fp = x & _MASK64
        if fp >> _PREFIX_SHIFT == 0:
            fp |= 1 << _PREFIX_SHIFT
        return fp, x >> 128
    return fp_digest(key), _bucket_digest(key)


#: Keys :func:`digest_pairs` hashes per big-int pass: bounds the pass's
#: ints (256 keys are 8 KiB of lanes) whatever the caller hands over.
_CHUNK = 256
#: Below this many keys the per-pass packing costs more than it saves;
#: the Chucky probe loop picks :func:`digest_pair` below it too.
_BULK_MIN = 8
#: The lanes are read from native ``array("Q")`` words as little-endian.
_LITTLE_ENDIAN = sys.byteorder == "little"


def _lanes(fp_word: int, bucket_word: int) -> int:
    """A full chunk's lane constant: per key, a 128-bit fp lane holding
    ``fp_word`` and a 128-bit bucket lane holding ``bucket_word``."""
    words = array("Q", [fp_word, 0, bucket_word, 0] * _CHUNK)
    return int.from_bytes(words, "little")


_LANE_MASK = _lanes(_MASK64, _MASK64)
_LANE_MIX = _lanes(_FP_MIX, _BUCKET_MIX)
_LANE_GAMMA = _lanes(0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15)
_LANE_PREFIX = _lanes((1 << FP_MIN) - 1, 0)
_LANE_ONE = _lanes(1, 0)


def digest_pairs(
    keys: Sequence[int | str | bytes],
) -> tuple[list[int], list[int]]:
    """``(fp_digests, bucket_digests)``: :func:`digest_pair` of every key,
    as two lists — ``list(zip(*digest_pairs(ks)))`` equals
    ``[digest_pair(k) for k in ks]`` for any keys.

    For int keys it runs SplitMix64 on 256 keys at once (SWAR): each key
    gets two 128-bit lanes of one big int, fp then bucket, each holding
    its 64-bit word, and every mix step is one whole-int operation. A
    lane's upper 64 bits are headroom — a 64-bit sum or a 64x64-bit
    product fits in 128 — and every shift is masked back to the low 64
    before the next step, so no lane reads a neighbour's bits and each
    lane computes exactly the scalar mix. The ``FP_MIN``-prefix forcing
    of :func:`fp_digest` is done lane-wise: adding 31 to a 5-bit prefix
    carries into bit 5 unless the prefix is 0. Fewer than 8 keys, any
    key that is not an int, or a big-endian host take :func:`digest_pair`
    per key.
    """
    if len(keys) >= _BULK_MIN and _LITTLE_ENDIAN:
        words = _key_words(keys)
        if words is not None:
            return _swar_pairs(words)
    pairs = list(map(digest_pair, keys))
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


def _key_words(keys: Sequence[int | str | bytes]) -> "array | None":
    """Every key's 64-bit word as :func:`digest_pair` reads an int key
    (``key & (2**64 - 1)``), or None when some key is not an int."""
    try:
        return array("Q", keys)
    except OverflowError:  # a negative int or one >= 2^64
        pass
    except TypeError:
        return None
    try:
        return array("Q", [key & _MASK64 for key in keys])
    except TypeError:
        return None


def _swar_pairs(words: array) -> tuple[list[int], list[int]]:
    """:func:`digest_pairs` of 64-bit key words, a chunk per pass."""
    fps = array("Q")
    buckets = array("Q")
    for start in range(0, len(words), _CHUNK):
        chunk = words[start : start + _CHUNK]
        size = 32 * len(chunk)  # bytes of lanes: two 16-byte lanes a key
        mask, mix, gamma = _LANE_MASK, _LANE_MIX, _LANE_GAMMA
        prefix, one = _LANE_PREFIX, _LANE_ONE
        if len(chunk) < _CHUNK:
            cut = (1 << (8 * size)) - 1
            mask, mix, gamma = mask & cut, mix & cut, gamma & cut
            prefix, one = prefix & cut, one & cut
        lanes = array("Q", bytes(size))
        lanes[0::4] = chunk
        lanes[2::4] = chunk
        x = int.from_bytes(lanes, "little")
        x = ((x ^ mix) + gamma) & mask
        x = ((x ^ ((x >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ ((x >> 27) & mask)) * 0x94D049BB133111EB) & mask
        x ^= (x >> 31) & mask
        top = (x >> _PREFIX_SHIFT) & prefix
        x |= ((((top + prefix) >> FP_MIN) & one) ^ one) << _PREFIX_SHIFT
        lanes = array("Q")
        lanes.frombytes(x.to_bytes(size, "little"))
        fps += lanes[0::4]
        buckets += lanes[2::4]
    return fps.tolist(), buckets.tolist()


def fingerprint_bits(key: int | str | bytes, length: int) -> int:
    """A ``length``-bit fingerprint: the top bits of :func:`fp_digest`,
    so all lengths of one key agree on their leading ``FP_MIN`` bits
    (the prefix property Malleable Fingerprinting requires)."""
    if not FP_MIN <= length <= 64:
        raise ValueError(
            f"fingerprint length must be in [{FP_MIN}, 64], got {length}"
        )
    return fp_digest(key) >> (64 - length)


def alt_offset(fp: int, fp_length: int, num_buckets: int) -> int:
    """The xor offset between a fingerprint's two buckets (Eq 4, partial-key).

    Uses only the top ``FP_MIN`` bits of the fingerprint so that every
    version of a key — whatever its malleable fingerprint length —
    computes the same offset. The offset is forced non-zero so the two
    candidate buckets always differ. ``num_buckets`` must be a power of
    two (the xor trick requires it).
    """
    if fp_length < FP_MIN:
        raise ValueError(f"fingerprint has {fp_length} bits, need >= {FP_MIN}")
    prefix = fp >> (fp_length - FP_MIN)
    offset = splitmix64(prefix ^ 0xC2B2AE3D27D4EB4F) & (num_buckets - 1)
    if offset == 0:
        offset = 1
    return offset
