"""Vectorized (numpy) blocked Bloom filter backend.

Membership-identical to :class:`repro.filters.blocked_bloom.
BlockedBloomFilter` — same block addressing, same probe positions, same
counted memory I/Os (one per add/query) — with the per-key hashing and
bit tests vectorized over whole batches via numpy's uint64 lanes. The
512-bit block lives as eight little-endian uint64 words in a
``(num_blocks, 8)`` array; word ``j`` holds bits ``64 j .. 64 j + 63``
of the scalar implementation's block integer.

The module imports without numpy (``NUMPY_AVAILABLE`` is False and the
classes raise on construction); the policy registry and the tuning
planner only offer the ``bloom-vectorized`` policy when numpy resolves.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised by the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.common.counters import MemoryIOCounter
from repro.common.hashing import splitmix64
from repro.filters.blocked_bloom import (
    BLOCK_BITS,
    _BLOCK_SEED,
    _PROBE_SEED,
    BlockedBloomFilter,
)
from repro.filters.policy import BloomFilterPolicy

#: True when numpy imported; construction guards on it.
NUMPY_AVAILABLE = _np is not None

_WORDS_PER_BLOCK = BLOCK_BITS // 64

if NUMPY_AVAILABLE:
    _U64 = _np.uint64
    _C_GOLDEN = _U64(0x9E3779B97F4A7C15)
    _C_MIX1 = _U64(0xBF58476D1CE4E5B9)
    _C_MIX2 = _U64(0x94D049BB133111EB)


def _splitmix64_vec(x):
    """SplitMix64 over a uint64 ndarray (wrapping arithmetic)."""
    with _np.errstate(over="ignore"):
        x = x + _C_GOLDEN
        x = (x ^ (x >> _U64(30))) * _C_MIX1
        x = (x ^ (x >> _U64(27))) * _C_MIX2
        return x ^ (x >> _U64(31))


def _key_digest_vec(keys, seed: int):
    """:func:`repro.common.hashing.key_digest` of integer keys, over a
    uint64 ndarray."""
    return _splitmix64_vec(keys ^ _U64(splitmix64(seed)))


class VectorizedBlockedBloomFilter(BlockedBloomFilter):
    """The scalar blocked Bloom filter — its argument checks, geometry
    and FPP estimate — with the block array held in numpy."""

    def __init__(
        self,
        num_entries: int,
        bits_per_entry: float,
        memory_ios: MemoryIOCounter | None = None,
    ) -> None:
        if not NUMPY_AVAILABLE:
            raise RuntimeError(
                "VectorizedBlockedBloomFilter requires numpy; use "
                "BlockedBloomFilter instead"
            )
        super().__init__(num_entries, bits_per_entry, memory_ios)
        self._blocks = _np.zeros((self._num_blocks, _WORDS_PER_BLOCK), dtype=_U64)

    def _blocks_and_masks(self, keys):
        """(block indices, per-key 8-word probe masks) for a key batch.

        Bit-for-bit the probe schedule of the scalar
        ``BlockedBloomFilter._block_and_bits``: the same 9-bit positions
        carved from the same re-mixed digests.
        """
        k = _np.asarray(keys, dtype=_U64)
        blocks = _key_digest_vec(k, _BLOCK_SEED)
        blocks = (blocks % _U64(self._num_blocks)).astype(_np.intp)
        digest = _key_digest_vec(k, _PROBE_SEED)
        masks = _np.zeros((len(k), _WORDS_PER_BLOCK), dtype=_U64)
        rows = _np.arange(len(k), dtype=_np.intp)
        flat = masks.reshape(-1)
        with _np.errstate(over="ignore"):
            for i in range(self._num_hashes):
                if i and i % 7 == 0:
                    digest = _key_digest_vec(digest, _PROBE_SEED + i)
                pos = (digest >> _U64(9 * (i % 7))) & _U64(BLOCK_BITS - 1)
                word = (pos >> _U64(6)).astype(_np.intp)
                # One (row, word) target per key per round, so a fancy
                # in-place OR never collides within the round.
                flat[rows * _WORDS_PER_BLOCK + word] |= _U64(1) << (
                    pos & _U64(63)
                )
        return blocks, masks

    def add_many(self, keys) -> None:
        """Insert a batch: one counted memory I/O per key, like the
        scalar ``add`` loop it replaces."""
        if len(keys) == 0:
            return
        self._memory_ios.add("filter", len(keys))
        blocks, masks = self._blocks_and_masks(keys)
        # ``.at`` accumulates duplicate block targets correctly.
        _np.bitwise_or.at(self._blocks, blocks, masks)
        self.num_entries_added += len(keys)

    def may_contain_many(self, keys) -> list[bool]:
        """Batched membership, one counted memory I/O per key."""
        if len(keys) == 0:
            return []
        self._memory_ios.add("filter", len(keys))
        blocks, masks = self._blocks_and_masks(keys)
        hit = (self._blocks[blocks] & masks) == masks
        return hit.all(axis=1).tolist()

    def add(self, key: int) -> None:
        self.add_many([key])

    def may_contain(self, key: int) -> bool:
        return self.may_contain_many([key])[0]


class VectorizedBloomPolicy(BloomFilterPolicy):
    """Per-run blocked Bloom filters on the vectorized backend.

    Counted I/Os, FPR and membership answers match the scalar
    ``blocked-bloom`` policy exactly; run construction batches every
    key through one ``add_many`` call. Query-side candidates stay lazy
    per key (inherited), so probes past the first hit still cost
    nothing — eager batching there would change the counted I/Os.
    """

    def __init__(
        self,
        bits_per_entry: float = 10.0,
        allocation: str = "optimal",
        counters=None,
    ) -> None:
        super().__init__(
            bits_per_entry=bits_per_entry,
            variant="blocked",
            allocation=allocation,
            counters=counters,
        )
        self.name = f"vectorized BFs ({allocation})"

    def _build_filter(self, sublevel: int, keys: list[int]):
        bits = self._bits_for_sublevel(sublevel)
        if bits <= 0.5 or not keys:
            return None
        filt = VectorizedBlockedBloomFilter(
            len(keys), bits, memory_ios=self.counters.memory
        )
        filt.add_many(keys)
        return filt
