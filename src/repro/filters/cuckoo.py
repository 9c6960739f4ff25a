"""Plain Cuckoo filter (Fan et al. 2014; paper section 3).

An array of buckets, each with S slots for F-bit fingerprints. A key
hashes to two candidate buckets (Eq 4, partial-key hashing: the
alternative bucket is the current bucket xor a hash of the fingerprint),
so queries cost at most two memory I/Os. With S = 4, ~95% occupancy is
reachable with 1-2 amortized evictions per insert; the FPR is about
``2 S 2^{-F}``.

This baseline is both a stepping stone for Chucky (which adds level IDs
and compression on top of the same skeleton) and the reference for the
plain-cuckoo behaviors the property tests pin down.
"""

from __future__ import annotations

import random
from array import array

from repro.common.counters import MemoryIOCounter
from repro.common.errors import CapacityError, FilterError
from repro.common.hashing import alt_offset, fp_digest, seeded
from repro.obs.metrics import (
    EVICTION_WALK_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)

#: Digest the key's primary bucket is masked from.
_bucket_digest = seeded(3000)
_MAX_EVICTIONS = 500


class CuckooFilter:
    """A Cuckoo filter with S slots per bucket and F-bit fingerprints."""

    def __init__(
        self,
        capacity: int,
        fingerprint_bits: int = 12,
        slots_per_bucket: int = 4,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        strict_deletes: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if fingerprint_bits < 5:
            raise ValueError(
                f"fingerprint_bits must be >= 5 (bucket independence), "
                f"got {fingerprint_bits}"
            )
        if slots_per_bucket < 1:
            raise ValueError(f"slots_per_bucket must be >= 1, got {slots_per_bucket}")
        self._fp_bits = fingerprint_bits
        self._fp_shift = 64 - fingerprint_bits
        self._slots = slots_per_bucket
        # Size for ~95% occupancy, rounded up to a power of two (the xor
        # trick needs it).
        wanted = max(1, -(-capacity // slots_per_bucket))
        wanted = max(2, round(wanted / 0.95))
        self._num_buckets = 1 << (wanted - 1).bit_length()
        # Flat slot storage: slot s of bucket b is ``_fps[b * S + s]``.
        # Fingerprints are never 0 (their FP_MIN prefix is forced
        # non-zero), so 0 is the free-slot sentinel. Occupied slots stay
        # contiguous at the front of each bucket — removals compact —
        # which reproduces the seed's list-of-lists slot order exactly,
        # including the RNG-driven eviction walks.
        self._fps = array("Q", [0]) * (self._num_buckets * slots_per_bucket)
        self._memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        self._rng = random.Random(seed)
        self.num_entries = 0
        #: Removes that found no matching fingerprint. An inserted key's
        #: fingerprint is always in one of its two buckets, so every
        #: miss here is a contract violation by the caller — the one
        #: form of delete misuse the filter *can* detect.
        self.deletes_missed = 0
        self._strict_deletes = strict_deletes
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._walk_hist = registry.histogram(
            "cuckoo_eviction_walk_length", EVICTION_WALK_BUCKETS,
            "evictions performed per insert (0 = direct placement)",
        )

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def size_bits(self) -> int:
        return self._num_buckets * self._slots * self._fp_bits

    @property
    def load_factor(self) -> float:
        return self.num_entries / (self._num_buckets * self._slots)

    def _fingerprint(self, key: int) -> int:
        return fp_digest(key) >> self._fp_shift

    def _primary_bucket(self, key: int) -> int:
        return _bucket_digest(key) & (self._num_buckets - 1)

    def _alternate(self, bucket: int, fp: int) -> int:
        return bucket ^ alt_offset(fp, self._fp_bits, self._num_buckets)

    def add(self, key: int) -> None:
        """Insert a key's fingerprint, evicting as needed.

        Raises :class:`CapacityError` when the eviction budget is
        exhausted (the filter is effectively full).
        """
        fp = self._fingerprint(key)
        b1 = self._primary_bucket(key)
        b2 = self._alternate(b1, fp)
        fps = self._fps
        slots = self._slots
        for bucket in (b1, b2):
            self._memory_ios.add("filter", 1)
            if self._place(bucket, fp):
                self.num_entries += 1
                self._walk_hist.observe(0)
                return
        # Both full: evict along a random walk.
        bucket = self._rng.choice((b1, b2))
        for step in range(1, _MAX_EVICTIONS + 1):
            victim_slot = bucket * slots + self._rng.randrange(slots)
            victim_fp = fps[victim_slot]
            fps[victim_slot] = fp
            fp = victim_fp
            bucket = self._alternate(bucket, fp)
            self._memory_ios.add("filter", 1)
            if self._place(bucket, fp):
                self.num_entries += 1
                self._walk_hist.observe(step)
                return
        self._walk_hist.observe(_MAX_EVICTIONS)
        raise CapacityError(
            f"cuckoo insertion failed at load factor {self.load_factor:.3f}"
        )

    def _place(self, bucket: int, fp: int) -> bool:
        """Put ``fp`` in the first free slot of ``bucket``; False if full."""
        fps = self._fps
        base = bucket * self._slots
        for i in range(base, base + self._slots):
            if fps[i] == 0:
                fps[i] = fp
                return True
        return False

    def _bucket_contains(self, bucket: int, fp: int) -> bool:
        base = bucket * self._slots
        return fp in self._fps[base : base + self._slots]

    def may_contain(self, key: int) -> bool:
        """Membership test: at most two bucket reads (memory I/Os); the
        alternate bucket is neither computed nor read after a hit in
        the primary one."""
        fp = self._fingerprint(key)
        b1 = self._primary_bucket(key)
        self._memory_ios.add("filter", 1)
        if self._bucket_contains(b1, fp):
            return True
        self._memory_ios.add("filter", 1)
        return self._bucket_contains(self._alternate(b1, fp), fp)

    def remove(self, key: int) -> bool:
        """Delete one copy of the key's fingerprint; True if found.

        (Bloom filters cannot do this — the reason they must be rebuilt
        from scratch on every compaction, paper section 2.)

        **Delete contract** (Fan et al. section 3): only remove keys the
        caller has proven inserted and not yet removed. Partial-key
        hashing stores F-bit fingerprints, not keys, so removing a key
        that was *never* inserted can silently strip a colliding key's
        fingerprint — manufacturing a false negative the filter cannot
        detect. The engine honors the contract by deleting fingerprints
        only for entries that physically left the tree
        (:class:`~repro.lsm.tree.MergeEvent` drops). The *detectable*
        misuse — a remove that matches nothing at all — increments
        :attr:`deletes_missed` and, with ``strict_deletes=True``, raises
        :class:`FilterError` instead of returning False.
        """
        fp = self._fingerprint(key)
        b1 = self._primary_bucket(key)
        b2 = self._alternate(b1, fp)
        fps = self._fps
        for bucket in (b1, b2):
            self._memory_ios.add("filter", 1)
            base = bucket * self._slots
            for i in range(base, base + self._slots):
                if fps[i] == fp:
                    # Compact: shift the occupied tail left one slot so
                    # occupied slots stay contiguous (list.remove order).
                    for j in range(i, base + self._slots - 1):
                        fps[j] = fps[j + 1]
                    fps[base + self._slots - 1] = 0
                    self.num_entries -= 1
                    return True
        self.deletes_missed += 1
        if self._strict_deletes:
            raise FilterError(
                f"cuckoo delete contract violated: remove({key!r}) matched "
                f"no fingerprint — the key was never inserted (or already "
                f"removed); a *colliding* bare remove would silently strip "
                f"another key's fingerprint instead"
            )
        return False

    def expected_fpp(self) -> float:
        """The ~``2 S 2^{-F}`` false-positive bound (paper Eq 5 family)."""
        return 2.0 * self._slots * 2.0 ** (-self._fp_bits)
