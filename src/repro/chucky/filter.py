"""The Chucky filter: a Cuckoo filter mapping entries to level IDs.

Each slot holds a (LID, fingerprint) pair; a point query reads the two
candidate buckets and returns every LID whose fingerprint matches —
youngest first — so the LSM-tree knows exactly which sub-levels to
search (paper section 4.1). Insertions, LID updates and deletions ride
the tree's flush/merge events at ~1.5 memory I/Os per touched entry.

Bucket addressing: the paper's Eq 4 uses xor partial-key hashing, which
requires a power-of-two bucket count and can waste up to 50% memory
(section 4.5, Partitioning). We use the standard involution variant
``partner(b) = (anchor(fp) - b) mod n``, which preserves the "compute
the alternative bucket from the fingerprint alone" property for *any*
bucket count — behaviourally identical, and it sidesteps the memory
waste the paper defers to Vacuum-filter partitioning. (The plain
:class:`repro.filters.cuckoo.CuckooFilter` baseline keeps the faithful
xor form.) Both buckets derive from the fingerprint's first ``FP_MIN``
bits only, so every Malleable-Fingerprinting length of one key shares a
bucket pair (section 4.3).

Maintenance is one loop, :meth:`CuckooLidFilterBase._maintain_many`: a
flush or merge event arrives as one list of edits, and ``insert`` /
``update_lid`` / ``remove`` are one-edit calls of it, the way ``query``
is a one-key call of the probe loop.

Structures beyond the bucket array (paper sections 4.4-4.5):

* overflow hash table — fingerprints of buckets holding *rare* LID
  combinations (FAC's bucket-sized escape codes leave no inline room);
* additional hash table (AHT) — homeless entries when > 2S versions of
  one key pile onto a single bucket pair (or an eviction walk fails);
* persistence — buckets serialize to bytes; recovery rebuilds the
  filter from fingerprints alone, never rescanning the data.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from operator import itemgetter

from repro.coding.distributions import LidDistribution
from repro.common.bitio import BitReader, BitWriter
from repro.common.counters import MemoryIOCounter
from repro.common.errors import FilterError
from repro.common.hashing import (
    _BULK_MIN,
    FP_MIN,
    digest_pair,
    digest_pairs,
    fp_digest,
    splitmix64,
)
from repro.obs.metrics import (
    EVICTION_WALK_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.chucky.bucket import BucketCodec, Slot
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.slots import PackedBucketStore, SlotStore
from repro.chucky.tables import CodecTables

_ANCHOR_SALT = 0x9E3779B97F4A7C15
#: Shift that leaves the ``FP_MIN``-bit prefix of a 64-bit digest.
_PREFIX_SHIFT = 64 - FP_MIN
#: Eviction-walk budget. Kept short: near peak occupancy the marginal
#: cost of a random walk explodes, and Chucky has a second-chance home —
#: the AHT — that a plain Cuckoo filter lacks. Bounding the walk keeps
#: the paper's "~2 memory I/Os per insertion" true at the 95% design
#: load; the few spilled entries are repatriated as removals free slots.
_MAX_EVICTIONS = 12
#: Edits :meth:`CuckooLidFilterBase._maintain_many` hashes per
#: :func:`digest_pairs` call: a growth rebuild hands over 100k+ edits at
#: once, and their digests are held only a chunk at a time.
_HASH_CHUNK = 256

#: One maintenance edit, ``(key, old_lid, new_lid)``: an insert has no
#: old LID, a removal no new one (``None``), an LID update both.
Edit = tuple[int, "int | None", "int | None"]
_key = itemgetter(0)
_old_lid = itemgetter(1)
_new_lid = itemgetter(2)


def _partner(bucket: int, prefix: int, num_buckets: int) -> int:
    """The other candidate bucket, from the ``FP_MIN``-bit prefix every
    fingerprint of the key shares.

    ``partner(partner(b)) == b`` for any bucket count (subtraction
    involution), replacing Eq 4's xor which needs a power of two.
    """
    anchor = splitmix64(prefix ^ _ANCHOR_SALT) % num_buckets
    return (anchor - bucket) % num_buckets


class CuckooLidFilterBase(ABC):
    """Shared machinery of the compressed (Chucky) and uncompressed
    (SlimDB-style) LID filters: addressing, eviction, query, LID update,
    deletion, AHT handling, and I/O accounting.

    Subclasses define the bucket *representation* (bit-packed vs plain)
    via ``_read_bucket`` / ``_write_bucket`` (and may match a probe or
    edit a bucket without a full decode, through ``_matching_lids`` /
    ``_edit_bucket``) and fill ``_fp_shifts``, the per-LID fingerprint
    lengths.
    """

    #: ``(word, digest) -> lids | None``: the probe's match of a bucket
    #: from its stored word ``_packed[index]``, or ``None`` when that
    #: bucket must be decoded in full (:meth:`_match_bucket`). ``None``
    #: here: a filter without a plan matcher decodes every bucket.
    _matching_lids = None
    _packed = None

    def __init__(
        self,
        num_buckets: int,
        slots: int,
        empty_lid: int,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        self.num_buckets = num_buckets
        #: ``_partner(0, prefix, num_buckets)`` per ``FP_MIN``-bit prefix:
        #: the partner rule reduced once for this bucket count, since
        #: ``_partner(b, p, n) == (_partner(0, p, n) - b) % n``.
        self._anchors = [
            _partner(0, prefix, num_buckets) for prefix in range(1 << FP_MIN)
        ]
        self.slots = slots
        self.empty_lid = empty_lid
        #: What an unoccupied slot reads as. A stored fingerprint is
        #: never 0 (:func:`fp_digest`), so no live entry equals it.
        self._empty: Slot = (empty_lid, 0)
        self.memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        self._rng = random.Random(seed)
        #: ``64 - fp_length(lid)`` per LID (index ``lid - 1``): the shift
        #: that slices a fingerprint out of :func:`fp_digest` — the one
        #: per-LID length table. Subclasses fill it right after
        #: construction; no length is below ``FP_MIN``.
        self._fp_shifts: list[int] = []
        #: Homeless entries: normalized bucket pair -> [(lid, fp), ...].
        self.aht: dict[tuple[int, int], list[Slot]] = {}
        self.num_entries = 0
        #: LID updates/removals that found no matching slot (should stay 0
        #: in correct operation; exposed for tests and sanity checks).
        self.maintenance_misses = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._walk_hist = registry.histogram(
            "chucky_eviction_walk_length", EVICTION_WALK_BUCKETS,
            "evictions performed per filter insert (0 = direct placement)",
        )
        self._m_aht_spills = registry.counter(
            "chucky_aht_spills_total",
            "inserts whose eviction walk failed and fell back to the AHT",
        )
        self._m_maintenance_misses = registry.counter(
            "chucky_maintenance_misses",
            "LID updates/removes that matched no slot — each one leaves a "
            "stale fingerprint behind (unbounded FPR drift); must stay 0",
        )

    # -- representation hooks (no I/O accounting inside) -----------------

    @abstractmethod
    def _read_bucket(self, index: int) -> list[Slot]:
        """Decode bucket ``index`` into S logical slots."""

    @abstractmethod
    def _write_bucket(self, index: int, slots: list[Slot]) -> None:
        """Encode S logical slots into bucket ``index``."""

    def _match_bucket(self, index: int, digest: int) -> list[int]:
        """LIDs of bucket ``index`` whose stored fingerprint is the
        same-length prefix of ``digest``. A stored LID needs no range
        check, unlike a caller's in :meth:`_slot`, and a fingerprint is
        never 0 (:func:`fp_digest`), so empty slots never match."""
        shifts = self._fp_shifts
        return [
            lid
            for lid, fp in self._read_bucket(index)
            if fp == digest >> shifts[lid - 1]
        ]

    def _edit_bucket(self, index: int, old: Slot, new: Slot) -> bool:
        """Overwrite the first slot of bucket ``index`` equal to ``old``
        with ``new``; False (nothing written) when none is. The caller
        counts the bucket load."""
        slots = self._read_bucket(index)
        if old not in slots:
            return False
        slots[slots.index(old)] = new
        self._write_bucket(index, slots)
        return True

    # -- addressing -------------------------------------------------------

    def _address(self, key: int) -> tuple[int, int, int]:
        """``(digest, b1, b2)``: the 64-bit digest every fingerprint
        length of ``key`` is sliced from (Malleable Fingerprinting) and
        both candidate buckets, which its first ``FP_MIN`` bits fix.
        ``% num_buckets`` happens here, not in the digests, because
        growth changes it."""
        digest, primary = digest_pair(key)
        n = self.num_buckets
        b1 = primary % n
        return digest, b1, (self._anchors[digest >> _PREFIX_SHIFT] - b1) % n

    def _shift(self, lid: int) -> int:
        """``64 - fp_length(lid)``, the shift that slices sub-level
        ``lid``'s fingerprint out of a digest — the one place a caller's
        LID is checked."""
        if lid > 0:  # a negative index would slice with another level's shift
            try:
                return self._fp_shifts[lid - 1]
            except IndexError:
                pass
        raise FilterError(f"LID {lid} out of range [1, {len(self._fp_shifts)}]")

    def _check_lids(self, edits) -> None:
        """Range-check every distinct LID of ``edits`` once, so a bad
        one refuses the whole event before any edit lands."""
        lids = {*map(_old_lid, edits), *map(_new_lid, edits)}
        lids.discard(None)
        for lid in lids:
            self._shift(lid)

    def _slot(self, digest: int, lid: int) -> Slot:
        """The ``(lid, fingerprint)`` slot of the key behind ``digest``
        at sub-level ``lid``."""
        return lid, digest >> self._shift(lid)

    def fingerprint(self, key: int, lid: int) -> int:
        """The fingerprint stored for ``key`` at sub-level ``lid``."""
        return self._slot(fp_digest(key), lid)[1]

    def bucket_pair(self, key: int) -> tuple[int, int]:
        """Both candidate buckets of a key (same for all its versions)."""
        return self._address(key)[1:]

    def _partner_of_slot(self, bucket: int, slot: Slot) -> int:
        """Where a stored slot's entry may move: its fingerprint's
        leading ``FP_MIN`` bits are the key's shared prefix."""
        lid, fp = slot
        prefix = fp >> (_PREFIX_SHIFT - self._fp_shifts[lid - 1])
        return (self._anchors[prefix] - bucket) % self.num_buckets

    def _pair_key(self, b1: int, b2: int) -> tuple[int, int]:
        return (b1, b2) if b1 <= b2 else (b2, b1)

    # -- core operations ----------------------------------------------------

    def insert(self, key: int, lid: int) -> None:
        """Map ``key`` to sub-level ``lid`` (one mapping per version)."""
        self._maintain_many(((key, None, lid),))

    def update_lid(self, key: int, old_lid: int, new_lid: int) -> bool:
        """Move one mapping of ``key`` from ``old_lid`` to ``new_lid``
        (compaction moved the entry down the tree). ~1.5 memory I/Os.
        False when no mapping of ``key`` at ``old_lid`` was found.

        The fingerprint is re-sliced to the new level's length (Malleable
        Fingerprinting): all lengths share their leading bits, so the
        bucket pair is unchanged.
        """
        return self._maintain_many(((key, old_lid, new_lid),)) == 0

    def remove(self, key: int, lid: int) -> bool:
        """Delete one mapping of ``key`` at ``lid`` (compaction discarded
        an obsolete version) — the operation Bloom filters cannot do.
        False when there was none."""
        return self._maintain_many(((key, lid, None),)) == 0

    def maintain_many(self, edits: "list[Edit]") -> int:
        """Apply a flush's or a merge's edits in order, as
        :meth:`insert` / :meth:`update_lid` / :meth:`remove` would one at
        a time: same contents, same counted I/Os, same eviction draws.
        Returns how many updates and removals found no mapping."""
        return self._maintain_many(edits)

    def _maintain_many(self, edits) -> int:
        """The one maintenance loop. The keys are hashed in chunks of
        256 by :func:`digest_pairs`; then per edit, the pair's distinct
        buckets in order, one counted load and one :meth:`_edit_bucket`
        each, until one holds the old slot (the empty slot, for an
        insert).

        * an insert that found no free slot walks
          (:meth:`_insert_with_eviction`);
        * an update or removal that found no slot tries the pair's AHT
          entries, else counts a maintenance miss;
        * a removal that freed a slot while the AHT holds anything pulls
          a homeless entry of the pair back into it (:meth:`_repatriate`).

        Each distinct LID is range-checked once, before any edit lands.
        The bucket loads are charged once per call, as their sum; every
        other charge (overflow, Decoding / Recoding Table, AHT) is made
        where it happens, so every category total equals the per-entry
        accounting of section 4.1.
        """
        self._check_lids(edits)
        shifts = self._fp_shifts
        anchors = self._anchors
        n = self.num_buckets
        edit = self._edit_bucket
        empty = self._empty
        choice = self._rng.choice
        observe = self._walk_hist.observe
        misses = self.maintenance_misses
        loads = 0
        for start in range(0, len(edits), _HASH_CHUNK):
            chunk = edits[start : start + _HASH_CHUNK]
            digests, primaries = digest_pairs(list(map(_key, chunk)))
            for (_, old_lid, new_lid), digest, primary in zip(
                chunk, digests, primaries
            ):
                if old_lid == new_lid:
                    continue  # an update in place moves nothing
                b1 = primary % n  # as _address does
                b2 = (anchors[digest >> _PREFIX_SHIFT] - b1) % n
                if old_lid is None:
                    old = empty
                else:
                    old = old_lid, digest >> shifts[old_lid - 1]
                if new_lid is None:
                    new = empty
                else:
                    new = new_lid, digest >> shifts[new_lid - 1]
                loads += 1
                if edit(b1, old, new):
                    bucket = b1
                elif b1 == b2:
                    bucket = None
                else:
                    loads += 1
                    bucket = b2 if edit(b2, old, new) else None
                if old_lid is None:
                    if bucket is None:
                        loads += self._insert_with_eviction(
                            new, choice((b1, b2))
                        )
                    else:
                        self.num_entries += 1
                        observe(0)
                elif new_lid is not None:
                    if bucket is None:
                        self._swap_in_aht(b1, b2, old, new)
                elif bucket is not None:
                    if self.aht:
                        loads += self._repatriate(self._pair_key(b1, b2), bucket)
                    self.num_entries -= 1
                elif self._swap_in_aht(b1, b2, old, None):
                    self.num_entries -= 1
        if loads:
            self.memory_ios.add("filter", loads)
        return self.maintenance_misses - misses

    def _insert_with_eviction(self, entry: Slot, bucket: int) -> int:
        """Random-walk eviction; falls back to the AHT (paper's entry-
        overflow handling, section 4.5) when the walk fails. The walk
        evicts from the bucket it has just read, so it cannot go
        through :meth:`_edit_bucket` (a second load would be counted).
        Returns the bucket loads, for the caller to charge."""
        empty = self._empty
        for step in range(1, _MAX_EVICTIONS + 1):
            slots = self._read_bucket(bucket)
            if empty in slots:
                slots[slots.index(empty)] = entry
                self._write_bucket(bucket, slots)
                self.num_entries += 1
                self._walk_hist.observe(step - 1)
                return step
            victim_index = self._rng.randrange(self.slots)
            victim = slots[victim_index]
            slots[victim_index] = entry
            self._write_bucket(bucket, slots)
            entry = victim
            bucket = self._partner_of_slot(bucket, entry)
        partner = self._partner_of_slot(bucket, entry)
        pair = self._pair_key(bucket, partner)
        self.memory_ios.add("filter_aht", 1)
        self.aht.setdefault(pair, []).append(entry)
        self.num_entries += 1
        self._walk_hist.observe(_MAX_EVICTIONS)
        self._m_aht_spills.inc()
        return _MAX_EVICTIONS

    def query(self, key: int) -> list[int]:
        """All sub-levels whose stored fingerprint matches ``key``, in
        young-to-old order — the sub-levels a point read must search."""
        return self._probe_many((key,))[0]

    def query_many(self, keys: list[int]) -> list[list[int]]:
        """:meth:`query` for each key: same answers, same counted I/Os."""
        return self._probe_many(keys)

    def _probe_many(self, keys) -> list[list[int]]:
        """The one bucket probe: per key, one hash, two bucket loads
        (one when both candidates coincide), plus one AHT lookup
        whenever the AHT holds anything.

        A bucket is matched by one call of ``_matching_lids`` on its
        stored word (a frequent combination's plan match); only when
        that answers ``None`` — or the filter has no plan matcher — does
        :meth:`_match_bucket` decode it in full and charge what the
        decode costs.

        A batch of ``_BULK_MIN`` keys or more is hashed in one
        :func:`digest_pairs` call (SWAR); a smaller one — a lone
        :meth:`query` — hashes per key and builds no digest lists.
        The loads are charged once per call, as their sum. The AHT is
        consulted even when neither bucket is full *now*: a failed
        eviction walk files its homeless entry under the pair where the
        walk ended, and later removals of *other* keys can free slots
        in both buckets without repatriating it.
        """
        if len(keys) >= _BULK_MIN:
            hashed = zip(*digest_pairs(keys))
        else:
            hashed = map(digest_pair, keys)
        anchors = self._anchors
        n = self.num_buckets
        plan_match = self._matching_lids
        words = self._packed
        match = self._match_bucket
        aht = self.aht
        pair_key = self._pair_key
        shifts = self._fp_shifts
        charge = self.memory_ios.add
        loads = 0
        answers = []
        for digest, primary in hashed:
            b1 = primary % n  # as _address does
            b2 = (anchors[digest >> _PREFIX_SHIFT] - b1) % n
            lids = plan_match(words[b1], digest) if plan_match else None
            if lids is None:
                lids = match(b1, digest)
            if b1 == b2:
                loads += 1
            else:
                loads += 2
                more = plan_match(words[b2], digest) if plan_match else None
                lids += match(b2, digest) if more is None else more
            if aht:
                charge("filter_aht", 1)
                for lid, fp in aht.get(pair_key(b1, b2), ()):
                    if fp == digest >> shifts[lid - 1]:
                        lids.append(lid)
            answers.append(sorted(set(lids)) if len(lids) > 1 else lids)
        if loads:
            charge("filter", loads)
        return answers

    def _swap_in_aht(
        self, b1: int, b2: int, old: Slot, new: Slot | None
    ) -> bool:
        """When no bucket of the pair holds ``old``: replace it (drop
        it for ``None``) among the pair's homeless entries, or count the
        maintenance miss."""
        pair = self._pair_key(b1, b2)
        entries = self.aht.get(pair)
        if entries:
            self.memory_ios.add("filter_aht", 1)
            if old in entries:
                entries.remove(old)
                if new is not None:
                    entries.append(new)
                if not entries:
                    del self.aht[pair]
                return True
        self.maintenance_misses += 1
        self._m_maintenance_misses.inc()
        return False

    def _repatriate(self, pair: tuple[int, int], bucket: int) -> int:
        """After a removal frees a slot in ``bucket``, pull a homeless
        AHT entry of the same bucket pair back into it. Returns the
        bucket loads (0 or 1), for the caller to charge."""
        entries = self.aht.get(pair)
        if not entries:
            return 0
        self.memory_ios.add("filter_aht", 1)
        entry = entries.pop()
        if not entries:
            del self.aht[pair]
        if not self._edit_bucket(bucket, self._empty, entry):
            self.aht.setdefault(pair, []).append(entry)
        return 1

    @property
    def load_factor(self) -> float:
        return self.num_entries / (self.num_buckets * self.slots)

    def iter_slots(self) -> "list[Slot]":
        """All occupied (lid, fp) slots, including AHT entries (test and
        persistence helper; uncounted)."""
        out: list[Slot] = []
        for index in range(self.num_buckets):
            out.extend(
                slot for slot in self._read_bucket(index) if slot != self._empty
            )
        for entries in self.aht.values():
            out.extend(entries)
        return out


def _buckets_for_capacity(capacity: int, slots: int, over_provision: float) -> int:
    """Bucket count giving ``capacity`` entries at ``1 - over_provision``
    occupancy (paper default: 5% over-provisioned space)."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not 0.0 <= over_provision < 1.0:
        raise ValueError(f"over_provision must be in [0, 1), got {over_provision}")
    return max(2, math.ceil(capacity / (slots * (1.0 - over_provision))))


class ChuckyFilter(CuckooLidFilterBase):
    """The deployed design: succinctly coded LIDs + malleable fingerprints."""

    def __init__(
        self,
        capacity: int,
        dist: LidDistribution,
        bits_per_entry: float = 10.0,
        slots: int = 4,
        nov: float = 0.9999,
        over_provision: float = 0.05,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        codebook: ChuckyCodebook | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if codebook is None:
            bucket_bits = round(bits_per_entry * slots)
            codebook = ChuckyCodebook(
                dist, slots=slots, bucket_bits=bucket_bits, mode="mf_fac", nov=nov
            )
        super().__init__(
            num_buckets=_buckets_for_capacity(capacity, codebook.slots, over_provision),
            slots=codebook.slots,
            empty_lid=codebook.empty_lid,
            memory_ios=memory_ios,
            seed=seed,
            metrics=metrics,
        )
        self.dist = dist
        self.bits_per_entry = bits_per_entry
        self.over_provision = over_provision
        self.codebook = codebook
        self.tables = CodecTables(codebook, self.memory_ios)
        self.codec = BucketCodec(codebook, self.tables)
        self._matching_lids = self.codec.matching_lids
        self._root_entry = self.codec.root_entry
        self._pack_fn = codebook.fast.pack_fns.get
        self._empty_packed = self.codec.empty_packed
        self._buckets = PackedBucketStore(
            self.num_buckets, codebook.bucket_bits, fill=self._empty_packed
        )
        self._packed = self._buckets.reader
        self._fp_shifts = [64 - codebook.fp_length(lid) for lid in dist.lids]
        #: Fingerprints of rare-combination buckets (FAC escape codes).
        self.overflow: dict[int, list[int]] = {}

    # -- representation -----------------------------------------------------

    def _read_bucket(self, index: int) -> list[Slot]:
        overflow_fps = self.overflow.get(index)
        if overflow_fps is not None:
            # One extra memory I/O to fetch the spilled fingerprints.
            self.memory_ios.add("filter_ovf", 1)
            return self.codec.unpack(self._packed[index], overflow_fps)
        packed = self._packed[index]
        if packed == self._empty_packed:
            # Empty buckets decode to the all-empty slot list without
            # touching the codec; the empty combination is frequent, so
            # the reference decode counts nothing here either.
            return [self.codec.empty_slot] * self.slots
        return self.codec.unpack(packed, None)

    def _edit_bucket(self, index: int, old: Slot, new: Slot) -> bool:
        # A frequent combination decodes straight from its decode-table
        # plan and, when the edited bucket is frequent too, re-encodes
        # through its compiled pack function: neither touches the
        # overflow table or a Decoding / Recoding Table row, so neither
        # charges anything. Anything else goes through _read_bucket /
        # _write_bucket, which charge as they always have.
        packed = self._packed[index]
        if packed == self._empty_packed:
            slots = [self._empty] * self.slots  # as _read_bucket's shortcut
        else:
            entry = self._root_entry(packed)
            if entry is None:
                return super()._edit_bucket(index, old, new)
            if old[0] not in entry[1]:
                return False  # the combination alone rules the bucket out
            slots = [
                (lid, (packed >> shift) & mask) for lid, shift, mask, _ in entry[2]
            ]
        if old not in slots:
            return False
        slots[slots.index(old)] = new
        slots.sort()
        pack = self._pack_fn(tuple([lid for lid, _ in slots]))
        if pack is None:
            self._write_bucket(index, slots)
        else:
            self._packed[index] = pack(slots)
        return True

    def _write_bucket(self, index: int, slots: list[Slot]) -> None:
        packed, overflow_fps = self.codec.pack(slots)
        self._buckets[index] = packed
        if overflow_fps is None:
            self.overflow.pop(index, None)
        else:
            self.memory_ios.add("filter_ovf", 1)
            self.overflow[index] = overflow_fps

    # -- footprint ------------------------------------------------------------

    @property
    def size_bits(self) -> int:
        """CF array + overflow HT + AHT, in bits."""
        bucket_bits = self.num_buckets * self.codebook.bucket_bits
        overflow_bits = sum(
            32 + 64 * len(fps) for fps in self.overflow.values()
        )
        aht_bits = sum((16 + 64) * len(v) + 64 for v in self.aht.values())
        return bucket_bits + overflow_bits + aht_bits

    # -- persistence (paper section 4.5) ---------------------------------------

    def persist(self) -> bytes:
        """Serialize buckets, overflow HT and AHT — fingerprints only,
        never the data."""
        writer = BitWriter()
        writer.write(self.num_buckets, 32)
        writer.write(self.slots, 8)
        writer.write(self.codebook.bucket_bits, 16)
        writer.write(self.num_entries, 40)
        for packed in self._buckets:
            writer.write(packed, self.codebook.bucket_bits)
        writer.write(len(self.overflow), 32)
        for index, fps in sorted(self.overflow.items()):
            writer.write(index, 32)
            writer.write(len(fps), 8)
            for fp in fps:
                writer.write(fp, 64)
        aht_items = [
            (pair, slot) for pair, slots in sorted(self.aht.items()) for slot in slots
        ]
        writer.write(len(aht_items), 32)
        for (lo, hi), (lid, fp) in aht_items:
            writer.write(lo, 32)
            writer.write(hi, 32)
            writer.write(lid, 16)
            writer.write(fp, 64)
        return writer.to_bytes()

    @classmethod
    def recover(
        cls,
        data: bytes,
        dist: LidDistribution,
        bits_per_entry: float = 10.0,
        slots: int = 4,
        nov: float = 0.9999,
        over_provision: float = 0.05,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        codebook: ChuckyCodebook | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "ChuckyFilter":
        """Rebuild a filter from :meth:`persist` output.

        The codebook is deterministic in the geometry (``codebook`` lends
        one already built for it), so only the packed buckets travel.
        Charges one memory I/O per restored bucket (the 'practically
        constant amortized cost per entry' of section 4.5).
        """
        reader = BitReader.from_bytes(data)
        num_buckets = reader.read(32)
        read_slots = reader.read(8)
        bucket_bits = reader.read(16)
        num_entries = reader.read(40)
        if read_slots != slots:
            raise FilterError(
                f"persisted filter has S={read_slots}, expected {slots}"
            )
        if bucket_bits != round(bits_per_entry * slots):
            raise FilterError(
                f"persisted bucket is {bucket_bits} bits, expected "
                f"{round(bits_per_entry * slots)}"
            )
        # ``capacity`` at zero over-provisioning reproduces the persisted
        # bucket count exactly; the caller's value is restored below.
        filt = cls(
            capacity=num_buckets * slots,
            dist=dist,
            bits_per_entry=bits_per_entry,
            slots=slots,
            nov=nov,
            over_provision=0.0,
            memory_ios=memory_ios,
            seed=seed,
            codebook=codebook,
            metrics=metrics,
        )
        filt.over_provision = over_provision
        for i in range(num_buckets):
            filt._buckets[i] = reader.read(bucket_bits)
        filt.memory_ios.add("filter", num_buckets)
        for _ in range(reader.read(32)):
            index = reader.read(32)
            count = reader.read(8)
            filt.overflow[index] = [reader.read(64) for _ in range(count)]
        for _ in range(reader.read(32)):
            lo = reader.read(32)
            hi = reader.read(32)
            lid = reader.read(16)
            fp = reader.read(64)
            filt.aht.setdefault((lo, hi), []).append((lid, fp))
        filt.num_entries = num_entries
        return filt


class UncompressedLidFilter(CuckooLidFilterBase):
    """Cuckoo filter with fixed-width integer LIDs — the SlimDB stand-in.

    Every slot spends ``ceil(log2 A)`` bits on the LID, stealing them
    from the fingerprint; the FPR therefore grows with the number of
    levels (Eq 6 / Figure 14 B's 'Chucky uncomp.' curve).
    """

    def __init__(
        self,
        capacity: int,
        dist: LidDistribution,
        bits_per_entry: float = 10.0,
        slots: int = 4,
        over_provision: float = 0.05,
        memory_ios: MemoryIOCounter | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.dist = dist
        self.lid_bits = max(1, math.ceil(math.log2(dist.num_sublevels)))
        self.fp_bits = max(FP_MIN, round(bits_per_entry) - self.lid_bits)
        super().__init__(
            num_buckets=_buckets_for_capacity(capacity, slots, over_provision),
            slots=slots,
            empty_lid=dist.most_probable_lid(),
            memory_ios=memory_ios,
            seed=seed,
            metrics=metrics,
        )
        self._buckets = SlotStore(self.num_buckets, slots, self.empty_lid)
        self._fp_shifts = [64 - self.fp_bits] * dist.num_sublevels

    def _read_bucket(self, index: int) -> list[Slot]:
        return self._buckets.read_bucket(index)

    def _write_bucket(self, index: int, slots: list[Slot]) -> None:
        self._buckets.write_bucket(index, slots)

    @property
    def size_bits(self) -> int:
        per_slot = self.lid_bits + self.fp_bits
        aht_bits = sum((16 + 64) * len(v) + 64 for v in self.aht.values())
        return self.num_buckets * self.slots * per_slot + aht_bits

    def expected_fpr(self) -> float:
        """Eq 6: ``2 S 2^{-F}`` with F shrunk by the integer LID width."""
        return 2.0 * self.slots * 2.0 ** (-self.fp_bits)
