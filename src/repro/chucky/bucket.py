"""Bit-packed bucket codec (paper sections 4.3-4.4).

A Chucky bucket is ``B`` bits: one combination code followed by the S
fingerprints *sorted by LID* (the combination discards ordering, so the
sort is what lets the decoder know which fingerprint belongs to which
LID). Under FAC, a frequent combination's code is exactly ``B - c_FP``
bits, so code + fingerprints always fill the bucket exactly; a rare
combination's code is ``B`` bits and its fingerprints live in the
overflow hash table.

Empty slots are (most-frequent LID, all-zero fingerprint) pairs —
indistinguishable from data on purpose: they ride the same code.
"""

from __future__ import annotations

from repro.coding.distributions import Combination
from repro.common.errors import FilterError
from repro.chucky.codebook import ChuckyCodebook
from repro.chucky.tables import CodecTables

#: One logical slot: (LID, fingerprint). Fingerprint 0 at the empty LID
#: marks a free slot.
Slot = tuple[int, int]


class BucketCodec:
    """Packs/unpacks logical slot lists to/from B-bit integers."""

    def __init__(self, codebook: ChuckyCodebook, tables: CodecTables) -> None:
        if codebook.mode != "mf_fac":
            raise FilterError(
                "the running filter requires the mf_fac codebook; other "
                "modes exist for alignment analysis only (Figure 9)"
            )
        self.codebook = codebook
        self.tables = tables
        self._bucket_bits = codebook.bucket_bits
        table = codebook.fast.decode_table
        self._decode_entry = table.decode_entry
        self._root = table.root
        # FAC codes are at most B bits, so the root index never pads.
        self._root_shift = codebook.bucket_bits - table.root_bits
        #: combination -> its compiled pack function (None if rare).
        self.pack_fn = codebook.fast.pack_fns.get
        self.empty_slot: Slot = (codebook.empty_lid, 0)
        self._empty_packed, _ = self.pack([self.empty_slot] * codebook.slots)

    @property
    def empty_packed(self) -> int:
        """The packed representation of a fully empty bucket."""
        return self._empty_packed

    def pack(self, slots: list[Slot]) -> tuple[int, list[int] | None]:
        """Encode slots into a packed bucket.

        Returns ``(packed, overflow_fps)``: for frequent combinations the
        fingerprints are inline and ``overflow_fps`` is None; for rare
        combinations the packed value is the bucket-sized escape code and
        ``overflow_fps`` carries the fingerprints (in LID-sorted order)
        for the overflow hash table.
        """
        if len(slots) != self.codebook.slots:
            raise FilterError(
                f"bucket must hold exactly {self.codebook.slots} slots, "
                f"got {len(slots)}"
            )
        ordered = sorted(slots)
        combo: Combination = tuple([lid for lid, _ in ordered])
        fn = self.pack_fn(combo)
        if fn is None:
            # Rare combination: the escape code fills the bucket and the
            # fingerprints spill (counts one filter_rt access).
            code, _length = self.tables.encode(combo)
            return code, [fp for _, fp in ordered]
        # Frequent combination: the compiled per-combination pack
        # function is one straight-line OR expression with a single
        # fused fingerprint-width guard.
        return fn(ordered), None

    def unpack(
        self, packed: int, overflow_fps: list[int] | None = None
    ) -> list[Slot]:
        """Decode a packed bucket back to LID-sorted slots.

        ``overflow_fps`` must be supplied when the bucket holds a rare
        combination (the caller looks it up in the overflow hash table
        keyed by bucket index).
        """
        # One fused table walk resolves the combination, the bits
        # consumed, rarity (plan is None) and the field layout.
        _used, combo, plan = self._decode_entry(packed, self._bucket_bits)
        if plan is None:
            self.tables.charge_rare_decode()
            return self._overflow_slots(combo, overflow_fps)
        # Shift/mask the fingerprint fields straight out of the word:
        # FAC buckets fill exactly, so every field position is
        # precomputed as an absolute shift in the plan.
        return [(lid, (packed >> shift) & mask) for lid, shift, mask, _ in plan]

    def matching_lids(self, packed: int, digest: int) -> list[int] | None:
        """LIDs of the slots whose fingerprint is the same-length prefix
        of the 64-bit ``digest`` (duplicates kept, LID-sorted), or
        ``None`` when the bucket is not a frequent combination resolved
        by one root-table index — a rare escape code or a subtable chain
        — and the caller must decode it in full.

        Matches each inline field straight from the plan, so the common
        probe builds no slot list and charges nothing (a frequent code
        decodes through the cache-resident tree, section 4.4). Empty
        slots hold fingerprint 0, which no digest prefix equals."""
        entry = self._root[packed >> self._root_shift]
        if type(entry) is not tuple or entry[2] is None:
            return None
        lids = []  # a loop, not a comprehension: no extra frame per call
        for lid, shift, mask, fp_shift in entry[2]:
            if (packed >> shift) & mask == digest >> fp_shift:
                lids.append(lid)
        return lids

    def root_entry(self, packed: int) -> tuple | None:
        """The decode-table terminal ``(length, combination, plan)`` of
        a frequent bucket resolved by one root-table index — its slots
        are ``(lid, (packed >> shift) & mask)`` for each plan field, what
        :meth:`unpack` returns for it with no decode charge — or
        ``None`` for a rare escape code or a subtable chain, which the
        caller decodes in full."""
        entry = self._root[packed >> self._root_shift]
        if type(entry) is not tuple or entry[2] is None:
            return None
        return entry

    def _overflow_slots(
        self, combo: Combination, overflow_fps: list[int] | None
    ) -> list[Slot]:
        """Slots of a rare-combination bucket, from its overflow entry."""
        if overflow_fps is None:
            raise FilterError(
                "rare-combination bucket decoded without its overflow "
                "fingerprints"
            )
        if len(overflow_fps) != len(combo):
            raise FilterError(
                f"overflow entry has {len(overflow_fps)} fingerprints "
                f"for a {len(combo)}-LID combination"
            )
        return list(zip(combo, overflow_fps))

    def is_rare(self, packed: int) -> bool:
        """True when the packed bucket holds a rare-combination escape
        code (its fingerprints are in the overflow hash table)."""
        # Under FAC only rare combinations lack an unpack plan.
        return self._decode_entry(packed, self._bucket_bits)[2] is None
