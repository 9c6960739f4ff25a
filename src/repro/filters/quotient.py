"""Quotient filter (Bender et al. 2012; paper refs [9, 81]).

The other fingerprint-filter family the paper's section 3 lists next to
the Cuckoo filter. A key's fingerprint splits into a q-bit *quotient*
(its canonical slot in a 2^q table) and an r-bit *remainder* stored in
the slot. Collisions resolve by linear probing with three metadata bits
per slot (``is_occupied`` / ``is_continuation`` / ``is_shifted``):
equal-quotient remainders form sorted, contiguous *runs*, runs pack
into *clusters*, and everything stays decodable — so the filter
supports true deletion and never needs rebuilding on compaction (the
Bloom filter's weakness), while probes stay sequential (the family's
cache-locality pitch).

Implementation strategy: operations locate the maximal non-empty region
around the canonical slot, decode it into {quotient: sorted remainders}
via the metadata bits, modify it, and re-encode minimally (each run
placed at the earliest slot allowed). This maintains the exact physical
layout of the classic in-place algorithm — the property tests verify
the three-bit invariants directly — while keeping the shifting logic
auditable. Memory I/Os are charged per cache line spanned by the
touched region.
"""

from __future__ import annotations

from repro.common.counters import MemoryIOCounter
from repro.common.errors import CapacityError
from repro.common.hashing import seeded

#: Digest a key's quotient and remainder are cut from.
_quotient_digest = seeded(8100)
_LINE_BITS = 512


class QuotientFilter:
    """A quotient filter with 2^q slots and r-bit remainders."""

    def __init__(
        self,
        capacity: int,
        remainder_bits: int = 9,
        memory_ios: MemoryIOCounter | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 2 <= remainder_bits <= 32:
            raise ValueError(
                f"remainder_bits must be in [2, 32], got {remainder_bits}"
            )
        wanted = max(8, round(capacity / 0.95))
        self._q = (wanted - 1).bit_length()
        self._size = 1 << self._q
        self._r = remainder_bits
        self._remainders = [0] * self._size
        self._occupied = [False] * self._size
        self._continuation = [False] * self._size
        self._shifted = [False] * self._size
        self._used = [False] * self._size  # slot holds a remainder
        self._memory_ios = (
            memory_ios if memory_ios is not None else MemoryIOCounter()
        )
        self.num_entries = 0
        self._slots_per_line = max(1, _LINE_BITS // (self._r + 3))

    # -- fingerprinting ----------------------------------------------------

    def _parts(self, key: int) -> tuple[int, int]:
        digest = _quotient_digest(key)
        quotient = (digest >> self._r) & (self._size - 1)
        remainder = digest & ((1 << self._r) - 1)
        return quotient, remainder

    @property
    def size_bits(self) -> int:
        return self._size * (self._r + 3)

    @property
    def load_factor(self) -> float:
        return self.num_entries / self._size

    def expected_fpp(self) -> float:
        """~``alpha 2^-r``: a hard collision with a stored fingerprint."""
        return self.load_factor * 2.0 ** (-self._r)

    # -- region decode / encode ----------------------------------------------

    def _region_start(self, index: int) -> int:
        """Start of the maximal non-empty region containing ``index``
        (the slot before the start is empty). ``index`` must be inside a
        non-empty region or be empty itself."""
        start = index
        steps = 0
        while self._used[(start - 1) % self._size]:
            start = (start - 1) % self._size
            steps += 1
            if steps > self._size:
                raise CapacityError("quotient filter is completely full")
        return start

    def _region_span(self, start: int) -> int:
        span = 0
        while self._used[(start + span) % self._size]:
            span += 1
        return span

    def _decode(self, start: int, span: int) -> dict[int, list[int]]:
        """Region -> {quotient: sorted remainders}, via the three bits:
        the i-th run (continuation=False starts one) belongs to the i-th
        occupied canonical slot, in position order."""
        quotients = [
            (start + off) % self._size
            for off in range(span)
            if self._occupied[(start + off) % self._size]
        ]
        runs: list[list[int]] = []
        for off in range(span):
            slot = (start + off) % self._size
            if not self._continuation[slot]:
                runs.append([])
            runs[-1].append(self._remainders[slot])
        if len(runs) != len(quotients):
            raise AssertionError(
                f"corrupt region at {start}: {len(runs)} runs for "
                f"{len(quotients)} occupied quotients"
            )
        return dict(zip(quotients, runs))

    def _encode(self, start: int, old_span: int, content: dict[int, list[int]]):
        """Write the mapping back, minimally packed, clearing leftovers."""
        total = sum(len(v) for v in content.values())
        # Clear the old region plus one slot of growth headroom.
        for off in range(old_span + 1):
            slot = (start + off) % self._size
            self._used[slot] = False
            self._occupied[slot] = False
            self._continuation[slot] = False
            self._shifted[slot] = False
            self._remainders[slot] = 0
        prev_end = 0
        ordered = sorted(content.items(), key=lambda kv: (kv[0] - start) % self._size)
        new_span = 0
        for quotient, remainders in ordered:
            if not remainders:
                continue
            q_lin = (quotient - start) % self._size
            p = max(q_lin, prev_end)
            self._occupied[quotient] = True
            for i, remainder in enumerate(sorted(remainders)):
                slot = (start + p + i) % self._size
                self._used[slot] = True
                self._remainders[slot] = remainder
                self._continuation[slot] = i > 0
                self._shifted[slot] = (p + i) != q_lin
            prev_end = p + len(remainders)
            new_span = prev_end
        if new_span > old_span + 1:
            raise AssertionError("region grew by more than one slot")
        del total

    # -- operations -------------------------------------------------------------

    def add(self, key: int) -> None:
        """Insert a fingerprint (duplicates stack, keeping deletes exact)."""
        if self.num_entries >= int(self._size * 0.98):
            raise CapacityError(
                f"quotient filter too full (load {self.load_factor:.2f})"
            )
        quotient, remainder = self._parts(key)
        if not self._used[quotient] and not self._occupied[quotient]:
            # Fast path: empty canonical slot.
            self._used[quotient] = True
            self._occupied[quotient] = True
            self._remainders[quotient] = remainder
            self.num_entries += 1
            self._memory_ios.add("filter", 1)
            return
        start = self._region_start(quotient)
        span = self._region_span(start)
        content = self._decode(start, span)
        content.setdefault(quotient, []).append(remainder)
        self._encode(start, span, content)
        self.num_entries += 1
        self._charge(span + 1)

    def may_contain(self, key: int) -> bool:
        quotient, remainder = self._parts(key)
        if not self._occupied[quotient]:
            self._memory_ios.add("filter", 1)
            return False
        start = self._region_start(quotient)
        span = self._region_span(start)
        self._charge((quotient - start) % self._size + 1)
        content = self._decode(start, span)
        return remainder in content.get(quotient, ())

    def remove(self, key: int) -> bool:
        """Delete one stored copy of the key's fingerprint, if present."""
        quotient, remainder = self._parts(key)
        if not self._occupied[quotient]:
            self._memory_ios.add("filter", 1)
            return False
        start = self._region_start(quotient)
        span = self._region_span(start)
        content = self._decode(start, span)
        remainders = content.get(quotient, [])
        if remainder not in remainders:
            self._charge(span)
            return False
        remainders.remove(remainder)
        self._encode(start, span, content)
        self.num_entries -= 1
        self._charge(span)
        return True

    def _charge(self, slots_touched: int) -> None:
        lines = 1 + (slots_touched - 1) // self._slots_per_line
        self._memory_ios.add("filter", lines)

    # -- invariant audit (used by the property tests) ----------------------------

    def check_invariants(self) -> None:
        """Verify the three-bit layout invariants over the whole table."""
        for slot in range(self._size):
            if self._continuation[slot]:
                assert self._used[slot], f"continuation on empty slot {slot}"
                prev = (slot - 1) % self._size
                assert self._used[prev], f"continuation after gap at {slot}"
            if not self._used[slot]:
                assert not self._continuation[slot]
                assert not self._shifted[slot]
        # Every non-empty region must decode cleanly and place each
        # quotient's remainders at-or-after its canonical slot, sorted.
        visited = set()
        for slot in range(self._size):
            if not self._used[slot] or slot in visited:
                continue
            start = self._region_start(slot)
            span = self._region_span(start)
            for off in range(span):
                visited.add((start + off) % self._size)
            content = self._decode(start, span)
            for quotient, remainders in content.items():
                assert remainders == sorted(remainders)
                assert self._occupied[quotient]
