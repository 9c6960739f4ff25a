"""The Chucky codebook: combination codes + per-level fingerprint lengths.

Built once per LSM-tree geometry (it only changes when the number of
levels changes — paper section 4.3, Construction Time): a running
filter gets its codebook from :func:`codebook_for`, which hands every
filter of one geometry the same object while any of them is alive. The
codebook fixes everything the filter needs to pack a bucket:

* the multinomial probability of every LID combination (Eq 12);
* the frequent set ``C_freq`` covering a NOV fraction (default 0.9999)
  of bucket probability mass (section 4.3);
* per-level fingerprint lengths from Malleable Fingerprinting
  (Algorithm 1);
* a canonical prefix code over all combinations. Under Fluid Alignment
  Coding the code lengths are chosen directly: ``B - c_FP`` for frequent
  combinations (code + fingerprints exactly fill the bucket — no
  underflow, no overflow) and exactly ``B`` for every rare combination
  (a bucket-filling escape code; the fingerprints of such a bucket live
  in the overflow hash table). Kraft–McMillan feasibility of these
  lengths is precisely the Eq 15 constraint that Algorithm 1 enforced.

Three modes support the Figure 9 ablation:

* ``uniform`` — fixed fingerprint length, plain Huffman combination
  codes (Figure 10 Part A);
* ``mf`` — Algorithm 1 under Eq 14, plain Huffman codes (Part B);
* ``mf_fac`` — Algorithm 1 under Eq 15, exact-fill codes (Part C; the
  deployed design, and the only mode :class:`repro.chucky.filter.
  ChuckyFilter` runs).
"""

from __future__ import annotations

import math
import weakref

from repro.coding.distributions import (
    Combination,
    LidDistribution,
    combination_weights,
)
from repro.coding.huffman import huffman_code_lengths
from repro.coding.kraft import CanonicalCode
from repro.common.errors import CodebookError
from repro.common.hashing import FP_MIN
from repro.chucky.decode import BucketFastTables
from repro.chucky.malleable import (
    LevelCounts,
    _fit_constraint,
    _kraft_constraint,
    cumulative_fp_length,
    level_count_vector,
    maximize_fingerprints,
)

MODES = ("uniform", "mf", "mf_fac")


class ChuckyCodebook:
    """Immutable coding plan for one (geometry, S, B, mode, NOV) tuple."""

    def __init__(
        self,
        dist: LidDistribution,
        slots: int = 4,
        bucket_bits: int = 40,
        mode: str = "mf_fac",
        nov: float = 0.9999,
        fp_min: int = FP_MIN,
        uniform_fp: int | None = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if not 0.0 < nov < 1.0:
            raise ValueError(f"NOV must be in (0, 1), got {nov}")
        self.dist = dist
        self.slots = slots
        self.bucket_bits = bucket_bits
        self.mode = mode
        self.nov = nov
        self.fp_min = fp_min
        #: Empty slots are encoded as the most frequent LID (shortest
        #: contribution to the combination code) with an all-zero
        #: fingerprint (section 4.5).
        self.empty_lid = dist.most_probable_lid()

        self.probabilities = combination_weights(dist, slots)
        num_combos = len(self.probabilities)
        if bucket_bits < max(1, math.ceil(math.log2(num_combos))):
            raise CodebookError(
                f"bucket of {bucket_bits} bits cannot identify "
                f"{num_combos} combinations uniquely (needs 2^B >= |C|)"
            )

        # C_freq: most probable combinations until their cumulative
        # probability just exceeds NOV (footnote 1 of the paper).
        ranked = sorted(
            self.probabilities.items(), key=lambda kv: (-kv[1], kv[0])
        )
        freq: list[Combination] = []
        cumulative = 0.0
        for combo, prob in ranked:
            freq.append(combo)
            cumulative += prob
            if cumulative >= nov:
                break
        self.frequent = freq
        self.frequent_set = frozenset(freq)
        self.frequent_mass = cumulative
        self.rare = [c for c, _ in ranked[len(freq):]]

        self._vectors: dict[Combination, LevelCounts] = {
            combo: level_count_vector(combo, dist) for combo in self.probabilities
        }

        self.fp_by_level = self._solve_fingerprints(uniform_fp)
        self._fp_by_lid = [
            self.fp_by_level[dist.level_of_lid(lid) - 1] for lid in dist.lids
        ]
        self.code_lengths = self._solve_code_lengths()
        self.code = self._build_canonical()
        # Index of the escape (rare) block within the canonical code: all
        # rare combinations have length exactly B and occupy a contiguous
        # codeword range, which is what makes the Decoding Table a flat
        # array (section 4.4).
        self._rare_index = {combo: i for i, combo in enumerate(self.rare)}
        self._fast: "BucketFastTables | None" = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _solve_fingerprints(self, uniform_fp: int | None) -> list[int]:
        num_levels = self.dist.num_levels
        if self.mode == "uniform":
            if uniform_fp is None:
                uniform_fp = max(self.fp_min, self.bucket_bits // self.slots - 1)
            if uniform_fp < self.fp_min:
                raise CodebookError(
                    f"uniform fingerprint {uniform_fp} below FP_MIN {self.fp_min}"
                )
            return [uniform_fp] * num_levels

        freq_vectors: dict[LevelCounts, int] = {}
        for combo in self.frequent:
            vec = self._vectors[combo]
            freq_vectors[vec] = freq_vectors.get(vec, 0) + 1

        if self.mode == "mf_fac":
            constraint = _kraft_constraint(
                freq_vectors, len(self.rare), self.bucket_bits
            )
        else:  # plain MF: fit under pre-computed Huffman code lengths
            huff = huffman_code_lengths(self.probabilities)
            vector_max_code: dict[LevelCounts, int] = {}
            for combo in self.frequent:
                vec = self._vectors[combo]
                l = huff[combo]
                if vector_max_code.get(vec, -1) < l:
                    vector_max_code[vec] = l
            constraint = _fit_constraint(vector_max_code, self.bucket_bits)
        return maximize_fingerprints(
            num_levels, constraint, fp_min=self.fp_min
        )

    def _solve_code_lengths(self) -> dict[Combination, int]:
        if self.mode == "mf_fac":
            lengths: dict[Combination, int] = {}
            for combo in self.frequent:
                lengths[combo] = self.bucket_bits - self.cumulative_fp(combo)
            for combo in self.rare:
                lengths[combo] = self.bucket_bits
            return lengths
        return huffman_code_lengths(self.probabilities)

    def _build_canonical(self) -> CanonicalCode:
        # Insertion order fixes canonical tie-breaking within a length:
        # frequent combinations first (by probability rank), then rare
        # ones in rank order so the Decoding Table index is stable.
        ordered: dict[Combination, int] = {}
        for combo in self.frequent:
            ordered[combo] = self.code_lengths[combo]
        for combo in self.rare:
            ordered[combo] = self.code_lengths[combo]
        try:
            return CanonicalCode(ordered)
        except ValueError as exc:  # Kraft violation — should be prevented
            raise CodebookError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def fp_length(self, lid: int) -> int:
        """Fingerprint length (bits) for entries at sub-level ``lid``."""
        return self._fp_by_lid[lid - 1]

    def cumulative_fp(self, combo: Combination) -> int:
        """``c_FP``: total fingerprint bits of a bucket holding ``combo``."""
        return cumulative_fp_length(self._vectors[combo], self.fp_by_level)

    def is_frequent(self, combo: Combination) -> bool:
        return combo in self.frequent_set

    @property
    def fast(self) -> "BucketFastTables":
        """Hot-path decode table + pack/unpack plans, built lazily once
        per codebook (a codebook is immutable, so once is enough) and
        shared by every filter sharing it (:func:`codebook_for`): the
        build is deterministic and nothing in the package runs threads."""
        tables = self._fast
        if tables is None:
            tables = self._fast = BucketFastTables(self)
        return tables

    def rare_index(self, combo: Combination) -> int:
        """Position of a rare combination in the Decoding Table."""
        return self._rare_index[combo]

    @property
    def empty_combo(self) -> Combination:
        return (self.empty_lid,) * self.slots

    # ------------------------------------------------------------------
    # Analytics (Figures 9, 11, 12 and Eq 16's measured counterpart)
    # ------------------------------------------------------------------

    def overflow_probability(self) -> float:
        """Probability a random full bucket cannot hold its own
        fingerprints (its contents spill to the overflow hash table)."""
        total = 0.0
        for combo, prob in self.probabilities.items():
            if self.code_lengths[combo] + self.cumulative_fp(combo) > self.bucket_bits:
                total += prob
        return total

    def average_fp_bits(self) -> float:
        """Entry-weighted mean fingerprint length ``sum_j f_j FP(j)``."""
        return sum(
            float(f) * self.fp_length(lid)
            for lid, f in zip(self.dist.lids, self.dist.probabilities())
        )

    def average_code_bits_per_entry(self) -> float:
        """Probability-weighted combination-code length per entry."""
        acl_bucket = sum(
            self.probabilities[c] * self.code_lengths[c] for c in self.probabilities
        )
        return acl_bucket / self.slots

    def expected_fpr(self) -> float:
        """Expected false positives per negative query at full load:
        ``2 S sum_j f_j 2^{-FP(j)}`` (the variable-length refinement of
        Eq 5)."""
        per_slot = sum(
            float(f) * 2.0 ** (-self.fp_length(lid))
            for lid, f in zip(self.dist.lids, self.dist.probabilities())
        )
        return 2.0 * self.slots * per_slot

    def plan_stats(self) -> dict[str, float]:
        """The coding plan's headline numbers as one flat mapping — what
        the observability layer publishes as gauges after every (re)build
        so a scrape can watch the plan drift as the tree grows."""
        return {
            "bucket_bits": float(self.bucket_bits),
            "slots": float(self.slots),
            "nov": self.nov,
            "combinations": float(len(self.probabilities)),
            "frequent_combinations": float(len(self.frequent)),
            "frequent_mass": self.frequent_mass,
            "avg_fp_bits": self.average_fp_bits(),
            "code_bits_per_entry": self.average_code_bits_per_entry(),
            "overflow_probability": self.overflow_probability(),
            "expected_fpr": self.expected_fpr(),
        }


#: The live codebooks, by ``(dist, slots, bucket_bits, nov)``. Weak
#: values: an entry lives exactly as long as some filter holds its
#: codebook, so the memo needs no size bound and keeps nothing alive.
_CODEBOOKS = weakref.WeakValueDictionary()


def codebook_for(
    dist: LidDistribution, slots: int, bucket_bits: int, nov: float
) -> ChuckyCodebook:
    """The ``mf_fac`` codebook of one geometry: the one any live filter
    of that geometry already holds, else a new one."""
    key = (dist, slots, bucket_bits, nov)
    codebook = _CODEBOOKS.get(key)
    if codebook is None:
        codebook = _CODEBOOKS[key] = ChuckyCodebook(dist, slots, bucket_bits, nov=nov)
    return codebook
