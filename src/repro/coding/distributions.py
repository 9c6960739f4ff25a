"""Level-ID probability distributions (paper Eqs 7, 8, 12).

The LSM-tree's exponential level capacities make the distribution of
level IDs inside the Cuckoo filter heavily skewed — the compressibility
insight at the heart of Chucky. This module computes that distribution
exactly for any Dostoevsky geometry (T, K, Z, L):

* ``p_i`` — the fraction of total capacity at Level i (Eq 7). We use the
  exact normalized form ``p_i = (T-1) T^{i-1} / (T^L - 1)``, which sums
  to one and converges to the paper's asymptotic ``(T-1)/T^{L-i+1}``.
  This form reproduces the paper's Figure 4 worked example bit-for-bit
  (frequencies n/124 for T=5, L=3, ACL = 189/124 ~ 1.52 bits).
* ``f_j`` — the probability of sub-level (LID) j (Eq 8): the level's
  capacity split evenly over its sub-levels.
* combination probabilities — the multinomial distribution over the
  multiset of S LIDs in one bucket (Eq 12).

LID numbering follows Figure 2: LID 1 is the youngest sub-level of the
smallest level; the j-th youngest run of Level i sits at sub-level
``(i-1)K + j``; the largest level's Z sub-levels get the highest LIDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

#: A bucket combination: the multiset of the S slots' LIDs, kept as a
#: sorted tuple so equal multisets compare equal.
Combination = tuple[int, ...]


def level_capacity_fractions(size_ratio: int, num_levels: int) -> list[Fraction]:
    """Exact ``p_i`` for i = 1..L (Eq 7): fraction of capacity at Level i.

    Level capacities grow by a factor of T per level; normalizing
    ``(T-1) T^{i-1}`` over all L levels gives ``p_i = (T-1) T^{i-1} /
    (T^L - 1)``, exact fractions summing to one.
    """
    if size_ratio < 2:
        raise ValueError(f"size ratio T must be >= 2, got {size_ratio}")
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    t, l = size_ratio, num_levels
    denom = t**l - 1
    return [Fraction((t - 1) * t ** (i - 1), denom) for i in range(1, l + 1)]


def sublevels_at_level(
    level: int, num_levels: int, runs_per_level: int, runs_at_last_level: int
) -> int:
    """``A_i`` (Eq 1): K sub-levels at Levels 1..L-1, Z at Level L."""
    if not 1 <= level <= num_levels:
        raise ValueError(f"level {level} out of range [1, {num_levels}]")
    return runs_at_last_level if level == num_levels else runs_per_level


def sublevel_probabilities(
    size_ratio: int,
    num_levels: int,
    runs_per_level: int = 1,
    runs_at_last_level: int = 1,
) -> list[Fraction]:
    """Exact ``f_j`` for every LID j = 1..A (Eq 8).

    The level's capacity fraction is divided evenly among its sub-levels
    (the paper's all-sub-levels-full worst case). Returned in LID order:
    index 0 is LID 1 (youngest sub-level of Level 1).
    """
    if runs_per_level < 1 or runs_at_last_level < 1:
        raise ValueError("K and Z must both be >= 1")
    p = level_capacity_fractions(size_ratio, num_levels)
    probs: list[Fraction] = []
    for level in range(1, num_levels + 1):
        a_i = sublevels_at_level(level, num_levels, runs_per_level, runs_at_last_level)
        probs.extend([p[level - 1] / a_i] * a_i)
    return probs


@dataclass(frozen=True)
class LidDistribution:
    """The LID probability distribution for one LSM-tree geometry.

    Wraps Eqs 1, 7 and 8 with convenient accessors; all probabilities are
    exact :class:`fractions.Fraction` values (converted to float only at
    the Huffman boundary).
    """

    size_ratio: int
    num_levels: int
    runs_per_level: int = 1
    runs_at_last_level: int = 1

    def __post_init__(self) -> None:
        # Trigger validation early.
        level_capacity_fractions(self.size_ratio, self.num_levels)
        if self.runs_per_level < 1 or self.runs_at_last_level < 1:
            raise ValueError("K and Z must both be >= 1")

    @property
    def num_sublevels(self) -> int:
        """A (Eq 1): total sub-levels = (L-1) K + Z."""
        return (self.num_levels - 1) * self.runs_per_level + self.runs_at_last_level

    @property
    def lids(self) -> range:
        """All valid LIDs, numbered 1..A."""
        return range(1, self.num_sublevels + 1)

    def level_of_lid(self, lid: int) -> int:
        """The level containing sub-level ``lid`` (ceil(j/K), capped at L)."""
        if not 1 <= lid <= self.num_sublevels:
            raise ValueError(f"LID {lid} out of range [1, {self.num_sublevels}]")
        k = self.runs_per_level
        level = (lid + k - 1) // k
        return min(level, self.num_levels)

    def probabilities(self) -> list[Fraction]:
        """``f_j`` in LID order (Eq 8)."""
        return sublevel_probabilities(
            self.size_ratio,
            self.num_levels,
            self.runs_per_level,
            self.runs_at_last_level,
        )

    def most_probable_lid(self) -> int:
        """The LID with the highest probability: the oldest sub-level of
        the largest level (used as the empty-slot LID, section 4.5)."""
        return self.num_sublevels

    def weights(self) -> dict[int, float]:
        """Float weights keyed by LID, ready for the Huffman encoder."""
        return {lid: float(f) for lid, f in zip(self.lids, self.probabilities())}


def enumerate_combinations(num_lids: int, slots: int) -> list[Combination]:
    """All multisets of ``slots`` LIDs from 1..num_lids, sorted tuples.

    ``|C| = C(A + S - 1, S)`` (paper section 4.2).
    """
    if num_lids < 1 or slots < 1:
        raise ValueError("num_lids and slots must both be >= 1")
    return list(combinations_with_replacement(range(1, num_lids + 1), slots))


def combination_probability(
    combo: Combination, lid_probs: list[Fraction] | list[float]
) -> Fraction | float:
    """Multinomial probability of a bucket combination (Eq 12).

    ``c_prob = S! / prod(c(j)!) * prod(f_j^{c(j)})`` where ``c(j)`` counts
    occurrences of LID j in the combination.
    """
    counts: dict[int, int] = {}
    for lid in combo:
        counts[lid] = counts.get(lid, 0) + 1
    coeff = math.factorial(len(combo))
    for c in counts.values():
        coeff //= math.factorial(c)
    prob = coeff
    for lid, c in counts.items():
        prob = prob * lid_probs[lid - 1] ** c
    return prob


def combination_weights(
    dist: LidDistribution, slots: int
) -> dict[Combination, float]:
    """Multinomial probabilities (as floats) of every combination of
    ``slots`` LIDs — the Huffman input for combination coding."""
    probs = dist.probabilities()
    floats = [float(f) for f in probs]
    return {
        combo: float(combination_probability(combo, floats))
        for combo in enumerate_combinations(dist.num_sublevels, slots)
    }
