"""Golomb-style LID encoding: unary level prefix + truncated-binary suffix.

This is the "less generic coding method" of paper section 4.2 used to
derive the tight ACL upper bound (Eq 11): Level ``i`` of an ``L``-level
tree is written as a unary prefix of ``L - i + 1`` bits (larger levels —
the probable ones — get shorter prefixes), followed by a truncated binary
code distinguishing the ``A_i`` sub-levels within the level. Huffman
coding is optimal, so its ACL can only be shorter; Figure 5 plots this
bound (``ACL_UB``) against the measured Huffman ACL.
"""

from __future__ import annotations


def truncated_binary_length(index: int, alphabet_size: int) -> int:
    """Bits used by the truncated binary code for ``index`` among
    ``alphabet_size`` symbols."""
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if not 0 <= index < alphabet_size:
        raise ValueError(f"index {index} out of range [0, {alphabet_size})")
    if alphabet_size == 1:
        return 0
    k = alphabet_size.bit_length() - 1
    short_count = (1 << (k + 1)) - alphabet_size
    return k if index < short_count else k + 1


def golomb_lid_code_lengths(
    num_levels: int, sublevels_per_level: list[int]
) -> dict[int, int]:
    """Code length of every sub-level LID under the Eq-11 encoding.

    ``sublevels_per_level[i-1]`` is ``A_i``. Returns a mapping from LID
    ``j`` (1-based, numbered smallest level first as in Figure 2) to its
    total code length: unary prefix ``L - i + 1`` plus the truncated
    binary suffix for its index among the ``A_i`` sub-levels.
    """
    if num_levels != len(sublevels_per_level):
        raise ValueError(
            f"expected {num_levels} sub-level counts, got {len(sublevels_per_level)}"
        )
    lengths: dict[int, int] = {}
    lid = 1
    for level in range(1, num_levels + 1):
        a_i = sublevels_per_level[level - 1]
        prefix = num_levels - level + 1
        for idx in range(a_i):
            lengths[lid] = prefix + truncated_binary_length(idx, a_i)
            lid += 1
    return lengths
