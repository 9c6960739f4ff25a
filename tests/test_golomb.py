"""Truncated-binary / Golomb LID encoding (the ACL_UB code of Eq 11)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.golomb import golomb_lid_code_lengths, truncated_binary_length
from repro.coding.kraft import kraft_sum


class TestTruncatedBinaryLength:
    def test_singleton_alphabet_is_free(self):
        assert truncated_binary_length(0, 1) == 0

    def test_power_of_two_uniform(self):
        assert all(truncated_binary_length(i, 8) == 3 for i in range(8))

    def test_classic_n5(self):
        # n=5: k=2, 2^(k+1)-n = 3 short symbols of 2 bits, 2 long of 3.
        lengths = [truncated_binary_length(i, 5) for i in range(5)]
        assert lengths == [2, 2, 2, 3, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            truncated_binary_length(5, 5)
        with pytest.raises(ValueError):
            truncated_binary_length(0, 0)


@given(st.integers(2, 300))
def test_truncated_binary_codes_distinct(alphabet):
    """The lengths fill the Kraft sum exactly: a complete prefix code, so
    every symbol gets its own codeword and none is wasted."""
    lengths = {i: truncated_binary_length(i, alphabet) for i in range(alphabet)}
    assert kraft_sum(lengths) == 1


class TestGolombLidLengths:
    def test_leveled_tree(self):
        # L=3, one sub-level per level: LID j at level j, unary L-i+1,
        # suffix 0 bits.
        lengths = golomb_lid_code_lengths(3, [1, 1, 1])
        assert lengths == {1: 3, 2: 2, 3: 1}

    def test_sublevels_add_suffix(self):
        # Level 1 has 2 sub-levels -> +1 bit suffix each.
        lengths = golomb_lid_code_lengths(2, [2, 1])
        assert lengths == {1: 3, 2: 3, 3: 1}

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            golomb_lid_code_lengths(2, [1])

    def test_larger_levels_get_shorter_codes(self):
        lengths = golomb_lid_code_lengths(5, [2, 2, 2, 2, 1])
        per_level_first = [lengths[(i * 2) + 1] for i in range(4)] + [lengths[9]]
        assert per_level_first == sorted(per_level_first, reverse=True)
