"""The one exact quantile definition, ``common.quantile.nearest_rank``."""

import pytest

from repro.common.quantile import nearest_rank


class TestNearestRank:
    def test_exact_multiples_do_not_round_up(self):
        # p50 of 4 values is the 2nd, not the 3rd.
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p99_of_small_sets_is_max(self):
        assert nearest_rank([5.0, 1.0, 3.0], 0.99) == 5.0

    def test_empty_is_none_and_bad_q_raises(self):
        assert nearest_rank([], 0.5) is None
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)
