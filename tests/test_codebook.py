"""The Chucky codebook: C_freq selection, MF/FAC alignment, code
construction — the substance of paper sections 4.2-4.3 and Figure 9."""

import gc
import math
import weakref

import pytest

from repro.coding.distributions import LidDistribution
from repro.coding.kraft import kraft_sum
from repro.common.errors import CodebookError
from repro.chucky import codebook as codebook_module
from repro.chucky.codebook import ChuckyCodebook, codebook_for
from repro.chucky.filter import ChuckyFilter


@pytest.fixture(scope="module")
def cb_default():
    """Paper defaults: T=5, L=6, S=4, B=40 (M=10 bits/entry)."""
    return ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=40)


class TestConstruction:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ChuckyCodebook(LidDistribution(5, 3), mode="nope")

    def test_bucket_too_small_for_alphabet(self):
        with pytest.raises(CodebookError):
            ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=5)

    def test_budget_too_small_for_fp_min(self):
        """The 'Chucky requires at least ~8 bits per entry' effect
        (Figure 14 C): tiny buckets cannot align minimum fingerprints."""
        with pytest.raises(CodebookError):
            ChuckyCodebook(LidDistribution(5, 6), slots=4, bucket_bits=21)

    def test_nov_bounds(self):
        with pytest.raises(ValueError):
            ChuckyCodebook(LidDistribution(5, 3), nov=1.5)


class TestFrequentSet:
    def test_mass_covers_nov(self, cb_default):
        assert cb_default.frequent_mass >= cb_default.nov

    def test_minimal_prefix(self, cb_default):
        """Dropping the last frequent combination dips below NOV
        (footnote 1's minimality)."""
        last = cb_default.frequent[-1]
        assert (
            cb_default.frequent_mass - cb_default.probabilities[last]
            < cb_default.nov
        )

    def test_frequent_are_most_probable(self, cb_default):
        min_freq = min(cb_default.probabilities[c] for c in cb_default.frequent)
        max_rare = max(
            (cb_default.probabilities[c] for c in cb_default.rare), default=0.0
        )
        assert min_freq >= max_rare

    def test_all_empty_combo_is_frequent(self, cb_default):
        assert cb_default.is_frequent(cb_default.empty_combo)

    def test_partition(self, cb_default):
        assert len(cb_default.frequent) + len(cb_default.rare) == len(
            cb_default.probabilities
        )


class TestFacAlignment:
    def test_exact_fill_for_frequent(self, cb_default):
        """FAC's defining property: code + fingerprints exactly fill the
        bucket for every frequent combination — no underflow, no
        overflow (Figure 10 Part C)."""
        for combo in cb_default.frequent:
            assert (
                cb_default.code_lengths[combo] + cb_default.cumulative_fp(combo)
                == cb_default.bucket_bits
            )

    def test_rare_get_bucket_sized_escape(self, cb_default):
        for combo in cb_default.rare:
            assert cb_default.code_lengths[combo] == cb_default.bucket_bits

    def test_kraft_feasible(self, cb_default):
        assert kraft_sum(cb_default.code_lengths) <= 1

    def test_overflow_probability_is_rare_mass(self, cb_default):
        """With FAC, overflows are exactly the rare combinations:
        ~1 - NOV (Figure 9's horizontal curve)."""
        assert cb_default.overflow_probability() == pytest.approx(
            1 - cb_default.frequent_mass, abs=1e-12
        )
        assert cb_default.overflow_probability() < 2 * (1 - cb_default.nov)

    def test_fp_min_respected(self, cb_default):
        assert all(fp >= 5 for fp in cb_default.fp_by_level)

    def test_average_fp_near_budget(self, cb_default):
        """Paper: the MF+FAC average fingerprint sacrifices only ~1/2 bit
        versus the theoretical maximum M - H_comb."""
        from repro.coding.entropy import combination_entropy_per_lid

        m = cb_default.bucket_bits / cb_default.slots
        theoretical = m - combination_entropy_per_lid(cb_default.dist, 4)
        assert cb_default.average_fp_bits() <= theoretical + 1e-9
        assert cb_default.average_fp_bits() >= theoretical - 1.0


class TestModeComparison:
    """The Figure 9 story: MF & FAC dominate uniform fingerprints."""

    def make(self, mode, **kw):
        return ChuckyCodebook(
            LidDistribution(5, 6), slots=4, bucket_bits=40, mode=mode, **kw
        )

    def test_uniform_contention(self):
        """Uniform fingerprints: larger fingerprints mean more
        overflowing buckets (the curve in Figure 9)."""
        small = self.make("uniform", uniform_fp=7)
        large = self.make("uniform", uniform_fp=9)
        assert large.overflow_probability() > small.overflow_probability()

    def test_fac_beats_uniform_at_same_overflow(self):
        """At FAC's overflow level (~1e-4), uniform fingerprints must be
        much shorter."""
        fac = self.make("mf_fac")
        for fp in range(9, 4, -1):
            uni = self.make("uniform", uniform_fp=fp)
            if uni.overflow_probability() <= fac.overflow_probability() + 1e-4:
                assert fac.average_fp_bits() > uni.average_fp_bits()
                return
        # Uniform never reached FAC's overflow level with fp >= 5: FAC
        # dominates trivially.
        assert fac.average_fp_bits() >= 5

    def test_mf_beats_uniform(self):
        """MF alone already improves the fingerprint/overflow balance."""
        mf = self.make("mf")
        uni = self.make("uniform", uniform_fp=max(1, round(mf.average_fp_bits())))
        if uni.overflow_probability() <= mf.overflow_probability():
            assert mf.average_fp_bits() >= uni.average_fp_bits() - 1e-9

    def test_mf_fac_dominates_mf(self):
        """FAC trades the underflow bits for longer fingerprints: at a
        comparable (tiny) overflow probability, its average fingerprint
        is at least as long as plain MF's (Figure 9)."""
        fac = self.make("mf_fac")
        mf = self.make("mf")
        assert fac.overflow_probability() < 2 * (1 - fac.nov)
        assert fac.average_fp_bits() >= mf.average_fp_bits() - 1e-9

    def test_fac_acl_at_least_one_bit_per_entry(self):
        """FAC occupies underflow bits, pushing the ACL to >= S bits per
        bucket (>= 1 per entry) — the price of alignment (section 4.3)."""
        fac = self.make("mf_fac")
        assert fac.average_code_bits_per_entry() >= 1.0 - 1e-9


class TestLookups:
    def test_fp_length_by_lid(self, cb_default):
        d = cb_default.dist
        for lid in d.lids:
            assert cb_default.fp_length(lid) == cb_default.fp_by_level[
                d.level_of_lid(lid) - 1
            ]

    def test_rare_index_dense(self, cb_default):
        indices = sorted(cb_default.rare_index(c) for c in cb_default.rare)
        assert indices == list(range(len(cb_default.rare)))

    def test_expected_fpr_close_to_eq16(self, cb_default):
        """The codebook's FPR estimate agrees with Eq 16 within its
        conservative slack."""
        from repro.analysis.fpr_models import fpr_chucky_model

        model = fpr_chucky_model(10, 5)
        assert cb_default.expected_fpr() <= model * 1.6
        assert cb_default.expected_fpr() >= model * 0.25


class TestGeometrySweep:
    @pytest.mark.parametrize("t,l,k,z", [
        (5, 6, 1, 1),
        (5, 4, 4, 1),   # lazy leveling
        (5, 4, 4, 4),   # tiering
        (3, 8, 1, 1),
        (2, 5, 1, 1),
    ])
    def test_alignment_holds_across_geometries(self, t, l, k, z):
        cb = ChuckyCodebook(
            LidDistribution(t, l, k, z), slots=4, bucket_bits=40
        )
        for combo in cb.frequent:
            assert (
                cb.code_lengths[combo] + cb.cumulative_fp(combo)
                == cb.bucket_bits
            )
        assert kraft_sum(cb.code_lengths) <= 1
        assert cb.overflow_probability() < 0.001

    def test_avg_fp_converges_with_levels(self):
        """Figure 14 B's mechanism: the average fingerprint stays large
        as L grows because the ACL converges."""
        values = [
            ChuckyCodebook(LidDistribution(5, l), bucket_bits=40).average_fp_bits()
            for l in (4, 6, 8, 10)
        ]
        assert max(values) - min(values) < 0.35

    def test_dt_size_grows_slowly(self):
        """Figure 12: |C| (and so the DT) grows polynomially, not
        exponentially, with L."""
        sizes = [
            len(ChuckyCodebook(LidDistribution(5, l), bucket_bits=40).rare)
            for l in (4, 6, 8)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]
        assert sizes[2] < math.comb(8 + 4 - 1 + 4, 4) * 8


class TestOneCodebookPerGeometry:
    def test_filters_of_one_geometry_share_it_until_the_last_is_dropped(self):
        """``codebook_for`` hands every live filter of one geometry the
        same codebook, and its weak memo keeps none alive: with the
        cyclic collector off, dropping the last filter frees it."""
        dist = LidDistribution(7, 2)
        key = (dist, 4, 40, 0.9999)
        gc.collect()
        gc.disable()
        try:
            first = ChuckyFilter(256, dist, bits_per_entry=10.0)
            second = ChuckyFilter(256, dist, bits_per_entry=10.0)
            assert second.codebook is first.codebook is codebook_for(*key)
            first.insert(1, 1)  # the filters share the lazy fast tables too
            assert second.codebook._fast is not None
            alive = weakref.ref(first.codebook)
            del first
            assert alive() is second.codebook
            del second
            assert alive() is None
            assert key not in codebook_module._CODEBOOKS
        finally:
            gc.enable()

    def test_a_geometry_is_every_argument(self):
        dist = LidDistribution(7, 2)
        held = codebook_for(dist, 4, 40, 0.9999)
        for other in (
            (LidDistribution(7, 3), 4, 40, 0.9999),
            (dist, 2, 20, 0.9999),
            (dist, 4, 36, 0.9999),
            (dist, 4, 40, 0.999),
        ):
            assert codebook_for(*other) is not held
        assert codebook_for(dist, 4, 40, 0.9999) is held
