import math
from collections import Counter

import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoeval.stats import (
    FoldPlan,
    McNemarTable,
    PairedTResult,
    betainc_reg,
    chi2_sf_1dof,
    make_folds,
    mcnemar,
    paired_t_test,
    student_t_two_tailed,
    wilcoxon_signed_rank,
)


class TestMcNemar:
    def test_equal_disagreement_uncorrected(self):
        result = mcnemar(McNemarTable(b=10, c=10), corrected=False)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_25_5_uncorrected(self):
        # Frozen from an independent chi-squared(1) tail computation.
        result = mcnemar(McNemarTable(b=25, c=5), corrected=False)
        assert result.statistic == pytest.approx(13.33, abs=0.01)
        assert result.p_value == pytest.approx(2.6073e-4, rel=0.05)

    def test_25_5_corrected(self):
        result = mcnemar(McNemarTable(b=25, c=5), corrected=True)
        assert result.statistic == pytest.approx(12.03, abs=0.01)
        assert result.p_value == pytest.approx(5.2258e-4, rel=0.05)

    def test_no_disagreements(self):
        result = mcnemar(McNemarTable(b=0, c=0))
        assert result.p_value == 1.0
        assert result.note == "only 0 disagreements; chi-squared approximation unreliable below 25"

    def test_unreliable_flag(self):
        assert mcnemar(McNemarTable(b=10, c=5)).note is not None
        assert mcnemar(McNemarTable(b=20, c=10)).note is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            McNemarTable(b=-1, c=0)

    @given(b=st.integers(0, 500), c=st.integers(0, 500))
    def test_swap_invariance(self, b, c):
        for corrected in (False, True):
            r1 = mcnemar(McNemarTable(b, c), corrected=corrected)
            r2 = mcnemar(McNemarTable(c, b), corrected=corrected)
            assert r1.statistic == r2.statistic
            assert r1.p_value == r2.p_value
            assert 0.0 <= r1.p_value <= 1.0

    @given(b=st.integers(0, 300), c=st.integers(0, 300))
    @settings(max_examples=100)
    def test_p_matches_scipy_chi2(self, b, c):
        if b + c == 0:
            return
        result = mcnemar(McNemarTable(b, c), corrected=False)
        assert result.p_value == pytest.approx(
            float(scipy.stats.chi2.sf(result.statistic, 1)), rel=1e-10, abs=1e-300
        )


class TestChi2Tail:
    @given(s=st.floats(0, 60))
    def test_against_scipy(self, s):
        assert chi2_sf_1dof(s) == pytest.approx(
            float(scipy.stats.chi2.sf(s, 1)), rel=1e-9, abs=1e-300
        )


class TestWilcoxon:
    def test_identical_lists(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0
        assert result.note == "all differences zero"

    def test_constant_shift_closed_form(self):
        # W+ = n(n+1)/2 and plain variance give |z| = 232.5 / 48.6184.
        b = [float(i * 7 % 13) for i in range(30)]
        a = [x + 100.0 for x in b]
        result = wilcoxon_signed_rank(a, b)
        assert abs(result.statistic) == pytest.approx(4.78, abs=0.01)
        assert result.statistic > 0  # errors_a exceed errors_b
        assert result.p_value < 1e-5

    def test_swap_flips_sign_exactly(self):
        b = [float(i * 3 % 17) for i in range(30)]
        a = [x + 100.0 for x in b]
        fwd = wilcoxon_signed_rank(a, b)
        rev = wilcoxon_signed_rank(b, a)
        assert rev.statistic == -fwd.statistic
        assert rev.p_value == fwd.p_value

    def test_one_swapped_pair_shrinks_z(self):
        b = [float(i) for i in range(30)]
        a = [x + 100.0 for x in b]
        full = wilcoxon_signed_rank(a, b)
        a_swapped = list(a)
        a_swapped[0] = b[0] - 100.0
        partial = wilcoxon_signed_rank(a_swapped, b)
        assert abs(partial.statistic) < abs(full.statistic)

    def test_small_n_warning(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert result.note is not None and "weak" in result.note

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_matches_scipy_on_untied_data(self):
        # Distinct absolute differences, so the tie term is zero and the
        # plain-variance z agrees with scipy's approx method.
        a = [10.0, 22.0, 31.0, 47.0, 55.0, 61.0, 78.0, 83.0, 99.0, 104.0, 118.0, 123.0]
        diffs = [-2.0, 3.0, -5.0, 6.0, -1.0, 9.0, 7.0, -8.0, 10.0, -12.0, 14.0, -17.0]
        b = [x - d for x, d in zip(a, diffs)]
        assert len({abs(d) for d in diffs}) == len(diffs)
        result = wilcoxon_signed_rank(a, b)
        scipy_result = scipy.stats.wilcoxon(a, b, correction=False, method="approx")
        assert result.p_value == pytest.approx(float(scipy_result.pvalue), rel=1e-9)

    def test_tie_corrected_variant_matches_scipy(self):
        b = [float(i) for i in range(30)]
        a = [x + 100.0 for x in b]
        result = wilcoxon_signed_rank(a, b, tie_corrected_variance=True)
        scipy_result = scipy.stats.wilcoxon(a, b, correction=False, method="approx")
        assert abs(result.statistic) == pytest.approx(5.4772, abs=0.01)
        assert result.p_value == pytest.approx(float(scipy_result.pvalue), rel=1e-9)

    @given(
        diffs=st.lists(
            st.floats(-500, 500).filter(lambda d: abs(d) > 1e-9), min_size=1, max_size=40
        )
    )
    @settings(max_examples=150)
    def test_p_in_range_and_antisymmetric(self, diffs):
        a = [100.0 + d for d in diffs]
        b = [100.0] * len(diffs)
        fwd = wilcoxon_signed_rank(a, b)
        rev = wilcoxon_signed_rank(b, a)
        assert 0.0 <= fwd.p_value <= 1.0
        assert fwd.statistic == -rev.statistic or (fwd.statistic == 0.0 and rev.statistic == 0.0)

    @given(
        diffs=st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 7.25]).flatmap(lambda m: st.sampled_from([m, -m])),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_mixed_sign_tie_runs_match_a_midrank_oracle(self, diffs):
        # A few magnitudes drawn with either sign give runs of equal |d| holding both signs.
        n = len(diffs)
        ranks = scipy.stats.rankdata([abs(d) for d in diffs], method="average")
        w_plus = math.fsum(float(r) for r, d in zip(ranks, diffs) if d > 0)
        tie_term = sum(t**3 - t for t in Counter(abs(d) for d in diffs).values())
        mean = n * (n + 1) / 4.0
        variance = n * (n + 1) * (2 * n + 1) / 24.0
        a, b = [100.0 + d for d in diffs], [100.0] * n
        plain = wilcoxon_signed_rank(a, b)
        corrected = wilcoxon_signed_rank(a, b, tie_corrected_variance=True)
        assert plain.n == corrected.n == n
        assert plain.statistic * math.sqrt(variance) + mean == pytest.approx(w_plus, abs=1e-9)
        assert plain.statistic == pytest.approx((w_plus - mean) / math.sqrt(variance), rel=1e-12, abs=1e-12)
        corrected_z = (w_plus - mean) / math.sqrt(variance - tie_term / 48.0)
        assert corrected.statistic == pytest.approx(corrected_z, rel=1e-12, abs=1e-12)


class TestBetaincReg:
    @given(
        a=st.floats(0.5, 60),
        b=st.floats(0.5, 60),
        u=st.floats(0, 1, exclude_min=True, exclude_max=True),
        below=st.booleans(),
    )
    @settings(max_examples=300)
    def test_against_scipy_on_both_sides_of_the_switch(self, a, b, u, below):
        # Below (a + 1) / (a + b + 2) the continued fraction is taken at (a, b, x),
        # above it at (b, a, 1 - x); `below` picks the side and u the place on it.
        cut = (a + 1.0) / (a + b + 2.0)
        x = cut * u if below else cut + (1.0 - cut) * u
        assume(0.0 < x < 1.0 and (x < cut) == below)
        assert betainc_reg(a, b, x) == pytest.approx(float(scipy.special.betainc(a, b, x)), rel=1e-9)


class TestStudentT:
    @given(t=st.floats(-30, 30), dof=st.integers(1, 40))
    @settings(max_examples=200)
    def test_against_scipy(self, t, dof):
        ours = student_t_two_tailed(t, dof)
        theirs = 2.0 * float(scipy.stats.t.sf(abs(t), dof))
        assert ours == pytest.approx(theirs, rel=1e-7, abs=1e-12)


class TestPairedT:
    def test_identical_scores(self):
        result = paired_t_test([0.8, 0.9, 0.7], [0.8, 0.9, 0.7])
        assert result.t == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_constant_shift_degenerate(self):
        result = paired_t_test([0.88, 0.87, 0.89, 0.88, 0.90], [0.85, 0.84, 0.86, 0.85, 0.87])
        assert result.degenerate
        assert result.t == math.inf
        assert result.p_value == 0.0
        # scipy agrees: statistic inf, p 0 on this zero-variance data.
        scipy_result = scipy.stats.ttest_rel(
            [0.88, 0.87, 0.89, 0.88, 0.90], [0.85, 0.84, 0.86, 0.85, 0.87]
        )
        assert math.isinf(float(scipy_result.statistic))
        assert float(scipy_result.pvalue) == 0.0

    def test_reference_case(self):
        # Frozen from scipy.stats.ttest_rel on well-conditioned data.
        a = [0.88, 0.86, 0.91, 0.84, 0.89]
        b = [0.85, 0.83, 0.88, 0.86, 0.84]
        result = paired_t_test(a, b)
        assert result.t == pytest.approx(2.0579830217101063, rel=1e-9)
        assert result.p_value == pytest.approx(0.10870095132492352, rel=1e-9)
        assert result.dof == 4
        assert not result.degenerate

    def test_matches_scipy_generally(self):
        cases = [
            ([0.5, 0.6, 0.55, 0.62, 0.58, 0.61], [0.52, 0.55, 0.60, 0.57, 0.56, 0.65]),
            ([1.0, 2.0, 3.0, 4.0], [1.5, 1.8, 3.3, 3.6]),
        ]
        for a, b in cases:
            ours = paired_t_test(a, b)
            theirs = scipy.stats.ttest_rel(a, b)
            assert ours.t == pytest.approx(float(theirs.statistic), rel=1e-9)
            assert ours.p_value == pytest.approx(float(theirs.pvalue), rel=1e-9)

    def test_too_few_folds(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])


class TestMakeFolds:
    def test_200_docs_5_folds(self):
        ids = [f"doc{i:03d}" for i in range(200)]
        plan = make_folds(ids, k=5, seed=13)
        assert [len(f) for f in plan.folds] == [40] * 5
        assert sorted(x for fold in plan.folds for x in fold) == sorted(ids)

    def test_remainder_distribution(self):
        plan = make_folds([str(i) for i in range(10)], k=3, seed=0)
        assert sorted(len(f) for f in plan.folds) == [3, 3, 4]
        assert [len(f) for f in plan.folds] == [4, 3, 3]

    def test_deterministic_per_seed(self):
        ids = [str(i) for i in range(50)]
        assert make_folds(ids, 5, seed=7).folds == make_folds(ids, 5, seed=7).folds
        assert make_folds(ids, 5, seed=7).folds != make_folds(ids, 5, seed=8).folds

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_folds(["a", "b"], k=1, seed=0)
        with pytest.raises(ValueError):
            make_folds(["a", "b"], k=3, seed=0)
        with pytest.raises(ValueError):
            make_folds(["a", "a", "b"], k=2, seed=0)

    @given(
        n=st.integers(2, 120),
        k=st.integers(2, 10),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200)
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        ids = [f"d{i}" for i in range(n)]
        plan = make_folds(ids, k, seed)
        flattened = [x for fold in plan.folds for x in fold]
        assert sorted(flattened) == sorted(ids)
        assert len(plan.folds) == k
        sizes = [len(f) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
