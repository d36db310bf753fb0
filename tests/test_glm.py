from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ballwise.glm import (
    DesignSpec,
    HypothesisSpec,
    StatKernel,
    load_signals_bin,
    load_signals_csv,
    save_signals_bin,
    save_signals_csv,
    stat_field,
)
from oracles import ols_fit, reduced_fit, slope_sq, t_trend_cutoff, t_two_sample_sq


class TestOlsFit:
    def test_intercept_only_is_mean(self):
        beta, resid, se = ols_fit([1.0, 2.0, 3.0], np.ones((3, 1)))
        assert beta[0] == pytest.approx(2.0)
        np.testing.assert_allclose(resid, [-1, 0, 1])

    def test_perfect_linear_fit(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        y = 3 + 2 * t
        X = np.column_stack([np.ones(4), t])
        beta, resid, _ = ols_fit(y, X)
        assert beta[1] == pytest.approx(2.0)
        np.testing.assert_allclose(resid, 0, atol=1e-12)

    def test_closed_form_slope(self):
        # slope = sum((y - ybar)(t - tbar)) / sum((t - tbar)^2) = 3/2
        t = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 3.0])
        X = np.column_stack([np.ones(3), t])
        beta, _, _ = ols_fit(y, X)
        assert beta[1] == pytest.approx(1.5)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        y = rng.standard_normal(20)
        _, resid, _ = ols_fit(y, X)
        np.testing.assert_allclose(X.T @ resid, 0, atol=1e-9)

    def test_rank_deficiency(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(ValueError, match="rank"):
            ols_fit(np.arange(5.0), X)

    def test_too_few_obs_for_se(self):
        X = np.column_stack([np.ones(2), [0.0, 1.0]])
        with pytest.raises(ValueError, match="standard errors"):
            ols_fit(np.array([1.0, 2.0]), X)

    def test_accepts_design_spec(self):
        d = DesignSpec(covariates=np.array([0.0, 1.0, 2.0]))
        beta, _, _ = ols_fit(np.array([0.0, 1.0, 3.0]), d)
        assert beta[1] == pytest.approx(1.5)


class TestTwoSampleT:
    def test_identical_means_zero(self):
        y = np.array([1.0, 2.0, 1.0, 2.0])
        assert t_two_sample_sq(y, [0, 0, 1, 1]) == 0.0

    def test_scipy_oracle(self):
        y = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
        groups = np.array([0, 0, 0, 1, 1, 1])
        expected = stats.ttest_ind(y[:3], y[3:], equal_var=True).statistic ** 2
        assert t_two_sample_sq(y, groups) == pytest.approx(expected, rel=1e-12)

    def test_grows_as_jitter_shrinks(self):
        rng = np.random.default_rng(0)
        jitter = rng.standard_normal(4)
        groups = [0, 0, 1, 1]
        base = np.array([0.0, 0.0, 1.0, 1.0])
        prev = 0.0
        for sigma in [1.0, 0.1, 0.01]:
            stat = t_two_sample_sq(base + sigma * jitter, groups)
            assert stat > prev
            prev = stat

    def test_zero_variance_with_effect_raises(self):
        with pytest.raises(ValueError, match="zero residual variance"):
            t_two_sample_sq(np.array([0.0, 0.0, 1.0, 1.0]), [0, 0, 1, 1])

    def test_group_sizes_checked(self):
        with pytest.raises(ValueError, match="two observations"):
            t_two_sample_sq(np.array([1.0, 2.0, 3.0]), [0, 1, 1])


class TestTrendCutoff:
    def test_decreasing_trend_floored(self):
        t = np.arange(5.0)
        y = np.array([5.0, 4.1, 3.2, 1.9, 1.0])
        assert t_trend_cutoff(y, t) == 0.0

    def test_perfectly_decreasing_floored(self):
        t = np.arange(4.0)
        assert t_trend_cutoff(-2 * t, t) == 0.0

    def test_nonnegative_on_noise(self):
        rng = np.random.default_rng(1)
        t = np.arange(10.0)
        for _ in range(20):
            assert t_trend_cutoff(rng.standard_normal(10), t) >= 0.0

    def test_ols_oracle(self):
        t = np.arange(1.0, 6.0)
        y = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
        X = np.column_stack([np.ones(5), t])
        beta, _, se = ols_fit(y, X)
        expected = max(0.0, beta[1] / se[1])
        assert t_trend_cutoff(y, t) == pytest.approx(expected, rel=1e-12)

    def test_perfect_positive_fit_raises(self):
        t = np.arange(4.0)
        with pytest.raises(ValueError, match="zero residual variance"):
            t_trend_cutoff(3 * t, t)


class TestSlopeSq:
    def test_constant_signal(self):
        assert slope_sq(np.full(4, 2.5), np.arange(4.0)) == 0.0

    def test_exact_slope(self):
        t = np.arange(6.0)
        assert slope_sq(3 + 2 * t, t) == pytest.approx(4.0, rel=1e-12)

    def test_derived_value(self):
        assert slope_sq(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0])) == \
            pytest.approx(2.25, rel=1e-12)

    def test_constant_covariate_raises(self):
        with pytest.raises(ValueError, match="constant"):
            slope_sq(np.arange(3.0), np.ones(3))


class TestStatField:
    def test_single_column_wraps_scalar(self):
        y = np.array([[1.0], [2.0], [3.0], [4.0]])
        design = DesignSpec(group_labels=[0, 0, 1, 1])
        field = stat_field(y, design, HypothesisSpec("t_two_sample_sq"))
        assert field.shape == (1,)
        # means 1.5 and 3.5, pooled variance 0.5: t^2 = 4 / (0.5 * (1/2 + 1/2))
        assert field[0] == 8.0
        assert field[0] == pytest.approx(t_two_sample_sq(y[:, 0], [0, 0, 1, 1]), rel=1e-12)

    def test_identical_columns_identical_values(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(6)
        Y = np.column_stack([col, col])
        design = DesignSpec(group_labels=[0, 0, 0, 1, 1, 1])
        field = stat_field(Y, design, HypothesisSpec("t_two_sample_sq"))
        assert field[0] == field[1]

    @pytest.mark.parametrize(
        "statistic,design_kwargs",
        [
            ("t_two_sample_sq", {"group_labels": [0, 0, 0, 1, 1, 1]}),
            ("t_trend_cutoff", {"covariates": np.arange(6.0)}),
            ("slope_sq", {"covariates": np.arange(6.0)}),
        ],
    )
    def test_columnwise_matches_scalar_calls(self, statistic, design_kwargs):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((6, 4))
        design = DesignSpec(**design_kwargs)
        field = stat_field(Y, design, HypothesisSpec(statistic))
        for j in range(4):
            if statistic == "t_two_sample_sq":
                expected = t_two_sample_sq(Y[:, j], design.group_labels)
            elif statistic == "t_trend_cutoff":
                expected = t_trend_cutoff(Y[:, j], design.covariates[:, 0])
            else:
                expected = slope_sq(Y[:, j], design.covariates[:, 0])
            assert field[j] == pytest.approx(expected, rel=1e-12)

    def test_nonnegativity(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((8, 10))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        assert np.all(stat_field(Y, design, HypothesisSpec("t_two_sample_sq")) >= 0)

    def test_unknown_statistic(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            HypothesisSpec("wilcoxon")

    def test_nonfinite_rejected(self):
        Y = np.array([[1.0, np.nan], [2.0, 3.0], [0.0, 1.0], [1.0, 2.0]])
        design = DesignSpec(group_labels=[0, 0, 1, 1])
        with pytest.raises(ValueError, match="non-finite"):
            stat_field(Y, design, HypothesisSpec("t_two_sample_sq"))


STATISTIC_DESIGNS = [
    ("t_two_sample_sq", {"group_labels": [0, 0, 0, 1, 1, 1]}),
    ("t_trend_cutoff", {"covariates": np.arange(6.0)}),
    ("slope_sq", {"covariates": np.arange(6.0)}),
]


class TestStatKernel:
    """The batched kernel against the two-pass reference and exact arithmetic."""

    def test_large_offset(self):
        # signals around 280 with sd 1: the kernel centres each column before
        # any sum, so the offset enters no product. The two-pass reference
        # t_two_sample_sq does not: its group means each carry an absolute
        # rounding error of up to n eps |offset| (n = 15 terms summed), so its
        # t^2, proportional to (m1 - m2)^2, is off by a relative
        # 2 * 2 n eps |offset| / |m1 - m2| at most; the comparison allows that
        # plus 1e-12. The trend and slope references centre first, like the
        # kernel, and must agree to 1e-12.
        rng = np.random.default_rng(21)
        N, offset = 30, 280.0
        Y = offset + rng.standard_normal((N, 200))
        groups = np.repeat([0, 1], N // 2)
        t = np.arange(float(N))
        field = stat_field(Y, DesignSpec(group_labels=groups), HypothesisSpec("t_two_sample_sq"))
        ref = t_two_sample_sq(Y, groups)
        diff = np.abs(Y[:15].mean(axis=0) - Y[15:].mean(axis=0))
        eps = np.finfo(float).eps
        rtol = 1e-12 + 4 * 15 * eps * offset / diff
        assert np.all(np.abs(field - ref) <= rtol * ref)
        # against exact rational arithmetic the kernel is within a few ulps
        for j in range(5):
            a = [Fraction(v) for v in Y[:15, j]]
            b = [Fraction(v) for v in Y[15:, j]]
            ma, mb = sum(a) / 15, sum(b) / 15
            ss = sum((v - ma) ** 2 for v in a) + sum((v - mb) ** 2 for v in b)
            exact = float((ma - mb) ** 2 / (ss / (N - 2) * Fraction(2, 15)))
            assert field[j] == pytest.approx(exact, rel=1e-14)
        design = DesignSpec(covariates=t)
        np.testing.assert_allclose(
            stat_field(Y, design, HypothesisSpec("t_trend_cutoff")),
            t_trend_cutoff(Y, t), rtol=1e-12,
        )
        np.testing.assert_allclose(
            stat_field(Y, design, HypothesisSpec("slope_sq")), slope_sq(Y, t), rtol=1e-12
        )

    @pytest.mark.parametrize("statistic,design_kwargs", STATISTIC_DESIGNS)
    @pytest.mark.parametrize("null", ["none", "intercept", "covariate", "no_intercept"])
    def test_rows_match_materialised_permutations(self, statistic, design_kwargs, null):
        # row b of a chunk is the statistic of signals[perms[b]], or of
        # F + R[perms[b]] under a reduced design. Both sides sum the same
        # products in other orders; a statistic's relative rounding error is
        # about N eps times the column scale over its slope numerator, which
        # stays below 1e-11 on these draws.
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 40)) + 3
        X0 = {
            "none": None,
            "intercept": np.ones((6, 1)),
            "covariate": np.column_stack([np.ones(6), rng.standard_normal(6)]),
            "no_intercept": rng.standard_normal((6, 2)),
        }[null]
        design, hyp = DesignSpec(**design_kwargs), HypothesisSpec(statistic)
        perms = np.array([rng.permutation(6) for _ in range(12)])
        fields = StatKernel(Y, design, hyp, X0).fields(perms)
        if X0 is None:
            permuted = [Y[p] for p in perms]
        else:
            fits, resid = reduced_fit(Y, X0)
            permuted = [fits + resid[p] for p in perms]
        expected = np.stack([stat_field(Yp, design, hyp) for Yp in permuted])
        np.testing.assert_allclose(fields, expected, rtol=1e-9)
        np.testing.assert_array_equal(fields == 0, expected == 0)

    def test_same_grouping_gives_bitwise_equal_rows(self):
        # a within-group shuffle makes the same grouping, so the same
        # permuted design and the same sums
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((8, 30))
        kernel = StatKernel(
            Y, DesignSpec(group_labels=[0, 1] * 4), HypothesisSpec("t_two_sample_sq")
        )
        p = rng.permutation(8)
        q = p.copy()
        q[[0, 2, 4, 6]] = p[[2, 6, 0, 4]]
        q[[1, 3, 5, 7]] = p[[7, 5, 3, 1]]
        fields = kernel.fields(np.stack([p, q]))
        assert fields[0].tobytes() == fields[1].tobytes()

    @pytest.mark.parametrize("null", ["none", "covariate"])
    def test_rows_do_not_depend_on_the_chunk(self, null):
        # BLAS rounds a one-row product and a many-row one differently, and
        # the observed field is a chunk of one row: a permutation making the
        # observed grouping must give its bits in any chunk, or the tie is lost
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((8, 2562))
        X0 = None if null == "none" else np.column_stack([np.ones(8), np.arange(8.0)])
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        kernel = StatKernel(Y, design, HypothesisSpec("t_two_sample_sq"), X0)
        perms = np.array([rng.permutation(8) for _ in range(16)])
        chunk = kernel.fields(perms)
        for p, row in zip(perms, chunk):
            assert kernel.fields(p[None, :])[0].tobytes() == row.tobytes()

    @pytest.mark.parametrize("null", [None, np.ones((6, 1))])
    def test_group_constant_columns_raise(self, null):
        # every group constant with different means, under the identity and
        # under a within-group permutation (the same grouping)
        y = np.array([0.3, 0.3, 0.3, 1.7, 1.7, 1.7])
        Y = np.column_stack([np.random.default_rng(0).standard_normal(6), y])
        kernel = StatKernel(
            Y, DesignSpec(group_labels=[0, 0, 0, 1, 1, 1]),
            HypothesisSpec("t_two_sample_sq"), null,
        )
        for perm in ([0, 1, 2, 3, 4, 5], [2, 0, 1, 5, 3, 4]):
            with pytest.raises(ValueError, match=r"zero residual variance.*\[1\]"):
                kernel.fields(np.array([perm]))
        # other groupings have within-group variance
        assert np.all(kernel.fields(np.array([[0, 3, 1, 4, 2, 5]])) > 0)

    @pytest.mark.parametrize("null", [None, np.ones((6, 1))])
    def test_perfect_positive_trend_raises(self, null):
        # tied covariate values: swapping tied rows keeps the perfect fit
        t = np.array([0.0, 0.0, 1.5, 1.5, 4.0, 4.0])
        Y = np.column_stack([0.7 + 2.9 * t, -0.2 - 1.3 * t, np.full(6, 0.1)])
        design, hyp = DesignSpec(covariates=t), HypothesisSpec("t_trend_cutoff")
        kernel = StatKernel(Y[:, :1], design, hyp, null)
        for perm in ([0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4]):
            with pytest.raises(ValueError, match="zero residual variance"):
                kernel.fields(np.array([perm]))
        # a perfect negative trend and a constant column are floored to 0
        kernel = StatKernel(Y[:, 1:], design, hyp, null)
        np.testing.assert_array_equal(kernel.fields(np.array([[1, 0, 3, 2, 5, 4]])), 0.0)

    def test_constant_column_is_zero_under_every_permutation(self):
        Y = np.column_stack([np.full(6, 0.1), np.arange(6.0)])
        rng = np.random.default_rng(4)
        perms = np.array([rng.permutation(6) for _ in range(10)])
        for statistic, design_kwargs in STATISTIC_DESIGNS:
            kernel = StatKernel(Y, DesignSpec(**design_kwargs), HypothesisSpec(statistic))
            np.testing.assert_array_equal(kernel.fields(perms)[:, 0], 0.0)

    def test_design_checks(self):
        Y = np.zeros((4, 2))
        with pytest.raises(ValueError, match="rank deficient"):
            StatKernel(Y, DesignSpec(covariates=np.arange(4.0)), HypothesisSpec("slope_sq"),
                       np.ones((4, 2)))
        with pytest.raises(ValueError, match="3 observations"):
            StatKernel(Y[:2], DesignSpec(covariates=[0.0, 1.0]), HypothesisSpec("t_trend_cutoff"))
        with pytest.raises(ValueError, match="non-finite"):
            StatKernel(Y, DesignSpec(covariates=[0.0, 1.0, np.nan, 2.0]),
                       HypothesisSpec("slope_sq"))
        with pytest.raises(ValueError, match="4 observations"):
            StatKernel(np.zeros((5, 2)), DesignSpec(group_labels=[0, 0, 1, 1]),
                       HypothesisSpec("t_two_sample_sq"))


class TestInvarianceProperties:
    # multiples of 1/8 up to 2**20 in magnitude, so that y + shift is exact:
    # off such a grid y=[6.09e-128, 0, ..., 0] with shift=1.0 turns into a
    # constant vector, whose t^2 is 0
    EIGHTHS = st.integers(-(2**23), 2**23).map(lambda k: k / 8)

    @given(y=arrays(np.float64, 8, elements=EIGHTHS), shift=EIGHTHS)
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, y, shift):
        assert np.array_equal((y + shift) - shift, y)
        groups = [0] * 4 + [1] * 4
        t = np.arange(8.0)
        try:
            base = t_two_sample_sq(y, groups)
        except ValueError:
            return  # degenerate draw
        assert t_two_sample_sq(y + shift, groups) == pytest.approx(
            base, rel=1e-6, abs=1e-9
        )
        assert slope_sq(y + shift, t) == pytest.approx(
            slope_sq(y, t), rel=1e-6, abs=1e-9
        )

    def test_within_group_permutation_invariance(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(8)
        groups = np.array([0] * 4 + [1] * 4)
        base = t_two_sample_sq(y, groups)
        y_shuffled = y.copy()
        y_shuffled[:4] = y[:4][rng.permutation(4)]
        y_shuffled[4:] = y[4:][rng.permutation(4)]
        assert t_two_sample_sq(y_shuffled, groups) == pytest.approx(base, rel=1e-12)


class TestSignalIO:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        Y = rng.standard_normal((3, 5))
        path = tmp_path / "y.csv"
        save_signals_csv(Y, path)
        loaded, header = load_signals_csv(path)
        np.testing.assert_array_equal(loaded, Y)
        assert header == [f"g{j}" for j in range(5)]

    def test_bin_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        Y = rng.standard_normal((4, 7))
        path = tmp_path / "y.bin"
        save_signals_bin(Y, path)
        np.testing.assert_array_equal(load_signals_bin(path), Y)

    def test_truncated_bin(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError, match="truncated"):
            load_signals_bin(path)
