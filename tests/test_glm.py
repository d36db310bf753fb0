import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from ballwise.glm import (
    DesignSpec,
    HypothesisSpec,
    load_signals_bin,
    load_signals_csv,
    ols_fit,
    save_signals_bin,
    save_signals_csv,
    slope_sq,
    stat_field,
    t_trend_cutoff,
    t_two_sample_sq,
)


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
        assert field[0] == t_two_sample_sq(y[:, 0], [0, 0, 1, 1])

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


class TestInvarianceProperties:
    @given(
        y=arrays(np.float64, 8, elements=st.floats(-100, 100)),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, y, shift):
        # only shifts that round-trip exactly: y=[6.09e-128, 0, ..., 0] with
        # shift=1.0 turns into a constant vector, whose t^2 is 0
        assume(np.array_equal((y + shift) - shift, y))
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
