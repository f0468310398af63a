"""Tests for the from-scratch statistical engine.

The chi-square tail and the regression solvers are original code, so they
are checked against independent routes: scipy for the gamma tail, textbook
closed-form simple-regression algebra and lstsq for the solvers.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from minecost import (
    DomainError,
    GrangerResult,
    InsufficientDataError,
    SingularityError,
    build_backtest_series,
    chi2_sf,
    granger_wald,
    ljung_box,
    load_bundled,
    log_transform,
    ols_fit,
    select_lag_order,
    var_fit,
)
from minecost.econometrics import (
    _compress,
    _lag_design,
    _rank_orders,
    _svd_solve,
    _var_model,
    var_max_order,
    var_min_observations,
)
from tests.simulation import independent_ar1_pair, one_way_coupled_pair, simulate_var
from tests.conftest import singular_var1_logs
from tests.test_lag_scan import _bundled_logs, _lagged_design, _random_walk


class TestChiSquareTail:
    # Frozen 50-digit-arithmetic spot values (tools/oracle_values.py).
    SPOT = [
        (4.579, 2, 0.1013171077452280735),
        (13.301, 2, 0.001293375256138923),
        (1.0, 1, 0.3173105078629141),
        (10.0, 4, 0.04042768199451280),
        (25.0, 10, 0.005345505487134064),
        (300.0, 101, 1.293309895994768625e-21),
        (3000.0, 2001, 2.703202454187781362e-43),
    ]

    @pytest.mark.parametrize("x,df,expected", SPOT)
    def test_frozen_spot_values(self, x, df, expected):
        assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-12)

    def test_three_decimal_display_matches_reference_table(self):
        assert round(chi2_sf(4.579, 2), 3) == 0.101
        assert round(chi2_sf(13.301, 2), 3) == 0.001

    def test_agrees_with_scipy_across_grid(self):
        for x in (1e-3, 0.1, 1.0, 2.5, 4.579, 10.0, 13.301, 25.0, 80.0, 300.0,
                  1000.0, 3000.0):
            for df in (1, 2, 3, 5, 10, 30, 100, 101, 1000, 2001):
                ours = chi2_sf(x, df)
                ref = scipy.stats.chi2.sf(x, df)
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300), (
                    f"chi2_sf({x}, {df}) = {ours} vs scipy {ref}"
                )

    def test_boundaries_and_monotonicity(self):
        assert chi2_sf(0.0, 3) == 1.0
        # The smallest subnormal halves to 0, like x = 0 itself.
        assert chi2_sf(5e-324, 2) == 1.0
        assert chi2_sf(5e-324, 3) == 1.0
        xs = np.linspace(0.0, 60.0, 241)
        values = [chi2_sf(float(x), 5) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_deep_tail_underflows_to_zero_not_garbage(self):
        assert 0.0 <= chi2_sf(3000.0, 2) < 1e-300

    @pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
    def test_bad_statistic_rejected(self, x):
        with pytest.raises(DomainError):
            chi2_sf(x, 2)

    def test_integer_valued_df_of_any_type_is_accepted(self):
        assert chi2_sf(3.0, 2.0) == chi2_sf(3.0, np.int64(2)) == chi2_sf(3.0, 2)
        assert chi2_sf(3.0, 5.0) == chi2_sf(3.0, 5)

    @pytest.mark.parametrize("df", [0, -3])
    def test_bad_df_rejected(self, df):
        with pytest.raises(DomainError):
            chi2_sf(1.0, df)


class TestOls:
    def test_small_worked_example(self):
        """x 1..4, y (2,3,5,6): closed-form slope 1.4, intercept 0.5."""
        fit = ols_fit([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 5.0, 6.0])
        assert fit.slope == pytest.approx(1.4, rel=1e-12)
        assert fit.intercept == pytest.approx(0.5, rel=1e-12)
        assert fit.r_squared == pytest.approx(0.98, rel=1e-12)
        assert fit.stderr_slope == pytest.approx(0.14142135623730950, rel=1e-10)
        assert fit.stderr_intercept == pytest.approx(0.38729833462074169, rel=1e-10)
        assert fit.n == 4 and not fit.degenerate

    def test_matches_textbook_formulas_on_random_data(self):
        """Independent route: moment formulas, no matrix solve."""
        rng = np.random.default_rng(5150)
        for rep in range(100):
            n = int(rng.integers(3, 51))
            x = rng.normal(scale=10 ** rng.uniform(-2, 4), size=n)
            y = rng.uniform(-3, 3) * x + rng.normal(size=n) * rng.uniform(0.1, 5)
            sxx = np.sum((x - x.mean()) ** 2)
            if sxx < 1e-12:
                continue
            slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
            intercept = float(y.mean() - slope * x.mean())
            resid = y - intercept - slope * x
            sst = float(np.sum((y - y.mean()) ** 2))
            r2 = 1.0 - float(np.sum(resid**2)) / sst
            fit = ols_fit(x, y)
            assert fit.slope == pytest.approx(slope, rel=1e-10), f"rep {rep}"
            assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-10)
            assert fit.r_squared == pytest.approx(r2, rel=1e-10, abs=1e-12)
            if n > 2:
                s2 = float(np.sum(resid**2)) / (n - 2)
                assert fit.stderr_slope == pytest.approx(
                    math.sqrt(s2 / sxx), rel=1e-8
                )

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=30)
        y = 2 * x + rng.normal(size=30)
        fit = ols_fit(x, y)
        assert float(np.sum(fit.residuals)) == pytest.approx(0.0, abs=1e-10)

    def test_constant_response_is_degenerate_not_an_error(self):
        fit = ols_fit([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0])
        assert fit.degenerate
        assert fit.r_squared == 0.0
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_constant_regressor_is_singular(self):
        with pytest.raises(SingularityError):
            ols_fit([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientDataError):
            ols_fit([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ols_fit([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("x, y", [([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
                                      ([1.0, 2.0, 3.0], [1.0, 2.0, -math.inf])])
    def test_non_finite_input_rejected(self, x, y):
        with pytest.raises(DomainError, match="^regression inputs must be finite$"):
            ols_fit(x, y)

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_a_fit_that_overflows_is_a_domain_error(self, scale):
        """Squares of responses past 1e154 overflow; no stderr is inf."""
        with pytest.raises(DomainError, match="^the regression overflows double precision$"):
            ols_fit([1.0, 2.0, 3.0, 4.0], [scale, 3 * scale, 2 * scale, 4 * scale])

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_a_regressor_whose_norm_overflows_is_a_domain_error(self, scale):
        """Not a SingularityError: the scaled design is well conditioned."""
        with pytest.raises(DomainError, match="^the regression overflows double precision$"):
            ols_fit([scale, 3 * scale, 2 * scale, 4 * scale], [1.0, 2.0, 3.0, 4.0])

    def test_units_do_not_trip_the_conditioning_guard(self):
        """Huge regressor scale is fine; only true collinearity should fail."""
        x = np.linspace(1e12, 9e12, 40)
        y = 3e-9 * x + np.random.default_rng(3).normal(size=40)
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(3e-9, rel=1e-2)

    def test_large_offset_regressor_keeps_full_accuracy(self):
        """x near 1e5 makes the scaled normal matrix's condition about 4e10.

        Solving the normal equations squares that conditioning and loses
        the intercept; a factorization of the design itself does not.
        """
        x = 1e5 + np.random.default_rng(11).standard_normal(200)
        fit = ols_fit(x, 3.0 + 2.0 * x)
        assert fit.slope == pytest.approx(2.0, rel=1e-10)
        assert fit.intercept == pytest.approx(3.0, rel=1e-6)


class TestLeastSquaresCore:
    """_svd_solve, the one least-squares step of ols_fit and the VAR scan.

    It returns ``(beta, inverse, residuals)``; its callers take the residuals from
    it, so these tests pin them to ``Y - X @ beta`` bit for bit.
    """

    def test_near_collinear_design_with_exact_responses(self):
        """Integer data keep X @ beta exact, so any error is the solver's.

        Columns a and a + d (d in {-1, 0, 1}) are nearly parallel: the
        column-scaled normal matrix has condition about 4e10, under the
        1e12 limit.
        """
        rng = np.random.default_rng(0)
        n = 50
        a = rng.integers(-120_000, 120_000, size=n).astype(float)
        d = rng.integers(-1, 2, size=n).astype(float)
        X = np.column_stack([np.ones(n), a, a + d])
        Xs = X / np.linalg.norm(X, axis=0)
        assert 1e10 < np.linalg.cond(Xs.T @ Xs) < 1e11
        truth = np.array([3.0, -2.0, 5.0])
        beta, _, _ = _svd_solve(X, X @ truth)
        assert np.all(np.abs(beta - truth) <= 1e-9 * np.abs(truth))

    def test_responses_in_columns_match_one_at_a_time(self):
        """The lag scan fits both VAR equations in one call, as columns."""
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 4))])
        Y = rng.normal(size=(40, 2))
        beta, W, residuals = _svd_solve(X, Y)
        assert beta.shape == (5, 2) and W.shape == (5, 5) and residuals.shape == (40, 2)
        for i in range(2):
            b, w, e = _svd_solve(X, Y[:, i])
            assert np.allclose(beta[:, i], b, rtol=1e-12, atol=1e-14)
            assert np.allclose(residuals[:, i], e, rtol=1e-12, atol=1e-14)
            assert np.array_equal(W, w)

    @pytest.mark.parametrize("columns", [None, 2], ids=["1-d", "2-column"])
    def test_residuals_are_y_minus_x_beta_bit_for_bit(self, columns):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        Y = rng.normal(size=60 if columns is None else (60, columns))
        beta, _, residuals = _svd_solve(X, Y)
        assert residuals.shape == Y.shape
        assert np.array_equal(residuals, Y - X @ beta)

    @pytest.mark.parametrize("data", [
        pytest.param(_bundled_logs(), id="bundled"),
        *(pytest.param(_random_walk(n, seed), id=f"random-walk-{n}-{seed}")
          for n in (26, 126, 6000) for seed in (1, 2)),
    ])
    def test_scan_residual_cross_products_are_exactly_symmetric(self, data):
        """The lag table's residual cross-products, from the batched QR, and
        the reported VAR's residual covariance need no symmetrizing."""
        max_p = min(8, var_max_order(data.shape[0]))
        _, C = _compress(data, max_p)
        _, sscps = _rank_orders(C, max_p)
        for p, sscp in enumerate(sscps, start=1):
            assert np.array_equal(sscp, sscp.T)
            resid_cov = _var_model(data, p, C, ("y0", "y1")).resid_cov
            assert np.array_equal(resid_cov, resid_cov.T)


class TestLagDesign:
    def test_intercept_lag_pairs_then_responses(self):
        data = np.arange(1.0, 13.0).reshape(6, 2)
        A = _lag_design(data, 2)
        assert A.shape == (6, 2 * 2 + 3)
        assert np.array_equal(A[:, 0], np.ones(6))
        for lag in (1, 2):
            pair = A[:, 2 * lag - 1 : 2 * lag + 1]
            assert np.array_equal(pair[:lag], np.zeros((lag, 2)))
            assert np.array_equal(pair[lag:], data[:-lag])
        assert np.array_equal(A[:, -2:], data)

    def test_rows_from_p_are_the_lagged_design(self):
        data = _random_walk(30, 4)
        for p in (1, 3):
            Y, Z = _lagged_design(data, p)
            A = _lag_design(data, p)[p:]
            assert np.array_equal(A[:, : 2 * p + 1], Z)
            assert np.array_equal(A[:, -2:], Y)


class TestLogTransform:
    def test_elementwise_log(self):
        out = log_transform([1.0, math.e, math.e**2])
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_nonpositive_entry_names_position(self):
        with pytest.raises(DomainError, match="index 1"):
            log_transform([1.0, 0.0, 2.0])


class TestVarFit:
    def test_noiseless_recovery(self):
        """With zero innovation noise the fit must return the generator."""
        coef = np.array(
            [
                [[0.5, 0.1], [0.2, 0.3]],
                [[-0.2, 0.05], [0.0, 0.15]],
            ]
        )
        rng = np.random.default_rng(1234)
        data = simulate_var(coef, np.zeros(2), 30, rng, noise_sd=0.0, burn=0)
        model = var_fit(data, p=2)
        assert np.allclose(model.coef_matrices, coef, atol=1e-8)
        assert np.allclose(model.intercepts, 0.0, atol=1e-8)

    def test_matches_equation_by_equation_lstsq(self):
        """Independent route: build the lagged design here, solve with lstsq."""
        rng = np.random.default_rng(77)
        data = simulate_var(
            np.array([[[0.4, 0.2], [0.1, 0.5]]]), [0.3, -0.1], 200, rng
        )
        p = 2
        model = var_fit(data, p=p)
        n = data.shape[0]
        rows = n - p
        design = np.ones((rows, 1 + 2 * p))
        for lag in range(1, p + 1):
            design[:, 1 + 2 * (lag - 1) : 1 + 2 * lag] = data[p - lag : n - lag]
        for eq in range(2):
            beta, *_ = np.linalg.lstsq(design, data[p:, eq], rcond=None)
            ours = model.stacked_coefficients(eq)
            assert np.allclose(ours, beta, rtol=1e-10, atol=1e-10), f"equation {eq}"
        resid = data[p:] - design @ np.column_stack(
            [np.linalg.lstsq(design, data[p:, eq], rcond=None)[0] for eq in range(2)]
        )
        dof = rows - (2 * p + 1)
        assert np.allclose(model.resid_cov, resid.T @ resid / dof, rtol=1e-10)

    def test_noisy_recovery_within_reported_uncertainty(self):
        truth = np.array([[[0.5, 0.15], [0.1, 0.4]]])
        rng = np.random.default_rng(2024)
        data = simulate_var(truth, [0.2, -0.3], 800, rng)
        model = var_fit(data, p=1)
        for eq in range(2):
            stacked = model.stacked_coefficients(eq)
            se = np.sqrt(np.diag(model.coef_cov[eq]))
            target = np.concatenate([[(0.2, -0.3)[eq]], truth[0][eq]])
            misses = np.abs(stacked - target) / se
            assert np.all(misses < 4.0), f"equation {eq}: {misses} SEs from truth"

    def test_nobs_and_shapes(self):
        rng = np.random.default_rng(8)
        data = simulate_var(np.array([[[0.3, 0.0], [0.0, 0.3]]]), [0, 0], 50, rng)
        model = var_fit(data, p=3, names=("a", "b"))
        assert model.lag_order == 3
        assert model.names == ("a", "b")
        assert model.nobs == 47
        assert model.coef_matrices.shape == (3, 2, 2)
        assert model.residuals.shape == (47, 2)
        assert model.coef_cov.shape == (2, 7, 7)

    def test_too_short_sample_rejected(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(13, 2))
        with pytest.raises(InsufficientDataError):
            var_fit(data, p=2)

    def test_identical_series_is_singular(self):
        rng = np.random.default_rng(10)
        y = np.cumsum(rng.normal(size=60))
        with pytest.raises(SingularityError):
            var_fit(np.column_stack([y, y]), p=1)

    def test_more_coefficients_than_observations_is_singular(self):
        """The VAR(10) design on 30 rows: 20 rows for 21 coefficients.

        var_fit rejects 30 rows at p = 10 before building it (see the
        sample-bound test below), so the rank guard of the least-squares
        core is checked directly; a thin SVD alone would return a
        minimum-norm fit here.
        """
        data = np.cumsum(np.random.default_rng(3).normal(size=(30, 2)), axis=0)
        Y, Z = _lagged_design(data, 10)
        assert Z.shape == (20, 21)
        with pytest.raises(SingularityError) as info:
            _svd_solve(Z, Y)
        assert str(info.value) == "normal-equations matrix is ill-conditioned (estimate inf)"

    @pytest.mark.parametrize("p, n_min", [(1, 12), (8, 27), (9, 30), (10, 33)])
    def test_sample_bound_leaves_residual_degrees_of_freedom(self, p, n_min):
        """n >= max(2p + 10, 3p + 3): T - k >= 2 even past p = 7."""
        assert var_min_observations(p) == n_min
        data = np.cumsum(np.random.default_rng(3).normal(size=(n_min, 2)), axis=0)
        with pytest.raises(InsufficientDataError, match=f"at least {n_min} "):
            var_fit(data[:-1], p=p)
        model = var_fit(data, p=p)
        assert model.nobs - model.n_coefficients_per_equation >= 2
        assert np.all(np.isfinite(model.resid_cov))

    def test_bad_lag_order_rejected(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(40, 2))
        with pytest.raises(DomainError):
            var_fit(data, p=0)

    @pytest.mark.parametrize("fit", [var_fit, select_lag_order])
    @pytest.mark.parametrize("data, message", [
        (np.ones((40, 3)), "data must have shape (n, 2), got (40, 3)"),
        (np.ones(40), "data must have shape (n, 2), got (40,)"),
        (np.where(np.eye(40, 2) == 1.0, math.inf, 1.0), "series must be finite"),
        (np.full((40, 2), math.nan), "series must be finite"),
    ])
    def test_bad_shape_or_non_finite_series_rejected(self, fit, data, message):
        with pytest.raises(DomainError) as info:
            fit(data, 1)
        assert str(info.value) == message


def _bundled_logs():
    pair = build_backtest_series(*load_bundled())
    return np.log(np.column_stack([pair.market_prices, pair.model_prices]))


class TestGrangerWald:
    SERIES = {
        "bundled logs": _bundled_logs,
        "random walk": lambda: np.cumsum(
            np.random.default_rng(59).normal(size=(200, 2)), axis=0),
    }

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("series", SERIES)
    def test_tested_block_is_the_indexed_selection_bit_for_bit(self, series, p):
        """The cause's lags and their covariance block, read as strided
        slices, are the regressors 1 + 2 lag + j picked by index; the
        statistic and the condition estimate are those of the picked ones."""
        model = var_fit(self.SERIES[series](), p)
        for i, j in ((0, 1), (1, 0)):
            idx = 1 + 2 * np.arange(p) + j
            b = model.stacked_coefficients(i)[idx]
            block = model.coef_cov[i][np.ix_(idx, idx)]
            strided = model.coef_cov[i][1 + j :: 2, 1 + j :: 2]
            assert (model.coef_matrices[:, i, j] == b).all()
            assert (strided == block).all()
            result = granger_wald(model, cause=model.names[j], effect=model.names[i])
            assert result.chi2_stat == max(0.0, float(b @ np.linalg.solve(block, b)))
            s = np.linalg.svd(strided, compute_uv=False)
            assert float(s[0]) / float(s[-1]) == np.linalg.cond(block)

    def test_built_in_causation_is_detected_and_absence_is_not(self):
        rng = np.random.default_rng(314)
        data = one_way_coupled_pair(400, rng, load=0.5)
        model = var_fit(data, p=1, names=("x", "y"))
        forward = granger_wald(model, cause="y", effect="x")
        reverse = granger_wald(model, cause="x", effect="y")
        assert forward.p_value < 1e-6
        assert reverse.p_value > 0.05
        assert forward.df == 1

    def test_df_equals_lag_order(self):
        rng = np.random.default_rng(55)
        data = independent_ar1_pair(300, rng)
        model = var_fit(data, p=2)
        result = granger_wald(model, cause="y0", effect="y1")
        assert result.df == 2

    def test_p_value_is_chi2_tail_of_statistic(self):
        rng = np.random.default_rng(56)
        data = independent_ar1_pair(300, rng)
        model = var_fit(data, p=2)
        result = granger_wald(model, cause="y1", effect="y0")
        assert result.p_value == chi2_sf(result.chi2_stat, result.df)

    def test_invariant_to_rescaling_either_series(self):
        rng = np.random.default_rng(57)
        data = one_way_coupled_pair(300, rng, load=0.4)
        base = granger_wald(var_fit(data, p=2), "y1", "y0")
        scaled = data * np.array([1e4, 1e-3])
        again = granger_wald(var_fit(scaled, p=2), "y1", "y0")
        assert again.chi2_stat == pytest.approx(base.chi2_stat, rel=1e-8)

    def test_direction_label(self):
        result = GrangerResult(
            cause="model", effect="market", chi2_stat=1.0, df=2, p_value=0.6
        )
        assert "model" in result.null_hypothesis()
        assert result.null_hypothesis().index("model") < result.null_hypothesis().index(
            "market"
        )

    def test_unknown_name_rejected(self):
        rng = np.random.default_rng(58)
        model = var_fit(independent_ar1_pair(100, rng), p=1)
        with pytest.raises(DomainError):
            granger_wald(model, cause="nope", effect="y0")

    def test_direction_is_cause_then_effect(self):
        result = GrangerResult(cause="model", effect="market", chi2_stat=1.0, df=2,
                               p_value=0.6)
        assert result.direction == "model->market"

    def test_cause_equal_to_effect_rejected(self):
        model = var_fit(independent_ar1_pair(100, np.random.default_rng(58)), p=1)
        with pytest.raises(DomainError, match="^cause and effect must be different"):
            granger_wald(model, cause="y0", effect="y0")

    @pytest.mark.parametrize("small, estimate", [(0.0, "inf"), (1e-13, "1.000e+13")])
    @pytest.mark.parametrize("names", [("y0", "y1"), ("{0}", "a}b{")])
    def test_an_ill_conditioned_block_raises(self, small, estimate, names):
        """A hand-built covariance whose y1 block in y0's equation is diag(1, small)."""
        model = var_fit(independent_ar1_pair(100, np.random.default_rng(60)), 2, names)
        coef_cov = np.zeros_like(model.coef_cov)
        coef_cov[0][2, 2], coef_cov[0][4, 4] = 1.0, small
        with pytest.raises(SingularityError) as info:
            granger_wald(replace(model, coef_cov=coef_cov), names[1], names[0])
        assert str(info.value) == (f"covariance block for {names[1]}->{names[0]} is "
                                   f"singular (condition estimate {estimate})")


class TestLjungBox:
    def test_alternating_series_worked_example(self):
        """r_k = (-1)^k (mean-adjusted), n = 20, h = 3: Q = 59.4 exactly."""
        residuals = np.array([1.0, -1.0] * 10)
        result = ljung_box(residuals, lags=3)
        assert result.statistic == pytest.approx(59.4, rel=1e-12)
        assert result.df == 3
        assert result.p_value == pytest.approx(chi2_sf(59.4, 3), rel=1e-12)

    def test_fitted_lag_count_reduces_df_with_floor(self):
        residuals = np.array([1.0, -1.0] * 10)
        assert ljung_box(residuals, lags=3, fitted_lag_count=2).df == 1
        assert ljung_box(residuals, lags=3, fitted_lag_count=7).df == 1

    def test_white_noise_rejection_rate_is_near_nominal(self):
        rng = np.random.default_rng(20250101)
        rejections = 0
        reps = 400
        for _ in range(reps):
            resid = rng.standard_normal(200)
            if ljung_box(resid, lags=10).p_value < 0.05:
                rejections += 1
        rate = rejections / reps
        assert 0.02 <= rate <= 0.09, f"size {rate:.3f} far from nominal 0.05"

    def test_constant_residuals_convention(self):
        result = ljung_box(np.zeros(30), lags=5)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_bad_lags_rejected(self):
        with pytest.raises(DomainError):
            ljung_box(np.ones(30), lags=0)
        with pytest.raises(DomainError):
            ljung_box(np.ones(5), lags=10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residuals_rejected(self, bad):
        residuals = np.ones(30)
        residuals[7] = bad
        with pytest.raises(DomainError, match="^residuals must be finite$"):
            ljung_box(residuals, lags=5)


class TestLagOrderSelection:
    def test_recovers_true_order_one(self):
        rng = np.random.default_rng(42)
        data = simulate_var(
            np.array([[[0.6, 0.2], [0.1, 0.5]]]), [0.0, 0.0], 2000, rng
        )
        selection = select_lag_order(data, max_p=6)
        assert selection.chosen_p == 1
        assert not selection.all_failed_whiteness
        assert len(selection.rows) == 6

    def test_rows_carry_criteria_and_whiteness(self):
        rng = np.random.default_rng(43)
        data = simulate_var(np.array([[[0.5, 0.0], [0.0, 0.5]]]), [0, 0], 300, rng)
        selection = select_lag_order(data, max_p=4)
        for row, p in zip(selection.rows, range(1, 5)):
            assert row.p == p
            assert math.isfinite(row.aic) and math.isfinite(row.bic)
            assert 0.0 <= row.portmanteau_pvalue <= 1.0
        chosen_row = selection.rows[selection.chosen_p - 1]
        assert chosen_row.passes_whiteness or selection.all_failed_whiteness

    def test_prefers_smallest_bic_among_white_orders(self):
        rng = np.random.default_rng(44)
        coef = np.array(
            [[[0.4, 0.1], [0.0, 0.3]], [[0.25, 0.0], [0.1, 0.2]]]
        )
        data = simulate_var(coef, [0, 0], 2000, rng)
        selection = select_lag_order(data, max_p=5)
        white = [row for row in selection.rows if row.passes_whiteness]
        assert white, "expected at least one whitening order for a VAR(2) truth"
        assert selection.chosen_p == min(white, key=lambda r: r.bic).p

    def test_all_orders_failing_whiteness_is_flagged(self):
        """Period-7 seasonality cannot be whitened by p <= 2."""
        rng = np.random.default_rng(45)
        t = np.arange(400)
        season = np.column_stack(
            [np.where(t % 7 == 0, 3.0, 0.0), np.where(t % 7 == 3, -3.0, 0.0)]
        )
        data = season + 0.3 * rng.standard_normal((400, 2))
        selection = select_lag_order(data, max_p=2)
        assert selection.all_failed_whiteness
        assert selection.chosen_p in (1, 2)

    def test_max_p_validated(self):
        rng = np.random.default_rng(46)
        with pytest.raises(DomainError):
            select_lag_order(rng.normal(size=(100, 2)), max_p=0)

    def test_singular_residual_covariance_raises(self):
        """Its log determinant would make AIC and BIC -inf."""
        with pytest.raises(SingularityError, match=r"^VAR\(1\) has a singular residual"):
            select_lag_order(singular_var1_logs(), max_p=1)

    @pytest.mark.parametrize("seed", [2, 4])
    def test_a_residual_correlation_of_one_to_rounding_raises(self, seed):
        """A determinant of rounding noise would win the BIC scan (about -48)."""
        with pytest.raises(SingularityError, match=r"^VAR\(1\) has a singular residual"):
            select_lag_order(singular_var1_logs(seed), max_p=1)
