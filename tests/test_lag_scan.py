"""select_lag_order against an independent fit of each order on its own rows.

The scan fits every order from one QR factorization of the max-lag design.
The oracle here fits each VAR(p) separately with ``np.linalg.lstsq`` on the
``n - p`` rows of ``_lagged_design(data, p)`` and takes the textbook
criteria, so the two share no least-squares code. The same oracle checks
the VAR that the scan and var_fit hand back, and a per-lag Python loop
checks the Ljung-Box kernel.
"""

import math
import re

import numpy as np
import pytest

from minecost import (
    BacktestConfig,
    InsufficientDataError,
    SingularityError,
    build_backtest_series,
    chi2_sf,
    ljung_box,
    load_bundled,
    log_transform,
    run_backtest,
    select_lag_order,
    var_fit,
)
from minecost import backtest, econometrics
from minecost.econometrics import var_max_order, var_min_observations

RTOL = 1e-10
MAX_P = 8


def _lagged_design(data, p):
    """``(Y, Z)`` of VAR(p): the responses from t = p and their stacked lags."""
    n = data.shape[0]
    T = n - p
    blocks = [np.ones((T, 1))]
    for lag in range(1, p + 1):
        blocks.append(data[p - lag : n - lag, :])
    return data[p:, :], np.hstack(blocks)


def _bundled_logs():
    pair = build_backtest_series(*load_bundled())
    return np.column_stack(
        [log_transform(pair.market_prices), log_transform(pair.model_prices)]
    )


def _random_walk(n, seed):
    return np.cumsum(np.random.default_rng(seed).normal(size=(n, 2)), axis=0)


def _oracle_row(data, p):
    """``(aic, bic, stat, df, pvalue)`` of VAR(p) on rows p..n-1."""
    Y, Z = _lagged_design(data, p)
    T, k = Z.shape
    beta = np.linalg.lstsq(Z, Y, rcond=None)[0]
    E = Y - Z @ beta
    _, log_det = np.linalg.slogdet(E.T @ E / T)
    m = 2 * k  # coefficients of both equations
    h = min(max(10, 2 * p), T - 2)
    parts = [ljung_box(E[:, i], h, fitted_lag_count=p) for i in range(2)]
    stat = sum(part.statistic for part in parts)
    df = sum(part.df for part in parts)
    return (log_det + 2.0 * m / T, log_det + m * math.log(T) / T,
            stat, df, chi2_sf(stat, df))


@pytest.mark.parametrize("data, max_p", [
    pytest.param(_bundled_logs(), MAX_P, id="bundled"),
    pytest.param(_random_walk(2000, 7), MAX_P, id="random-walk-2000"),
    pytest.param(_random_walk(var_min_observations(MAX_P), 8), MAX_P, id="shortest"),
    # Where the scan puts the column that drops each row before an order's
    # sample depends on max_p.
    *(pytest.param(_random_walk(n, n + max_p), max_p, id=f"max_p={max_p}-{n}-rows")
      for max_p in (1, 2, 3, 12) for n in (var_min_observations(max_p), 300)),
])
def test_rows_match_a_separate_fit_of_each_order(data, max_p):
    selection = select_lag_order(data, max_p)
    assert [row.p for row in selection.rows] == list(range(1, max_p + 1))
    for row in selection.rows:
        aic, bic, stat, df, pvalue = _oracle_row(data, row.p)
        assert row.aic == pytest.approx(aic, rel=RTOL)
        assert row.bic == pytest.approx(bic, rel=RTOL)
        assert row.portmanteau_stat == pytest.approx(stat, rel=RTOL)
        assert row.portmanteau_df == df
        assert row.portmanteau_pvalue == pytest.approx(pvalue, rel=RTOL)
        assert row.passes_whiteness == (pvalue > selection.whiteness_alpha)


# Bundled lag table, p = 1..8: (aic, bic, portmanteau stat, df, p-value),
# frozen from the scan that fitted each order with its own var_fit call.
BUNDLED_TABLE = [
    (-9.289303388018237, -9.153544328627726, 47.58895425095205, 18, 0.00017326187085040914),
    (-9.53587680507012, -9.30843474332778, 20.334093712126567, 16, 0.20554869729192132),
    (-9.541862081027153, -9.221776056838424, 15.580713433294683, 14, 0.33964409114795585),
    (-9.533739723377117, -9.120031700383686, 12.34765528701119, 12, 0.4181782975757125),
    (-9.467088877168393, -8.95876332342353, 10.264516122506162, 10, 0.41760102368101765),
    (-9.401684574948447, -8.797728030679004, 12.270286144515495, 12, 0.4242240951784599),
    (-9.356356030942079, -8.655736662930769, 16.201192051646743, 14, 0.3012427638466663),
    (-9.365537139939875, -8.567204282042988, 14.679178655370979, 16, 0.5482494153150608),
]


def test_bundled_table_matches_its_frozen_values():
    selection = select_lag_order(_bundled_logs(), MAX_P)
    assert (selection.chosen_p, selection.all_failed_whiteness) == (2, False)
    for row, (aic, bic, stat, df, pvalue) in zip(selection.rows, BUNDLED_TABLE,
                                                 strict=True):
        assert row.aic == pytest.approx(aic, rel=RTOL)
        assert row.bic == pytest.approx(bic, rel=RTOL)
        assert row.portmanteau_stat == pytest.approx(stat, rel=RTOL)
        assert row.portmanteau_df == df
        assert row.portmanteau_pvalue == pytest.approx(pvalue, rel=RTOL)
        assert row.passes_whiteness == (row.p > 1)


@pytest.mark.parametrize("level", [0.0, 3.0], ids=["zero", "nonzero"])
def test_a_constant_column_is_singular(level):
    data = _random_walk(200, 9)
    data[:, 1] = level
    with pytest.raises(SingularityError):
        select_lag_order(data, MAX_P)


@pytest.mark.parametrize("n, p", [(var_min_observations(MAX_P) - 1, MAX_P), (15, 3)])
def test_a_short_series_names_the_first_order_it_cannot_fit(n, p):
    message = f"need at least {var_min_observations(p)} observations for p={p}, got {n}"
    with pytest.raises(InsufficientDataError, match=f"^{re.escape(message)}$"):
        select_lag_order(_random_walk(n, 10), MAX_P)


def test_the_highest_supported_order_is_the_largest_that_fits():
    """var_max_order, clamped to max_p, is the scan over every order."""
    for n in range(401):
        for max_p in range(1, 31):
            scanned = max((p for p in range(1, max_p + 1)
                           if var_min_observations(p) <= n), default=0)
            assert min(max_p, var_max_order(n)) == scanned, (n, max_p)


def test_a_short_series_names_the_same_order_as_a_scan_over_every_order(monkeypatch):
    class Fitted(Exception):
        pass

    def fitted(*args, **kwargs):
        raise Fitted

    monkeypatch.setattr(econometrics, "_compress", fitted)
    data = np.ones((400, 2))
    for n in range(401):
        for max_p in range(1, 31):
            short = next((p for p in range(1, max_p + 1)
                          if var_min_observations(p) > n), None)
            if short is None:
                with pytest.raises(Fitted):
                    select_lag_order(data[:n], max_p)
                continue
            message = (f"need at least {var_min_observations(short)} observations "
                       f"for p={short}, got {n}")
            with pytest.raises(InsufficientDataError, match=f"^{re.escape(message)}$"):
                select_lag_order(data[:n], max_p)


def _first_svd_error(C, max_p):
    """Message of the first order whose _svd_solve on its own rows of C
    raises, or None if every order's passes."""
    for p in range(1, max_p + 1):
        try:
            econometrics._svd_solve(*econometrics._order_rows(C, p))
        except SingularityError as exc:
            return str(exc)
    return None


def _assert_the_guard_decides(scan, C, max_p):
    """``scan()`` raises SingularityError, with the same message, exactly when
    some order's _svd_solve on its own rows of C raises; returns the message."""
    expected = _first_svd_error(C, max_p)
    if expected is None:
        scan()
    else:
        with pytest.raises(SingularityError) as info:
            scan()
        assert str(info.value) == expected
    return expected


def _collinear(eps, n=200):
    """y1 is last period's y0 plus eps noise, so from p = 2 on the design has
    two columns eps apart: its condition grows as 1 / eps^2 and with p. The
    residuals stay uncorrelated, so only the fit guard can refuse it."""
    rng = np.random.default_rng(12)
    y0 = np.cumsum(rng.normal(size=n))
    y1 = np.zeros(n)
    y1[1:] = y0[:-1] + eps * rng.normal(size=n - 1)
    return np.column_stack([y0, y1])


def test_the_batched_scan_refuses_exactly_the_orders_the_svd_guard_refuses():
    """Designs whose (s_max/s_min)^2 span 1e11 to 1e13 around CONDITION_LIMIT."""
    outcomes = []
    for eps in np.geomspace(3e-6, 7e-5, 25):
        data = _collinear(eps)
        _, C = econometrics._compress(data, MAX_P)
        outcomes.append(_assert_the_guard_decides(
            lambda: select_lag_order(data, MAX_P), C, MAX_P))
    refused = [message for message in outcomes if message is not None]
    assert 0 < len(refused) < len(outcomes)
    assert len(set(refused)) == len(refused)  # the first refused order moves
    assert all(message.startswith("normal-equations matrix is ill-conditioned")
               for message in refused)


def test_a_zero_column_at_some_orders_is_the_svd_guards_error():
    """A spike at t = 0 leaves VAR(1) a nonzero y1 lag column and every
    higher order a zero one."""
    data = _random_walk(200, 13)
    data[:, 1] = 0.0
    data[0, 1] = 1.0
    _, C = econometrics._compress(data, MAX_P)
    message = _assert_the_guard_decides(lambda: select_lag_order(data, MAX_P), C,
                                        MAX_P)
    assert message == "regressor matrix has a zero column"
    econometrics._svd_solve(*econometrics._order_rows(C, 1))


def test_an_exactly_singular_block_is_the_svd_guards_error():
    """Compressed rows whose VAR(2) prefix is already triangular, with a zero
    diagonal under a nonzero column: its QR keeps the zero, so an LU
    inversion of its block would fail the whole batch."""
    rng = np.random.default_rng(14)
    C = np.vstack([np.triu(rng.normal(size=(7, 7))), rng.normal(size=(1, 7))])
    C[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(C[:5, :5])
    message = _assert_the_guard_decides(lambda: econometrics._rank_orders(C, 2), C, 2)
    assert message.startswith("normal-equations matrix is ill-conditioned")
    econometrics._svd_solve(*econometrics._order_rows(C, 1))


def test_the_scan_makes_no_var_fit_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("select_lag_order called var_fit")

    monkeypatch.setattr(econometrics, "var_fit", refuse)
    assert select_lag_order(_bundled_logs(), MAX_P).chosen_p == 2


def _oracle_model(data, p):
    """Coefficients, residuals and covariances of VAR(p) from lstsq."""
    Y, Z = _lagged_design(data, p)
    T, k = Z.shape
    beta = np.linalg.lstsq(Z, Y, rcond=None)[0]
    E = Y - Z @ beta
    resid_cov = E.T @ E / (T - k)
    _, s, Vt = np.linalg.svd(Z, full_matrices=False)
    ztz_inv = (Vt.T / s**2) @ Vt
    coef_cov = np.array([resid_cov[i, i] * ztz_inv for i in range(2)])
    return beta, E, resid_cov, coef_cov, T


@pytest.mark.parametrize("data", [
    pytest.param(_bundled_logs(), id="bundled"),
    pytest.param(_random_walk(2000, 7), id="random-walk-2000"),
    pytest.param(_random_walk(var_min_observations(MAX_P), 8), id="shortest"),
])
def test_the_scan_and_var_fit_hand_back_the_least_squares_var(data):
    selection = select_lag_order(data, MAX_P, names=("a", "b"))
    for p in range(1, MAX_P + 1):
        beta, E, resid_cov, coef_cov, T = _oracle_model(data, p)
        scanned = selection._model(p)
        for model in (scanned, var_fit(data, p, ("a", "b"))):
            assert (model.lag_order, model.names, model.nobs) == (p, ("a", "b"), T)
            close = dict(rtol=RTOL, atol=0.0, err_msg=f"p={p}")
            np.testing.assert_allclose(model.intercepts, beta[0], **close)
            for lag in range(p):
                np.testing.assert_allclose(model.coef_matrices[lag],
                                           beta[1 + 2 * lag : 3 + 2 * lag].T, **close)
            # A residual near zero is the difference of two values of the
            # data's size and keeps their rounding: compare the whole array.
            assert np.linalg.norm(model.residuals - E) <= RTOL * np.linalg.norm(E)
            np.testing.assert_allclose(model.resid_cov, resid_cov, **close)
            np.testing.assert_allclose(model.coef_cov, coef_cov, **close)


@pytest.mark.parametrize("kwargs, names", [({}, ("y0", "y1")),
                                           ({"names": ("a", "b")}, ("a", "b"))])
def test_the_selection_labels_its_models_with_the_names_it_scanned(kwargs, names):
    data = _bundled_logs()
    selection = select_lag_order(data, 3, **kwargs)
    for p in range(1, 4):
        model = selection._model(p)
        assert model.names == names
        assert model.nobs == len(data) - p
        np.testing.assert_allclose(model.coef_matrices,
                                   var_fit(data, p, names).coef_matrices,
                                   rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("lags, refits",
                         [(None, []), (2, []), (MAX_P + 1, [MAX_P + 1])])
def test_run_backtest_refits_only_a_pinned_order_above_the_scan(monkeypatch, lags,
                                                                 refits):
    calls = []

    def counted(data, p, **kwargs):
        calls.append(p)
        return var_fit(data, p, **kwargs)

    monkeypatch.setattr(backtest, "var_fit", counted)
    records, schedule, table = load_bundled()
    config = BacktestConfig(lags=lags, max_p=MAX_P, include_timestamp=False)
    report = run_backtest(records, schedule, table, config)
    assert calls == refits
    p = report.lag_selection.chosen_p if lags is None else lags
    expected = var_fit(_bundled_logs(), p, names=("market", "model"))
    assert report.var_model.lag_order == p
    np.testing.assert_allclose(report.var_model.coef_matrices, expected.coef_matrices,
                               rtol=RTOL, atol=0.0)


def test_the_scan_makes_no_ljung_box_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("select_lag_order called ljung_box")

    monkeypatch.setattr(econometrics, "ljung_box", refuse)
    assert select_lag_order(_bundled_logs(), MAX_P).chosen_p == 2


def _textbook_q(x, h):
    """Ljung-Box Q of ``x`` up to lag ``h``, one lag at a time in Python."""
    e = [v - sum(x) / len(x) for v in x]
    n, c0 = len(e), sum(v * v for v in e)
    if c0 == 0.0:
        return 0.0
    q = 0.0
    for k in range(1, h + 1):
        r = sum(e[t] * e[t - k] for t in range(k, n)) / c0
        q += r * r / (n - k)
    return n * (n + 2) * q


@pytest.mark.parametrize("h", [1, 5, 10, 16, 38])
def test_ljung_box_matches_a_per_lag_loop(h):
    x = np.random.default_rng(h).normal(size=40).cumsum()
    result = ljung_box(x, h, fitted_lag_count=2)
    assert result.statistic == pytest.approx(_textbook_q(x.tolist(), h), rel=RTOL)
    assert (result.df, result.lags) == (max(1, h - 2), h)
    assert result.p_value == chi2_sf(result.statistic, result.df)


@pytest.mark.parametrize("h", [1, 10])
def test_a_zero_variance_series_has_no_autocorrelation(h):
    result = ljung_box(np.zeros(30), h)
    assert (result.statistic, result.p_value) == (0.0, 1.0)


def test_the_kernel_tests_each_row_on_its_own_values():
    """Leading zeros pad a row to the longest; a zero row has Q = 0."""
    rng = np.random.default_rng(11)
    series = [rng.normal(size=n) for n in (50, 44, 37)] + [np.zeros(30)]
    T = np.array([len(x) for x in series])
    h = np.array([12, 3, 20, 5])
    E = np.zeros((len(series), T.max()))
    for row, x in zip(E, series):
        row[len(row) - len(x):] = x - x.mean()
    q = econometrics._ljung_box_q(E, T, h)
    expected = [_textbook_q(x.tolist(), k) for x, k in zip(series, h.tolist())]
    np.testing.assert_allclose(q, expected, rtol=RTOL, atol=0.0)
    assert q[-1] == 0.0
