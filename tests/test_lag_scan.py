"""select_lag_order against an independent fit of each order on its own rows.

The scan fits every order from one QR factorization of the max-lag design.
The oracle here fits each VAR(p) separately with ``np.linalg.lstsq`` on the
``n - p`` rows of ``_lagged_design(data, p)`` and takes the textbook
criteria, so the two share no least-squares code.
"""

import math
import re

import numpy as np
import pytest

from minecost import (
    InsufficientDataError,
    SingularityError,
    build_backtest_series,
    chi2_sf,
    ljung_box,
    load_bundled,
    log_transform,
    select_lag_order,
)
from minecost import econometrics
from minecost.econometrics import _lagged_design, var_min_observations

RTOL = 1e-10
MAX_P = 8


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


@pytest.mark.parametrize("data", [
    pytest.param(_bundled_logs(), id="bundled"),
    pytest.param(_random_walk(2000, 7), id="random-walk-2000"),
    pytest.param(_random_walk(var_min_observations(MAX_P), 8), id="shortest"),
])
def test_rows_match_a_separate_fit_of_each_order(data):
    selection = select_lag_order(data, MAX_P)
    assert [row.p for row in selection.rows] == list(range(1, MAX_P + 1))
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


def test_the_scan_makes_no_var_fit_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("select_lag_order called var_fit")

    monkeypatch.setattr(econometrics, "var_fit", refuse)
    assert select_lag_order(_bundled_logs(), MAX_P).chosen_p == 2
