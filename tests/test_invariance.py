"""Pipeline invariances of run_backtest on the bundled data (metamorphic tests).

The model price is linear in the electricity price, the hardware efficiency
and the difficulty, and every fit on log prices has an intercept. Scaling
any of them by c therefore scales each model price by c and only shifts log
model price by log c, which moves no slope, lag criterion or test statistic.
Scaling every market price by c is a change of unit (dollars to cents) and
does the same on the market side.
Chen, Cheung & Yiu (1998, HKUST-CS98-01) call such relations metamorphic: an
oracle for statistics that have no closed-form answer.
"""

import dataclasses

import numpy as np
import pytest

from minecost import BacktestConfig, EfficiencyTable, load_bundled, run_backtest

RTOL = 1e-10
ELECTRICITY = 0.135
RECORDS, SCHEDULE, TABLE = load_bundled()


def _config(electricity=ELECTRICITY):
    return BacktestConfig(electricity_price=electricity, lags=None,
                          include_timestamp=False)


def _run(records=RECORDS, electricity=ELECTRICITY):
    return run_backtest(records, SCHEDULE, TABLE, _config(electricity))


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


def _assert_same_statistics(report, base):
    """Every statistic of log prices agrees; every choice is identical."""
    selection, base_selection = report.lag_selection, base.lag_selection
    assert selection.chosen_p == base_selection.chosen_p
    assert ([row.passes_whiteness for row in selection.rows]
            == [row.passes_whiteness for row in base_selection.rows])
    assert ([row.portmanteau_df for row in selection.rows]
            == [row.portmanteau_df for row in base_selection.rows])
    for name in ("aic", "bic", "portmanteau_stat", "portmanteau_pvalue"):
        _close([getattr(row, name) for row in selection.rows],
               [getattr(row, name) for row in base_selection.rows])
    _close(report.var_model.coef_matrices, base.var_model.coef_matrices)
    _close(report.var_model.resid_cov, base.var_model.resid_cov)
    for test, base_test in zip(report.granger_results, base.granger_results, strict=True):
        assert test.df == base_test.df
        _close([test.chi2_stat, test.p_value], [base_test.chi2_stat, base_test.p_value])
    _close(report.log_fit.slope, base.log_fit.slope)
    assert ([(e.start_date, e.end_date, e.peak_date) for e in report.episodes]
            == [(e.start_date, e.end_date, e.peak_date) for e in base.episodes])


@pytest.fixture(scope="module")
def base():
    return _run()


@pytest.mark.parametrize("c", [0.05 / ELECTRICITY, 2.2, 100.0])
def test_scaling_the_electricity_price_scales_only_the_model_price(base, c):
    report = _run(electricity=ELECTRICITY * c)
    _close(report.pair.model_prices, c * base.pair.model_prices)
    assert report.pair.market_prices.tolist() == base.pair.market_prices.tolist()
    _assert_same_statistics(report, base)


@pytest.mark.parametrize("c", [0.9, 100.0])
def test_a_change_of_market_price_unit_scales_only_the_market_price(base, c):
    records = [dataclasses.replace(r, market_price=r.market_price * c) for r in RECORDS]
    report = _run(records)
    _close(report.pair.market_prices, c * base.pair.market_prices)
    assert report.pair.model_prices.tolist() == base.pair.model_prices.tolist()
    _assert_same_statistics(report, base)


# Seeded scale factors, log-uniform over four decades around 1.
SCALES = np.exp(np.random.default_rng(20251018).uniform(-4.6, 4.6, size=3)).tolist()


def _scaled_table(c):
    return EfficiencyTable(tuple((day, value * c) for day, value in TABLE.entries))


@pytest.mark.parametrize("c", SCALES)
def test_scaling_the_efficiency_table_scales_only_the_model_price(base, c):
    report = run_backtest(RECORDS, SCHEDULE, _scaled_table(c), _config())
    _close(report.pair.model_prices, c * base.pair.model_prices)
    assert report.pair.market_prices.tolist() == base.pair.market_prices.tolist()
    _assert_same_statistics(report, base)


@pytest.mark.parametrize("c", SCALES)
def test_scaling_a_per_row_efficiency_column_scales_only_the_model_price(base, c):
    """Each record carries c times the table's efficiency for its date."""
    records = [dataclasses.replace(r, efficiency=c * TABLE.efficiency_at(r.date))
               for r in RECORDS]
    report = run_backtest(records, SCHEDULE, TABLE, _config())
    _close(report.pair.model_prices, c * base.pair.model_prices)
    assert report.pair.market_prices.tolist() == base.pair.market_prices.tolist()
    _assert_same_statistics(report, base)


@pytest.mark.parametrize("c", SCALES)
def test_scaling_the_difficulty_scales_only_the_model_price(base, c):
    records = [dataclasses.replace(r, difficulty=r.difficulty * c) for r in RECORDS]
    report = _run(records)
    _close(report.pair.model_prices, c * base.pair.model_prices)
    assert report.pair.market_prices.tolist() == base.pair.market_prices.tolist()
    _assert_same_statistics(report, base)


# The electricity grid of the benchmark's sweep, 0.030..0.300 $/kWh by 0.001,
# of which a seeded sample of 12 prices is run.
GRID = [round(0.030 + 0.001 * i, 3) for i in range(271)]
SWEEP = np.random.default_rng(20251019).choice(GRID, size=12, replace=False).tolist()


def test_an_electricity_sweep_moves_only_the_model_price_level(base):
    for price in SWEEP:
        report = _run(electricity=price)
        _close(report.pair.model_prices, price / ELECTRICITY * base.pair.model_prices)
        assert report.pair.market_prices.tolist() == base.pair.market_prices.tolist()
        _assert_same_statistics(report, base)
