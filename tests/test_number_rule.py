"""One rule for every positive number the library takes: above 0, below infinity.

Each knob, parameter, record field, step value and observation or price
column is tested by the same rule; a value it rejects, None, text and a
number beyond double range included, is the site's own error class with the
site's own message and the value's repr. Accepted values are kept as floats.
"""

import datetime as dt
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from minecost import (
    BacktestConfig,
    CostParams,
    DomainError,
    EfficiencyTable,
    NetworkParams,
    ObservationRecord,
    Observations,
    PairedSeries,
    RewardSchedule,
    UndefinedPriceError,
    ValidationError,
    build_backtest_series,
    chi2_sf,
    detect_episodes,
    energy_cost_per_day,
    expected_btc_per_day,
    model_price,
    ratio_series,
)

DAY = dt.date(2017, 1, 7)
COST = CostParams(0.135, 0.25)
NET = NetworkParams(1e12, 12.5)
SCHEDULE = RewardSchedule(((dt.date(2009, 1, 3), 25.0),))
RECORDS = [ObservationRecord(DAY, 3.0e11, 900.0, 0.2)]
STATS = ratio_series(PairedSeries(
    tuple(DAY + dt.timedelta(days=i) for i in range(6)),
    np.array([1.0, 1.0, 5.0, 5.0, 1.0, 1.0]), np.ones(6),
))

NOT_NUMBERS = [None, "2", b"2"]
# An int or Decimal beyond double range compares below inf; its float does not.
NOT_POSITIVE_FINITE = [math.nan, math.inf, -math.inf, -1, 10**400, Decimal("1e400")]
NOT_ACCEPTED = NOT_NUMBERS + NOT_POSITIVE_FINITE + [0]  # where 0 is not allowed either


def _positive(name):
    return DomainError, f"{name} must be a positive finite number, got {{!r}}"


# (entry point, the values it rejects, its error class and message template)
SITES = {
    "BacktestConfig.electricity_price": (
        lambda v: BacktestConfig(electricity_price=v), NOT_ACCEPTED,
        *_positive("electricity_price")),
    "BacktestConfig.entry_k": (
        lambda v: BacktestConfig(entry_k=v), NOT_ACCEPTED, *_positive("entry_k")),
    "CostParams.electricity_price": (
        lambda v: CostParams(v, 0.25), NOT_ACCEPTED, *_positive("electricity_price")),
    "CostParams.efficiency": (
        lambda v: CostParams(0.135, v), NOT_ACCEPTED, *_positive("efficiency")),
    "NetworkParams.difficulty": (
        lambda v: NetworkParams(v, 12.5), NOT_ACCEPTED, *_positive("difficulty")),
    "NetworkParams.block_reward": (
        lambda v: NetworkParams(1e12, v), NOT_NUMBERS + NOT_POSITIVE_FINITE,
        DomainError, "block_reward must be finite and >= 0, got {!r}"),
    "energy_cost_per_day": (
        lambda v: energy_cost_per_day(v, COST), NOT_ACCEPTED, *_positive("hashrate_ghs")),
    "expected_btc_per_day": (
        lambda v: expected_btc_per_day(v, NET), NOT_ACCEPTED, *_positive("hashrate_ghs")),
    "detect_episodes": (
        lambda v: detect_episodes(STATS, entry_k=v), NOT_ACCEPTED, *_positive("entry_k")),
    "build_backtest_series": (
        lambda v: build_backtest_series(RECORDS, SCHEDULE, electricity_price=v),
        NOT_ACCEPTED, *_positive("electricity_price")),
    "chi2_sf": (
        lambda v: chi2_sf(v, 1), NOT_NUMBERS + NOT_POSITIVE_FINITE,
        DomainError, "chi-square statistic must be finite and >= 0, got {!r}"),
    "ObservationRecord.difficulty": (
        lambda v: ObservationRecord(DAY, v, 900.0), NOT_ACCEPTED,
        ValidationError, "difficulty must be positive and finite, got {!r} (2017-01-07)"),
    "ObservationRecord.market_price": (
        lambda v: ObservationRecord(DAY, 3.0e11, v), NOT_ACCEPTED,
        ValidationError, "market_price must be positive and finite, got {!r} (2017-01-07)"),
    "ObservationRecord.efficiency": (
        lambda v: ObservationRecord(DAY, 3.0e11, 900.0, v),
        [v for v in NOT_ACCEPTED if v is not None],  # None: no inline efficiency
        ValidationError, "efficiency must be positive and finite, got {!r} (2017-01-07)"),
    "RewardSchedule": (
        lambda v: RewardSchedule(((DAY, v),)), NOT_ACCEPTED,
        ValidationError, "reward must be positive and finite, got {!r} (2017-01-07)"),
    "EfficiencyTable": (
        lambda v: EfficiencyTable(((DAY, v),)), NOT_ACCEPTED,
        ValidationError, "efficiency must be positive and finite, got {!r} (2017-01-07)"),
    # Columns: each row's error is its record's, and a price column names itself.
    "Observations.difficulty": (
        lambda v: Observations((DAY,), [v], [900.0], [math.nan]), NOT_ACCEPTED,
        ValidationError, "difficulty must be positive and finite, got {!r} (2017-01-07)"),
    "Observations.market_price": (
        lambda v: Observations((DAY,), [3.0e11], [v], [math.nan]), NOT_ACCEPTED,
        ValidationError, "market_price must be positive and finite, got {!r} (2017-01-07)"),
    "Observations.efficiency": (
        lambda v: Observations((DAY,), [3.0e11], [900.0], [v]),
        # None and NaN: no inline efficiency
        [v for v in NOT_ACCEPTED if v is not None and not (v != v and isinstance(v, float))],
        ValidationError, "efficiency must be positive and finite, got {!r} (2017-01-07)"),
    "PairedSeries.market_prices": (
        lambda v: PairedSeries((DAY,), [v], [1.0]), NOT_ACCEPTED,
        ValidationError, "market_prices must be positive and finite, got {!r} (2017-01-07)"),
    "PairedSeries.model_prices": (
        lambda v: PairedSeries((DAY,), [1.0], [v]), NOT_ACCEPTED,
        ValidationError, "model_prices must be positive and finite, got {!r} (2017-01-07)"),
}


def _id(value):
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:12]}...({len(text)} digits)"


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, values, _, _) in SITES.items() for value in values
], ids=_id)
def test_every_site_rejects_what_the_rule_rejects(site, value):
    call, _, error, message = SITES[site]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


def test_accepted_numbers_are_kept_as_floats():
    cost = CostParams(Decimal("0.135"), np.float64(0.25))
    net = NetworkParams(Decimal("1e12"), np.float64(12.5))
    config = BacktestConfig(electricity_price=Decimal("0.125"), entry_k=np.float64(2))
    kept = [cost.electricity_price, cost.efficiency, net.difficulty, net.block_reward,
            config.electricity_price, config.entry_k]
    assert [(type(value), value) for value in kept] == [
        (float, 0.135), (float, 0.25), (float, 1e12), (float, 12.5),
        (float, 0.125), (float, 2.0),
    ]
    assert model_price(cost, net) == model_price(COST, NET)
    assert type(NetworkParams(1, 12).difficulty) is float


def test_step_table_values_are_kept_as_floats():
    halving = dt.date(2012, 11, 28)
    schedule = RewardSchedule(((dt.date(2009, 1, 3), Decimal(50)), (halving, Decimal(25))))
    table = EfficiencyTable(((DAY, 1), (DAY + dt.timedelta(days=1), Decimal("0.25"))))
    kept = [value for entries in (schedule.entries, table.entries) for _, value in entries]
    assert [(type(value), value) for value in kept] == [
        (float, 50.0), (float, 25.0), (float, 1.0), (float, 0.25)]
    assert (schedule.reward_at(halving), table.efficiency_at(DAY)) == (25.0, 1.0)


def test_a_narrow_float_is_accepted_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cost = CostParams(np.float32(0.25), np.float16(2.0))
    assert (cost.electricity_price, cost.efficiency) == (0.25, 2.0)


@pytest.mark.parametrize("column", [
    np.array([3.0e11, 4.0e11]), [3.0e11, 4.0e11], [300_000_000_000, 400_000_000_000],
    [Decimal("3e11"), np.float64(4.0e11)], np.array([3.0e11, 4.0e11], dtype=np.float32),
], ids=["float-array", "floats", "ints", "decimal-and-float64", "float32-array"])
def test_columns_of_numbers_are_kept_as_floats(column):
    dates = (DAY, DAY + dt.timedelta(days=14))
    observations = Observations(dates, column, column, [math.nan, 0.2])
    paired = PairedSeries(dates, column, column)
    for kept in (observations.difficulty, observations.market_price,
                 paired.market_prices, paired.model_prices):
        assert kept.dtype == np.float64
        assert kept.tolist() == np.asarray(column, dtype=float).tolist()
    assert [record.efficiency for record in observations] == [None, 0.2]


@pytest.mark.parametrize("column", [["2", 3.0e11], [3.0e11, "2"], [3.0e11, b"2"]],
                         ids=["text-first", "text-second", "bytes-second"])
def test_text_beside_numbers_names_its_own_row(column):
    """An array of these would hold a float as text, and name the wrong row."""
    dates = (DAY, DAY + dt.timedelta(days=14))
    bad = next(i for i, v in enumerate(column) if isinstance(v, (str, bytes)))
    with pytest.raises(ValidationError) as info:
        Observations(dates, column, [900.0, 900.0], [math.nan, math.nan])
    assert str(info.value) == (f"difficulty must be positive and finite, got "
                               f"{column[bad]!r} ({dates[bad].isoformat()})")
    with pytest.raises(ValidationError) as info:
        PairedSeries(dates, column, [1.0, 1.0])
    assert str(info.value) == (f"market_prices must be positive and finite, got "
                               f"{column[bad]!r} ({dates[bad].isoformat()})")


@pytest.mark.parametrize("zero", [0, 0.0, -0.0], ids=repr)
def test_a_zero_block_reward_or_statistic_is_allowed(zero):
    net = NetworkParams(1e12, zero)
    assert (type(net.block_reward), net.block_reward) == (float, 0.0)
    assert expected_btc_per_day(100.0, net) == 0.0
    with pytest.raises(UndefinedPriceError):
        model_price(COST, net)
    assert chi2_sf(zero, 1) == 1.0


def test_a_decimal_nan_is_rejected():
    with pytest.raises(DomainError) as info:
        CostParams(Decimal("NaN"), 0.25)
    assert str(info.value) == (
        "electricity_price must be a positive finite number, got Decimal('NaN')"
    )
