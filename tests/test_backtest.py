"""Tests for the ratio analysis, episode flagging, and the full pipeline."""

import datetime as dt
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from minecost import (
    BacktestConfig,
    BubbleEpisode,
    CostParams,
    DegenerateThresholdWarning,
    DomainError,
    NetworkParams,
    ObservationRecord,
    PairedSeries,
    RatioStats,
    RewardSchedule,
    build_backtest_series,
    chi2_sf,
    detect_episodes,
    ljung_box,
    load_bundled,
    model_price,
    ratio_series,
    run_backtest,
    select_lag_order,
    var_fit,
)

SCHEDULE = RewardSchedule(entries=((dt.date(2009, 1, 3), 25.0),))


def _dates(n, start=dt.date(2015, 1, 3), step=14):
    return [start + dt.timedelta(days=step * i) for i in range(n)]


def _pair_from_ratios(ratios):
    days = _dates(len(ratios), step=1)
    return PairedSeries(
        tuple(days), np.asarray(ratios, dtype=float), np.ones(len(ratios))
    )


def _synthetic_records(n, rng, eff_sigma=0.05, market_fn=None, growth=1.03):
    """Epoch records with smooth difficulty and noisy inline efficiency.

    ``market_fn(model_prices, rng) -> market_prices`` defines how the
    observed price relates to the model path; default is contemporaneous
    with mild lognormal noise. ``growth`` is the per-epoch difficulty
    factor; 1.0 gives a trend-free model path.
    """
    days = _dates(n)
    difficulty = 1e10 * growth ** np.arange(n)
    efficiency = 0.5 * np.exp(eff_sigma * rng.standard_normal(n))
    model = np.array(
        [
            model_price(
                CostParams(electricity_price=0.135, efficiency=float(e)),
                NetworkParams(difficulty=float(d), block_reward=25.0),
            )
            for d, e in zip(difficulty, efficiency)
        ]
    )
    if market_fn is None:
        market = model * np.exp(0.05 * rng.standard_normal(n))
    else:
        market = market_fn(model, rng)
    records = [
        ObservationRecord(day, float(d), float(m), float(e))
        for day, d, m, e in zip(days, difficulty, market, efficiency)
    ]
    return records, model


class TestRatioSeries:
    def test_hand_worked_stats(self):
        pair = _pair_from_ratios([2.0, 3.0])
        stats = ratio_series(pair)
        assert np.allclose(stats.ratios, [2.0, 3.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.std == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert stats.min == 2.0 and stats.max == 3.0

    def test_single_observation_has_zero_spread(self):
        stats = ratio_series(_pair_from_ratios([1.7]))
        assert stats.std == 0.0
        assert stats.mean == pytest.approx(1.7)

    def test_ratio_of_equal_series_is_one(self):
        days = _dates(5)
        values = np.linspace(100, 500, 5)
        stats = ratio_series(PairedSeries(tuple(days), values, values.copy()))
        assert np.allclose(stats.ratios, 1.0)
        assert stats.std == 0.0

    @pytest.mark.parametrize(
        "difficulty, ratio", [(1e-300, "2.1343933787322848e+307"), (1e-310, "inf")]
    )
    def test_overflowing_moments_name_the_largest_ratio(self, difficulty, ratio):
        """Tiny positive model prices are valid, but their ratios overflow."""
        records, schedule, table = load_bundled()
        records = list(records)
        records[0] = replace(records[0], difficulty=difficulty)
        pair = build_backtest_series(records, schedule, table)
        with pytest.raises(DomainError) as info:
            ratio_series(pair)
        assert str(info.value) == (
            f"market/model ratio is {ratio} on 2013-06-29: the ratio mean or sd "
            "overflows double precision"
        )


class TestDetectEpisodes:
    RATIOS = [1.0] * 12 + [4.0, 4.0] + [1.0] * 6

    def test_flags_the_run_above_threshold(self):
        stats = ratio_series(_pair_from_ratios(self.RATIOS))
        episodes = detect_episodes(stats, entry_k=2.0, min_len=2)
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.start_date == stats.dates[12]
        assert episode.end_date == stats.dates[13]
        assert episode.peak_ratio == pytest.approx(4.0)
        assert episode.peak_date == stats.dates[12]

    def test_min_len_filters_short_runs(self):
        stats = ratio_series(_pair_from_ratios(self.RATIOS))
        assert detect_episodes(stats, entry_k=2.0, min_len=3) == []

    def test_entry_k_raises_the_bar(self):
        stats = ratio_series(_pair_from_ratios(self.RATIOS))
        assert detect_episodes(stats, entry_k=10.0, min_len=2) == []

    def test_two_separate_runs(self):
        ratios = [1.0] * 10 + [5.0, 5.0] + [1.0] * 10 + [5.0, 5.0] + [1.0] * 10
        stats = ratio_series(_pair_from_ratios(ratios))
        episodes = detect_episodes(stats, entry_k=1.5, min_len=2)
        assert len(episodes) == 2
        assert episodes[0].end_date < episodes[1].start_date

    def test_run_touching_the_series_end_is_closed(self):
        ratios = [1.0] * 15 + [6.0, 6.0, 6.0]
        stats = ratio_series(_pair_from_ratios(ratios))
        episodes = detect_episodes(stats, entry_k=1.0, min_len=2)
        assert episodes[-1].end_date == stats.dates[-1]

    def test_constant_ratios_warn_and_yield_nothing(self):
        stats = ratio_series(_pair_from_ratios([1.0] * 10))
        with pytest.warns(DegenerateThresholdWarning):
            assert detect_episodes(stats) == []

    @pytest.mark.parametrize("entry_k", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_entry_k_rejected(self, entry_k):
        stats = ratio_series(_pair_from_ratios(self.RATIOS))
        with pytest.raises(DomainError) as info:
            detect_episodes(stats, entry_k=entry_k)
        assert str(info.value) == (
            f"entry_k must be a positive finite number, got {entry_k!r}"
        )

    def test_bad_min_len_rejected(self):
        stats = ratio_series(_pair_from_ratios(self.RATIOS))
        with pytest.raises(DomainError):
            detect_episodes(stats, min_len=0)



def _episodes_by_loop(stats, entry_k, min_len):
    """The per-flag loop detect_episodes ran before it took whole runs at once."""
    above = stats.ratios > stats.mean + entry_k * stats.std
    episodes, start = [], None
    for i, flag in enumerate(np.append(above, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_len:
                run = stats.ratios[start:i]
                offset = int(np.argmax(run))
                episodes.append(BubbleEpisode(
                    start_date=stats.dates[start], end_date=stats.dates[i - 1],
                    peak_ratio=float(run[offset]),
                    peak_date=stats.dates[start + offset],
                ))
            start = None
    return episodes


def _flag_patterns(n=40, seed=31):
    """Flag patterns with a run at the start, at the end, of length 2, all and none."""
    rng = np.random.default_rng(seed)
    patterns = {"start": [True] * 3 + [False] * (n - 3),
                "end": [False] * (n - 4) + [True] * 4,
                "exactly-min-len": [False] * 5 + [True] * 2 + [False] * (n - 7),
                "all": [True] * n, "none": [False] * n}
    for i in range(8):
        patterns[f"random-{i}"] = (rng.random(n) < rng.uniform(0.2, 0.8)).tolist()
    return patterns


@pytest.mark.parametrize("min_len", [1, 2, 3])
@pytest.mark.parametrize("name, flags", list(_flag_patterns().items()))
def test_episodes_match_the_per_flag_loop(name, flags, min_len):
    """Ratios above 1.5 are flagged; ties in a run test the first peak."""
    rng = np.random.default_rng(len(name) + min_len)
    flags = np.array(flags)
    ratios = np.where(flags, rng.choice([1.6, 2.5, 2.5, 3.0], flags.size),
                      rng.uniform(0.5, 1.4, flags.size))
    stats = RatioStats(dates=tuple(_dates(flags.size)), ratios=ratios, mean=1.0,
                       std=0.5, min=float(ratios.min()), max=float(ratios.max()))
    episodes = detect_episodes(stats, entry_k=1.0, min_len=min_len)
    assert episodes == _episodes_by_loop(stats, 1.0, min_len)
    runs = {"start": 1, "end": 1, "exactly-min-len": int(min_len <= 2),
            "all": 1, "none": 0}
    if name in runs:
        assert len(episodes) == runs[name]


class TestRunBacktest:
    def test_clean_synthetic_data_recovers_the_relationship(self):
        rng = np.random.default_rng(6021)
        records, _ = _synthetic_records(80, rng)
        report = run_backtest(records, SCHEDULE, None)
        assert report.log_fit.r_squared > 0.99
        assert report.level_fit.slope == pytest.approx(1.0, abs=0.1)
        assert 0.9 < report.ratio_stats.mean < 1.1

    def test_model_leading_market_is_detected_directionally(self):
        """Market built as last epoch's model price plus noise: the model
        side should Granger-cause the market side and not vice versa.

        Difficulty is held flat so a shared deterministic trend cannot
        manufacture significance in the quiet direction.
        """

        def lagged_market(model, rng):
            market = np.empty_like(model)
            market[0] = model[0]
            market[1:] = model[:-1]
            return market * np.exp(0.10 * rng.standard_normal(model.size))

        rng = np.random.default_rng(7321)
        records, _ = _synthetic_records(
            120, rng, market_fn=lagged_market, growth=1.0
        )
        config = BacktestConfig(lags=1, include_timestamp=False)
        report = run_backtest(records, SCHEDULE, None, config=config)
        by_direction = {
            (g.cause, g.effect): g.p_value for g in report.granger_results
        }
        assert by_direction[("model", "market")] < 0.01
        assert by_direction[("market", "model")] > 0.10

    def test_report_is_self_consistent(self):
        rng = np.random.default_rng(11)
        records, _ = _synthetic_records(70, rng)
        config = BacktestConfig(lags=2, max_p=4, include_timestamp=False)
        report = run_backtest(records, SCHEDULE, None, config=config)
        assert report.var_model.lag_order == 2
        assert len(report.lag_selection.rows) == 4
        for granger in report.granger_results:
            assert granger.df == 2
            assert granger.p_value == chi2_sf(granger.chi2_stat, granger.df)
        stats = report.ratio_stats
        assert stats.mean == pytest.approx(float(stats.ratios.mean()), rel=1e-15)
        assert len(report.pair) == 70

    def test_auto_lag_selection_is_used_when_requested(self):
        rng = np.random.default_rng(12)
        records, _ = _synthetic_records(90, rng)
        config = BacktestConfig(lags=None, include_timestamp=False)
        report = run_backtest(records, SCHEDULE, None, config=config)
        assert report.var_model.lag_order == report.lag_selection.chosen_p
        assert report.provenance["parameters"]["lags"] == "auto"

    def test_repeated_runs_are_byte_identical_without_timestamps(self):
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        records_a, _ = _synthetic_records(60, rng_a)
        records_b, _ = _synthetic_records(60, rng_b)
        config = BacktestConfig(include_timestamp=False)
        doc_a = run_backtest(records_a, SCHEDULE, None, config=config).to_dict()
        doc_b = run_backtest(records_b, SCHEDULE, None, config=config).to_dict()
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_timestamp_appears_only_when_enabled(self):
        rng = np.random.default_rng(14)
        records, _ = _synthetic_records(60, rng)
        with_ts = run_backtest(
            records, SCHEDULE, None, config=BacktestConfig(include_timestamp=True)
        )
        without_ts = run_backtest(
            records, SCHEDULE, None, config=BacktestConfig(include_timestamp=False)
        )
        assert "generated_at" in with_ts.provenance
        assert "generated_at" not in without_ts.provenance

    def test_to_dict_is_json_serializable_with_plain_types(self):
        rng = np.random.default_rng(15)
        records, _ = _synthetic_records(60, rng)
        report = run_backtest(
            records, SCHEDULE, None, config=BacktestConfig(include_timestamp=False)
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ratio"]["series"][0]["date"] == "2015-01-03"
        assert isinstance(doc["log_regression"]["r_squared"], float)
        assert doc["var"]["lag_order"] == 2
        assert {g["null"] for g in doc["granger"]} == {
            "market does not Granger-cause model",
            "model does not Granger-cause market",
        }
        assert doc["provenance"]["n_observations"] == 60

    def test_to_dict_rows_carry_the_series_date_by_date(self):
        rng = np.random.default_rng(16)
        records, _ = _synthetic_records(60, rng)
        report = run_backtest(
            records, SCHEDULE, None, config=BacktestConfig(include_timestamp=False)
        )
        doc = report.to_dict()
        pair, stats = report.pair, report.ratio_stats
        assert doc["prices"] == [
            {"date": pair.dates[i].isoformat(), "market": float(pair.market_prices[i]),
             "model": float(pair.model_prices[i])}
            for i in range(len(pair))
        ]
        assert doc["ratio"]["series"] == [
            {"date": stats.dates[i].isoformat(), "ratio": float(stats.ratios[i])}
            for i in range(len(pair))
        ]
        plain = [row["market"] for row in doc["prices"]]
        plain += [row["model"] for row in doc["prices"]]
        plain += [row["ratio"] for row in doc["ratio"]["series"]]
        assert {type(value) for value in plain} == {float}


# One rule for every order and count: an integer >= 1 (an int, a bool, a
# numpy int or an integral float), kept as an int; anything else, None and
# text included, is a DomainError naming the knob.
BAD_ORDERS = [math.nan, math.inf, -math.inf, 2.5, 0, None, "2"]


@pytest.mark.parametrize("knob, value", [
    (knob, value) for knob in ("lags", "max_p", "min_len") for value in BAD_ORDERS
    if (knob, value) != ("lags", None)  # None selects the lag order
], ids=repr)
def test_an_order_knob_is_an_integer_at_least_one(knob, value):
    with pytest.raises(DomainError) as info:
        BacktestConfig(**{knob: value})
    assert str(info.value) == f"{knob} must be an integer >= 1, got {value!r}"


_DATA = np.random.default_rng(47).normal(size=(40, 2))
_STATS = ratio_series(_pair_from_ratios([1.0, 1.0, 5.0, 5.0, 1.0, 1.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: chi2_sf(1.0, math.inf), "degrees of freedom must be an integer >= 1, got inf"),
    (lambda: ljung_box(_DATA[:, 0], math.nan), "lags must be an integer >= 1, got nan"),
    (lambda: select_lag_order(_DATA, math.nan), "max_p must be an integer >= 1, got nan"),
    (lambda: var_fit(_DATA, 2.5), "lag order must be an integer >= 1, got 2.5"),
    (lambda: detect_episodes(_STATS, min_len=1.5), "min_len must be an integer >= 1, got 1.5"),
], ids=["chi2_sf", "ljung_box", "select_lag_order", "var_fit", "detect_episodes"])
def test_fits_and_episodes_apply_the_same_order_rule(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_knobs_are_kept_as_ints_and_floats():
    config = BacktestConfig(electricity_price=np.float64(0.125), lags=9.0,
                            max_p=np.int64(8), entry_k=True, min_len=True)
    assert [(type(value), value) for value in vars(config).values()] == [
        (float, 0.125), (int, 9), (int, 8), (float, 1.0), (int, 1), (bool, True)
    ]
    records, _ = _synthetic_records(60, np.random.default_rng(17))
    config = BacktestConfig(lags=9.0, entry_k=True, include_timestamp=False)
    report = run_backtest(records, SCHEDULE, None, config=config)
    assert json.dumps(report.provenance["parameters"], sort_keys=True) == (
        '{"electricity_price": 0.135, "entry_k": 1.0, "lags": 9, "max_p": 8, "min_len": 2}'
    )
