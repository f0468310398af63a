"""Tests for the ratio analysis, episode flagging, and the full pipeline."""

import datetime as dt
import json
from dataclasses import replace

import numpy as np
import pytest

from minecost import (
    BacktestConfig,
    CostParams,
    DegenerateThresholdWarning,
    DomainError,
    NetworkParams,
    ObservationRecord,
    PairedSeries,
    RewardSchedule,
    build_backtest_series,
    chi2_sf,
    detect_episodes,
    load_bundled,
    model_price,
    ratio_series,
    run_backtest,
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
