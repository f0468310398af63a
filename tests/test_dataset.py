"""Tests for CSV ingestion, step tables, and series building."""

import datetime as dt
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from minecost import (
    CarriedForwardWarning,
    CostParams,
    DomainError,
    EfficiencyTable,
    NetworkParams,
    ObservationRecord,
    ParseError,
    RewardSchedule,
    ValidationError,
    build_backtest_series,
    bundled_data_path,
    load_bundled,
    model_price,
    parse_efficiency_table,
    parse_observations,
    parse_reward_schedule,
    serialize_observations,
)
from minecost.dataset import BUNDLED_FILES

OBS_CSV = """date,difficulty,price_usd,eff_w_per_ghs
2016-06-25,2.0e11,600.0,0.5
2016-07-09,2.1e11,650.0,
2016-07-23,2.2e11,660.0,0.45
"""

SCHEDULE = RewardSchedule(
    entries=(
        (dt.date(2009, 1, 3), 50.0),
        (dt.date(2012, 11, 28), 25.0),
        (dt.date(2016, 7, 9), 12.5),
    )
)


class TestParseObservations:
    def test_happy_path_with_optional_efficiency(self):
        records = parse_observations(OBS_CSV)
        assert len(records) == 3
        assert records[0].date == dt.date(2016, 6, 25)
        assert records[0].efficiency == 0.5
        assert records[1].efficiency is None
        assert records[2].market_price == 660.0

    def test_header_order_does_not_matter(self):
        shuffled = (
            "price_usd,date,difficulty\n"
            "600.0,2016-06-25,2.0e11\n"
            "650.0,2016-07-09,2.1e11\n"
        )
        records = parse_observations(shuffled)
        assert [r.difficulty for r in records] == [2.0e11, 2.1e11]
        assert all(r.efficiency is None for r in records)

    def test_bad_float_reports_line_number(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11,sixhundred\n"
        with pytest.raises(ParseError, match="line 2") as excinfo:
            parse_observations(bad)
        assert excinfo.value.code == "parse"

    def test_bad_date_reports_line_number(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-06-25,2.0e11,600.0\n"
            "06/25/2016,2.1e11,650.0\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_observations(bad)

    def test_wrong_field_count_rejected(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_observations(bad)

    def test_unknown_column_rejected(self):
        bad = "date,difficulty,price_usd,volume\n"
        with pytest.raises(ParseError, match="volume"):
            parse_observations(bad)

    def test_missing_required_column_rejected(self):
        bad = "date,price_usd\n2016-06-25,600.0\n"
        with pytest.raises(ParseError, match="difficulty"):
            parse_observations(bad)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_observations("")

    def test_out_of_order_dates_rejected(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-07-09,2.1e11,650.0\n"
            "2016-06-25,2.0e11,600.0\n"
        )
        with pytest.raises(ValidationError, match="out of order"):
            parse_observations(bad)

    def test_duplicate_dates_rejected(self):
        bad = (
            "date,difficulty,price_usd\n"
            "2016-06-25,2.0e11,600.0\n"
            "2016-06-25,2.0e11,601.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_observations(bad)

    def test_nonpositive_value_names_line(self):
        bad = "date,difficulty,price_usd\n2016-06-25,2.0e11,-600.0\n"
        with pytest.raises(ValidationError, match="line 2"):
            parse_observations(bad)

    def test_serialize_round_trip(self):
        records = parse_observations(OBS_CSV)
        text = serialize_observations(records)
        again = parse_observations(text)
        assert again == records
        assert serialize_observations(again) == text

    def test_serialize_omits_efficiency_column_when_unused(self):
        records = parse_observations(
            "date,difficulty,price_usd\n2016-06-25,2.0e11,600.0\n"
        )
        assert "eff_w_per_ghs" not in serialize_observations(records)


class TestRewardSchedule:
    def test_step_lookup(self):
        assert SCHEDULE.reward_at(dt.date(2013, 6, 29)) == 25.0
        assert SCHEDULE.reward_at(dt.date(2018, 4, 27)) == 12.5

    def test_new_reward_applies_on_its_effective_date(self):
        assert SCHEDULE.reward_at(dt.date(2016, 7, 8)) == 25.0
        assert SCHEDULE.reward_at(dt.date(2016, 7, 9)) == 12.5

    def test_date_before_schedule_rejected(self):
        with pytest.raises(DomainError, match="precedes"):
            SCHEDULE.reward_at(dt.date(2008, 12, 31))

    def test_non_halving_step_rejected(self):
        with pytest.raises(ValidationError, match="halve"):
            RewardSchedule(
                entries=((dt.date(2009, 1, 3), 50.0), (dt.date(2012, 11, 28), 30.0))
            )

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            RewardSchedule(
                entries=((dt.date(2012, 11, 28), 50.0), (dt.date(2009, 1, 3), 25.0))
            )

    def test_parse_reward_schedule(self):
        schedule = parse_reward_schedule(
            "date,reward_btc\n2009-01-03,50.0\n2012-11-28,25.0\n"
        )
        assert schedule.reward_at(dt.date(2013, 1, 1)) == 25.0


class TestEfficiencyTable:
    TABLE = EfficiencyTable(
        entries=(
            (dt.date(2016, 1, 1), 0.5),
            (dt.date(2016, 7, 1), 0.3),
        )
    )

    def test_step_lookup_and_carry_between_entries(self):
        assert self.TABLE.efficiency_at(dt.date(2016, 1, 1)) == 0.5
        assert self.TABLE.efficiency_at(dt.date(2016, 6, 30)) == 0.5
        assert self.TABLE.efficiency_at(dt.date(2016, 7, 1)) == 0.3

    def test_carry_past_table_end_warns(self):
        with pytest.warns(CarriedForwardWarning, match="2017-01-01"):
            value = self.TABLE.efficiency_at(dt.date(2017, 1, 1))
        assert value == 0.3

    def test_date_before_table_rejected(self):
        with pytest.raises(DomainError, match="precedes"):
            self.TABLE.efficiency_at(dt.date(2015, 12, 31))

    def test_increase_warns_but_is_kept(self):
        with pytest.warns(UserWarning, match="increases"):
            table = EfficiencyTable(
                entries=((dt.date(2016, 1, 1), 0.3), (dt.date(2016, 7, 1), 0.5))
            )
        assert table.efficiency_at(dt.date(2016, 7, 1)) == 0.5

    def test_parse_efficiency_table(self):
        table = parse_efficiency_table(
            "date,w_per_ghs\n2016-01-01,0.5\n2016-06-01,0.4\n"
        )
        assert table.efficiency_at(dt.date(2016, 2, 2)) == 0.5

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ParseError):
            parse_efficiency_table("date,watts\n2016-01-01,0.5\n")


class TestBuildBacktestSeries:
    def test_model_price_halves_across_reward_step(self):
        """Same difficulty and efficiency, reward 25 -> 12.5: price doubles."""
        records = [
            ObservationRecord(dt.date(2016, 7, 8), 2.0e11, 600.0, 0.5),
            ObservationRecord(dt.date(2016, 7, 9), 2.0e11, 650.0, 0.5),
        ]
        pair = build_backtest_series(records, SCHEDULE)
        assert pair.model_prices[1] == pytest.approx(
            2.0 * pair.model_prices[0], rel=1e-12
        )

    def test_inline_efficiency_wins_over_table(self):
        table = EfficiencyTable(
            entries=((dt.date(2016, 1, 1), 0.4), (dt.date(2016, 7, 1), 0.35))
        )
        inline = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.2)]
        from_table = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, None)]
        pair_inline = build_backtest_series(inline, SCHEDULE, table)
        pair_table = build_backtest_series(from_table, SCHEDULE, table)
        assert pair_inline.model_prices[0] == pytest.approx(
            0.5 * pair_table.model_prices[0], rel=1e-12
        )

    def test_missing_efficiency_without_table_rejected(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, None)]
        with pytest.raises(ValidationError, match="2016-06-01"):
            build_backtest_series(records, SCHEDULE)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            build_backtest_series([], SCHEDULE)

    def test_model_prices_scale_with_electricity(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5)]
        base = build_backtest_series(records, SCHEDULE, electricity_price=0.135)
        doubled = build_backtest_series(records, SCHEDULE, electricity_price=0.27)
        assert doubled.model_prices[0] == pytest.approx(
            2.0 * base.model_prices[0], rel=1e-12
        )

    def test_carry_past_table_end_warns_once_per_series(self):
        table = EfficiencyTable(entries=((dt.date(2016, 1, 1), 0.5),))
        records = [
            ObservationRecord(dt.date(2016, m, 1), 2.0e11, 600.0, None)
            for m in (1, 2, 3, 4)
        ]
        with pytest.warns(CarriedForwardWarning) as caught:
            pair = build_backtest_series(records, SCHEDULE, table)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            "3 date(s) are past the last efficiency entry 2016-01-01, "
            "the first 2016-02-01; carrying last value forward"
        )
        assert len(pair) == 4

    @pytest.mark.parametrize("source", ["bundled", "inline and table"])
    @pytest.mark.parametrize("electricity", [0.135, 0.07])
    def test_model_prices_equal_per_record_model_price(self, source, electricity):
        if source == "bundled":
            records, schedule, table = load_bundled()
        else:  # crosses the 2016-07-09 halving; the middle row uses the table
            records, schedule = parse_observations(OBS_CSV), SCHEDULE
            table = EfficiencyTable(
                entries=((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 8, 1), 0.48))
            )
            assert [r.efficiency for r in records] == [0.5, None, 0.45]
        expected = []
        for r in records:
            efficiency = (
                table.efficiency_at(r.date) if r.efficiency is None else r.efficiency
            )
            expected.append(model_price(
                CostParams(electricity_price=electricity, efficiency=efficiency),
                NetworkParams(difficulty=r.difficulty,
                              block_reward=schedule.reward_at(r.date)),
            ))
        pair = build_backtest_series(records, schedule, table, electricity)
        assert pair.model_prices.tolist() == expected
        assert pair.market_prices.tolist() == [r.market_price for r in records]

    @pytest.mark.parametrize("price", [0.0, -0.1, math.nan, math.inf])
    def test_bad_electricity_price_rejected(self, price):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5)]
        with pytest.raises(DomainError) as info:
            build_backtest_series(records, SCHEDULE, electricity_price=price)
        assert str(info.value) == (
            f"electricity_price must be a positive finite number, got {price!r}"
        )

    @pytest.mark.parametrize("difficulty, result", [(1e308, "inf"), (1e-320, "0.0")])
    def test_model_price_outside_double_range_names_its_date(self, difficulty, result):
        records = [ObservationRecord(dt.date(2016, 6, 1), 2.0e11, 600.0, 0.5),
                   ObservationRecord(dt.date(2016, 6, 15), difficulty, 600.0, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning included
            with pytest.raises(DomainError) as info:
                build_backtest_series(records, SCHEDULE)
        assert str(info.value) == (
            f"model price is {result} on 2016-06-15: the inputs overflow or "
            "underflow double precision"
        )

    def test_infinite_over_infinite_model_price_is_the_same_error(self):
        records = [ObservationRecord(dt.date(2016, 6, 1), 1e308, 600.0, 0.5)]
        schedule = RewardSchedule(entries=((dt.date(2009, 1, 3), 1e300),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^model price is nan on 2016-06-01: "):
                build_backtest_series(records, schedule)

    def test_paired_series_length_and_dates(self):
        records = parse_observations(OBS_CSV)
        table = EfficiencyTable(
            entries=((dt.date(2016, 1, 1), 0.5), (dt.date(2016, 8, 1), 0.45))
        )
        pair = build_backtest_series(records, SCHEDULE, table)
        assert len(pair) == 3
        assert pair.dates == tuple(r.date for r in records)
        assert np.all(pair.model_prices > 0)


class TestBundledData:
    def test_loads_and_is_coherent(self):
        records, schedule, table = load_bundled()
        assert len(records) == 126
        dates = [r.date for r in records]
        assert dates[0] == dt.date(2013, 6, 29)
        assert dates[-1] == dt.date(2018, 4, 14)
        assert all(a < b for a, b in zip(dates, dates[1:]))
        assert schedule.reward_at(dates[0]) == 25.0
        assert schedule.reward_at(dates[-1]) == 12.5
        # Table covers the full observation window: no carry-forward warning.
        eff_first = table.efficiency_at(dates[0])
        eff_last = table.efficiency_at(dates[-1])
        assert eff_first > eff_last > 0.0

    def test_bundled_series_builds_clean(self):
        records, schedule, table = load_bundled()
        pair = build_backtest_series(records, schedule, table)
        assert len(pair) == len(records)
        ratios = pair.market_prices / pair.model_prices
        assert math.isfinite(ratios.mean())

    def test_given_paths_replace_only_their_bundled_file(self, tmp_path):
        rewards = tmp_path / "rewards.csv"
        rewards.write_text("date,reward_btc\n2012-11-28,25.0\n2016-07-09,12.5\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_CSV)
        records, schedule, table = load_bundled(observations=obs, rewards=str(rewards))
        assert [r.date for r in records] == [r.date for r in parse_observations(OBS_CSV)]
        assert schedule.entries[0] == (dt.date(2012, 11, 28), 25.0)
        assert table == load_bundled()[2]

    def test_non_utf8_file_is_a_parse_error_naming_file_and_line(self, tmp_path):
        bad = tmp_path / "obs.csv"
        bad.write_bytes(b"date,difficulty,price_usd\n2017-01-07,3.0e11,9\xb50.0\n")
        with pytest.raises(ParseError) as info:
            load_bundled(observations=bad)
        assert str(info.value) == f"{bad}:2: not UTF-8 text (byte 0xb5)"

    def test_parse_error_names_the_file_and_keeps_its_line(self, tmp_path):
        bad = tmp_path / "eff.csv"
        bad.write_text("date,w_per_ghs\n2013-01-01,0.5\n2013-02-01,x\n")
        with pytest.raises(ParseError) as info:
            load_bundled(efficiency=bad)
        assert str(info.value) == f"{bad}: line 3: bad w_per_ghs value 'x'"
        assert info.value.line == 3

    def test_generator_reproduces_the_packaged_files(self, tmp_path):
        tools = Path(__file__).resolve().parents[1] / "tools"
        spec = importlib.util.spec_from_file_location(
            "build_reference_dataset", tools / "build_reference_dataset.py"
        )
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        generator.build(tmp_path)
        for name in BUNDLED_FILES:
            packaged = bundled_data_path(name).read_bytes()
            assert (tmp_path / name).read_bytes() == packaged, name
