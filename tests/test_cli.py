"""End-to-end tests of the command-line surface (loopback HTTP only)."""

import argparse
import contextlib
import csv
import datetime as dt
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minecost import (
    CHART_KINDS,
    BacktestConfig,
    CostParams,
    DomainError,
    ObservationRecord,
    bundled_data_path,
    cache_file_for,
    load_bundled,
    load_observations,
    parse_chart_points,
    resample_to_epochs,
    serialize_observations,
)
from minecost import cli, dataset
from minecost.cli import main
from tests.conftest import EPOCH_CHARTS, OTHER_DATE_FORMS, singular_var1_logs

SRC = Path(__file__).resolve().parents[1] / "src"

OBS_CSV = (
    "date,difficulty,price_usd,eff_w_per_ghs\n"
    "2017-01-07,3.0e11,900.0,0.2\n"
    "2017-01-21,3.2e11,920.0,0.2\n"
    "2017-02-04,3.4e11,960.0,0.2\n"
)


def _bundled_prefix(tmp_path, n):
    """The first ``n`` bundled observations as a CSV file."""
    rows = bundled_data_path("observations.csv").read_text().splitlines()
    obs = tmp_path / "obs.csv"
    obs.write_text("\n".join(rows[: n + 1]) + "\n")
    return obs


def _market_times_1e150(tmp_path):
    """The bundled observations with every market price times 1e150.

    Prices near 1e154 and above square to inf in the level fit; their logs
    are the bundled ones plus 150 ln 10.
    """
    rows = bundled_data_path("observations.csv").read_text().splitlines()
    obs = tmp_path / "obs.csv"
    obs.write_text("\n".join([rows[0], *(
        f"{date},{difficulty},{float(market) * 1e150!r}"
        for date, difficulty, market in (row.split(",") for row in rows[1:])
    )]) + "\n")
    return obs


def _leaves(doc, path=""):
    """``{path: value}`` of every leaf of a JSON document."""
    if isinstance(doc, dict):
        return {k: v for key in doc for k, v in _leaves(doc[key], f"{path}/{key}").items()}
    if isinstance(doc, list):
        return {k: v for i, item in enumerate(doc)
                for k, v in _leaves(item, f"{path}/{i}").items()}
    return {path: doc}


def _python(*args, **env):
    """A fresh interpreter with ./src first on its path: its real stderr.

    In-process runs cannot show how warnings print, because pytest records
    every warning a test raises, nor how the locale encodes text. ``env``
    adds environment variables.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def _non_ascii_observations(tmp_path):
    """The bundled observations under a directory named with a non-ASCII letter."""
    obs = tmp_path / "\u00fc" / "obs.csv"
    obs.parent.mkdir()
    obs.write_bytes(bundled_data_path("observations.csv").read_bytes())
    return obs


class TestPriceCommand:
    def test_reference_point_prints_two_decimals(self, capsys):
        rc = main(
            [
                "price",
                "--difficulty", "1e12",
                "--efficiency", "0.25",
                "--reward", "12.5",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "3221.23"

    def test_default_electricity_is_used(self, capsys):
        main(["price", "--difficulty", "1e12", "--efficiency", "0.25",
              "--reward", "12.5"])
        default_out = capsys.readouterr().out
        main(["price", "--difficulty", "1e12", "--efficiency", "0.25",
              "--reward", "12.5", "--electricity", "0.135"])
        assert capsys.readouterr().out == default_out

    def test_electricity_flag_scales_result(self, capsys):
        main(["price", "--difficulty", "1e12", "--efficiency", "0.25",
              "--reward", "12.5", "--electricity", "0.27"])
        assert capsys.readouterr().out.strip() == "6442.45"

    def test_json_format_keeps_full_precision(self, capsys):
        rc = main(["price", "--difficulty", "1e12", "--efficiency", "0.25",
                   "--reward", "12.5", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_price_usd"] == pytest.approx(3221.225472, rel=1e-9)

    def test_zero_reward_is_a_clean_error(self, capsys):
        rc = main(["price", "--difficulty", "1e12", "--efficiency", "0.25",
                   "--reward", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "error[undefined-price]" in captured.err

    def test_negative_difficulty_is_a_domain_error(self, capsys):
        rc = main(["price", "--difficulty", "-1", "--efficiency", "0.25",
                   "--reward", "12.5"])
        assert rc == 1
        assert "error[domain]" in capsys.readouterr().err


    @pytest.mark.parametrize("difficulty, efficiency, reward, result", [
        ("1e308", "1e10", "1e-300", "inf"),
        ("1e-300", "1e-300", "1e300", "0.0"),
    ])
    def test_price_outside_double_range_is_one_domain_line(
        self, difficulty, efficiency, reward, result, capsys
    ):
        rc = main(["price", "--difficulty", difficulty, "--efficiency", efficiency,
                   "--reward", reward, "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error[domain]: model price is {result}: the inputs overflow or "
            "underflow double precision\n"
        )


class TestBacktestCommand:
    def test_artifacts_written_and_row_counts_match(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["backtest", "--out-dir", str(out),
                   "--no-provenance-timestamps"])
        assert rc == 0
        for name in ("report.txt", "report.json", "figure1.csv", "figure2.csv"):
            assert (out / name).exists(), f"{name} missing"
        obs_rows = 126
        assert len((out / "figure1.csv").read_text().splitlines()) == obs_rows + 1
        assert len((out / "figure2.csv").read_text().splitlines()) == obs_rows + 1
        stdout = capsys.readouterr().out
        assert "Granger causality Wald tests" in stdout

    def test_default_granger_table_has_df_two(self, tmp_path, capsys):
        rc = main(["backtest", "--out-dir", str(tmp_path), "--format", "json",
                   "--no-provenance-timestamps"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [g["df"] for g in doc["granger"]] == [2, 2]
        assert doc["var"]["lag_order"] == 2

    def test_lags_flag_controls_var_order(self, tmp_path, capsys):
        rc = main(["backtest", "--out-dir", str(tmp_path), "--lags", "3",
                   "--format", "json", "--no-provenance-timestamps"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["var"]["lag_order"] == 3
        assert [g["df"] for g in doc["granger"]] == [3, 3]

    def test_auto_lag_selection(self, tmp_path, capsys):
        rc = main(["backtest", "--out-dir", str(tmp_path), "--lags", "auto",
                   "--format", "json", "--no-provenance-timestamps"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["var"]["lag_order"] == doc["lag_selection"]["chosen_p"]
        assert doc["provenance"]["parameters"]["lags"] == "auto"

    def test_repeat_runs_byte_identical_without_timestamps(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["backtest", "--out-dir", str(tmp_path / sub),
                       "--no-provenance-timestamps"])
            assert rc == 0
        for name in ("report.txt", "report.json", "figure1.csv", "figure2.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between runs"

    def test_builds_no_observation_record(self, tmp_path, monkeypatch, capsys):
        """The CLI reads the observations as columns and pairs them as such."""
        built = []

        def count(record):
            built.append(record)

        monkeypatch.setattr(ObservationRecord, "__post_init__", count)
        observations = load_bundled()[0]
        assert built == []  # loading builds no record
        assert len(list(observations)) == len(built) == 126  # the counter counts
        built.clear()
        assert main(["backtest", "--out-dir", str(tmp_path)]) == 0
        assert built == []

    @pytest.mark.parametrize("columns", [("date", "price_usd"), ("date",), ("price_usd",)])
    def test_input_texts_in_other_forms_give_the_same_bytes(self, columns, tmp_path, capsys):
        """Equal observations written in other forms give the same bytes.

        The first run reads the bundled observations in the writers' own
        form, whose texts the artifacts reuse. The second reads the same
        values at the same path, with the named columns in other forms:
        dates padded, which are kept stripped, and prices the artifacts
        must format to the same bytes.
        """
        records = load_bundled()[0]
        observations, out_dir = tmp_path / "obs.csv", tmp_path / "out"

        def backtest_outputs():
            assert main(["backtest", "--observations", str(observations),
                         "--out-dir", str(out_dir), "--no-provenance-timestamps"]) == 0
            artifacts = ("report.txt", "report.json", "figure1.csv", "figure2.csv")
            return capsys.readouterr().out, [(out_dir / name).read_bytes()
                                             for name in artifacts]

        def other_date(i, date):  # padded on both sides, or on one
            return f" {date} " if i % 2 else f"{date}\t"

        def other_price(i, price):  # a trailing zero, an exponent, one of 17 digits
            if i == 5:
                return f"{price:.17g}"
            return f"{price!r}0" if i % 2 else f"{Decimal(repr(price)):e}"

        lines = ["date,difficulty,price_usd"]
        for i, r in enumerate(records):
            date = other_date(i, r.date) if "date" in columns else r.date.isoformat()
            price = (other_price(i, r.market_price) if "price_usd" in columns
                     else repr(r.market_price))
            lines.append(f"{date},{r.difficulty!r},{price}")
        assert len(f"{records[5].market_price:.17g}".replace(".", "")) == 17

        observations.write_text(serialize_observations(records))
        kept = dataset.load_observations(observations)
        assert kept.date_text is not None and kept.price_text is not None
        expected = backtest_outputs()
        observations.write_text("\n".join(lines) + "\n")
        other = dataset.load_observations(observations)
        assert list(other) == records
        assert other.date_text == kept.date_text
        assert (other.price_text is None) == ("price_usd" in columns)
        assert backtest_outputs() == expected

    def test_timestamps_present_by_default(self, tmp_path):
        rc = main(["backtest", "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert "generated_at" in doc["provenance"]

    def test_figure2_reproduces_figure1_ratios(self, tmp_path):
        import csv

        rc = main(["backtest", "--out-dir", str(tmp_path),
                   "--no-provenance-timestamps"])
        assert rc == 0
        with open(tmp_path / "figure1.csv") as fh:
            fig1 = {row["date"]: float(row["ratio"]) for row in csv.DictReader(fh)}
        with open(tmp_path / "figure2.csv") as fh:
            fig2 = {
                row["date"]: float(row["market"]) / float(row["model"])
                for row in csv.DictReader(fh)
            }
        assert fig1.keys() == fig2.keys()
        for date, ratio in fig1.items():
            assert abs(ratio - fig2[date]) <= 1e-12 * max(1.0, abs(ratio)), date

    def test_custom_input_files(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_CSV)
        rewards = tmp_path / "rewards.csv"
        rewards.write_text("date,reward_btc\n2016-07-09,12.5\n")
        rc = main(["ratio", "--observations", str(obs),
                   "--rewards", str(rewards)])
        assert rc == 0
        assert "ratio mean" in capsys.readouterr().out


class TestSlices:
    """``var``, ``regress`` and ``ratio`` print their sections of report.json."""

    SECTIONS = {"var": ["granger", "lag_selection", "var"],
                "regress": ["level_regression", "log_regression"],
                "ratio": ["episodes", "ratio"]}
    OPTIONS = {
        "default": [],
        "auto": ["--lags", "auto"],
        "auto-max-p-3": ["--lags", "auto", "--max-p", "3"],
        "pinned-above-the-scan": ["--lags", "10"],
        "electricity-0.05": ["--electricity", "0.05"],
        "28-rows-clamped": ["--lags", "auto", "--max-p", "9"],
    }

    @staticmethod
    def _run(argv, capsys):
        """``(stdout document, warnings)`` of one call; each warning is seen."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("error", category=RuntimeWarning)
            assert main([*argv, "--format", "json"]) == 0
        return (json.loads(capsys.readouterr().out),
                [(w.category, str(w.message)) for w in caught])

    @pytest.mark.parametrize("name", OPTIONS)
    def test_each_slice_is_its_section_of_the_report(self, name, tmp_path, capsys):
        options = self.OPTIONS[name]
        if name == "28-rows-clamped":
            options = [*options, "--observations", str(_bundled_prefix(tmp_path, 28))]
        report, backtest_warnings = self._run(
            ["backtest", *options, "--out-dir", str(tmp_path / "out")], capsys)
        for command, sections in self.SECTIONS.items():
            document, caught = self._run([command, *options], capsys)
            assert document == {key: report[key] for key in sections}, command
            if command == "var":
                assert caught == backtest_warnings
        if name == "28-rows-clamped":
            assert [category for category, _ in backtest_warnings] == [UserWarning]


class TestConfigFile:
    def test_file_values_apply_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# lags = 9\n\nlags = 3\n   \nmax_p = 4  # comment\n")
        rc = main(["backtest", "--config", str(cfg), "--out-dir",
                   str(tmp_path / "a"), "--format", "json",
                   "--no-provenance-timestamps"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["var"]["lag_order"] == 3

        rc = main(["backtest", "--config", str(cfg), "--lags", "2",
                   "--out-dir", str(tmp_path / "b"), "--format", "json",
                   "--no-provenance-timestamps"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["var"]["lag_order"] == 2

    def test_a_line_without_equals_is_one_validation_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lags = 2\nmax_p 4\n")
        rc = main(["ratio", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error[validation]: {cfg}:2: expected 'key = value'\n"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volts = 9\n")
        rc = main(["ratio", "--config", str(cfg)])
        assert rc == 1
        assert "error[validation]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_p", "min_len", "entry_k", "electricity_price"])
    def test_malformed_number_is_one_validation_line(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        rc = main(["ratio", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error[validation]: {cfg}:1: bad {key} value 'x'\n"

    @pytest.mark.parametrize("text, line", [
        ("max_p = 4\x0c5\n", 1), ("lags = 2\r\nmax_p = 4\x0c5\r\n", 2)],
        ids=["lf", "crlf"])
    def test_only_cr_and_lf_end_a_line(self, text, line, tmp_path, capsys):
        """A form feed is inside its line, as csv reads the input files."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text.encode())
        rc = main(["ratio", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            f"error[validation]: {cfg}:{line}: bad max_p value '4\\x0c5'\n")

    def test_non_utf8_file_is_one_validation_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"lags = 2\nmax_p = 4  # 5 \xb5s\n")
        rc = main(["ratio", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error[validation]: {cfg}:2: not UTF-8 text (byte 0xb5)\n"
        )

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        """Spreadsheet "CSV UTF-8" exports start with U+FEFF."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("\ufeffelectricity_price = 0.05\n".encode())
        assert main(["regress", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr()
        assert main(["regress", "--electricity", "0.05"]) == 0
        assert from_file == capsys.readouterr()

    def test_bad_lags_keeps_its_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lags = two\n")
        rc = main(["ratio", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error[domain]: lags must be an integer or 'auto', got 'two'\n"
        )


class TestOtherSubcommandsAndErrors:
    def test_regress_prints_both_fits(self, capsys):
        rc = main(["regress"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "levels:" in out and "logs  :" in out

    def test_var_prints_selection_and_granger(self, capsys):
        rc = main(["var", "--max-p", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen lag order" in out
        assert "Granger" in out

    def test_ratio_lists_episodes_on_bundled_data(self, capsys):
        rc = main(["ratio"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "episode" in out

    def test_missing_input_file_is_validation_error(self, capsys, tmp_path):
        rc = main(["ratio", "--observations", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert "error[validation]" in capsys.readouterr().err

    def test_malformed_csv_reports_parse_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "obs.csv"
        bad.write_text("date,difficulty,price_usd\n2017-01-07,xyz,900.0\n")
        rc = main(["ratio", "--observations", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[parse]" in err and "line 2" in err

    def test_non_utf8_csv_is_one_parse_line(self, tmp_path, capsys):
        bad = tmp_path / "obs.csv"
        bad.write_bytes(b"date,difficulty,price_usd\n2017-01-07,3.0e11,9\xb50.0\n")
        rc = main(["ratio", "--observations", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error[parse]: {bad}:2: not UTF-8 text (byte 0xb5)\n"

    @pytest.mark.parametrize(
        "kind, text, code, message",
        [
            ("efficiency", "date,w_per_ghs\n2013-01-01,x\n", "parse",
             "line 2: bad w_per_ghs value 'x'"),
            ("rewards", "date,reward_btc\n", "validation",
             "reward schedule must have at least one entry"),
            ("observations", "date,difficulty,price_usd\n", "validation",
             "observations must have at least one record"),
            # A line break inside a quoted field counts as a line.
            ("observations",
             'date,difficulty,price_usd\n2013-06-29,1,"2\n"\n2013-07-01,x,3\n',
             "parse", "line 4: bad difficulty value 'x'"),
            ("efficiency", "date,w_per_ghs\n2013-01-01,0.5\n\n2013-06-01\n", "parse",
             "line 4: expected 2 fields, got 1"),
            ("rewards", "date,reward_btc\n2009-01-03,50.0\n2012-11-28,25.0,x\n", "parse",
             "line 3: expected 2 fields, got 3"),
        ],
        ids=["bad-value", "header-only", "observations-header-only",
             "row-after-quoted-line-break", "narrow-step-row", "wide-step-row"],
    )
    def test_data_file_errors_name_the_file(self, kind, text, code, message,
                                            tmp_path, capsys):
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        rc = main(["ratio", f"--{kind}", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error[{code}]: {path}: {message}\n"

    @pytest.mark.parametrize("kind, field, name", [
        ("observations", "94.88", "price_usd"),
        ("efficiency", "690.0", "w_per_ghs"),
        ("rewards", "50.0", "reward_btc"),
    ])
    def test_underscored_number_is_one_parse_line(self, kind, field, name,
                                                  tmp_path, capsys):
        """float() would read "9_4.88" as 94.88; the file format has no "_"."""
        text = bundled_data_path(f"{kind}.csv").read_text()
        edited = field[0] + "_" + field[1:]
        assert text.splitlines()[1].endswith("," + field)
        path = tmp_path / f"{kind}.csv"
        path.write_text(text.replace(field, edited, 1))
        rc = main(["ratio", f"--{kind}", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error[parse]: {path}: line 2: bad {name} value '{edited}'\n"
        )

    @pytest.mark.parametrize("form", OTHER_DATE_FORMS)
    @pytest.mark.parametrize("name", ["observations", "efficiency"])
    def test_a_date_in_another_form_is_one_parse_line(self, name, form, tmp_path, capsys):
        """Python 3.11's fromisoformat reads these forms; the format does not."""
        lines = bundled_data_path(f"{name}.csv").read_text().splitlines()
        lines[2] = ",".join([form, *lines[2].split(",")[1:]])
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["ratio", f"--{name}", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == (f"error[parse]: {path}: line 3: bad date {form!r}: "
                                f"Invalid isoformat string: {form!r}\n")

    @staticmethod
    def _oversize_field_stderr(column, field, tmp_path, capsys):
        """``ratio``'s stderr with ``field`` in ``column`` of line 4, and the path."""
        lines = bundled_data_path("observations.csv").read_text().splitlines()
        row = lines[3].split(",")
        row[column] = field
        lines[3] = ",".join(row)
        path = tmp_path / "observations.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["ratio", "--observations", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        return captured.err, path

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    def test_oversize_field_is_one_parse_line(self, quote, tmp_path, capsys):
        """csv refuses a field over its size limit; the split rows have none.

        A bad field over 64 characters is named by its start and length.
        """
        field = "x" * (csv.field_size_limit() + 1)
        err, path = self._oversize_field_stderr(2, f"{quote}{field}{quote}",
                                                tmp_path, capsys)
        message = (f"bad price_usd value '{'x' * 32}'... ({len(field)} characters)"
                   if not quote else
                   f"field larger than field limit ({csv.field_size_limit()})")
        assert err == f"error[parse]: {path}: line 4: {message}\n"

    def test_oversize_date_is_named_once(self, tmp_path, capsys):
        """The date error drops fromisoformat's own quote of a long field."""
        field = "2" * (csv.field_size_limit() + 1)
        err, path = self._oversize_field_stderr(0, field, tmp_path, capsys)
        assert err == (f"error[parse]: {path}: line 4: bad date '{'2' * 32}'... "
                       f"({len(field)} characters)\n")

    def test_artifacts_are_utf8_whatever_the_locale(self, tmp_path):
        obs = _non_ascii_observations(tmp_path)
        runs = {}
        for locale, env in (("c", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
                            ("utf8", {"PYTHONUTF8": "1"})):
            runs[locale] = _python(
                "-m", "minecost.cli", "backtest", "--observations", str(obs),
                "--format", "json", "--no-provenance-timestamps",
                "--out-dir", str(tmp_path / locale), **env,
            )
            assert (runs[locale].returncode, runs[locale].stderr) == (0, "")
        assert runs["c"].stdout == runs["utf8"].stdout
        for name in ("report.txt", "report.json", "figure1.csv", "figure2.csv"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
        report = (tmp_path / "c" / "report.txt").read_text(encoding="utf-8")
        assert f"  observations    : {obs}\n" in report

    def test_text_stdout_cannot_encode_is_one_io_line(self, tmp_path):
        obs = _non_ascii_observations(tmp_path)
        result = _python("-m", "minecost.cli", "backtest", "--observations", str(obs),
                         "--out-dir", str(tmp_path / "out"), PYTHONIOENCODING="ascii")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith(
            "error[io]: 'ascii' codec can't encode character '\\xfc' in position "
        )
        assert result.stderr.count("\n") == 1

    def test_clamp_warning_is_one_stderr_line(self, tmp_path):
        obs = _bundled_prefix(tmp_path, 28)
        result = _python("-m", "minecost.cli", "backtest", "--observations", str(obs),
                         "--lags", "auto", "--max-p", "9", "--no-provenance-timestamps",
                         "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 0
        assert result.stderr == (
            "warning[UserWarning]: max_p 9 needs 30 observations but the series "
            "has 28; lag selection scans orders 1..8\n"
        )

    def test_carried_forward_warning_is_one_stderr_line(self, tmp_path):
        table = tmp_path / "eff.csv"
        table.write_text("date,w_per_ghs\n2013-01-01,1.0\n2014-01-01,0.5\n")
        result = _python("-m", "minecost.cli", "ratio", "--efficiency", str(table))
        assert result.returncode == 0
        assert result.stderr == (
            "warning[CarriedForwardWarning]: 112 date(s) are past the last "
            "efficiency entry 2014-01-01, the first 2014-01-11; carrying last "
            "value forward\n"
        )

    @pytest.mark.parametrize("difficulty, price", [("1e308", "inf"), ("1e-320", "0.0")])
    def test_model_price_outside_double_range_is_one_domain_line(
        self, difficulty, price, tmp_path
    ):
        rows = bundled_data_path("observations.csv").read_text().splitlines()
        date, _, market = rows[1].split(",")
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join([rows[0], f"{date},{difficulty},{market}", *rows[2:]]))
        result = _python("-m", "minecost.cli", "ratio", "--observations", str(obs))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"error[domain]: model price is {price} on 2013-06-29: the inputs "
            "overflow or underflow double precision\n"
        )

    @pytest.mark.parametrize("command", ["ratio", "backtest"])
    def test_ratio_moments_outside_double_range_are_one_domain_line(
        self, command, tmp_path
    ):
        rows = bundled_data_path("observations.csv").read_text().splitlines()
        date, _, market = rows[1].split(",")
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join([rows[0], f"{date},1e-300,{market}", *rows[2:]]))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "backtest" else []
        result = _python("-m", "minecost.cli", command, "--observations", str(obs), *extra)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error[domain]: market/model ratio is 2.1343933787322848e+307 on "
            "2013-06-29: the ratio mean or sd overflows double precision\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["regress", "backtest"])
    def test_level_fit_outside_double_range_is_one_domain_line(self, command, tmp_path):
        obs = _market_times_1e150(tmp_path)
        extra = ["--out-dir", str(tmp_path / "out")] if command == "backtest" else []
        result = _python("-m", "minecost.cli", command, "--observations", str(obs), *extra)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            "error[domain]: the regression overflows double precision\n"
        )
        assert not (tmp_path / "out").exists()

    def test_var_runs_where_the_level_fit_overflows(self, tmp_path, capsys):
        """``var`` fits logs only, so the level fit that overflows cannot end it."""
        assert main(["var", "--observations", str(_market_times_1e150(tmp_path)),
                     "--format", "json"]) == 0
        scaled = _leaves(json.loads(capsys.readouterr().out))
        assert main(["var", "--format", "json"]) == 0
        bundled = _leaves(json.loads(capsys.readouterr().out))
        assert scaled.keys() == bundled.keys()
        assert scaled["/lag_selection/chosen_p"] == bundled["/lag_selection/chosen_p"] == 2
        for path, value in bundled.items():
            if not path.startswith("/var/intercepts/"):  # the 150 ln 10 shift goes here
                assert scaled[path] == (pytest.approx(value, rel=1e-9)
                                        if type(value) is float else value), path

    def test_singular_residual_covariance_is_one_error_line(self, tmp_path, capsys):
        """A market that blends this and last period's model price exactly."""
        self._assert_singular_var1_is_one_error_line(1, tmp_path, capsys)

    def test_a_residual_correlation_of_one_to_rounding_is_one_error_line(
        self, tmp_path, capsys
    ):
        """The same blend, whose determinant is rounding noise above 0."""
        self._assert_singular_var1_is_one_error_line(2, tmp_path, capsys)

    @staticmethod
    def _assert_singular_var1_is_one_error_line(seed, tmp_path, capsys):
        market, model = np.exp(singular_var1_logs(seed)).T
        # The difficulty whose model price at efficiency 0.5 and reward 25 is model.
        difficulty = model * 25 * 3.6e15 / (0.135 * 0.5 * 2.0**32)
        days = [dt.date(2015, 1, 1) + dt.timedelta(days=14 * t) for t in range(len(model))]
        obs, rewards = tmp_path / "obs.csv", tmp_path / "rewards.csv"
        obs.write_text("date,difficulty,price_usd,eff_w_per_ghs\n" + "".join(
            f"{day},{d!r},{m!r},0.5\n"
            for day, d, m in zip(days, difficulty.tolist(), market.tolist())
        ))
        rewards.write_text("date,reward_btc\n2009-01-03,25.0\n")
        rc = main(["backtest", "--observations", str(obs), "--rewards", str(rewards),
                   "--lags", "auto", "--max-p", "1", "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == (
            "error[singular]: VAR(1) has a singular residual covariance\n"
        )
        assert not (tmp_path / "out").exists()

    def test_pinned_lags_need_no_data_for_max_p(self, tmp_path, capsys):
        """20 rows support VAR(1..5); max_p 8 is clamped, the fit still runs."""
        obs = _bundled_prefix(tmp_path, 20)
        with pytest.warns(UserWarning, match=r"max_p 8 .* has 20; .* orders 1\.\.5$"):
            rc = main(["var", "--observations", str(obs), "--lags", "1",
                       "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["p"] for row in doc["lag_selection"]["table"]] == [1, 2, 3, 4, 5]
        assert doc["var"]["lag_order"] == 1
        assert doc["var"]["nobs"] == 19

    def test_lags_past_the_sample_bound_is_one_error_line(self, tmp_path, capsys):
        """28 rows support VAR(8) at most: VAR(9) would leave T - k = 0."""
        obs = _bundled_prefix(tmp_path, 28)
        rc = main(["var", "--observations", str(obs), "--lags", "9"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error[insufficient-data]: need at least 30 observations for p=9, got 28\n"
        )

    def test_max_p_past_the_sample_bound_is_clamped(self, tmp_path, capsys):
        obs = _bundled_prefix(tmp_path, 28)
        with pytest.warns(
            UserWarning, match=r"^max_p 9 needs 30 .* has 28; .* orders 1\.\.8$"
        ):
            rc = main(["var", "--observations", str(obs), "--lags", "auto",
                       "--max-p", "9", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["p"] for row in doc["lag_selection"]["table"]] == list(range(1, 9))

    def test_bad_lags_value_rejected(self, capsys):
        rc = main(["ratio", "--lags", "two"])
        assert rc == 1
        assert "error[domain]" in capsys.readouterr().err

    def test_bad_format_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = yaml\n")
        rc = main(["ratio", "--config", str(cfg)])
        assert rc == 1
        assert "error[domain]" in capsys.readouterr().err


class TestFetchCommand:
    def test_other_commands_load_no_network_module(self):
        result = _python("-c", "import minecost.cli, sys; print(sorted("
                         "{'http.client', 'urllib.request', 'ssl'} & sys.modules.keys()))")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_each_kind_is_cached(self, tmp_path, capsys, chart_server):
        rc = main(["fetch", "--base-url", chart_server.url, "--cache-dir", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{kind}: cached at {cache_file_for(kind, tmp_path)}" for kind in CHART_KINDS
        ]
        assert all(cache_file_for(kind, tmp_path).exists() for kind in CHART_KINDS)

    def test_server_error_is_a_fetch_error(self, tmp_path, capsys, chart_server):
        chart_server.status = 503
        rc = main(["fetch", "--base-url", chart_server.url, "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error[fetch]: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("timeout, start", [
        ("inf", "error[domain]: timeout must be a positive finite number, got inf\n"),
        ("-1", "error[domain]: timeout must be a positive finite number, got -1.0\n"),
        # The overflow's wording is Python's, and varies between versions.
        ("1e300", "error[fetch]: GET http://127.0.0.1:9/difficulty failed: timestamp "),
    ])
    def test_a_bad_timeout_is_one_error_line(self, tmp_path, timeout, start):
        """A fresh process: the error is one coded line, with no traceback."""
        result = _python("-m", "minecost.cli", "fetch", "--kinds", "difficulty",
                         "--cache-dir", str(tmp_path), "--base-url", "http://127.0.0.1:9",
                         "--timeout", timeout, no_proxy="*")
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith(start) and result.stderr.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_a_cache_file_that_is_not_utf8_is_one_fetch_error(self, tmp_path, capsys):
        cached = cache_file_for("difficulty", tmp_path)
        cached.write_bytes(b"2017-01-01,1\xff\n")
        rc = main(["fetch", "--kinds", "difficulty", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error[fetch]: {cached}:1: not UTF-8 text (byte 0xff)\n"
        )

    def test_observations_out_round_trips_both_charts(self, tmp_path, capsys,
                                                      chart_server):
        chart_server.bodies = {path: text.encode() for path, text in EPOCH_CHARTS.items()}
        out, cache = tmp_path / "obs.csv", tmp_path / "cache"
        rc = main(["fetch", "--kinds", "difficulty", "--base-url", chart_server.url,
                   "--cache-dir", str(cache), "--observations-out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            f"difficulty: cached at {cache_file_for('difficulty', cache)}",
            f"observations: written to {out}",
        ]
        # The market-price chart is fetched too, and each chart only once.
        assert chart_server.paths == [f"/{kind}?format=csv" for kind in CHART_KINDS]
        resampled = resample_to_epochs(
            *(parse_chart_points(EPOCH_CHARTS[f"/{kind}"]) for kind in CHART_KINDS)
        )
        assert len(resampled) == 19
        assert load_observations(out) == resampled
        assert out.read_bytes() == serialize_observations(resampled).encode()
        assert main(["ratio", "--observations", str(out)]) == 0

    def test_observations_out_with_no_observation_is_one_error(self, tmp_path, capsys,
                                                              chart_server):
        chart_server.bodies = {"/difficulty": b"2016-12-31,3.0e11\n",
                               "/market-price": b"2017-01-01,900.0\n"}
        out = tmp_path / "obs.csv"
        rc = main(["fetch", "--base-url", chart_server.url, "--cache-dir",
                   str(tmp_path), "--observations-out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error[validation]: no observation: every difficulty "
                                "change precedes the first market price\n")
        assert not out.exists()

    def test_observations_out_names_the_chart_of_a_bad_point(self, tmp_path, capsys,
                                                            chart_server):
        chart_server.bodies = {"/market-price": b"2017-01-01,900.0\n2017-01-02,0\n"}
        rc = main(["fetch", "--base-url", chart_server.url, "--cache-dir",
                   str(tmp_path), "--observations-out", str(tmp_path / "obs.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            f"error[parse]: {cache_file_for('market-price', tmp_path)}: line 2: "
            "bad chart value '0': not positive and finite\n"
        )

    def test_a_non_ascii_payload_is_cached_whatever_the_locale(self, tmp_path,
                                                                chart_server):
        text = "2017-01-01 00:00:00,317700000000 \u00b5\n"
        chart_server.body = text.encode("utf-8")
        fetch_twice = (
            "import sys; from minecost import fetch_remote_series as fetch; "
            "texts = [fetch('difficulty', base_url=sys.argv[1], cache_dir=sys.argv[2]) "
            "for _ in range(2)]; print(ascii(texts))"
        )
        result = _python("-c", fetch_twice, chart_server.url, str(tmp_path),
                         LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == f"{ascii([text, text])}\n"
        assert len(chart_server.paths) == 1
        assert cache_file_for("difficulty", tmp_path).read_bytes() == chart_server.body


def test_one_parser_serves_calls_as_fresh_processes_do(tmp_path, capsys):
    """``main`` builds its parser once; each call still runs as a new process.

    A process runs ``process_main``, which turns the garbage collector off and
    freezes the heap; an in-process call leaves the collector as it found it.
    """
    price = ["price", "--difficulty", "1e12", "--efficiency", "0.1", "--reward", "12.5"]
    runs = [
        price,
        ["ratio", "--format", "json"],
        ["backtest", "--no-such-flag"],
        ["var", "--format", "json"],
        ["var", "--lags", "auto", "--format", "json"],
        ["backtest", "--lags", "x", "--out-dir", str(tmp_path)],
        [*price, "--format", "json"],
        ["regress", "--electricity", "0.1"],
    ]
    collector, codes = (gc.isenabled(), gc.get_freeze_count()), set()
    for argv in runs:
        try:
            rc = main(argv)
        except SystemExit as exc:  # a usage error
            rc = exc.code
        assert (gc.isenabled(), gc.get_freeze_count()) == collector, argv
        out, err = capsys.readouterr()
        fresh = _python("-m", "minecost.cli", *argv)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(rc)
    assert codes == {0, 1, 2}  # success, an error line and a usage error
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()



# Each subcommand, in order, with every action as (option strings, dest,
# default, choices, type, help): the parser as data, not --help text, whose
# layout differs between Python versions. The four dataset subcommands share
# their options; only backtest writes files.
HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, None,
        "show this help message and exit")
DATASET_INPUTS = [
    (("--config",), "config", None, None, None, "key = value options file"),
    (("--observations",), "observations", None, None, "Path",
     "observations CSV (default: bundled dataset)"),
    (("--efficiency",), "efficiency", None, None, "Path",
     "efficiency CSV (default: bundled table)"),
    (("--rewards",), "rewards", None, None, "Path",
     "reward schedule CSV (default: bundled schedule)"),
    (("--electricity",), "electricity_price", None, None, "float",
     "electricity price (default 0.135)"),
    (("--lags",), "lags", None, None, None,
     "VAR lag order, or 'auto' to select (default: 2)"),
    (("--max-p",), "max_p", None, None, "int",
     "highest lag order scanned by selection (default 8)"),
    (("--entry-k",), "entry_k", None, None, "float",
     "episode threshold in ratio sigmas (default 2)"),
    (("--min-len",), "min_len", None, None, "int", "minimum episode run length (default 2)"),
]
OUT_DIR = (("--out-dir",), "out_dir", None, None, "Path",
           "directory for report and figure files (default .)")
FORMAT = (("--format",), "format", None, ("table", "json"), "str",
          "stdout format (default table)")
TIMESTAMPS = (("--no-provenance-timestamps",), "no_provenance_timestamps", False, None,
              None, "omit wall-clock timestamps for reproducible output")
PARSER_SHAPE = [
    ("price", [
        HELP,
        (("--difficulty",), "difficulty", None, None, "float", None),
        (("--efficiency",), "efficiency", None, None, "float", None),
        (("--reward",), "reward", None, None, "float", None),
        (("--electricity",), "electricity", 0.135, None, "float", "default %(default)s"),
        (("--format",), "format", "table", ("table", "json"), None, None),
    ]),
    ("backtest", [HELP, *DATASET_INPUTS, OUT_DIR, FORMAT, TIMESTAMPS]),
    ("regress", [HELP, *DATASET_INPUTS, FORMAT]),
    ("var", [HELP, *DATASET_INPUTS, FORMAT]),
    ("ratio", [HELP, *DATASET_INPUTS, FORMAT]),
    ("fetch", [
        HELP,
        (("--base-url",), "base_url", None, None, None,
         "chart endpoint root (or MINECOST_BASE_URL)"),
        (("--kinds",), "kinds", None, None, None,
         "comma-separated chart kinds (default: all)"),
        (("--cache-dir",), "cache_dir", None, None, None,
         "cache directory (or MINECOST_CACHE_DIR)"),
        (("--timeout",), "timeout", 30.0, None, "float", None),
        (("--observations-out",), "observations_out", None, None, "Path",
         "also write both charts resampled to observations CSV"),
    ]),
]


def test_the_parser_keeps_its_subcommands_and_options():
    commands, = (action for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    shape = [
        (name, [(tuple(a.option_strings), a.dest, a.default, a.choices,
                 getattr(a.type, "__name__", a.type), a.help) for a in sub._actions])
        for name, sub in commands.choices.items()
    ]
    assert shape == PARSER_SHAPE

@pytest.mark.parametrize(
    "key, flag, value",
    [
        ("entry_k", "--entry-k", -5.0),
        ("entry_k", "--entry-k", 0.0),
        ("entry_k", "--entry-k", math.nan),
        ("entry_k", "--entry-k", math.inf),
        ("electricity_price", "--electricity", 0.0),
        ("electricity_price", "--electricity", math.nan),
        ("lags", "--lags", 0),
        ("max_p", "--max-p", 0),
        ("min_len", "--min-len", 0),
    ],
)
def test_library_and_cli_reject_the_same_values(key, flag, value, capsys):
    with pytest.raises(DomainError) as excinfo:
        BacktestConfig(**{key: value})
    message = str(excinfo.value)
    rule = ("a positive finite number" if key in ("entry_k", "electricity_price")
            else "an integer >= 1")
    assert message == f"{key} must be {rule}, got {value!r}"
    # The library also rejects what the CLI cannot hand it: text and None.
    others = [str(value)] if key == "lags" else [str(value), None]  # None: auto lags
    for other in others:
        with pytest.raises(DomainError) as excinfo:
            BacktestConfig(**{key: other})
        assert str(excinfo.value) == f"{key} must be {rule}, got {other!r}"
    rc = main(["ratio", flag, str(value)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error[domain]: {message}\n"
    if key == "electricity_price":
        with pytest.raises(DomainError) as excinfo:
            CostParams(electricity_price=value, efficiency=0.1)
        assert str(excinfo.value) == message
        rc = main(["price", "--difficulty", "1e12", "--efficiency", "0.1",
                   "--reward", "12.5", flag, str(value)])
        assert rc == 1
        assert capsys.readouterr().err == f"error[domain]: {message}\n"


MUTATIONS = ("swap rows", "duplicate row", "blank field", "zero field", "negate field",
             "garble field", "garble header", "reorder header", "reorder columns",
             "repeat header")


def _mutate(lines, mutation, data):
    """One bundled CSV (``lines``, header first) with ``mutation`` applied."""
    header, rows = lines[0].split(","), lines[1:]
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    col = data.draw(st.integers(0, len(header) - 1), label="column")
    fields = rows[i].split(",")
    if mutation == "swap rows":
        j = data.draw(st.integers(0, len(rows) - 1), label="other row")
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "duplicate row":
        rows.insert(i, rows[i])
    elif mutation == "garble field":
        fields[col] = data.draw(st.text(max_size=6), label="text")
    elif mutation.endswith("field"):
        fields[col] = {"blank field": "", "zero field": "0",
                       "negate field": "-" + fields[col]}[mutation]
    elif mutation == "garble header":
        header[col] = data.draw(st.text(max_size=6), label="text")
    elif mutation == "reorder header":
        header = data.draw(st.permutations(header), label="header")
    elif mutation == "reorder columns":
        order = data.draw(st.permutations(range(len(header))), label="order")
        header = [header[k] for k in order]
        rows = [",".join(row.split(",")[k] for k in order) for row in rows]
    else:  # repeat header
        header.append(header[col])
    if mutation.endswith("field"):
        rows[i] = ",".join(fields)
    return "\n".join([",".join(header), *rows]) + "\n"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(["observations", "efficiency", "rewards"]),
       mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_input_gives_artifacts_or_one_error_line(kind, mutation, data):
    lines = bundled_data_path(f"{kind}.csv").read_text().splitlines()
    with tempfile.TemporaryDirectory() as scratch:
        path, out_dir = Path(scratch, f"{kind}.csv"), Path(scratch, "out")
        path.write_text(_mutate(lines, mutation, data), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["backtest", f"--{kind}", str(path), "--out-dir", str(out_dir),
                       "--no-provenance-timestamps"])
        written = sorted(p.name for p in out_dir.glob("*"))
        if rc == 0:  # strict JSON: no NaN or Infinity
            json.loads(Path(out_dir, "report.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"report.json holds {name}"))
    # Warnings may print too (pytest usually records them instead).
    errors = [line for line in stderr.getvalue().splitlines()
              if not line.startswith("warning[")]
    if rc == 0:
        assert (errors, written) == (
            [], ["figure1.csv", "figure2.csv", "report.json", "report.txt"]
        )
    else:
        assert rc == 1 and len(errors) == 1 and errors[0].startswith("error["), errors
        if errors[0].startswith("error[parse]"):
            assert f": {path}: " in errors[0]
