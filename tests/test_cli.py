"""End-to-end tests of the command-line surface (loopback HTTP only)."""

import json
import math

import pytest

from minecost import (
    CHART_KINDS,
    BacktestConfig,
    CostParams,
    DomainError,
    bundled_data_path,
    cache_file_for,
)
from minecost.cli import main

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


class TestConfigFile:
    def test_file_values_apply_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lags = 3\nmax_p = 4  # comment\n")
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
            "error[insufficient-data]: need at least 29 observations for p=9, got 28\n"
        )

    def test_max_p_past_the_sample_bound_is_clamped(self, tmp_path, capsys):
        obs = _bundled_prefix(tmp_path, 28)
        with pytest.warns(
            UserWarning, match=r"^max_p 9 needs 29 .* has 28; .* orders 1\.\.8$"
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
    if key in ("entry_k", "electricity_price"):
        assert message == f"{key} must be a positive finite number, got {value!r}"
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
