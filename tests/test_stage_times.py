"""tools/stage_times.py: one timing per stage, on a cut long history."""

import json

from minecost import load_observations
from tests.conftest import load_script

stage_times = load_script("tools/stage_times.py")

STAGES = {"load_observations", "load_step_tables",
          "build_backtest_series", "run_backtest", "series_text",
          "series_text_formatted", "report_json", "figure_csvs", "cli_main",
          "run_backtest_bundled"}


def test_the_history_is_cut_to_the_rows_asked_for(tmp_path):
    paths = stage_times.write_history(3, 200, tmp_path)
    records = load_observations(paths["observations"])
    assert len(records) == 200
    assert records[0].date.isoformat() == "2009-01-09"


def test_stages_are_timed_round_by_round():
    """Each round calls every stage once, so drift reaches all stages alike."""
    order = []
    times = stage_times.fastest({"a": lambda: order.append("a"),
                                 "b": lambda: order.append("b")}, 3)
    assert order == ["a", "b"] * 3
    assert set(times) == {"a", "b"} and all(ms >= 0.0 for ms in times.values())


def test_every_stage_is_timed(capsys):
    assert stage_times.main(["--rows", "200", "--repeat", "1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["rows"], result["repeat"], result["variant"]) == (200, 1, 3)
    assert set(result["ms"]) == STAGES
    assert all(ms > 0.0 for ms in result["ms"].values())


def test_the_lag_scan_is_timed_as_a_layer(capsys):
    assert stage_times.main(["--rows", "200", "--repeat", "1"]) == 0
    layers = json.loads(capsys.readouterr().out)["layers_ms"]
    assert set(layers) == {"select_lag_order", "ols_fit", "granger_wald"}
    assert all(ms > 0.0 for ms in layers.values())


def test_the_sweep_op_is_timed_layer_by_layer(capsys):
    """The bundled data's layers: pairing, both regressions, the lag scan, and
    the reported VAR with both Granger directions."""
    assert stage_times.main(["--rows", "200", "--repeat", "1"]) == 0
    layers = json.loads(capsys.readouterr().out)["layers_bundled_ms"]
    assert list(layers) == ["build_backtest_series", "ols_fit", "select_lag_order",
                            "var_granger"]
    assert all(ms > 0.0 for ms in layers.values())
