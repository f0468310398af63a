"""The package resolves its public names lazily, each from its home module."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import minecost

SRC = Path(__file__).resolve().parents[1] / "src"

# The public surface: the names first exported, and Observations, the type
# the observation loaders return.
PUBLIC = {
    "backtest": ["BacktestReport", "BubbleEpisode", "RatioStats", "detect_episodes",
                 "ratio_series", "run_backtest"],
    "dataset": ["EfficiencyTable", "ObservationRecord", "Observations", "PairedSeries",
                "RewardSchedule", "build_backtest_series", "bundled_data_path",
                "load_bundled", "load_efficiency_table", "load_observations",
                "load_reward_schedule", "parse_chart_points", "parse_efficiency_table",
                "parse_observations", "parse_reward_schedule", "serialize_observations",
                "serialize_step_table"],
    "econometrics": ["GrangerResult", "LagSelection", "LjungBoxResult", "RegressionResult",
                     "VarModel", "chi2_sf", "granger_wald", "ljung_box", "log_transform",
                     "ols_fit", "select_lag_order", "var_fit"],
    "errors": ["CarriedForwardWarning", "DegenerateThresholdWarning", "DomainError",
               "FetchError", "InsufficientDataError", "MinecostError", "ParseError",
               "SingularityError", "UndefinedPriceError", "ValidationError"],
    "fetch": ["CHART_KINDS", "DEFAULT_BASE_URL", "cache_file_for", "default_cache_dir",
              "fetch_remote_series", "resample_to_epochs"],
    "pricing": ["BacktestConfig", "CostParams", "DEFAULT_ELECTRICITY_USD_PER_KWH",
                "NetworkParams", "energy_cost_per_day", "expected_btc_per_day",
                "model_price"],
}
HOME = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_lists_the_same_names():
    assert len(HOME) == 58
    assert minecost.__all__ == ["__version__", *sorted(HOME)]


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_module_object(name):
    home = import_module(f"minecost.{HOME[name]}")
    assert getattr(minecost, name) is getattr(home, name)


def test_a_star_import_binds_every_name():
    namespace = {}
    exec("from minecost import *", namespace)
    for name in minecost.__all__:
        assert namespace[name] is getattr(minecost, name)


def test_dir_lists_every_name_before_any_is_resolved():
    fresh = ("import minecost; print(sorted(set(minecost.__all__) - set(dir(minecost))), "
             "'run_backtest' in vars(minecost))")
    result = subprocess.run([sys.executable, "-c", fresh], capture_output=True, text=True,
                            timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[] False\n"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        minecost.no_such_name
    assert not hasattr(minecost, "BacktestConfigs")


def test_the_backtest_config_is_one_class_under_every_path():
    from minecost import backtest, pricing

    assert minecost.BacktestConfig is backtest.BacktestConfig is pricing.BacktestConfig
