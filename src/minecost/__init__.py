"""Production-cost pricing model for bitcoin with a full backtest pipeline.

The library values a bitcoin at the marginal electricity cost of mining it
and tests that valuation against market history: ratio statistics, level and
log-log regressions, VAR estimation with lag selection, Granger-Wald
causality tests, and heuristic bubble-episode detection. A batch CLI
(``minecost``) wraps the pipeline and emits report tables and plot data.

Each public name is imported from its module on first access (PEP 562), so
``import minecost`` loads neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    "backtest": (
        "BacktestReport", "BubbleEpisode", "RatioStats", "detect_episodes",
        "ratio_series", "run_backtest",
    ),
    "dataset": (
        "EfficiencyTable", "ObservationRecord", "Observations", "PairedSeries",
        "RewardSchedule", "build_backtest_series", "bundled_data_path", "load_bundled",
        "load_efficiency_table", "load_observations", "load_reward_schedule",
        "parse_chart_points", "parse_efficiency_table", "parse_observations",
        "parse_reward_schedule", "serialize_observations",
    ),
    "econometrics": (
        "GrangerResult", "LagSelection", "LjungBoxResult", "RegressionResult",
        "VarModel", "chi2_sf", "granger_wald", "ljung_box", "log_transform",
        "ols_fit", "select_lag_order", "var_fit",
    ),
    "errors": (
        "CarriedForwardWarning", "DegenerateThresholdWarning", "DomainError",
        "FetchError", "InsufficientDataError", "MinecostError", "ParseError",
        "SingularityError", "UndefinedPriceError", "ValidationError",
    ),
    "fetch": (
        "CHART_KINDS", "DEFAULT_BASE_URL", "cache_file_for", "default_cache_dir",
        "fetch_remote_series", "resample_to_epochs",
    ),
    "pricing": (
        "DEFAULT_ELECTRICITY_USD_PER_KWH", "BacktestConfig", "CostParams",
        "NetworkParams", "energy_cost_per_day", "expected_btc_per_day",
        "model_price",
    ),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
