"""Orchestration of the full empirical study on a paired price series.

Given difficulty-epoch observations, a reward schedule, and an efficiency
table, this module builds the (market, model) pair, computes the
premium/discount ratio series and its moments, fits level and log-log
regressions of market on model, selects a VAR lag order, runs both Granger
directions, flags heuristic bubble episodes, and assembles everything into
a serializable report with full provenance.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import __version__
from .dataset import (
    EfficiencyTable,
    ObservationRecord,
    PairedSeries,
    RewardSchedule,
    build_backtest_series,
)
from .econometrics import (
    GrangerResult,
    LagSelection,
    RegressionResult,
    VarModel,
    granger_wald,
    log_transform,
    ols_fit,
    select_lag_order,
    var_fit,
    var_max_order,
    var_min_observations,
)
from .errors import DegenerateThresholdWarning, DomainError
from .pricing import BacktestConfig, _order, _require_positive_finite

MARKET, MODEL = "market", "model"

CAVEATS = (
    "VAR and Granger statistics are computed on log price levels without "
    "unit-root screening or differencing; both series trend strongly, so "
    "treat the significance flags as descriptive.",
    "Bubble episodes come from a heuristic threshold rule (ratio above its "
    "full-sample mean plus k sigma for a minimum run length), not from a "
    "formal date-stamping procedure.",
)


@dataclass
class RatioStats:
    """Market/model price ratio per date, with sample moments.

    A ratio of 1 means the market trades exactly at the production-cost
    price; above 1 is a market premium, below 1 a discount. The standard
    deviation uses the n-1 divisor (0 for a single observation). The
    report's ``ratio`` writes ``dates`` and ``ratios`` as its ``series`` rows.
    """

    dates: tuple[dt.date, ...]
    ratios: np.ndarray
    mean: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class BubbleEpisode:
    """A sustained run of ratios above the episode threshold."""

    start_date: dt.date
    end_date: dt.date
    peak_ratio: float
    peak_date: dt.date


def ratio_series(pair: PairedSeries) -> RatioStats:
    """Elementwise market/model ratio with sample mean, sd, min, max.

    Raises:
        DomainError: the mean or sd overflows; names the largest ratio's date.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = pair.market_prices / pair.model_prices
        mean = float(ratios.mean())
        std = float(ratios.std(ddof=1)) if ratios.size >= 2 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        peak = int(np.argmax(ratios))
        raise DomainError(
            f"market/model ratio is {float(ratios[peak])!r} on "
            f"{pair.dates[peak].isoformat()}: the ratio mean or sd overflows "
            "double precision"
        )
    return RatioStats(
        dates=pair.dates,
        ratios=ratios,
        mean=mean,
        std=std,
        min=float(ratios.min()),
        max=float(ratios.max()),
    )


def detect_episodes(
    stats: RatioStats, entry_k: float = 2.0, min_len: int = 2
) -> list[BubbleEpisode]:
    """Flag maximal runs of ratios above ``mean + entry_k * std``.

    A run qualifies as an episode when it spans at least ``min_len``
    consecutive observations; it ends at the last observation above the
    threshold. With zero ratio dispersion no threshold can be formed, so the
    result is empty and a DegenerateThresholdWarning is issued.

    Raises:
        DomainError: ``entry_k`` is not a positive finite number, or
            ``min_len`` is not an integer >= 1.
    """
    entry_k = _require_positive_finite("entry_k", entry_k)
    min_len = _order("min_len", min_len)
    if stats.std == 0.0:
        warnings.warn(
            "ratio series has zero dispersion; episode threshold is degenerate",
            DegenerateThresholdWarning,
            stacklevel=2,
        )
        return []
    above = stats.ratios > stats.mean + entry_k * stats.std
    # Flag changes alternate run start, run end (exclusive).
    edges = np.flatnonzero(np.diff(np.concatenate(([False], above, [False]))))
    episodes = []
    for start, end in edges.reshape(-1, 2).tolist():
        if end - start >= min_len:
            peak = start + int(np.argmax(stats.ratios[start:end]))
            episodes.append(BubbleEpisode(
                start_date=stats.dates[start],
                end_date=stats.dates[end - 1],
                peak_ratio=float(stats.ratios[peak]),
                peak_date=stats.dates[peak],
            ))
    return episodes


def _fields(result, *omit: str) -> dict:
    """``result``'s fields but ``omit``: arrays and tuples as lists, dates in ISO form."""
    return {key: value.tolist() if isinstance(value, np.ndarray)
            else value.isoformat() if isinstance(value, dt.date)
            else list(value) if isinstance(value, tuple) else value
            for key, value in vars(result).items() if key not in omit}


def regression_to_dict(fit: RegressionResult) -> dict:
    """The fit's fields but ``residuals``, its field names the JSON keys."""
    return _fields(fit, "residuals")


def ratio_to_dict(stats: RatioStats, series) -> dict:
    """The report's ``ratio`` section; ``series`` stands for its per-date rows."""
    return {**_fields(stats, "dates", "ratios"), "series": series}


def episodes_to_dict(episodes: list[BubbleEpisode]) -> list[dict]:
    """Each episode's fields, named as in the JSON, with its dates in ISO form."""
    return [_fields(episode) for episode in episodes]


def var_to_dict(selection: LagSelection, model: VarModel, granger) -> dict:
    """The report's ``lag_selection``, ``var`` and ``granger`` sections."""
    return {
        "lag_selection": {**_fields(selection, "rows", "_scan"),
                          "table": [_fields(row) for row in selection.rows]},
        "var": _fields(model, "residuals", "coef_cov"),
        "granger": [{
            "null": g.null_hypothesis(), "cause": g.cause, "effect": g.effect,
            "chi2": g.chi2_stat, "df": g.df, "p_value": g.p_value,
            "significant_at_5pct": g.p_value < 0.05,
        } for g in granger],
    }


@dataclass
class BacktestReport:
    """Everything one run produces, ready for table or JSON emission."""

    pair: PairedSeries
    ratio_stats: RatioStats
    level_fit: RegressionResult
    log_fit: RegressionResult
    lag_selection: LagSelection
    var_model: VarModel
    granger_results: tuple[GrangerResult, GrangerResult]
    episodes: list[BubbleEpisode]
    caveats: tuple[str, ...]
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report document with one row dict per date; deterministic."""
        pair, stats = self.pair, self.ratio_stats
        prices = zip(map(dt.date.isoformat, pair.dates),
                     pair.market_prices.tolist(), pair.model_prices.tolist())
        ratios = zip(map(dt.date.isoformat, stats.dates), stats.ratios.tolist())
        return self._document(
            prices=[{"date": d, "market": a, "model": b} for d, a, b in prices],
            series=[{"date": d, "ratio": r} for d, r in ratios],
        )

    def _document(self, prices, series) -> dict:
        """The report document, defined once for every writer of it.

        ``prices`` and ``series`` are its per-date arrays, ``prices`` and
        ``ratio.series``, in the form the caller's writer lays out.
        """
        return {
            "ratio": ratio_to_dict(self.ratio_stats, series),
            "prices": prices,
            "level_regression": regression_to_dict(self.level_fit),
            "log_regression": regression_to_dict(self.log_fit),
            **var_to_dict(self.lag_selection, self.var_model, self.granger_results),
            "episodes": episodes_to_dict(self.episodes),
            "caveats": list(self.caveats),
            "provenance": dict(self.provenance),
        }


def var_analysis(log_market: np.ndarray, log_model: np.ndarray, config: BacktestConfig):
    """``(selection, model, granger)``: the VAR stage on the log series.

    Scans orders up to ``config.max_p``, or up to ``var_max_order(n)`` under
    one UserWarning when n observations are too few for VAR(max_p), and tests
    both Granger directions in the VAR of order ``config.lags`` or, when it is
    None, the selected order. That VAR is the scan's; only a pinned order above
    the scanned ones is fitted on its own, by :func:`var_fit`.
    """
    max_p, n = config.max_p, len(log_market)
    logs = np.empty((n, 2))
    logs[:, 0], logs[:, 1] = log_market, log_model
    # A short series scans fewer orders instead of failing a pinned lag
    # order it could fit.
    supported = min(max_p, var_max_order(n))
    if 1 <= supported < max_p:
        warnings.warn(
            f"max_p {max_p} needs {var_min_observations(max_p)} observations but "
            f"the series has {n}; lag selection scans orders 1..{supported}",
            UserWarning,
            stacklevel=3,
        )
        max_p = supported
    selection = select_lag_order(logs, max_p, names=(MARKET, MODEL))
    lag_order = config.lags if config.lags is not None else selection.chosen_p
    if lag_order <= len(selection.rows):
        model = selection._model(lag_order)
    else:  # a pinned order above the scanned ones
        model = var_fit(logs, lag_order, names=(MARKET, MODEL))
    granger = (
        granger_wald(model, cause=MARKET, effect=MODEL),
        granger_wald(model, cause=MODEL, effect=MARKET),
    )
    return selection, model, granger


def run_backtest(
    records: Sequence[ObservationRecord],
    schedule: RewardSchedule,
    table: EfficiencyTable | None,
    config: BacktestConfig | None = None,
    input_files: dict | None = None,
) -> BacktestReport:
    """Run the whole study on one dataset.

    Builds the paired series, computes ratio statistics, fits the level and
    log-log regressions of market price on model price, runs the VAR stage
    (:func:`var_analysis`) on the log series, and detects episodes.

    ``input_files`` is recorded verbatim in the provenance block.
    """
    config = config or BacktestConfig()
    pair = build_backtest_series(
        records, schedule, table, electricity_price=config.electricity_price
    )
    stats = ratio_series(pair)

    level_fit = ols_fit(pair.model_prices, pair.market_prices)
    log_market = log_transform(pair.market_prices)
    log_model = log_transform(pair.model_prices)
    log_fit = ols_fit(log_model, log_market)
    selection, model, granger = var_analysis(log_market, log_model, config)
    episodes = detect_episodes(stats, entry_k=config.entry_k, min_len=config.min_len)

    provenance = {
        "package_version": __version__,
        "parameters": {**_fields(config, "include_timestamp"),
                       "lags": "auto" if config.lags is None else config.lags},
        "n_observations": len(records),
        "input_files": dict(input_files or {}),
    }
    if config.include_timestamp:
        provenance["generated_at"] = dt.datetime.now(dt.timezone.utc).isoformat()

    return BacktestReport(
        pair=pair,
        ratio_stats=stats,
        level_fit=level_fit,
        log_fit=log_fit,
        lag_selection=selection,
        var_model=model,
        granger_results=granger,
        episodes=episodes,
        caveats=CAVEATS,
        provenance=provenance,
    )
