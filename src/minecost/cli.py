"""Command-line surface: model pricing, backtests, and individual analyses.

Subcommands:

* ``price``    - evaluate the production-cost price for given inputs.
* ``backtest`` - full pipeline; writes report.txt, report.json, figure1.csv
  (date, ratio) and figure2.csv (date, market, model), as UTF-8.
* ``regress``  - level and log-log regressions only.
* ``var``      - lag selection, VAR fit, and both Granger directions.
* ``ratio``    - ratio statistics and episode detection.
* ``fetch``    - download raw difficulty / market-price charts to the cache,
  and optionally resample them to an observations.csv.

A ``key = value`` config file (``--config``) seeds any long-form option;
explicit flags win. Environment variables configure only the fetch cache
directory and base URL. Exit status is 0 iff the command succeeded; errors
print one ``error[<code>]: <message>`` line to stderr, and each warning one
``warning[<class>]: <message>`` line.

Display rounding: prices 2 decimals; R-squared, chi-square, and p-values 3
decimals. Structured (JSON) output always carries full precision.
"""

from __future__ import annotations

import gc

# Run as a script, the process is process_main's, so its imports run no collection.
if __name__ == "__main__":
    gc.disable()

import argparse
import datetime as dt
import functools
import json
import os
import re
import sys
import warnings
from collections.abc import Sequence
from dataclasses import fields
from importlib import import_module
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import DomainError, MinecostError, ValidationError, _utf8_text
from .pricing import (
    DEFAULT_ELECTRICITY_USD_PER_KWH,
    BacktestConfig,
    CostParams,
    NetworkParams,
    model_price,
)

if TYPE_CHECKING:
    from .backtest import BacktestReport


def _deferred(module: str, name: str) -> Callable:
    """A call of ``minecost.<module>.<name>`` that imports the module when made.

    A subcommand then loads only the modules it runs: ``price`` needs no
    numpy. The forwarders are names of this module, not imports inside the
    handlers, because perfbench/tracing.py patches the names here.
    """
    def forward(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


detect_episodes = _deferred("backtest", "detect_episodes")
episodes_to_dict = _deferred("backtest", "episodes_to_dict")
ratio_series = _deferred("backtest", "ratio_series")
ratio_to_dict = _deferred("backtest", "ratio_to_dict")
regression_to_dict = _deferred("backtest", "regression_to_dict")
run_backtest = _deferred("backtest", "run_backtest")
var_analysis = _deferred("backtest", "var_analysis")
var_to_dict = _deferred("backtest", "var_to_dict")
_csv = _deferred("dataset", "_csv")
_text_lines = _deferred("dataset", "_text_lines")
build_backtest_series = _deferred("dataset", "build_backtest_series")
load_bundled = _deferred("dataset", "load_bundled")
# perfbench/tracing.py patches these names here; the CLI calls none of them:
# tracing's _rows() takes len() of a list or of .entries, and the loaders
# return Observations, so each traced op would fail with AttributeError.
load_efficiency_table = _deferred("dataset", "load_efficiency_table")
load_observations = _deferred("dataset", "load_observations")
load_reward_schedule = _deferred("dataset", "load_reward_schedule")
parse_efficiency_table = _deferred("dataset", "parse_efficiency_table")
parse_observations = _deferred("dataset", "parse_observations")
parse_reward_schedule = _deferred("dataset", "parse_reward_schedule")
log_transform = _deferred("econometrics", "log_transform")
ols_fit = _deferred("econometrics", "ols_fit")

FORMATS = ("table", "json")
INPUT_FILES = ("observations", "efficiency", "rewards")


def _parse_lags(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"lags must be an integer or 'auto', got {text!r}") from None


class Option(NamedTuple):
    """One option of the dataset subcommands, as flag and config-file key."""

    key: str  # config-file key and argparse dest
    flag: str
    convert: Callable
    metavar: str | None
    help: str  # "{}" is filled with the BacktestConfig default
    choices: tuple | None = None


DATASET_OPTIONS = (
    Option("observations", "--observations", Path, "PATH",
           "observations CSV (default: bundled dataset)"),
    Option("efficiency", "--efficiency", Path, "PATH",
           "efficiency CSV (default: bundled table)"),
    Option("rewards", "--rewards", Path, "PATH",
           "reward schedule CSV (default: bundled schedule)"),
    Option("electricity_price", "--electricity", float, "USD_PER_KWH",
           "electricity price (default {})"),
    Option("lags", "--lags", _parse_lags, "N|auto",
           "VAR lag order, or 'auto' to select (default: {})"),
    Option("max_p", "--max-p", int, "N",
           "highest lag order scanned by selection (default {})"),
    Option("entry_k", "--entry-k", float, "K",
           "episode threshold in ratio sigmas (default {:g})"),
    Option("min_len", "--min-len", int, "N", "minimum episode run length (default {})"),
    Option("out_dir", "--out-dir", Path, "DIR",
           "directory for report and figure files (default .)"),
    Option("format", "--format", str, None, "stdout format (default table)", FORMATS),
)
OPTIONS_BY_KEY = {opt.key: opt for opt in DATASET_OPTIONS}


def parse_config_file(path) -> dict:
    """Read a ``key = value`` file into converted values; '#' starts a comment."""
    values = {}
    text = _utf8_text(Path(path).read_bytes(), path, ValidationError)
    for line_no, raw in enumerate(_text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in OPTIONS_BY_KEY:
            raise ValidationError(
                f"{path}:{line_no}: unknown config key {key!r}; "
                f"choose from {', '.join(OPTIONS_BY_KEY)}"
            )
        try:
            values[key] = OPTIONS_BY_KEY[key].convert(text)
        except DomainError:
            raise
        except ValueError:
            raise ValidationError(
                f"{path}:{line_no}: bad {key} value {text!r}"
            ) from None
    return values


def resolve_options(args) -> tuple[BacktestConfig, dict]:
    """Merge config-file values and flags (flags win) and validate them.

    Returns the analysis config and every option set, by key; an input
    path left unset is absent and means the bundled file.
    """
    values = parse_config_file(args.config) if args.config else {}
    for opt in DATASET_OPTIONS:
        flag_value = getattr(args, opt.key, None)
        if flag_value is not None:
            # Converters accept their own output, so flag values argparse
            # already converted pass through unchanged.
            values[opt.key] = opt.convert(flag_value)
    analysis = {f.name for f in fields(BacktestConfig)}
    config = BacktestConfig(
        **{key: v for key, v in values.items() if key in analysis},
        include_timestamp=not getattr(args, "no_provenance_timestamps", False),
    )
    if values.setdefault("format", "table") not in FORMATS:
        raise DomainError(f"unknown output format {values['format']!r}")
    for name in INPUT_FILES:
        if name in values and not values[name].exists():
            raise ValidationError(f"{name} file not found: {values[name]}")
    return config, values


def _label(path: Path | None) -> str:
    """Provenance label of an input: its path's bytes read as UTF-8.

    The label then does not depend on the locale's filesystem encoding; a
    byte that is not UTF-8 stays a surrogate escape, which the artifact
    writer turns back into that byte.
    """
    if path is None:
        return "<bundled>"
    return os.fsencode(path).decode("utf-8", "surrogateescape")


def _load_inputs(options: dict):
    """``(observations, schedule, table)`` and their provenance labels."""
    paths = {name: options.get(name) for name in INPUT_FILES}
    return load_bundled(**paths), {name: _label(path) for name, path in paths.items()}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_price(v: float) -> str:
    return f"{v:.2f}"


def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def render_granger_table(granger) -> str:
    lines = [
        "Granger causality Wald tests",
        f"{'H0':<52}{'chi2':>10}{'df':>5}{'Prob>chi2':>12}",
    ]
    for g in granger:
        flag = " *" if g.p_value < 0.05 else ""
        lines.append(
            f"{g.null_hypothesis():<52}{_fmt3(g.chi2_stat):>10}{g.df:>5}"
            f"{_fmt3(g.p_value):>12}{flag}"
        )
    lines.append("(* significant at the 5% level; descriptive, see caveats)")
    return "\n".join(lines)


def render_report(report: BacktestReport) -> str:
    """Human-readable report table."""
    r = report.ratio_stats
    lines = []
    lines.append("Production-cost backtest report")
    lines.append("=" * 68)
    first, last = report.pair.dates[0], report.pair.dates[-1]
    lines.append(
        f"Observations: {len(report.pair)}  ({first.isoformat()} .. {last.isoformat()})"
    )
    lines.append("")
    lines.append("Market/model price ratio")
    lines.append(
        f"  mean {_fmt3(r.mean)}   sd {_fmt3(r.std)}   "
        f"min {_fmt3(r.min)}   max {_fmt3(r.max)}"
    )
    lines.append("")
    lines.append("Regressions (market on model)")
    lv, lg = report.level_fit, report.log_fit
    lines.append(
        f"  levels : slope {lv.slope:.4f} (se {lv.stderr_slope:.4f})  "
        f"intercept {lv.intercept:.4f}  R^2 {_fmt3(lv.r_squared)}"
    )
    lines.append(
        f"  logs   : slope {lg.slope:.4f} (se {lg.stderr_slope:.4f})  "
        f"intercept {lg.intercept:.4f}  R^2 {_fmt3(lg.r_squared)}"
    )
    lines.append("")
    sel = report.lag_selection
    lines.append(
        f"Lag selection (chosen p = {sel.chosen_p}"
        + (", no order passed whiteness)" if sel.all_failed_whiteness else ")")
    )
    lines.append(f"  {'p':>3}{'AIC':>12}{'BIC':>12}{'Q':>12}{'df':>5}{'p-val':>9}  white")
    for row in sel.rows:
        lines.append(
            f"  {row.p:>3}{row.aic:>12.4f}{row.bic:>12.4f}"
            f"{row.portmanteau_stat:>12.3f}{row.portmanteau_df:>5}"
            f"{row.portmanteau_pvalue:>9.3f}  {'yes' if row.passes_whiteness else 'no'}"
        )
    lines.append("")
    lines.append(
        f"VAR({report.var_model.lag_order}) on log prices, "
        f"{report.var_model.nobs} effective observations"
    )
    lines.append("")
    lines.append(render_granger_table(report.granger_results))
    lines.append("")
    if report.episodes:
        lines.append("Bubble episodes (heuristic threshold rule)")
        for e in report.episodes:
            lines.append(
                f"  {e.start_date.isoformat()} .. {e.end_date.isoformat()}  "
                f"peak ratio {_fmt3(e.peak_ratio)} on {e.peak_date.isoformat()}"
            )
    else:
        lines.append("Bubble episodes: none detected")
    lines.append("")
    lines.append("Caveats")
    for caveat in report.caveats:
        lines.append(f"  - {caveat}")
    lines.append("")
    prov = report.provenance
    lines.append("Provenance")
    lines.append(f"  package version : {prov.get('package_version')}")
    for name, path in sorted(prov.get("input_files", {}).items()):
        lines.append(f"  {name:<16}: {path}")
    params = prov.get("parameters", {})
    lines.append(
        "  parameters      : "
        + ", ".join(f"{k}={params[k]}" for k in sorted(params))
    )
    if "generated_at" in prov:
        lines.append(f"  generated at    : {prov['generated_at']}")
    lines.append("")
    return "\n".join(lines)


_INDENT = "  "


class _Rows:
    """A JSON array of flat objects, given as one column of JSON texts per key.

    :func:`_json_text` lays it out as ``json.dumps(indent=2, sort_keys=True)``
    lays out the list of row dicts: each row joins its values between the
    fixed texts that precede them, so no row dict is built and no value is
    encoded again.
    """

    def __init__(self, /, **columns: list[str]):
        self.keys = sorted(columns)
        self.columns = [columns[key] for key in self.keys]

    def encode(self, depth: int) -> str:
        if not self.columns[0]:
            return "[]"
        inner, field = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * (depth + 2)
        heads = ["," + field + encode_basestring_ascii(key) + ": " for key in self.keys]
        heads[0] = "{" + heads[0][1:]
        parts = []
        for head, column in zip(heads, self.columns):
            parts += (repeat(head), column)
        rows = map("".join, zip(*parts, repeat(inner + "}")))
        return f"[{inner}{(',' + inner).join(rows)}\n{_INDENT * depth}]"


def _json_text(payload, /, **rows: _Rows) -> str:
    """Structured stdout and report.json: sorted keys, two-space indent.

    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` with each
    ``rows[key]`` in place of the one ``[]`` under ``key``, found at the start
    of its line, which no string can forge: strings escape quotes and newlines.
    A NaN or infinity in ``payload`` raises ValueError, as it is no JSON.
    """
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    by_text = {encode_basestring_ascii(key): value for key, value in rows.items()}
    anchor = f"^( *)({'|'.join(map(re.escape, by_text))}): \\[\\]"
    return re.sub(anchor, lambda found: (
        found[0][:-2] + by_text[found[2]].encode(len(found[1]) // 2)
    ), text, flags=re.MULTILINE)


_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _json_items(values: list[float]) -> list[str]:
    """JSON text of each float, from one C encoder call.

    The text of a finite float is its ``repr``, so the CSV writers take it
    as it is; a non-finite value raises ValueError.
    """
    return _COMPACT.encode(values)[1:-1].split(",") if values else []


def _json_dates(texts) -> list[str]:
    """JSON text of each ISO date: the text in quotes, as it needs no escape."""
    return [f'"{text}"' for text in texts]


class SeriesText(NamedTuple):
    """A report's per-date series as text, each date and float formatted once.

    Dates are ISO 8601; prices and ratios are ``repr`` texts, which are also
    their JSON texts. The report.json and figure writers all take theirs
    from one instance.
    """

    dates: Sequence[str]
    ratio_dates: Sequence[str]
    market: Sequence[str]
    model: list[str]
    ratio: list[str]

    @classmethod
    def of(cls, report: BacktestReport, dates: Sequence[str] | None = None,
           market: Sequence[str] | None = None) -> "SeriesText":
        """The texts of ``report``'s series; only those not given are formatted.

        ``dates`` and ``market``, when given, must be the texts this would
        make of ``report.pair.dates`` and ``report.pair.market_prices``, as
        the input texts the observations reader keeps are.
        """
        pair, stats = report.pair, report.ratio_stats
        if dates is None:
            dates = list(map(dt.date.isoformat, pair.dates))
        if market is None:
            market = _json_items(pair.market_prices.tolist())
        ratio_dates = (dates if stats.dates == pair.dates
                       else list(map(dt.date.isoformat, stats.dates)))
        return cls(
            dates,
            ratio_dates,
            market,
            _json_items(pair.model_prices.tolist()),
            _json_items(stats.ratios.tolist()),
        )


def report_json(report: BacktestReport, text: SeriesText | None = None) -> str:
    """report.json: ``json.dumps(report.to_dict(), sort_keys=True, indent=2)``.

    Both take the document from ``BacktestReport._document``; here its
    ``prices`` and ``ratio.series`` are laid out from ``text`` (formatted
    here when not given).
    """
    text = text or SeriesText.of(report)
    dates = _json_dates(text.dates)
    ratio_dates = dates if text.ratio_dates is text.dates else _json_dates(text.ratio_dates)
    return _json_text(
        report._document(prices=[], series=[]),
        prices=_Rows(date=dates, market=text.market, model=text.model),
        series=_Rows(date=ratio_dates, ratio=text.ratio),
    )


def figure1_csv(report: BacktestReport, text: SeriesText | None = None) -> str:
    """figure1.csv: one ``date,ratio`` line per date, floats as ``repr``."""
    text = text or SeriesText.of(report)
    return _csv("date,ratio", text.ratio_dates, text.ratio)


def figure2_csv(report: BacktestReport, text: SeriesText | None = None) -> str:
    """figure2.csv: one ``date,market,model`` line per date, floats as ``repr``."""
    text = text or SeriesText.of(report)
    return _csv("date,market,model", text.dates, text.market, text.model)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_price(args) -> int:
    cost = CostParams(electricity_price=args.electricity, efficiency=args.efficiency)
    net = NetworkParams(difficulty=args.difficulty, block_reward=args.reward)
    price = model_price(cost, net)
    if args.format == "json":
        print(json.dumps({"model_price_usd": price}, sort_keys=True))
    else:
        print(_fmt_price(price))
    return 0


def cmd_backtest(args) -> int:
    config, options = resolve_options(args)
    inputs, labels = _load_inputs(options)
    report = run_backtest(*inputs, config, input_files=labels)
    out_dir = options.get("out_dir", Path("."))
    out_dir.mkdir(parents=True, exist_ok=True)
    text = SeriesText.of(report, inputs[0].date_text, inputs[0].price_text)
    artifacts = {
        "report.txt": render_report(report),
        "report.json": report_json(report, text),
        "figure1.csv": figure1_csv(report, text),
        "figure2.csv": figure2_csv(report, text),
    }
    for name, content in artifacts.items():
        # surrogateescape writes back a path byte that is not UTF-8 (_label).
        (out_dir / name).write_text(content, encoding="utf-8", errors="surrogateescape")
    if options["format"] == "json":
        sys.stdout.write(artifacts["report.json"])
    else:
        sys.stdout.write(artifacts["report.txt"])
        print(f"Artifacts written to {out_dir}/: {', '.join(sorted(artifacts))}")
    return 0


def cmd_regress(args) -> int:
    config, options = resolve_options(args)
    inputs, _ = _load_inputs(options)
    pair = build_backtest_series(*inputs, electricity_price=config.electricity_price)
    lv = ols_fit(pair.model_prices, pair.market_prices)
    lg = ols_fit(log_transform(pair.model_prices), log_transform(pair.market_prices))
    if options["format"] == "json":
        sys.stdout.write(_json_text({
            "level_regression": regression_to_dict(lv),
            "log_regression": regression_to_dict(lg),
        }))
        return 0
    print(f"levels: slope {lv.slope:.6f}  intercept {lv.intercept:.6f}  "
          f"R^2 {_fmt3(lv.r_squared)}")
    print(f"logs  : slope {lg.slope:.6f}  intercept {lg.intercept:.6f}  "
          f"R^2 {_fmt3(lg.r_squared)}")
    return 0


def cmd_var(args) -> int:
    config, options = resolve_options(args)
    inputs, _ = _load_inputs(options)
    pair = build_backtest_series(*inputs, electricity_price=config.electricity_price)
    sel, model, granger = var_analysis(log_transform(pair.market_prices),
                                       log_transform(pair.model_prices), config)
    if options["format"] == "json":
        sys.stdout.write(_json_text(var_to_dict(sel, model, granger)))
        return 0
    print(f"chosen lag order: {sel.chosen_p}"
          + ("  (no order passed whiteness)" if sel.all_failed_whiteness else ""))
    for row in sel.rows:
        print(
            f"  p={row.p}  AIC {row.aic:.4f}  BIC {row.bic:.4f}  "
            f"whiteness p {row.portmanteau_pvalue:.3f} "
            f"({'pass' if row.passes_whiteness else 'fail'})"
        )
    print()
    print(render_granger_table(granger))
    return 0


def cmd_ratio(args) -> int:
    config, options = resolve_options(args)
    inputs, _ = _load_inputs(options)
    pair = build_backtest_series(*inputs, electricity_price=config.electricity_price)
    stats = ratio_series(pair)
    episodes = detect_episodes(stats, entry_k=config.entry_k, min_len=config.min_len)
    if options["format"] == "json":
        series = _Rows(date=_json_dates(map(dt.date.isoformat, stats.dates)),
                       ratio=_json_items(stats.ratios.tolist()))
        sys.stdout.write(_json_text({"ratio": ratio_to_dict(stats, []),
                                     "episodes": episodes_to_dict(episodes)},
                                    series=series))
        return 0
    print(f"ratio mean {_fmt3(stats.mean)}  sd {_fmt3(stats.std)}  "
          f"min {_fmt3(stats.min)}  max {_fmt3(stats.max)}  n {len(stats.ratios)}")
    if episodes:
        for e in episodes:
            print(
                f"episode {e.start_date.isoformat()} .. {e.end_date.isoformat()}  "
                f"peak {_fmt3(e.peak_ratio)} on {e.peak_date.isoformat()}"
            )
    else:
        print("no episodes detected")
    return 0


def cmd_fetch(args) -> int:
    from .fetch import CHART_KINDS, cache_file_for, fetch_remote_series, resample_to_epochs

    kinds = CHART_KINDS if args.kinds is None else [
        k.strip() for k in args.kinds.split(",") if k.strip()
    ]
    fetch = functools.partial(fetch_remote_series, base_url=args.base_url,
                              cache_dir=args.cache_dir, timeout=args.timeout)
    for kind in kinds:
        fetch(kind)
        print(f"{kind}: cached at {cache_file_for(kind, args.cache_dir)}")
    if args.observations_out is not None:
        from .dataset import _parse_named, parse_chart_points, serialize_observations

        # Both charts, whatever --kinds lists: one already fetched comes from the cache.
        difficulty, price = (
            _parse_named(parse_chart_points, fetch(kind),
                         cache_file_for(kind, args.cache_dir))
            for kind in CHART_KINDS
        )
        observations = resample_to_epochs(difficulty, price)
        if not observations:
            raise ValidationError("no observation: every difficulty change precedes "
                                  "the first market price")
        args.observations_out.write_text(serialize_observations(observations),
                                         encoding="utf-8")
        print(f"observations: written to {args.observations_out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_dataset_options(sub, with_outputs=False):
    defaults = BacktestConfig()
    sub.add_argument("--config", metavar="FILE", help="key = value options file")
    for opt in DATASET_OPTIONS:
        if opt.key == "out_dir" and not with_outputs:
            continue
        sub.add_argument(
            opt.flag,
            dest=opt.key,
            # argparse would report a DomainError from _parse_lags as a
            # usage error, so lags is converted with the config-file values.
            type=None if opt.convert is _parse_lags else opt.convert,
            metavar=opt.metavar,
            choices=opt.choices,
            help=opt.help.format(getattr(defaults, opt.key, None)),
        )
    if with_outputs:
        sub.add_argument("--no-provenance-timestamps", action="store_true",
                         help="omit wall-clock timestamps for reproducible output")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the six subcommands."""
    parser = argparse.ArgumentParser(
        prog="minecost",
        description="Production-cost pricing model for bitcoin and its backtest.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    price = commands.add_parser("price", help="evaluate the model price")
    price.add_argument("--difficulty", type=float, required=True)
    price.add_argument("--efficiency", type=float, required=True,
                       metavar="W_PER_GHS")
    price.add_argument("--reward", type=float, required=True, metavar="BTC")
    price.add_argument("--electricity", type=float, metavar="USD_PER_KWH",
                       default=DEFAULT_ELECTRICITY_USD_PER_KWH,
                       help="default %(default)s")
    price.add_argument("--format", choices=FORMATS, default="table")
    price.set_defaults(func=cmd_price)

    for name, summary, handler in (
        ("backtest", "run the full pipeline", cmd_backtest),
        ("regress", "level and log-log regressions", cmd_regress),
        ("var", "lag selection, VAR, Granger tests", cmd_var),
        ("ratio", "ratio statistics and episodes", cmd_ratio),
    ):
        sub = commands.add_parser(name, help=summary)
        _add_dataset_options(sub, with_outputs=name == "backtest")
        sub.set_defaults(func=handler)

    fetch = commands.add_parser("fetch", help="download raw chart series")
    fetch.add_argument("--base-url", dest="base_url", metavar="URL",
                       help="chart endpoint root (or MINECOST_BASE_URL)")
    fetch.add_argument("--kinds",
                       help="comma-separated chart kinds (default: all)")
    fetch.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                       help="cache directory (or MINECOST_CACHE_DIR)")
    fetch.add_argument("--timeout", type=float, default=30.0)
    fetch.add_argument("--observations-out", dest="observations_out", type=Path,
                       metavar="FILE",
                       help="also write both charts resampled to observations CSV")
    fetch.set_defaults(func=cmd_fetch)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning[{category.__name__}]: {message}\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call in a process.

    Parsing changes no state of the parser, so one serves every call, and
    a process that calls :func:`main` many times builds it once.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Only the text changes: a caller that records warnings still gets them.
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except MinecostError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: a path or text that stdout (or the filesystem
        # encoding) cannot represent, for example under LC_ALL=C.
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


def process_main() -> int:
    """:func:`main` as the whole of a ``minecost`` process, its exit status returned.

    The process ends when this returns, and the exit frees all it built, so
    the cyclic garbage collector is off while it runs and the heap is frozen
    at the end: the imports of a subcommand (numpy's among them) run no
    collection, and interpreter shutdown skips the full one over what they
    left. Run as ``python -m minecost.cli``, the module turns the collector
    off before its own imports too. Callers of :func:`main` keep their own
    collector state.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(process_main())
