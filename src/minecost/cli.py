"""Command-line surface: model pricing, backtests, and individual analyses.

Subcommands:

* ``price``    - evaluate the production-cost price for given inputs.
* ``backtest`` - full pipeline; writes report.txt, report.json, figure1.csv
  (date, ratio) and figure2.csv (date, market, model), as UTF-8.
* ``regress``  - level and log-log regressions only.
* ``var``      - lag selection, VAR fit, and both Granger directions.
* ``ratio``    - ratio statistics and episode detection.
* ``fetch``    - download raw difficulty / market-price charts to the cache.

A ``key = value`` config file (``--config``) seeds any long-form option;
explicit flags win. Environment variables configure only the fetch cache
directory and base URL. Exit status is 0 iff the command succeeded; errors
print one ``error[<code>]: <message>`` line to stderr, and each warning one
``warning[<class>]: <message>`` line.

Display rounding: prices 2 decimals; R-squared, chi-square, and p-values 3
decimals. Structured (JSON) output always carries full precision.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import os
import sys
import warnings
from dataclasses import fields
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from .backtest import (
    BacktestConfig,
    BacktestReport,
    RatioStats,
    _ratio_moments,
    detect_episodes,
    episodes_to_dict,
    ratio_series,
    regression_to_dict,
    run_backtest,
)
from .dataset import build_backtest_series, load_bundled
# perfbench/tracing.py patches these names here, so they stay imported.
from .dataset import (  # noqa: F401
    load_efficiency_table,
    load_observations,
    load_reward_schedule,
    parse_efficiency_table,
    parse_observations,
    parse_reward_schedule,
)
from .econometrics import log_transform, ols_fit
from .errors import DomainError, MinecostError, ValidationError
from .fetch import CHART_KINDS, cache_file_for, fetch_remote_series
from .pricing import (
    DEFAULT_ELECTRICITY_USD_PER_KWH,
    CostParams,
    NetworkParams,
    model_price,
)

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
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValidationError(
            f"{path}:{line_no}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        ) from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
    """Records, schedule, table and their provenance labels."""
    paths = {name: options.get(name) for name in INPUT_FILES}
    labels = {name: _label(path) for name, path in paths.items()}
    return (*load_bundled(**paths), labels)


def _run_report(config: BacktestConfig, options: dict) -> BacktestReport:
    records, schedule, table, input_files = _load_inputs(options)
    return run_backtest(records, schedule, table, config, input_files=input_files)


def _load_pair(config: BacktestConfig, options: dict):
    """Paired series only, for the subcommands that skip the VAR stage."""
    records, schedule, table, _ = _load_inputs(options)
    return build_backtest_series(
        records, schedule, table, electricity_price=config.electricity_price
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt_price(v: float) -> str:
    return f"{v:.2f}"


def _fmt3(v: float) -> str:
    return f"{v:.3f}"


def render_granger_table(report: BacktestReport) -> str:
    lines = [
        "Granger causality Wald tests",
        f"{'H0':<52}{'chi2':>10}{'df':>5}{'Prob>chi2':>12}",
    ]
    for g in report.granger_results:
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
    lines.append(render_granger_table(report))
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

    :func:`_encode` lays it out as ``json.dumps(indent=2, sort_keys=True)``
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


_CONTAINERS = (dict, list, tuple, _Rows)


@functools.cache
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """C encoder whose item separator starts a line indented ``depth`` levels."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * depth, ": "))


def _is_flat(values) -> bool:
    """True when no value is a container (looped over in C, by type)."""
    return not any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _encode(value, depth: int) -> str:
    """``value`` laid out as ``json.dumps(indent=2, sort_keys=True)`` at ``depth``.

    The C encoder writes a flat container in one call; a line break only
    needs to be added where the indented layout opens or closes it. A
    :class:`_Rows` writes itself. Anything else recurses; its dict keys must
    be strings.
    """
    if isinstance(value, _Rows):
        return value.encode(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return _flat_encoder(depth).encode(value)
    inner, outer = "\n" + _INDENT * (depth + 1), "\n" + _INDENT * depth
    if _is_flat(value.values() if isinstance(value, dict) else value):
        text = _flat_encoder(depth + 1).encode(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    # An f-string copies a long array's text once, where "+" would per operand.
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {_encode(item, depth + 1)}"
            for key, item in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{outer}}}"
    items = [_encode(item, depth + 1) for item in value]
    return f"[{inner}{(',' + inner).join(items)}{outer}]"


def _json_text(payload: dict) -> str:
    """Structured stdout and report.json: sorted keys, two-space indent.

    Byte for byte ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``
    (with each :class:`_Rows` standing for its list of row dicts), but
    written mostly by the C encoder, which ``indent`` would disable.
    """
    return _encode(payload, 0) + "\n"


_COMPACT = json.JSONEncoder(separators=(",", ":"))
# JSON spells the non-finite floats differently from repr; CSV cells use repr.
_CSV_FLOATS = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _json_items(values: list) -> list[str]:
    """JSON text of each value, from one C encoder call.

    The values must encode without a comma: floats (written as ``repr``
    writes them when finite) and ISO dates.
    """
    return _COMPACT.encode(values)[1:-1].split(",") if values else []


def _csv_floats(texts: list[str]) -> list[str]:
    """``repr`` of each float, from its JSON text."""
    return [_CSV_FLOATS.get(text, text) for text in texts]


class SeriesText(NamedTuple):
    """A report's per-date series as text, each date and float formatted once.

    Dates are ISO 8601; prices and ratios are JSON number texts. The
    report.json and figure writers all take theirs from one instance.
    """

    dates: list[str]
    ratio_dates: list[str]
    market: list[str]
    model: list[str]
    ratio: list[str]

    @classmethod
    def of(cls, report: BacktestReport) -> "SeriesText":
        pair, stats = report.pair, report.ratio_stats
        dates = list(map(dt.date.isoformat, pair.dates))
        ratio_dates = (dates if stats.dates == pair.dates
                       else list(map(dt.date.isoformat, stats.dates)))
        return cls(
            dates,
            ratio_dates,
            _json_items(pair.market_prices.tolist()),
            _json_items(pair.model_prices.tolist()),
            _json_items(stats.ratios.tolist()),
        )


def _ratio_json(stats: RatioStats, dates: list[str], ratios: list[str]) -> dict:
    """``ratio_to_dict(stats)``, with its series as rows of JSON texts."""
    return dict(_ratio_moments(stats), series=_Rows(date=dates, ratio=ratios))


def report_json(report: BacktestReport, text: SeriesText | None = None) -> str:
    """report.json: ``json.dumps(report.to_dict(), sort_keys=True, indent=2)``.

    ``prices`` and ``ratio.series`` are written from ``text`` (formatted
    here when not given); the rest comes from the report's row-free payload.
    """
    text = text or SeriesText.of(report)
    dates = _json_items(text.dates)
    ratio_dates = dates if text.ratio_dates is text.dates else _json_items(text.ratio_dates)
    return _json_text({
        "ratio": _ratio_json(report.ratio_stats, ratio_dates, text.ratio),
        "prices": _Rows(date=dates, market=text.market, model=text.model),
        **report._payload(),
    })


def _csv(header: str, *columns: list[str]) -> str:
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def figure1_csv(report: BacktestReport, text: SeriesText | None = None) -> str:
    """figure1.csv: one ``date,ratio`` line per date, floats as ``repr``."""
    text = text or SeriesText.of(report)
    return _csv("date,ratio", text.ratio_dates, _csv_floats(text.ratio))


def figure2_csv(report: BacktestReport, text: SeriesText | None = None) -> str:
    """figure2.csv: one ``date,market,model`` line per date, floats as ``repr``."""
    text = text or SeriesText.of(report)
    return _csv("date,market,model", text.dates,
                _csv_floats(text.market), _csv_floats(text.model))


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
    report = _run_report(config, options)
    out_dir = options.get("out_dir", Path("."))
    out_dir.mkdir(parents=True, exist_ok=True)
    text = SeriesText.of(report)
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
    pair = _load_pair(config, options)
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
    report = _run_report(config, options)
    if options["format"] == "json":
        payload = report._payload()
        sys.stdout.write(_json_text(
            {key: payload[key] for key in ("lag_selection", "var", "granger")}
        ))
        return 0
    sel = report.lag_selection
    print(f"chosen lag order: {sel.chosen_p}"
          + ("  (no order passed whiteness)" if sel.all_failed_whiteness else ""))
    for row in sel.rows:
        print(
            f"  p={row.p}  AIC {row.aic:.4f}  BIC {row.bic:.4f}  "
            f"whiteness p {row.portmanteau_pvalue:.3f} "
            f"({'pass' if row.passes_whiteness else 'fail'})"
        )
    print()
    print(render_granger_table(report))
    return 0


def cmd_ratio(args) -> int:
    config, options = resolve_options(args)
    pair = _load_pair(config, options)
    stats = ratio_series(pair)
    episodes = detect_episodes(stats, entry_k=config.entry_k, min_len=config.min_len)
    if options["format"] == "json":
        ratio = _ratio_json(stats, _json_items(list(map(dt.date.isoformat, stats.dates))),
                            _json_items(stats.ratios.tolist()))
        sys.stdout.write(_json_text({"ratio": ratio, "episodes": episodes_to_dict(episodes)}))
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
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        fetch_remote_series(
            kind,
            base_url=args.base_url,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
        )
        print(f"{kind}: cached at {cache_file_for(kind, args.cache_dir)}")
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
    price.add_argument("--format", choices=("table", "json"), default="table")
    price.set_defaults(func=cmd_price)

    backtest = commands.add_parser("backtest", help="run the full pipeline")
    _add_dataset_options(backtest, with_outputs=True)
    backtest.set_defaults(func=cmd_backtest)

    regress = commands.add_parser("regress", help="level and log-log regressions")
    _add_dataset_options(regress)
    regress.set_defaults(func=cmd_regress)

    var = commands.add_parser("var", help="lag selection, VAR, Granger tests")
    _add_dataset_options(var)
    var.set_defaults(func=cmd_var)

    ratio = commands.add_parser("ratio", help="ratio statistics and episodes")
    _add_dataset_options(ratio)
    ratio.set_defaults(func=cmd_ratio)

    fetch = commands.add_parser("fetch", help="download raw chart series")
    fetch.add_argument("--base-url", dest="base_url", metavar="URL",
                       help="chart endpoint root (or MINECOST_BASE_URL)")
    fetch.add_argument("--kinds", default=",".join(CHART_KINDS),
                       help="comma-separated chart kinds (default: all)")
    fetch.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                       help="cache directory (or MINECOST_CACHE_DIR)")
    fetch.add_argument("--timeout", type=float, default=30.0)
    fetch.set_defaults(func=cmd_fetch)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning[{category.__name__}]: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
