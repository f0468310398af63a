#!/usr/bin/env python3
"""Minimum wall time of each backtest stage on a seeded long history.

Finds which stage of parse -> pair -> fit -> render a change should target,
and shows what it saved. Run from the repo root:

    PYTHONPATH=src python3 tools/stage_times.py [--rows N] [--repeat N] [--variant V]

The inputs are the benchmark's daily history ``V`` (``perfbench/inputs.py``,
loaded here without changing it), cut to its first ``N`` observations. Each
stage runs ``--repeat`` times in this process, in rounds that run each
stage once, and its fastest call is printed, in milliseconds, as JSON:

* ``load_observations``: the columns the library and the CLI read;
* ``load_step_tables``: the efficiency table and the reward schedule;
* ``build_backtest_series`` and ``run_backtest`` (``--lags auto``): on
  those columns;
* ``series_text``, ``report_json`` and ``figure_csvs``: the writers of
  ``backtest``'s artifacts, ``series_text`` given the input texts the
  columns kept, as ``backtest`` gives them;
* ``series_text_formatted``: the same texts with every column formatted,
  as for a library caller or an input in another form;
* ``cli_main``: one in-process ``cli.main`` of ``backtest --lags auto`` on
  the three files, as the benchmark's long-history op runs it: parsing its
  arguments, every stage above and writing the artifacts;
* ``run_backtest_bundled``: ``run_backtest`` (``--lags auto``) on the
  bundled 126 observations, the benchmark's sweep op, where the per-call
  overhead of nine small fits dominates.

Layers inside ``run_backtest`` are timed on their own under ``layers_ms``,
on the history:

* ``select_lag_order``: the lag scan (orders 1..8) on the log market and
  model prices;
* ``ols_fit``: both regressions, market on model price in levels and in logs;
* ``granger_wald``: both directions of the Granger test of the chosen VAR.

Compare two checkouts by running both on the same machine, alternately.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from minecost import backtest, cli, dataset, econometrics

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _history_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_history(variant: int, rows: int, directory: Path) -> dict[str, Path]:
    """The three input files of history ``variant``, cut to ``rows`` observations."""
    paths = _history_inputs().write_long_history(variant, directory)
    lines = paths["observations"].read_text().splitlines(keepends=True)
    paths["observations"].write_text("".join(lines[:rows + 1]))
    return paths


def fastest(calls: dict, repeat: int) -> dict[str, float]:
    """Milliseconds of the fastest call of each of ``calls``, by name.

    The calls run in ``repeat`` rounds, each call once per round, so a
    drift in the machine's speed reaches every stage alike.
    """
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(repeat):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: 1e3 * seconds for name, seconds in best.items()}


def backtest_main(paths: dict[str, Path]) -> None:
    """``minecost backtest --lags auto`` in this process, its stdout dropped."""
    argv = ["backtest", "--lags", "auto", "--no-provenance-timestamps",
            "--out-dir", str(paths["observations"].parent / "out")]
    for name in ("observations", "efficiency", "rewards"):
        argv += [f"--{name}", str(paths[name])]
    with redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"minecost {' '.join(argv)} failed")


def stage_times(paths: dict[str, Path], repeat: int) -> tuple[dict, dict]:
    """Fastest ms of each stage, and of each layer inside ``run_backtest``."""
    schedule = dataset.load_reward_schedule(paths["rewards"])
    table = dataset.load_efficiency_table(paths["efficiency"])
    config = backtest.BacktestConfig(lags=None, include_timestamp=False)
    observations = dataset.load_observations(paths["observations"])
    report = backtest.run_backtest(observations, schedule, table, config)
    kept = (observations.date_text, observations.price_text)
    text = cli.SeriesText.of(report, *kept)
    bundled = dataset.load_bundled()
    market, model = report.pair.market_prices, report.pair.model_prices
    log_market, log_model = np.log(market), np.log(model)
    logs = np.column_stack([log_market, log_model])
    names = report.var_model.names
    stages = {
        "load_observations": lambda: dataset.load_observations(paths["observations"]),
        "load_step_tables": lambda: (dataset.load_efficiency_table(paths["efficiency"]),
                                     dataset.load_reward_schedule(paths["rewards"])),
        "build_backtest_series":
            lambda: dataset.build_backtest_series(observations, schedule, table),
        "run_backtest": lambda: backtest.run_backtest(observations, schedule, table, config),
        "series_text": lambda: cli.SeriesText.of(report, *kept),
        "series_text_formatted": lambda: cli.SeriesText.of(report),
        "report_json": lambda: cli.report_json(report, text),
        "figure_csvs": lambda: (cli.figure1_csv(report, text), cli.figure2_csv(report, text)),
        "cli_main": lambda: backtest_main(paths),
        "run_backtest_bundled": lambda: backtest.run_backtest(*bundled, config),
    }
    layers = {
        "select_lag_order": lambda: econometrics.select_lag_order(logs, config.max_p),
        "ols_fit": lambda: (econometrics.ols_fit(model, market),
                            econometrics.ols_fit(log_model, log_market)),
        "granger_wald": lambda: [econometrics.granger_wald(report.var_model, cause, effect)
                                 for cause, effect in (names, names[::-1])],
    }
    times = fastest({**stages, **layers}, repeat)
    return ({name: times[name] for name in stages},
            {name: times[name] for name in layers})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=6000, help="observations (max 6000)")
    parser.add_argument("--repeat", type=int, default=15, help="calls per stage")
    parser.add_argument("--variant", type=int, default=3, help="history variant 0..31")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_history(args.variant, args.rows, Path(scratch))
        times, layers = stage_times(paths, args.repeat)
    result = {"rows": args.rows, "repeat": args.repeat, "variant": args.variant,
              "ms": {name: round(ms, 3) for name, ms in times.items()},
              "layers_ms": {name: round(ms, 3) for name, ms in layers.items()}}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
