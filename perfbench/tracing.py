"""Spans and counts recorded from outside minecost, at its public functions.

Each wrapper replaces a function at the name its caller looks up (for
example ``minecost.backtest.select_lag_order``, which ``run_backtest``
calls), so it sees exactly the calls made through that name. Wrappers are
installed for one traced op and removed afterwards; an untraced op runs the
original functions. Spans (name, start, end, parent, op) stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from importlib import import_module

# (owner, attribute, span name). "module:Class" names a class attribute.
SPANS = (
    ("minecost.cli", "main", "cli.main"),
    ("minecost.cli", "report_json", "cli.report_json"),
    ("minecost.cli", "render_report", "cli.render"),
    ("minecost.cli", "figure1_csv", "cli.render"),
    ("minecost.cli", "figure2_csv", "cli.render"),
    ("minecost.cli", "load_observations", "dataset.parse"),
    ("minecost.cli", "load_reward_schedule", "dataset.parse"),
    ("minecost.cli", "load_efficiency_table", "dataset.parse"),
    ("minecost.cli", "parse_observations", "dataset.parse"),
    ("minecost.cli", "parse_reward_schedule", "dataset.parse"),
    ("minecost.cli", "parse_efficiency_table", "dataset.parse"),
    ("minecost.cli", "build_backtest_series", "dataset.pair"),
    ("minecost.backtest", "build_backtest_series", "dataset.pair"),
    ("minecost.cli", "run_backtest", "backtest.run_backtest"),
    ("minecost.backtest", "run_backtest", "backtest.run_backtest"),
    ("minecost.backtest:BacktestReport", "to_dict", "backtest.to_dict"),
    ("minecost.cli", "detect_episodes", "backtest.episodes"),
    ("minecost.backtest", "detect_episodes", "backtest.episodes"),
    ("minecost.backtest", "select_lag_order", "econometrics.select"),
    ("minecost.backtest", "var_fit", "econometrics.var_fit"),
    ("minecost.econometrics", "var_fit", "econometrics.var_fit"),
    ("minecost.cli", "ols_fit", "econometrics.ols"),
    ("minecost.backtest", "ols_fit", "econometrics.ols"),
    ("minecost.backtest", "granger_wald", "econometrics.granger"),
)

# (owner, attribute, counter name): calls counted, not timed, because they
# run thousands of times per op and a span each would swamp the op.
COUNTERS = (
    ("minecost.econometrics", "ljung_box", "econometrics.ljung_box_calls"),
    ("minecost.dataset", "model_price", "pricing.model_price_calls"),
    ("minecost.dataset:EfficiencyTable", "efficiency_at", "dataset.efficiency_lookups"),
)

OP_SPAN = "op"

# Per-layer metric -> span whose self time (ms per op) it reports.
SELF_TIME_METRICS = {
    "cli.main_self_ms": "cli.main",
    "cli.report_json_ms": "cli.report_json",
    "cli.render_ms": "cli.render",
    "dataset.parse_ms": "dataset.parse",
    "dataset.pair_ms": "dataset.pair",
    "econometrics.select_ms": "econometrics.select",
    "econometrics.var_fit_ms": "econometrics.var_fit",
    "econometrics.ols_ms": "econometrics.ols",
    "econometrics.granger_ms": "econometrics.granger",
    "backtest.self_ms": "backtest.run_backtest",
    "backtest.to_dict_ms": "backtest.to_dict",
    "backtest.episodes_ms": "backtest.episodes",
}
COUNT_METRICS = (
    "dataset.rows_parsed",
    "dataset.efficiency_lookups",
    "pricing.model_price_calls",
    "econometrics.var_fit_calls",
    "econometrics.ljung_box_calls",
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = import_module(module)
    return getattr(owner, cls) if cls else owner


def _rows(parsed) -> int:
    return len(parsed) if isinstance(parsed, list) else len(parsed.entries)


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def install(self) -> None:
        for path, attr, name in SPANS:
            self._replace(path, attr, functools.partial(self._timed, name))
        for path, attr, name in COUNTERS:
            self._replace(path, attr, functools.partial(self._counted, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, path, attr, wrap) -> None:
        owner = _owner(path)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def _add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if name == "dataset.parse":
                self._add("dataset.rows_parsed", _rows(result))
            return result

        return wrapper

    def _counted(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._add(name, 1)
            return original(*args, **kwargs)

        return wrapper

    @contextmanager
    def op(self, op_id):
        """Install the wrappers and time one op as a root span."""
        self.install()
        self._op = op_id
        record = self._open(OP_SPAN)
        try:
            yield record
        finally:
            self._close(record)
            self._op = None
            self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def absorb(self, path, op_id) -> list[list]:
        """Append the spans and counts another process dumped for op ``op_id``."""
        with open(path) as fh:
            dumped = json.load(fh)
        offset = len(self.spans)
        spans = [
            [name, start, end, parent + offset if parent >= 0 else -1, op_id]
            for name, start, end, parent, _ in dumped["spans"]
        ]
        self.spans.extend(spans)
        for name, n in dumped["counts"].items():
            self._add(name, n)
        return spans


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time in seconds per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        totals[name] = totals.get(name, 0.0) + (end - start) - children
    return totals


def layer_metrics(spans: list[list], counts: dict[str, int], n_ops: int) -> dict:
    """Per-op means of every span self time (ms) and counter."""
    selfs = self_times(spans)
    metrics = {
        metric: 1e3 * selfs.get(span, 0.0) / n_ops
        for metric, span in SELF_TIME_METRICS.items()
    }
    var_fits = sum(1 for span in spans if span[0] == "econometrics.var_fit")
    all_counts = dict(counts, **{"econometrics.var_fit_calls": var_fits})
    for name in COUNT_METRICS:
        metrics[name] = all_counts.get(name, 0) / n_ops
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import milliseconds from ``python -X importtime`` output.

    ``minecost`` is the cumulative time of every top-level minecost import
    minus the numpy and requests imports nested inside them; ``total`` sums
    all top-level imports.
    """
    entries = []  # (depth, name, cumulative us), in the order printed
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        label = fields[2].rstrip()
        depth = (len(label) - len(label.lstrip())) // 2
        entries.append((depth, label.strip(), int(fields[1])))
    result = {"numpy": 0.0, "requests": 0.0, "minecost": 0.0, "total": 0.0}
    top = min((depth for depth, _, _ in entries), default=0)
    for index, (depth, name, cumulative) in enumerate(entries):
        if name in ("numpy", "requests"):
            result[name] = cumulative / 1e3
        if depth != top:
            continue
        result["total"] += cumulative / 1e3
        if name.split(".")[0] == "minecost":
            nested = 0
            j = index - 1
            while j >= 0 and entries[j][0] > depth:
                if entries[j][1] in ("numpy", "requests"):
                    nested += entries[j][2]
                j -= 1
            result["minecost"] += (cumulative - nested) / 1e3
    return result
