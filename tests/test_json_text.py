"""The writers behind report.json and the figure CSVs equal their references.

The references are ``json.dumps(..., sort_keys=True, indent=2)`` for the
JSON and one ``f"{date.isoformat()},{float(x)!r}"`` line per row for the
CSVs, the form both files have had since the first release.
"""

import datetime as dt
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minecost import BacktestConfig, ObservationRecord, RewardSchedule, load_bundled, run_backtest
from minecost.cli import (
    _csv_floats,
    _json_items,
    _json_text,
    _Rows,
    figure1_csv,
    figure2_csv,
    report_json,
)

# Text that looks like the layout the writers add: braces, commas, and
# newlines, which the encoder must escape for the added line breaks to be
# the only ones.
TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(["}", "{", ",", "\n", "  ", '"', "é", " "]))
    .map("".join),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
ROWS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1, max_size=3), min_size=1, max_size=4)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(PAYLOADS)
@example({})
@example({"rows": [{"a": "}\n,{"}, {"b": 2}], "empty": [{}, []]})
@example([{"x": float("nan"), "y": float("-inf")}, {"x": float("inf")}])
@example({"pair": (1, "a"), "rows": ({"b": 2},), "nested": [(3, [4])]})
def test_json_text_equals_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e308]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
DAY = dt.date(2017, 1, 7)


def _nest(value, depth):
    for level in range(depth):
        value = {f"level{level}": value, "after": level}
    return value


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.tuples(st.dates(), FLOATS, FLOATS), max_size=5),
    st.lists(TEXT, min_size=3, max_size=3, unique=True),
    st.integers(0, 3),
)
@example([(DAY, x, -x) for x in SPECIAL], ["date", "market", "model"], 1)
@example([(DAY, float("nan"), -0.0)], ["date", "ratio", "x"], 2)
@example([(DAY, 5e-324, 1e308)], ["b", "a", "self"], 0)
@example([], ["date", "market", "model"], 1)
def test_column_rows_equal_json_dumps_of_row_dicts(rows, keys, depth):
    isos = [day.isoformat() for day, _, _ in rows]
    xs = [x for _, x, _ in rows]
    ys = [y for _, _, y in rows]
    columns = _Rows(**dict(zip(keys, map(_json_items, (isos, xs, ys)))))
    row_dicts = [dict(zip(keys, row)) for row in zip(isos, xs, ys)]
    expected = json.dumps(_nest(row_dicts, depth), sort_keys=True, indent=2) + "\n"
    assert _json_text(_nest(columns, depth)) == expected
    assert _csv_floats(_json_items(xs)) == list(map(repr, xs))


def _long_history(n=6000):
    """``n`` daily records: random-walk difficulty and price, inline efficiency."""
    rng = np.random.default_rng(6000)
    days = [dt.date(2002, 1, 1) + dt.timedelta(days=i) for i in range(n)]
    difficulty = 1e9 * np.exp(np.cumsum(0.01 + 0.02 * rng.standard_normal(n)))
    efficiency = 2.0 * np.exp(-np.arange(n) / 2000.0)
    market = 500.0 * np.exp(np.cumsum(0.003 + 0.04 * rng.standard_normal(n)))
    records = [
        ObservationRecord(day, float(d), float(m), float(e))
        for day, d, m, e in zip(days, difficulty, market, efficiency)
    ]
    return records, RewardSchedule(entries=((dt.date(2001, 1, 1), 25.0),)), None


@pytest.fixture(
    scope="module",
    params=["bundled", "bundled-auto", "long-history-auto", "bundled-own-ratio-dates"],
)
def report(request):
    inputs = _long_history() if request.param.startswith("long") else load_bundled()
    lags = None if "auto" in request.param else 2
    report = run_backtest(*inputs, BacktestConfig(lags=lags, include_timestamp=False))
    if request.param.endswith("own-ratio-dates"):
        # A report assembled by hand may date its ratios apart from its prices.
        dates = tuple(d + dt.timedelta(days=1) for d in report.ratio_stats.dates)
        report = replace(report, ratio_stats=replace(report.ratio_stats, dates=dates))
    return report


def test_report_json_equals_json_dumps_of_to_dict(report):
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert report_json(report) == expected


def test_figures_equal_one_repr_line_per_row(report):
    stats, pair = report.ratio_stats, report.pair
    assert figure1_csv(report) == "date,ratio\n" + "".join(
        f"{d.isoformat()},{float(x)!r}\n" for d, x in zip(stats.dates, stats.ratios)
    )
    assert figure2_csv(report) == "date,market,model\n" + "".join(
        f"{d.isoformat()},{float(a)!r},{float(b)!r}\n"
        for d, a, b in zip(pair.dates, pair.market_prices, pair.model_prices)
    )
