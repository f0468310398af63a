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
    _json_dates,
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
# The place of the drawn key: no drawn text equals it, and the test names it.
SLOT = ("slot",)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(TEXT, children, max_size=3).map(lambda d: {**d, SLOT: []}),
    ),
    max_leaves=12,
)
# Row tables: one to three keys, and one to three rows of scalars under them.
TABLES = st.tuples(
    st.lists(TEXT, min_size=1, max_size=3, unique=True),
    st.lists(st.tuples(SCALARS, SCALARS, SCALARS), min_size=1, max_size=3),
).map(lambda table: (table[0], [dict(zip(table[0], row)) for row in table[1]]))


def _named(value, key):
    """``value`` with each slot named ``key``."""
    if isinstance(value, dict):
        return {key if name == SLOT else name: _named(item, key)
                for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_named(item, key) for item in value)
    return value


def _with_rows(value, key, rows):
    """``value`` with ``rows`` under each ``key`` that holds an empty array."""
    if isinstance(value, dict):
        return {name: rows if name == key and isinstance(item, (list, tuple)) and not item
                else _with_rows(item, key, rows) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_with_rows(item, key, rows) for item in value]
    return value


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(TEXT, PAYLOADS, TABLES)
@example("rows", {}, (["a"], [{"a": 1}]))
@example("empty", {"rows": [{"a": "}\n,{"}, {"b": 2}], "empty": [{}, []]},
         (["b", "a"], [{"a": "}", "b": None}, {"a": 1.5, "b": True}]))
@example("x", [{"x": float("nan"), "y": float("-inf")}, {"x": []}],
         (["x"], [{"x": float("inf")}]))
@example("t", {"pair": (1, "a"), "rows": ({"b": 2},), "nested": [(3, [4])], "t": ()},
         (["self"], []))
def test_json_text_equals_json_dumps(key, payload, table):
    """Each ``key: []`` at any depth is the ``_Rows``, as json.dumps lays out its rows."""
    payload, (keys, row_dicts) = _named(payload, key), table
    rows = _Rows(**{name: [json.dumps(row[name]) for row in row_dicts] for name in keys})
    expected = _with_rows(payload, key, row_dicts)
    assert _json_text(payload, **{key: rows}) == json.dumps(
        expected, sort_keys=True, indent=2) + "\n"


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
    texts = ([json.dumps(value) for value in column] for column in (isos, xs, ys))
    columns = _Rows(**dict(zip(keys, texts)))
    row_dicts = [dict(zip(keys, row)) for row in zip(isos, xs, ys)]
    expected = json.dumps(_nest(row_dicts, depth), sort_keys=True, indent=2) + "\n"
    if depth:
        assert _json_text(_nest([], depth), level0=columns) == expected
    else:
        assert columns.encode(0) + "\n" == expected


@pytest.mark.parametrize("look_alikes", [
    # Keys, sorted before the real ones, whose JSON text holds an anchor.
    {'a"prices': [], '"prices": []': [], "aprices": [], "aseries": [], 'r"series': []},
    {'\n"prices": []': [], "prices\n": [], 'a\n  "prices": []': 0, "series\n": []},
    # String values that hold an anchor, alone or after a newline.
    {"a": '"prices": []', "b": ['\n  "prices": []', '"series": []\n'],
     "caveats": '\n    "series": []'},
], ids=["keys", "keys-with-newlines", "values"])
def test_only_the_keys_themselves_are_spliced(look_alikes):
    payload = {**look_alikes, "prices": [], "ratio": {**look_alikes, "series": []}}
    rows = _Rows(date=['"2017-01-07"'], ratio=["1.5"])
    row_dicts = [{"date": "2017-01-07", "ratio": 1.5}]
    expected = {**look_alikes, "prices": row_dicts,
                "ratio": {**look_alikes, "series": row_dicts}}
    assert _json_text(payload, prices=rows, series=rows) == json.dumps(
        expected, sort_keys=True, indent=2) + "\n"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)), st.lists(st.dates()))
@example([-0.0, 5e-324, 1e308, 1e-05, 1e16, 0.30000000000000004], [dt.date(1, 1, 1)])
def test_series_texts_are_the_json_text_and_repr_of_each_value(xs, days):
    texts = [json.dumps(x) for x in xs]
    assert _json_items(xs) == texts == list(map(repr, xs))
    isos = [day.isoformat() for day in days]
    assert _json_dates(isos) == [json.dumps(iso) for iso in isos]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_json_items_rejects_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_items([1.5, bad])


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
