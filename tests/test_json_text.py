"""The indent-2 JSON writer behind report.json equals ``json.dumps``."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from minecost.cli import _json_text

# Text that looks like the layout the writer splices: braces, commas, and
# newlines, which the encoder must escape for the row splice to be exact.
TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(["}", "{", ",", "\n", "  ", '"', "é", " "]))
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
