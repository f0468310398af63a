#!/usr/bin/env python3
"""Compare two JSON reports: floats by relative difference, the rest exactly.

Reviews a numerical-method change, which may move floats but nothing else.
Both documents are walked together. Run from the repo root:

    python3 tools/report_diff.py A.json B.json

It prints the largest relative float difference, ``|a - b| / max(|a|, |b|)``,
with its JSON path (for example ``var.coef_matrices[1][0][1]``). Any other
difference is printed one per line and makes the exit status 1: a key, an int
or bool, a string (dates included), a list length, or a value's type.
"""

from __future__ import annotations

import json
import math
import sys


def relative_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(a, b):
    """Walk ``a`` and ``b`` together.

    Returns ``(float_diffs, mismatches)``: ``(relative difference, path)``
    for every pair of floats, and one message per other difference.
    """
    floats, mismatches = [], []

    def walk(x, y, here):
        if isinstance(x, float) and isinstance(y, float):
            floats.append((relative_difference(x, y), here))
        elif type(x) is not type(y):
            mismatches.append(f"{here or '<root>'}: {x!r} != {y!r}")
        elif isinstance(x, dict):
            if x.keys() != y.keys():
                mismatches.append(
                    f"{here or '<root>'}: keys differ: {sorted(x.keys() ^ y.keys())}"
                )
            for key in sorted(x.keys() & y.keys()):
                walk(x[key], y[key], f"{here}.{key}" if here else key)
        elif isinstance(x, list):
            if len(x) != len(y):
                mismatches.append(
                    f"{here or '<root>'}: list lengths differ: {len(x)} != {len(y)}"
                )
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{here}[{i}]")
        elif x != y:
            mismatches.append(f"{here or '<root>'}: {x!r} != {y!r}")

    walk(a, b, "")
    return floats, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for name in argv:
        with open(name, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    floats, mismatches = compare(*docs)
    changed = sum(1 for rel, _ in floats if rel > 0.0)
    if floats:
        rel, where = max(floats)
        print(
            f"max relative float difference {rel:.3e} at {where} "
            f"({changed} of {len(floats)} floats differ)"
        )
    else:
        print("no floats compared")
    for line in mismatches:
        print(f"non-float difference: {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
