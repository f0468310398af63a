"""Output check against references captured from minecost 0.1.0.

A report (or the JSON slice one subcommand prints) is reduced to a flat
summary. Counts, dates, names and the chosen lag order must match exactly;
floats must agree to RTOL relative (plus ATOL for values near zero). RTOL is
far looser than the 1e-10 or so by which a QR or SVD solver moves these
numbers, and far tighter than the factor-of-several gap between the two
Granger directions or between the BIC of neighbouring lag orders.
"""

from __future__ import annotations

import math
import re

RTOL = 1e-6
ATOL = 1e-12


def summarize(payload: dict) -> dict:
    """Flat ``{field: value}`` view of whichever report sections are present."""
    out = {}
    if "ratio" in payload:
        ratio = payload["ratio"]
        for key in ("mean", "std", "min", "max"):
            out[f"ratio.{key}"] = ratio[key]
        out["ratio.n"] = len(ratio["series"])
    if "prices" in payload:
        out["prices.n"] = len(payload["prices"])
    for section in ("level_regression", "log_regression"):
        if section in payload:
            fit = payload[section]
            for key in ("slope", "intercept", "r_squared", "n"):
                out[f"{section}.{key}"] = fit[key]
    if "lag_selection" in payload:
        selection = payload["lag_selection"]
        out["lag.chosen_p"] = selection["chosen_p"]
        for row in selection["table"]:
            out[f"lag.bic.{row['p']}"] = row["bic"]
    if "var" in payload:
        var = payload["var"]
        out["var.lag_order"] = var["lag_order"]
        out["var.nobs"] = var["nobs"]
        for lag, matrix in enumerate(var["coef_matrices"], start=1):
            for i, row in enumerate(matrix):
                for j, value in enumerate(row):
                    out[f"var.coef.{lag}.{i}.{j}"] = value
    if "granger" in payload:
        for test in payload["granger"]:
            key = f"granger.{test['cause']}->{test['effect']}"
            out[f"{key}.chi2"] = test["chi2"]
            out[f"{key}.df"] = test["df"]
            out[f"{key}.p_value"] = test["p_value"]
    if "episodes" in payload:
        episodes = payload["episodes"]
        out["episodes.dates"] = [
            [e["start_date"], e["end_date"], e["peak_date"]] for e in episodes
        ]
        for k, episode in enumerate(episodes):
            out[f"episodes.{k}.peak_ratio"] = episode["peak_ratio"]
    return out


def at_electricity(reference: dict, factor: float) -> dict:
    """Expected summary when every model price is multiplied by ``factor``.

    The model price is linear in the electricity price, so the ratios and the
    level slope divide by the factor and the log-log intercept moves by
    ``-slope * log(factor)``. The log series only shift by a constant, which
    the VAR intercepts absorb: lag selection, VAR slopes, Granger statistics
    and episode dates do not change.
    """
    expected = dict(reference)
    for key, value in reference.items():
        if key.startswith("ratio.") and key != "ratio.n":
            expected[key] = value / factor
        elif key.startswith("episodes.") and key.endswith(".peak_ratio"):
            expected[key] = value / factor
    expected["level_regression.slope"] = reference["level_regression.slope"] / factor
    expected["log_regression.intercept"] = (
        reference["log_regression.intercept"]
        - reference["log_regression.slope"] * math.log(factor)
    )
    return expected


def _float_diff(actual: float, expected: float, atol: float) -> tuple[bool, float]:
    diff = abs(actual - expected)
    ok = diff <= RTOL * abs(expected) + atol
    rel = diff / abs(expected) if expected else diff
    return ok, rel


def compare(actual: dict, expected: dict) -> tuple[list[str], float]:
    """Problems found (empty when the summaries agree) and the largest relative diff."""
    problems = []
    worst = 0.0
    for key in sorted(set(actual) | set(expected)):
        if key not in actual or key not in expected:
            problems.append(f"{key}: present on one side only")
            continue
        a, e = actual[key], expected[key]
        if isinstance(e, float) and isinstance(a, (int, float)):
            ok, rel = _float_diff(float(a), e, ATOL)
            worst = max(worst, rel)
            if not ok:
                problems.append(f"{key}: {a!r} != {e!r} (relative diff {rel:.3g})")
        elif a != e:
            problems.append(f"{key}: {a!r} != {e!r}")
    return problems, worst


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def _last_place(number: str) -> float:
    """One unit in the last printed decimal place; 0 for an integer."""
    mantissa, _, exponent = number.lower().partition("e")
    if "." not in mantissa:
        return 0.0
    return 10.0 ** (int(exponent or 0) - len(mantissa.split(".")[1]))


def compare_text(actual: str, expected: str) -> tuple[list[str], float]:
    """Compare rendered text: words exactly, numbers to RTOL or one unit in
    the last printed decimal place (a rounding flip is not a failure)."""
    a_parts = _NUMBER.split(actual)
    e_parts = _NUMBER.split(expected)
    if len(a_parts) != len(e_parts):
        return [f"text layout differs: {actual[:80]!r} vs {expected[:80]!r}"], 0.0
    problems = []
    worst = 0.0
    for index, (a, e) in enumerate(zip(a_parts, e_parts)):
        if index % 2 == 0:
            if a != e:
                problems.append(f"text differs: {a!r} != {e!r}")
            continue
        ok, rel = _float_diff(float(a), float(e), _last_place(e))
        worst = max(worst, rel)
        if not ok:
            problems.append(f"number {a} != {e}")
    return problems, worst
