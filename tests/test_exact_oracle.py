"""The reported VAR against an exact fit of the bundled logs in rationals.

Every double is an exact rational, so ``fractions.Fraction`` solves the
normal equations of VAR(p) on the bundled log prices with no rounding at
all. The fitted coefficients, residual covariance and coefficient
covariance must lie within a tolerance derived from the fit's own condition
figure, not a hand-picked one.

The tolerance is ``kappa^2 u``, ``u = 2^-53``, where ``kappa^2`` is the
figure _svd_solve guards: ``(s_max / s_min)^2`` of the design scaled to unit
column norms D. The forward error of a backward-stable least-squares solve
is at most a modest multiple of it (Higham 2002, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 20) in the column-scaled coordinates:
``D beta`` and ``D coef_cov D``. The multiple is taken as 1. Each array is
compared normwise, as its largest entrywise error over its largest exact
entry; the scaling by D is exact too.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from minecost import (
    build_backtest_series,
    load_bundled,
    log_transform,
    select_lag_order,
    var_fit,
)
from minecost.econometrics import _lag_design

U = 2.0 ** -53
MULTIPLE = 1  # of kappa^2 u: the tolerance's stated constant


@functools.cache
def _bundled_logs():
    pair = build_backtest_series(*load_bundled())
    return np.column_stack(
        [log_transform(pair.market_prices), log_transform(pair.model_prices)]
    )


def _gauss_jordan(M, B):
    """``M^-1 B`` exactly, for a nonsingular square ``M`` of Fractions."""
    n = len(M)
    rows = [list(m) + list(b) for m, b in zip(M, B)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        head = rows[c][c]
        rows[c] = [v / head for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@functools.cache
def _exact_var(p):
    """``(beta, resid_cov, inverse normal matrix)`` of the bundled VAR(p), in Fractions.

    ``beta`` is (2p + 1) x 2 in regressor order; the two responses' residual
    cross-product is ``Y'Y - beta' Z'Y``, exact here as no step rounds.
    """
    Z = [[Fraction(v) for v in row] for row in _lag_design(_bundled_logs(), p)[p:].tolist()]
    k = 2 * p + 1
    T = len(Z)
    cross = [[sum(z[i] * z[j] for z in Z) for j in range(k + 2)] for i in range(k + 2)]
    identity = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    solved = _gauss_jordan([row[:k] for row in cross[:k]],
                           [row[k:] + ident for row, ident in zip(cross[:k], identity)])
    beta = [row[:2] for row in solved]
    sse = [[cross[k + i][k + j] - sum(beta[r][i] * cross[r][k + j] for r in range(k))
            for j in range(2)] for i in range(2)]
    return beta, [[v / (T - k) for v in row] for row in sse], [row[2:] for row in solved]


def _relative_error(got, exact):
    """Largest entrywise error of ``got`` over the largest entry of ``exact``."""
    error = max(abs(Fraction(g) - e) for g, e in zip(got, exact, strict=True))
    return float(error / max(abs(e) for e in exact))


@pytest.fixture(scope="module")
def scanned():
    return select_lag_order(_bundled_logs(), 8)


@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("source", ["scan", "var_fit"])
def test_the_reported_var_lies_within_kappa_squared_u_of_the_exact_fit(scanned, source, p):
    logs = _bundled_logs()
    beta, resid_cov, inverse = _exact_var(p)
    model = scanned._model(p) if source == "scan" else var_fit(logs, p)
    X = _lag_design(logs, p)[p:, : 2 * p + 1]
    norms = np.sqrt((X * X).sum(axis=0))
    s = np.linalg.svd(X / norms, compute_uv=False)
    tolerance = MULTIPLE * (s[0] / s[-1]) ** 2 * U
    D = [Fraction(v) for v in norms.tolist()]
    k = range(2 * p + 1)
    errors = {"resid_cov": _relative_error(model.resid_cov.ravel().tolist(),
                                           [v for row in resid_cov for v in row])}
    for i in range(2):
        coefficients = model.stacked_coefficients(i).tolist()
        errors[f"beta[{i}]"] = _relative_error(
            [Fraction(coefficients[r]) * D[r] for r in k], [beta[r][i] * D[r] for r in k])
        cov = model.coef_cov[i].tolist()
        errors[f"coef_cov[{i}]"] = _relative_error(
            [D[r] * Fraction(cov[r][c]) * D[c] for r in k for c in k],
            [D[r] * resid_cov[i][i] * inverse[r][c] * D[c] for r in k for c in k])
    assert max(errors.values()) <= tolerance, (tolerance, errors)
