"""Self-contained statistical engine for the backtest.

Simple OLS with classical standard errors, natural-log transforms, VAR(p)
estimation by equation-wise least squares, information-criterion lag
selection with a residual-whiteness gate, Wald tests for Granger causality,
Ljung-Box portmanteau statistics, and chi-square upper-tail probabilities
computed from the regularized incomplete gamma function.

numpy supplies arrays and the pivoted linear solves; every statistic on top
of that is computed here. All operations are pure and reentrant.

Conventions, fixed once for the whole package:

* Logs are natural. Slopes and R-squared of log-log fits do not depend on
  the base, so nothing downstream is sensitive to this.
* R-squared is defined as 0 (flagged degenerate) when the response has zero
  variance, avoiding 0/0 while signalling a meaningless fit.
* VARs include intercepts and no trend. Coefficient covariance is the
  classical homoskedastic per-equation estimate; Wald tests are asymptotic
  chi-square with one degree of freedom per tested lag.
* Linear systems are solved through a pivoted factorization of the
  normal-equations matrix (1 + 2p columns for a bivariate VAR(p), so 17x17
  at VAR(8)) after scaling each regressor column to unit norm; a
  condition estimate above 1e12 on the scaled matrix raises
  SingularityError. The scaling makes the threshold respond to genuine
  collinearity rather than to units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, SingularityError

CONDITION_LIMIT = 1.0e12

_GAMMA_EPS = 1.0e-16
_GAMMA_MAX_ITER = 2000


# ---------------------------------------------------------------------------
# Chi-square tail probability
# ---------------------------------------------------------------------------


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a+1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_GAMMA_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    return total * math.exp(log_prefactor)


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a+1).

    Modified Lentz evaluation of the standard continued fraction; converges
    in a few dozen terms for the argument ranges used here.
    """
    tiny = 1.0e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    return math.exp(log_prefactor) * h


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    ``P(X >= x)`` for ``X ~ chi2(df)``, i.e. the regularized upper
    incomplete gamma function ``Q(df/2, x/2)``. Accurate to better than
    1e-10 absolute for ``x <= 1000, df <= 100``; for ``df == 2`` it agrees
    with the closed form ``exp(-x/2)`` to full precision.

    Args:
        x: observed statistic, >= 0.
        df: integer degrees of freedom, >= 1.

    Returns:
        Tail probability clamped to [0, 1].

    Raises:
        DomainError: negative or non-finite ``x``, or ``df < 1``.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"chi-square statistic must be finite and >= 0, got {x!r}")
    if int(df) != df or df < 1:
        raise DomainError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    half_x = x / 2.0
    if half_x < a + 1.0:
        q = 1.0 - _lower_gamma_series(a, half_x)
    else:
        q = _upper_gamma_cf(a, half_x)
    return min(1.0, max(0.0, q))


# ---------------------------------------------------------------------------
# Shared least-squares core
# ---------------------------------------------------------------------------


def _least_squares(X: np.ndarray, y: np.ndarray):
    """Least squares of ``y`` on the columns of ``X`` via normal equations.

    Returns ``(beta, residuals, xtx_inv)`` with ``xtx_inv`` the inverse
    normal matrix in the original coordinates, ready for classical
    coefficient covariances ``s2 * xtx_inv``.

    Raises:
        DomainError: non-finite values in ``X`` or ``y``.
        SingularityError: a zero column, or a condition estimate above
            CONDITION_LIMIT on the column-scaled normal matrix.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DomainError("regression inputs must be finite")
    norms = np.sqrt(np.sum(X * X, axis=0))
    if np.any(norms == 0.0):
        raise SingularityError("regressor matrix has a zero column")
    Xs = X / norms
    gram = Xs.T @ Xs
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularityError(
            f"normal-equations matrix is ill-conditioned (estimate {cond:.3e})"
        )
    beta = np.linalg.solve(gram, Xs.T @ y) / norms
    residuals = y - X @ beta
    xtx_inv = np.linalg.inv(gram) / np.outer(norms, norms)
    return beta, residuals, xtx_inv


# ---------------------------------------------------------------------------
# Simple regression
# ---------------------------------------------------------------------------


@dataclass
class RegressionResult:
    """Simple OLS fit of ``y = intercept + slope * x``.

    ``degenerate`` marks a zero-variance response, where R-squared is taken
    to be 0 by convention.
    """

    slope: float
    intercept: float
    r_squared: float
    residuals: np.ndarray
    stderr_slope: float
    stderr_intercept: float
    n: int
    degenerate: bool = False


def ols_fit(x, y) -> RegressionResult:
    """Ordinary least squares of ``y`` on ``x`` with an intercept.

    R-squared is ``1 - SSE/SST``; coefficient standard errors use the
    unbiased residual variance with ``n - 2`` degrees of freedom.

    Raises:
        InsufficientDataError: fewer than 3 observations.
        SingularityError: ``x`` is constant.
        DomainError: length mismatch or non-finite values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DomainError(
            f"x and y must be equal-length 1-d series, got {x.shape} and {y.shape}"
        )
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    X = np.column_stack([np.ones(n), x])
    beta, residuals, xtx_inv = _least_squares(X, y)
    sse = float(residuals @ residuals)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        r_squared, degenerate = 0.0, True
    else:
        r_squared = min(1.0, max(0.0, 1.0 - sse / sst))
        degenerate = False
    s2 = sse / (n - 2)
    cov = s2 * xtx_inv
    return RegressionResult(
        slope=float(beta[1]),
        intercept=float(beta[0]),
        r_squared=r_squared,
        residuals=residuals,
        stderr_slope=float(math.sqrt(cov[1, 1])),
        stderr_intercept=float(math.sqrt(cov[0, 0])),
        n=n,
        degenerate=degenerate,
    )


def log_transform(series) -> np.ndarray:
    """Elementwise natural logarithm of a positive series.

    Raises:
        DomainError: any value <= 0 or non-finite, naming the first
            offending index.
    """
    arr = np.asarray(series, dtype=float)
    bad = ~(np.isfinite(arr) & (arr > 0.0))
    if np.any(bad):
        index = int(np.argmax(bad.ravel()))
        raise DomainError(
            f"log transform requires positive values; offending index {index} "
            f"holds {arr.ravel()[index]!r}"
        )
    return np.log(arr)


# ---------------------------------------------------------------------------
# Vector autoregression
# ---------------------------------------------------------------------------


@dataclass
class VarModel:
    """Bivariate VAR(p) estimated equation by equation.

    ``coef_matrices[l, i, j]`` is the response of variable ``i`` to variable
    ``j`` lagged ``l + 1`` periods. Each equation stacks its coefficients as
    ``[intercept, var0 lag1, var1 lag1, var0 lag2, var1 lag2, ...]`` (length
    ``2p + 1``); ``coef_cov[i]`` is the classical covariance of that stack.
    ``resid_cov`` divides the stacked residual cross products by
    ``nobs - (2p + 1)``.
    """

    lag_order: int
    names: tuple[str, str]
    intercepts: np.ndarray
    coef_matrices: np.ndarray
    residuals: np.ndarray
    resid_cov: np.ndarray
    coef_cov: np.ndarray
    nobs: int

    @property
    def n_coefficients_per_equation(self) -> int:
        return 2 * self.lag_order + 1

    def stacked_coefficients(self, equation: int) -> np.ndarray:
        """Equation's coefficient vector in regressor order."""
        flat_lags = self.coef_matrices[:, equation, :].reshape(-1)
        return np.concatenate([[self.intercepts[equation]], flat_lags])


def _lagged_design(data: np.ndarray, p: int):
    """Build (Y, Z) for a VAR(p): responses from t = p and stacked lags."""
    n = data.shape[0]
    T = n - p
    Y = data[p:, :]
    blocks = [np.ones((T, 1))]
    for lag in range(1, p + 1):
        blocks.append(data[p - lag : n - lag, :])
    Z = np.hstack(blocks)
    return Y, Z


def var_fit(data, p: int, names: tuple[str, str] = ("y0", "y1")) -> VarModel:
    """Fit a bivariate VAR(p) by least squares, one equation per variable.

    Each variable is regressed on an intercept and ``p`` lags of both
    variables. Requires ``n >= 2p + 10`` so the residual degrees of freedom
    stay meaningful.

    Args:
        data: array-like of shape (n, 2), the two series in columns.
        p: lag order, >= 1.
        names: labels for the two columns, used by the Granger tests.

    Raises:
        DomainError: bad shape, non-finite values, or ``p < 1``.
        InsufficientDataError: ``n < 2p + 10``.
        SingularityError: rank-deficient regressor matrix.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"data must have shape (n, 2), got {data.shape}")
    if int(p) != p or p < 1:
        raise DomainError(f"lag order must be an integer >= 1, got {p!r}")
    p = int(p)
    if not np.all(np.isfinite(data)):
        raise DomainError("series must be finite")
    n = data.shape[0]
    if n < 2 * p + 10:
        raise InsufficientDataError(
            f"need at least {2 * p + 10} observations for p={p}, got {n}"
        )
    Y, Z = _lagged_design(data, p)
    T, k = Z.shape

    betas, resid_cols, covs = [], [], []
    dof = T - k
    for i in range(2):
        beta, residuals, xtx_inv = _least_squares(Z, Y[:, i])
        s2 = float(residuals @ residuals) / dof
        betas.append(beta)
        resid_cols.append(residuals)
        covs.append(s2 * xtx_inv)
    residuals = np.column_stack(resid_cols)
    resid_cov = residuals.T @ residuals / dof
    resid_cov = (resid_cov + resid_cov.T) / 2.0

    intercepts = np.array([betas[0][0], betas[1][0]])
    coef_matrices = np.empty((p, 2, 2))
    for i in range(2):
        lag_part = betas[i][1:].reshape(p, 2)
        coef_matrices[:, i, :] = lag_part
    return VarModel(
        lag_order=p,
        names=tuple(names),
        intercepts=intercepts,
        coef_matrices=coef_matrices,
        residuals=residuals,
        resid_cov=resid_cov,
        coef_cov=np.stack(covs),
        nobs=T,
    )


# ---------------------------------------------------------------------------
# Granger causality
# ---------------------------------------------------------------------------


@dataclass
class GrangerResult:
    """Wald test of the null 'cause does not help predict effect'."""

    cause: str
    effect: str
    chi2_stat: float
    df: int
    p_value: float

    @property
    def direction(self) -> str:
        return f"{self.cause}->{self.effect}"

    def null_hypothesis(self) -> str:
        return f"{self.cause} does not Granger-cause {self.effect}"


def granger_wald(model: VarModel, cause: str, effect: str) -> GrangerResult:
    """Wald chi-square test that all cross-lags from ``cause`` are zero.

    Tests the joint null that the ``p`` coefficients on the cause variable's
    lags in the effect variable's equation are all zero:
    ``W = b' V^-1 b`` with ``V`` the matching block of the equation's
    coefficient covariance. Asymptotic reference distribution is chi-square
    with ``p`` degrees of freedom; no small-sample correction.

    Raises:
        DomainError: unknown names or cause == effect.
        SingularityError: singular covariance block.
    """
    try:
        j = model.names.index(cause)
        i = model.names.index(effect)
    except ValueError:
        raise DomainError(
            f"unknown series name; model has {model.names!r}, got "
            f"cause={cause!r}, effect={effect!r}"
        ) from None
    if i == j:
        raise DomainError("cause and effect must be different series")
    p = model.lag_order
    idx = np.array([1 + 2 * lag + j for lag in range(p)])
    b = model.stacked_coefficients(i)[idx]
    block = model.coef_cov[i][np.ix_(idx, idx)]
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularityError(
            f"covariance block for {cause}->{effect} is singular "
            f"(condition estimate {cond:.3e})"
        )
    w = float(b @ np.linalg.solve(block, b))
    w = max(0.0, w)
    return GrangerResult(
        cause=cause, effect=effect, chi2_stat=w, df=p, p_value=chi2_sf(w, p)
    )


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LjungBoxResult:
    """Portmanteau autocorrelation test of a single residual series."""

    statistic: float
    df: int
    p_value: float
    lags: int


def ljung_box(residuals, lags: int, fitted_lag_count: int = 0) -> LjungBoxResult:
    """Ljung-Box test for autocorrelation up to ``lags``.

    ``Q = n (n + 2) sum_{k=1..h} r_k^2 / (n - k)`` on the mean-adjusted
    autocorrelations. When applied to residuals of a fitted lag model, pass
    ``fitted_lag_count`` to shrink the degrees of freedom
    (``df = max(1, lags - fitted_lag_count)``).

    Raises:
        DomainError: ``lags < 1`` or ``lags >= len(residuals)``.
    """
    e = np.asarray(residuals, dtype=float).ravel()
    n = e.size
    if int(lags) != lags or lags < 1:
        raise DomainError(f"lags must be an integer >= 1, got {lags!r}")
    lags = int(lags)
    if lags >= n:
        raise DomainError(f"lags ({lags}) must be smaller than the series ({n})")
    if not np.all(np.isfinite(e)):
        raise DomainError("residuals must be finite")
    e = e - e.mean()
    denom = float(e @ e)
    df = max(1, lags - fitted_lag_count)
    if denom == 0.0:
        # No variation at all: no evidence of autocorrelation.
        return LjungBoxResult(statistic=0.0, df=df, p_value=1.0, lags=lags)
    q = 0.0
    for k in range(1, lags + 1):
        r_k = float(e[k:] @ e[:-k]) / denom
        q += r_k * r_k / (n - k)
    q *= n * (n + 2.0)
    return LjungBoxResult(statistic=q, df=df, p_value=chi2_sf(q, df), lags=lags)


# ---------------------------------------------------------------------------
# Lag-order selection
# ---------------------------------------------------------------------------


@dataclass
class LagOrderRow:
    """Diagnostics for one candidate lag order."""

    p: int
    aic: float
    bic: float
    portmanteau_stat: float
    portmanteau_df: int
    portmanteau_pvalue: float
    passes_whiteness: bool


@dataclass
class LagSelection:
    """Outcome of the lag-order search; the full table allows overrides."""

    chosen_p: int
    rows: list[LagOrderRow]
    whiteness_alpha: float
    all_failed_whiteness: bool


def _information_criteria(model: VarModel):
    """AIC/BIC on the per-observation scale, from the ML residual covariance."""
    T = model.nobs
    sigma_ml = model.residuals.T @ model.residuals / T
    det = float(np.linalg.det(sigma_ml))
    log_det = math.log(det) if det > 0.0 else -math.inf
    m = 2 * model.n_coefficients_per_equation
    aic = log_det + 2.0 * m / T
    bic = log_det + m * math.log(T) / T
    return aic, bic


def _whiteness(model: VarModel):
    """Sum of per-equation Ljung-Box statistics as a portmanteau check.

    This additive combination ignores cross-series residual correlation at
    positive lags; it is a deliberate approximation, adequate for gating a
    lag order.
    """
    T = model.nobs
    p = model.lag_order
    h = min(max(10, 2 * p), T - 2)
    stat, df = 0.0, 0
    for i in range(2):
        part = ljung_box(model.residuals[:, i], h, fitted_lag_count=p)
        stat += part.statistic
        df += part.df
    return stat, df, chi2_sf(stat, df)


def select_lag_order(
    data,
    max_p: int,
    names: tuple[str, str] = ("y0", "y1"),
    whiteness_alpha: float = 0.05,
) -> LagSelection:
    """Fit VAR(1..max_p) and choose an order.

    The chosen order is the one with the smallest BIC among those whose
    residuals pass the whiteness test at ``whiteness_alpha`` (ties go to the
    smaller order). If no order passes, the overall BIC minimizer is chosen
    and the selection is flagged. The full per-order table is always
    returned so a caller can override.

    Raises:
        DomainError: ``max_p < 1``.
        InsufficientDataError: series shorter than ``2 * max_p + 10``.
    """
    if int(max_p) != max_p or max_p < 1:
        raise DomainError(f"max_p must be an integer >= 1, got {max_p!r}")
    max_p = int(max_p)
    rows = []
    for p in range(1, max_p + 1):
        model = var_fit(data, p, names=names)
        aic, bic = _information_criteria(model)
        stat, df, pvalue = _whiteness(model)
        rows.append(
            LagOrderRow(
                p=p,
                aic=aic,
                bic=bic,
                portmanteau_stat=stat,
                portmanteau_df=df,
                portmanteau_pvalue=pvalue,
                passes_whiteness=pvalue > whiteness_alpha,
            )
        )
    passing = [row for row in rows if row.passes_whiteness]
    pool = passing if passing else rows
    chosen = min(pool, key=lambda row: (row.bic, row.p))
    return LagSelection(
        chosen_p=chosen.p,
        rows=rows,
        whiteness_alpha=whiteness_alpha,
        all_failed_whiteness=not passing,
    )
