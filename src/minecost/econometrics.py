"""Self-contained statistical engine for the backtest.

Simple OLS with classical standard errors, natural-log transforms, VAR(p)
estimation by equation-wise least squares, information-criterion lag
selection with a residual-whiteness gate, Wald tests for Granger causality,
Ljung-Box portmanteau statistics, and chi-square upper-tail probabilities
computed as the finite sum that integer degrees of freedom give the
regularized upper incomplete gamma function.

numpy supplies arrays and the linear-algebra kernels; every statistic on top
of that is computed here. All operations are pure and reentrant.

Conventions, fixed once for the whole package:

* Logs are natural. Slopes and R-squared of log-log fits do not depend on
  the base, so nothing downstream is sensitive to this.
* R-squared is defined as 0 (flagged degenerate) when the response has zero
  variance, avoiding 0/0 while signalling a meaningless fit.
* VARs include intercepts and no trend. Coefficient covariance is the
  classical homoskedastic per-equation estimate; Wald tests are asymptotic
  chi-square with one degree of freedom per tested lag.
* One least-squares step, _svd_solve, fits ols_fit and every reported VAR:
  it scales each column of the design to unit norm, so that its condition
  reflects collinearity, not units, takes one thin SVD, guards the condition
  and returns beta, the inverse normal matrix and the residuals, none recomputed.
  It runs under one np.errstate, so an overflow is its error, not a warning.
  One rule, _require_conditioned, raises SingularityError for a 2-norm
  condition above 1e12: (s_max/s_min)^2 of that design, s_max/s_min of a
  Granger covariance block, and (1 + r)/(1 - r) of the lag scan's residual
  correlation r.
* One sample bound, var_min_observations(p) and its inverse
  var_max_order(n); _order checks every order argument.
* One lag design, _lag_design, lays out every column of a VAR fit. It and
  ols_fit's design are column-major, as LAPACK stores a matrix, so QR and
  SVD copy them untransposed. One QR of its max-lag rows compresses it
  (_compress): leading rows of the result have the Gram matrix of any
  order's own n - p rows. The lag scan ranks every order from one QR of
  those rows, with an indicator column for each row before some order's
  sample, so that every order is a leading block of its R, and one inverse
  of R's triangle, whose rows bound each order's condition; an order the
  bound does not clear goes through _svd_solve, which raises or passes. The
  reported VAR, of the scan or of var_fit, is solved by _svd_solve on its
  order's compressed rows, with no new factorization of the data.
* One autocovariance kernel, one pass per lag, gives the Ljung-Box
  whiteness statistics of every order's residuals; ljung_box is its
  one-series case. The scan's residuals of every order are one array: one
  mask over its first max_p columns zeroes the rows before each order's
  sample, and the means of every order are subtracted in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError, SingularityError
from .pricing import _order, _positive_finite

CONDITION_LIMIT = 1.0e12  # leaves about 4 correct digits (Higham 2002, ch. 20)
_TINY = 2.0**-1022  # the smallest normal double
WHITENESS_ALPHA = 0.05  # an order passes when its portmanteau p-value is above


# ---------------------------------------------------------------------------
# Chi-square tail probability
# ---------------------------------------------------------------------------


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    ``P(X >= x)`` for ``X ~ chi2(df)``, i.e. the regularized upper
    incomplete gamma function ``Q(df/2, h)`` with ``h = x/2``. Integer
    ``df`` makes it a finite sum (Abramowitz & Stegun 1964, 26.4.4-26.4.5):

    * even ``df``: ``sum_{k < df/2} e^-h h^k / k!``
    * odd ``df``: ``erfc(sqrt(h))
      + sum_{k=1..(df-1)/2} e^-h h^(k-1/2) / Gamma(k+1/2)``

    Each term is evaluated in log space, so none overflows and the result
    is nonzero whenever the true tail exceeds 1e-308. For ``df == 2`` the
    sum is the closed form ``exp(-x/2)``.

    Args:
        x: observed statistic, >= 0.
        df: integer degrees of freedom, >= 1.

    Returns:
        Tail probability clamped to [0, 1].

    Raises:
        DomainError: negative or non-finite ``x``, or ``df < 1``.
    """
    if not (_positive_finite(x) or x == 0.0):  # -0.0 too
        raise DomainError(f"chi-square statistic must be finite and >= 0, got {x!r}")
    df = _order("degrees of freedom", df)
    h = float(x) / 2.0
    if h == 0.0:  # x == 0, or x so small that x/2 rounds to 0
        return 1.0
    log_h = math.log(h)
    if df % 2 == 0:
        terms = [math.exp(k * log_h - h - math.lgamma(k + 1)) for k in range(df // 2)]
    else:
        terms = [math.erfc(math.sqrt(h))]
        terms += [
            math.exp((k - 0.5) * log_h - h - math.lgamma(k + 0.5))
            for k in range(1, (df + 1) // 2)
        ]
    return min(1.0, max(0.0, math.fsum(terms)))


# ---------------------------------------------------------------------------
# Shared least-squares step
# ---------------------------------------------------------------------------


def _require_conditioned(cond: float, message: str) -> None:
    """SingularityError(``message.format(cond)``) unless ``cond <= CONDITION_LIMIT``."""
    if not cond <= CONDITION_LIMIT:
        raise SingularityError(message.format(cond))


def _svd_solve(X: np.ndarray, Y: np.ndarray):
    """``(beta, inverse, residuals)``: least squares of finite ``Y`` on ``X``.

    ``Y`` is one response or several in columns. ``W = diag(1/norms) V
    diag(1/s)`` from the thin SVD ``U diag(s) V'`` of ``X`` scaled to unit
    column norms, so ``beta = W U'Y``, the inverse normal matrix is
    ``W W'`` and the residuals are ``Y - X beta``. beta, the inverse and
    the residual cross-product depend on ``X`` and ``Y`` only through their
    cross-products, so any rows with the Gram matrix of ``[X, Y]`` give them.

    Raises:
        DomainError: a column whose sum of squares overflows double
            precision, or so small that the inverse overflows.
        SingularityError: a zero column, or a condition estimate
            ``(s_max / s_min)^2``, the 2-norm condition number of the
            column-scaled normal matrix, that _require_conditioned rejects.
    """
    # An overflow is one of the errors below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt((X * X).sum(axis=0))
        if not (norms < math.inf).all():
            raise DomainError("the regression overflows double precision")
        if (norms == 0.0).any():
            raise SingularityError("regressor matrix has a zero column")
        U, s, Vt = np.linalg.svd(X / norms, full_matrices=False)
        # Fewer rows than columns leave the normal matrix singular.
        singular = X.shape[0] < X.shape[1] or s[-1] == 0.0
        r = math.inf if singular else float(s[0]) / float(s[-1])
        _require_conditioned(r * r, "normal-equations matrix is ill-conditioned "
                             "(estimate {:.3e})")
        W = Vt.T / s / norms[:, None]
        inverse = W @ W.T
        if not np.isfinite(inverse).all():  # 1/norms^2 overflows
            raise DomainError("the regression underflows double precision")
    beta = W @ (U.T @ Y)
    return beta, inverse, Y - X @ beta


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

    R-squared is ``1 - SSE/SST``; standard errors use the residual variance
    with ``n - 2`` degrees of freedom, and the fit is :func:`_svd_solve`'s.

    Raises:
        InsufficientDataError: fewer than 3 observations.
        SingularityError: ``x`` is constant.
        DomainError: length mismatch, non-finite values, or values so large
            that the fit overflows.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float, order="C")  # BLAS sums a strided y in another order
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DomainError(
            f"x and y must be equal-length 1-d series, got {x.shape} and {y.shape}"
        )
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("regression inputs must be finite")
    X = np.empty((n, 2), order="F")
    X[:, 0], X[:, 1] = 1.0, x
    with np.errstate(over="ignore", invalid="ignore"):
        beta, inverse, residuals = _svd_solve(X, y)
        sse = float(residuals @ residuals)
        sst = float(((y - y.mean()) ** 2).sum())
        cov = sse / (n - 2) * inverse
    if not np.isfinite([sst, *beta, *cov.diagonal()]).all():
        raise DomainError("the regression overflows double precision")
    if sst == 0.0:
        r_squared, degenerate = 0.0, True
    else:
        r_squared = min(1.0, max(0.0, 1.0 - sse / sst))
        degenerate = False
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
    bad = ~_positive_finite(arr)
    if bad.any():
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
    ``nobs - (2p + 1)``. The report's ``var`` omits ``residuals`` and ``coef_cov``.
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


def _lag_design(data: np.ndarray, p: int) -> np.ndarray:
    """Rows ``[1, lags 1..p of both series, both series]`` of every t.

    The 2p + 3 columns are the VAR(p) regressors, then its responses. Lags
    before the series starts are zero.
    """
    A = np.zeros((data.shape[0], 2 * p + 3), order="F")
    A[:, 0] = 1.0
    for lag in range(1, p + 1):
        A[lag:, 2 * lag - 1 : 2 * lag + 1] = data[:-lag]
    A[:, -2:] = data
    return A


def _compress(data: np.ndarray, max_p: int):
    """``(A, C)``: the VAR(max_p) :func:`_lag_design` and its compressed rows.

    One QR of the rows ``t >= max_p`` of ``A`` gives R, and
    ``C = [R; A[max_p - 1], ..., A[1]]``. On VAR(p)'s columns the first
    ``len(C) + 1 - p`` rows of ``C`` have exactly the Gram matrix of its own
    rows ``p..n-1``: all that the least-squares step and its guards depend on.
    """
    A = _lag_design(data, max_p)
    R = np.linalg.qr(A[max_p:], mode="r")
    return A, np.vstack([R, A[max_p - 1 : 0 : -1]])


def _order_rows(C: np.ndarray, p: int):
    """VAR(p)'s regressors and responses among the compressed rows ``C``."""
    m = len(C) + 1 - p
    return C[:m, : 2 * p + 1], C[:m, -2:]


def _rank_orders(C: np.ndarray, max_p: int):
    """``(beta, sscp)`` of VAR(1..max_p), each order a leading block of one QR.

    An indicator column for one row fits that row exactly, which is the same
    as deleting it (Salkever 1976). M is ``C`` with an indicator for each
    row ``A[t] = C[len(C) - t]``, t < max_p, right after the lag-t columns,
    so its leading 3p columns are VAR(p)'s k = 2p + 1 and the indicators of
    the rows before its sample: the fit of M's responses on them is VAR(p)
    on its own rows of ``C``. With R of M and H the inverse of R's leading
    3 max_p block, whose leading blocks are the inverses of R's, order p's
    coefficients are its rows of ``H[:3p, :3p] R[:3p, -2:]``, and the rows
    3p onward of R's response columns are a tail whose ``tail'tail`` is the
    residual cross-product. With D the norms of ``C``'s columns,
    ``k sum_j D_j^2 sum_{i < 3p} H[j, i]^2`` over the order's columns is
    ``k ||D R_k^-1||_F^2``, R_k that of its own rows, and bounds
    :func:`_svd_solve`'s ``(s_max / s_min)^2``, which scales by norms over
    those rows only: D over every row also counts the rounding that the
    rows before the sample leave in R. A zero pivot is set to 1 before the
    inverse, which leaves the blocks before it as they are. An order whose
    block holds one, or whose bound the guard does not pass, is solved by
    :func:`_svd_solve` on its own rows of ``C``, which raises its error or
    passes; the first failing order raises.

    Returns ``beta``, shape (max_p, 2 max_p + 1, 2) with zeros below each
    order's 2p + 1 rows, and ``sscp``, shape (max_p, 2, 2).
    """
    K, L = 2 * max_p + 1, 3 * max_p
    orders = np.arange(1, max_p + 1)
    last = 3 * orders - 1  # the last column of order p's block of M
    before = orders[:-1]
    # M's column of each of C's: the pair of lag t moves right past the t - 1
    # indicators before it, the responses past all max_p - 1.
    columns = np.arange(C.shape[1])
    columns += np.clip((columns - 1) // 2, 0, max_p - 1)
    M = np.zeros((len(C), L + 2))
    M[:, columns] = C
    M[len(C) - before, 3 * before] = 1.0
    R = np.linalg.qr(M, mode="r")
    pivots = np.arange(L)
    zero = ~(np.abs(R[pivots, pivots]) > 0.0)  # or NaN, from an overflow
    R[pivots[zero], pivots[zero]] = 1.0
    clear = np.cumsum(zero)[last] == 0
    Y = R[:, -2:]
    # A failing order is _svd_solve's to report, so no step here warns.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        H = np.linalg.inv(R[:L, :L])
        # Sums over each order's block, read off running sums along H's
        # rows; H is upper triangular, so a row past the block sums zeros.
        blocks = columns[:K], last[:, None]
        norms2 = (C[:, :K] * C[:, :K]).sum(axis=0)
        bound = (2 * orders + 1) * (np.cumsum(H * H, axis=1)[blocks] @ norms2)
        beta = np.cumsum(H[:, :, None] * Y[:L], axis=1)[blocks]
        # tail'tail: the sums of the rows' outer products from row 3p on.
        outer = Y[:, :, None] * Y[:, None, :]
        sscp = np.cumsum(outer[::-1], axis=0)[::-1][3 * orders]
    for p in orders[~(clear & (bound <= CONDITION_LIMIT))].tolist():
        b, _, E = _svd_solve(*_order_rows(C, p))
        beta[p - 1, : 2 * p + 1] = b
        sscp[p - 1] = E.T @ E
    return beta, sscp


def _var_model(data: np.ndarray, p: int, C: np.ndarray, names) -> VarModel:
    """The VarModel of VAR(p) on ``data``, solved on its rows of ``C``."""
    beta, inverse, E = _svd_solve(*_order_rows(C, p))
    k, T = 2 * p + 1, data.shape[0] - p
    resid_cov = E.T @ E / (T - k)  # E'E is exactly symmetric
    # beta[1 + 2 * lag + j, i] is equation i's loading on variable j at lag + 1.
    return VarModel(
        lag_order=p, names=tuple(names), intercepts=beta[0],
        coef_matrices=beta[1:].reshape(p, 2, 2).transpose(0, 2, 1),
        residuals=data[p:] - _lag_design(data, p)[p:, :k] @ beta,
        resid_cov=resid_cov,
        coef_cov=resid_cov.diagonal()[:, None, None] * inverse, nobs=T,
    )


def var_min_observations(p: int) -> int:
    """Fewest observations a bivariate VAR(p) is fitted on.

    The fit uses ``T = n - p`` rows for ``k = 2p + 1`` coefficients per
    equation. ``n >= 2p + 10`` keeps ``T - k >= 9 - p``, and
    ``n >= 3p + 3`` keeps ``T - k >= 2`` once ``p > 7``: with fewer than two
    residual degrees of freedom the 2 x 2 residual cross-product has rank
    one, and the log determinant in AIC and BIC is -inf or rounding noise.
    """
    return max(2 * p + 10, 3 * p + 3)


def var_max_order(n: int) -> int:
    """Highest p with ``var_min_observations(p) <= n``, or 0 if there is none."""
    return max(0, min((n - 10) // 2, (n - 3) // 3))


def _var_series(data) -> np.ndarray:
    """``data`` as a finite float array of shape (n, 2), else DomainError."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"data must have shape (n, 2), got {data.shape}")
    if not np.isfinite(data).all():
        raise DomainError("series must be finite")
    return data


def _require_observations(n: int, p: int) -> None:
    """InsufficientDataError unless ``n >= var_min_observations(p)``."""
    need = var_min_observations(p)
    if n < need:
        raise InsufficientDataError(
            f"need at least {need} observations for p={p}, got {n}"
        )


def var_fit(data, p: int, names: tuple[str, str] = ("y0", "y1")) -> VarModel:
    """Fit a bivariate VAR(p) by least squares, both equations in one solve.

    Each variable is regressed on an intercept and ``p`` lags of both
    variables, on the ``T = n - p`` rows that have every lag, solved as the
    lag scan solves the VAR it hands back, with ``max_p = p``. Requires
    ``n >= var_min_observations(p)`` so the residual degrees of freedom
    stay meaningful.

    Args:
        data: array-like of shape (n, 2), the two series in columns.
        p: lag order, >= 1.
        names: labels for the two columns, used by the Granger tests.

    Raises:
        DomainError: bad shape, non-finite values, ``p < 1``, or a fit that overflows.
        InsufficientDataError: ``n < var_min_observations(p)``.
        SingularityError: rank-deficient regressor matrix.
    """
    data = _var_series(data)
    p = _order("lag order", p)
    _require_observations(data.shape[0], p)
    _, C = _compress(data, p)
    return _var_model(data, p, C, names)


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
    # Regressor 1 + 2 * lag + j is cause j at lag + 1. b is copied because a
    # strided dot product sums in another order than a contiguous one.
    b = model.coef_matrices[:, i, j].copy()
    block = model.coef_cov[i][1 + j :: 2, 1 + j :: 2]
    s = np.linalg.svd(block, compute_uv=False)  # 2-norm condition number
    cond = float(s[0]) / float(s[-1]) if s[-1] > 0.0 else math.inf
    direction = f"{cause}->{effect}".replace("{", "{{").replace("}", "}}")
    _require_conditioned(cond, f"covariance block for {direction} is singular "
                         "(condition estimate {:.3e})")
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


def _ljung_box_q(E: np.ndarray, T, h) -> np.ndarray:
    """Ljung-Box Q of each row of ``E`` up to lag ``h``, one pass per lag.

    Row i is a demeaned series of ``T[i]`` values after zeros, which add
    nothing to its lag-k product sums ``c_k``. ``T`` and ``h`` are per-row
    arrays or scalars. ``Q = T (T + 2) sum_{k=1..h} r_k^2 / (T - k)`` with
    ``r_k = c_k / c_0``; a row of zero variance has Q = 0.
    """
    lags = np.arange(1, int(np.max(h)) + 1)[:, None]
    acov = np.empty((len(lags) + 1, len(E)))
    acov[0] = np.einsum("ij,ij->i", E, E)
    for k in range(1, len(acov)):
        acov[k] = np.einsum("ij,ij->i", E[:, k:], E[:, :-k])
    # Zero variance leaves every autocovariance zero, and so every r_k.
    r = acov[1:] / np.where(acov[0] > 0.0, acov[0], 1.0)
    terms = np.divide(r * r, T - lags, out=np.zeros(r.shape), where=lags <= h)
    return T * (T + 2.0) * terms.sum(axis=0)


def ljung_box(residuals, lags: int, fitted_lag_count: int = 0) -> LjungBoxResult:
    """Ljung-Box test for autocorrelation up to ``lags``.

    ``Q = n (n + 2) sum_{k=1..h} r_k^2 / (n - k)`` on the mean-adjusted
    autocorrelations, by the kernel that tests :func:`select_lag_order`'s
    residuals. When applied to residuals of a fitted lag model, pass
    ``fitted_lag_count`` to shrink the degrees of freedom
    (``df = max(1, lags - fitted_lag_count)``).

    Raises:
        DomainError: ``lags < 1`` or ``lags >= len(residuals)``.
    """
    e = np.asarray(residuals, dtype=float).ravel()
    n = e.size
    lags = _order("lags", lags)
    if lags >= n:
        raise DomainError(f"lags ({lags}) must be smaller than the series ({n})")
    if not np.isfinite(e).all():
        raise DomainError("residuals must be finite")
    df = max(1, lags - fitted_lag_count)
    q = float(_ljung_box_q((e - e.mean())[None, :], n, lags)[0])
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
    """Lag-order search outcome: the full table, and the scan ``_model`` reads."""

    chosen_p: int
    rows: list[LagOrderRow]
    whiteness_alpha: float
    all_failed_whiteness: bool
    _scan: tuple = field(default=(), repr=False, compare=False)

    def _model(self, p: int) -> VarModel:
        """VAR(p) of the series scanned, labelled with the scan's names."""
        data, names, C = self._scan
        return _var_model(data, p, C, names)


def select_lag_order(
    data,
    max_p: int,
    names: tuple[str, str] = ("y0", "y1"),
) -> LagSelection:
    """Fit VAR(1..max_p) and choose an order.

    The chosen order is the one with the smallest BIC among those whose
    residuals pass the whiteness test at ``WHITENESS_ALPHA`` (ties go to the
    smaller order). If no order passes, the overall BIC minimizer is chosen
    and the selection is flagged. The full per-order table is always
    returned so a caller can override.

    Each VAR(p) is fitted on its own ``T = n - p`` rows, all from one QR of
    the max-lag design and one of its compressed rows (:func:`_rank_orders`).
    The whiteness test of an order sums the Ljung-Box statistics of its two
    residual series up to lag ``h = min(max(10, 2p), T - 2)``, each with
    ``max(1, h - p)`` degrees of freedom; every order is tested in one pass
    per lag.

    ``names`` labels the two columns, as for :func:`var_fit`. The table does
    not use them; the VARs the selection hands back carry them, each solved
    as :func:`var_fit` solves it, on the scan's compressed rows.

    Raises:
        DomainError: ``max_p < 1``, bad shape, non-finite values, or a fit that overflows.
        InsufficientDataError: series shorter than
            ``var_min_observations(max_p)``; the message names the smallest
            order the series is too short for.
        SingularityError: rank-deficient regressors, or a residual
            correlation within rounding of +-1, at some order.
    """
    max_p = _order("max_p", max_p)
    data = _var_series(data)
    n = data.shape[0]
    _require_observations(n, min(max_p, var_max_order(n) + 1))
    A, C = _compress(data, max_p)
    beta, sscps = _rank_orders(C, max_p)
    orders = range(1, max_p + 1)

    # Residuals of every order from one product, one row of E per order and
    # equation, zero before the order's sample and demeaned over the rest.
    B = beta.transpose(1, 0, 2).reshape(2 * max_p + 1, 2 * max_p)
    E = B.T @ A[:, : 2 * max_p + 1].T
    by_order = E.reshape(max_p, 2, n)
    np.subtract(data.T, by_order, out=by_order)
    order_numbers = np.arange(1, max_p + 1)
    # Order p's rows before t = p, all among the first max_p columns, are
    # zero when the means are taken and again once they are subtracted.
    head = by_order[:, :, :max_p]
    before = (np.arange(max_p) < order_numbers[:, None])[:, None, :]
    np.copyto(head, 0.0, where=before)
    T = n - order_numbers
    means = by_order.sum(axis=2) / T[:, None]
    by_order -= means[:, :, None]
    np.copyto(head, 0.0, where=before)
    h = np.minimum(np.maximum(10, 2 * order_numbers), T - 2)
    q = _ljung_box_q(E, T.repeat(2), h.repeat(2)).reshape(max_p, 2)

    rows = []
    for p, sscp, T, h, (q0, q1) in zip(orders, sscps.tolist(), T.tolist(), h.tolist(),
                                       q.tolist()):
        (s00, s01), (s10, s11) = [[s / T for s in row] for row in sscp]
        if not all(map(math.isfinite, (s00, s01, s10, s11))):
            raise DomainError(f"VAR({p}) overflows double precision")
        root = math.sqrt(s00) * math.sqrt(s11)
        r = abs(s01) / root if root > 0.0 else 1.0
        cond = (1.0 + r) / (1.0 - r) if r < 1.0 else math.inf
        _require_conditioned(cond, f"VAR({p}) has a singular residual covariance")
        # Scale-free, as the coefficients are, where s00 s11 is not a normal double.
        log_det = (math.log(s00 * s11 - s01 * s10) if _TINY <= s00 * s11 < math.inf
                   else math.log(s00) + math.log(s11) + math.log1p(-r * r))
        m = 2 * (2 * p + 1)  # coefficients of both equations
        # The whiteness gate sums the per-equation Ljung-Box statistics,
        # ignoring cross-series residual correlation at positive lags: a
        # deliberate approximation, adequate for gating a lag order.
        stat, df = q0 + q1, 2 * max(1, h - p)
        pvalue = chi2_sf(stat, df)
        rows.append(LagOrderRow(
            p=p, aic=log_det + 2.0 * m / T, bic=log_det + m * math.log(T) / T,
            portmanteau_stat=stat, portmanteau_df=df, portmanteau_pvalue=pvalue,
            passes_whiteness=pvalue > WHITENESS_ALPHA,
        ))
    passing = [row for row in rows if row.passes_whiteness]
    pool = passing if passing else rows
    chosen = min(pool, key=lambda row: (row.bic, row.p))
    return LagSelection(
        chosen_p=chosen.p,
        rows=rows,
        whiteness_alpha=WHITENESS_ALPHA,
        all_failed_whiteness=not passing,
        _scan=(data, tuple(names), C),
    )
