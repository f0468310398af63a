"""Seeded data generators shared across the statistical tests."""

from __future__ import annotations

import numpy as np


def simulate_var(coef_matrices, intercepts, n, rng, noise_sd=1.0, burn=100):
    """Simulate a bivariate VAR(p) path of length ``n``.

    ``coef_matrices`` has shape (p, 2, 2) with entry [l, i, j] the loading of
    variable i on variable j at lag l+1, matching the estimator's layout.
    ``noise_sd`` may be a scalar or a per-variable pair; 0 gives a noiseless
    path (the burn-in then needs a nonzero start to avoid collapsing to the
    fixed point, so the initial state is drawn from ``rng`` regardless).

    The state is the companion form's stack of the last p values, a window
    of the path. Each step takes every lag's term in one batched product,
    then adds intercept, lag-1..p terms and innovation in that order in
    Python floats, so each value is rounded exactly as in the form that
    added one lag's product at a time.
    """
    coef = np.asarray(coef_matrices, dtype=float)
    p = coef.shape[0]
    c0, c1 = np.asarray(intercepts, dtype=float).tolist()
    sd = np.broadcast_to(np.asarray(noise_sd, dtype=float), (2,))
    total = n + burn
    data = np.empty((total + p, 2))
    data[:p] = rng.standard_normal((p, 2))
    # One draw of every innovation consumes the generator exactly as one
    # draw per step would, so paths match the step-by-step form bit for bit.
    noise = sd * rng.standard_normal((total, 2)) if sd.any() else None
    # Lag p first, to pair with the window data[t - p : t] in time order.
    by_window = coef[::-1].copy()
    columns = data[:, :, None]
    steps = noise.tolist() if noise is not None else [(0.0, 0.0)] * total
    for t, (e0, e1) in enumerate(steps, p):
        v0, v1 = c0, c1
        terms = np.matmul(by_window, columns[t - p : t]).tolist()
        for (term0,), (term1,) in reversed(terms):
            v0 += term0
            v1 += term1
        if noise is not None:
            v0 += e0
            v1 += e1
        data[t] = v0, v1
    return data[p + burn :]


def independent_ar1_pair(n, rng, phi=0.5, burn=100):
    """Two AR(1) series with no cross dependence (Granger null holds)."""
    coef = np.array([[[phi, 0.0], [0.0, phi]]])
    return simulate_var(coef, np.zeros(2), n, rng, noise_sd=1.0, burn=burn)


def one_way_coupled_pair(n, rng, load=0.5, phi=0.3, burn=100):
    """Series 0 loads on lag-1 of series 1; no feedback the other way."""
    coef = np.array([[[phi, load], [0.0, phi]]])
    return simulate_var(coef, np.zeros(2), n, rng, noise_sd=1.0, burn=burn)
