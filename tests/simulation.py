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

    Each value is one recursion in Python floats: the intercept, then each
    lag's ``a_i0 * x0 + a_i1 * x1`` from lag 1 to lag p, then the
    innovation. No BLAS call takes part, so the path is the same whichever
    kernel numpy's BLAS picks for the CPU.
    """
    coef = np.asarray(coef_matrices, dtype=float).tolist()
    c0, c1 = np.asarray(intercepts, dtype=float).tolist()
    sd = np.broadcast_to(np.asarray(noise_sd, dtype=float), (2,))
    total, p = n + burn, len(coef)
    path = rng.standard_normal((p, 2)).tolist()
    # One draw of every innovation consumes the generator exactly as one
    # draw per step would, so paths match the step-by-step form bit for bit.
    noise = ((sd * rng.standard_normal((total, 2))).tolist() if sd.any()
             else [None] * total)
    for innovation in noise:
        v0, v1 = c0, c1
        for ((a00, a01), (a10, a11)), (x0, x1) in zip(coef, reversed(path[-p:])):
            v0 += a00 * x0 + a01 * x1
            v1 += a10 * x0 + a11 * x1
        if innovation is not None:
            v0 += innovation[0]
            v1 += innovation[1]
        path.append((v0, v1))
    return np.array(path[p + burn :])


def independent_ar1_pair(n, rng, phi=0.5, burn=100):
    """Two AR(1) series with no cross dependence (Granger null holds)."""
    coef = np.array([[[phi, 0.0], [0.0, phi]]])
    return simulate_var(coef, np.zeros(2), n, rng, noise_sd=1.0, burn=burn)


def one_way_coupled_pair(n, rng, load=0.5, phi=0.3, burn=100):
    """Series 0 loads on lag-1 of series 1; no feedback the other way."""
    coef = np.array([[[phi, load], [0.0, phi]]])
    return simulate_var(coef, np.zeros(2), n, rng, noise_sd=1.0, burn=burn)
