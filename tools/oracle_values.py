#!/usr/bin/env python3
"""High-precision oracle for the frozen constants used in the test suite.

Computes every hand-checkable expected value with exact rational arithmetic
(fractions.Fraction) or mpmath at 50 digits, independently of the library
code. Run it and paste the printed values into the tests; never edit a
frozen value without re-running this script.
"""

from fractions import Fraction

import mpmath

mpmath.mp.dps = 50


def frac_to_str(f, digits=30):
    return mpmath.nstr(mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator), digits)


def main():
    # --- daily energy cost: (hashrate * eff / 1000) * price * 24 ------------
    h, eff, price = Fraction(1000), Fraction(1, 2), Fraction(135, 1000)
    cost = h * eff / 1000 * price * 24
    print("energy cost, 1000 GH/s @ 0.5 W/GHs, 0.135 $/kWh:", frac_to_str(cost))

    h, eff = Fraction(14000), Fraction(1, 10)
    cost = h * eff / 1000 * price * 24
    print("energy cost, 14000 GH/s @ 0.1 W/GHs, 0.135 $/kWh:", frac_to_str(cost))

    # --- daily production: reward * (h * 1e9) * 86400 / (difficulty * 2^32) -
    h, diff, reward = Fraction(14000), Fraction(35, 10) * 10**12, Fraction(25, 2)
    btc = reward * (h * 10**9) * 86400 / (diff * 2**32)
    print("btc/day, 14000 GH/s, diff 3.5e12, reward 12.5:", frac_to_str(btc))

    # --- model price closed form: price * eff * diff * 2^32 / (reward * 3.6e15)
    price, eff, diff, reward = (
        Fraction(135, 1000),
        Fraction(1, 4),
        Fraction(10**12),
        Fraction(25, 2),
    )
    p_star = price * eff * diff * 2**32 / (reward * Fraction(36, 10) * 10**15)
    print("model price, 0.135 $/kWh, 0.25 W/GHs, diff 1e12, reward 12.5:",
          frac_to_str(p_star))

    # --- OLS on x=[1,2,3,4], y=[2,3,5,6] via exact normal equations ---------
    xs = [Fraction(v) for v in (1, 2, 3, 4)]
    ys = [Fraction(v) for v in (2, 3, 5, 6)]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(v * v for v in xs)
    sxy = sum(a * b for a, b in zip(xs, ys))
    det = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / det
    intercept = (sy * sxx - sx * sxy) / det
    sse = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    sst = sum((y - sy / n) ** 2 for y in ys)
    r2 = 1 - sse / sst
    s2 = sse / (n - 2)
    sxx_c = sxx - sx * sx / n
    se_slope2 = s2 / sxx_c
    se_inter2 = s2 * (Fraction(1, n) + (sx / n) ** 2 / sxx_c)
    print("ols slope:", frac_to_str(slope), " intercept:", frac_to_str(intercept),
          " r2:", frac_to_str(r2))
    print("ols se_slope:", mpmath.nstr(mpmath.sqrt(mpmath.mpf(se_slope2.numerator)
          / mpmath.mpf(se_slope2.denominator)), 30))
    print("ols se_intercept:", mpmath.nstr(mpmath.sqrt(mpmath.mpf(se_inter2.numerator)
          / mpmath.mpf(se_inter2.denominator)), 30))

    # --- chi-square upper tails -------------------------------------------
    # df = 2 closed form exp(-x/2); general df via regularized upper gamma.
    for x, df in ((4.579, 2), (13.301, 2), (1.0, 1), (10.0, 4), (25.0, 10),
                  (300.0, 101), (3000.0, 2001)):
        q = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                            regularized=True)
        print(f"chi2_sf({x}, {df}) =", mpmath.nstr(q, 25))
    print("exp(-4.579/2) =", mpmath.nstr(mpmath.e ** (mpmath.mpf("-4.579") / 2), 25))
    print("exp(-13.301/2) =", mpmath.nstr(mpmath.e ** (mpmath.mpf("-13.301") / 2), 25))

    # --- Ljung-Box on the alternating series, n even -----------------------
    # r_k for e = (+1,-1,...)^n: exact, mean 0: r_k = (-1)^k (n-k)/n
    n, hmax = 20, 3
    q = Fraction(0)
    for k in range(1, hmax + 1):
        rk = Fraction((-1) ** k * (n - k), n)
        q += rk * rk / (n - k)
    q *= n * (n + 2)
    print(f"ljung-box Q, alternating n={n}, h={hmax}:", frac_to_str(q))


if __name__ == "__main__":
    main()
