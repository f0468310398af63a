#!/usr/bin/env python3
"""Regenerate the packaged reference dataset (src/minecost/data/*.csv).

The dataset is a reconstruction, not an archival record: difficulty and
market price are log-interpolated onto a uniform 14-day epoch grid between
publicly known monthly anchor values (June 2013 - April 2018), with a small
seeded lognormal wiggle on price so interpolated epochs are not collinear.
The network-average efficiency table is back-derived: the efficiency that
would price coins at a trailing smoothed market price, snapped into a step
function that only updates on >20% deviations, rounded to two significant
digits, and clamped non-increasing (hardware only improves). During demand
spikes the clamp freezes efficiency, so market price detaches from the
model exactly the way a real bubble detaches from production cost.

Deterministic: fixed RNG seed, committed outputs. Run from the repo root:

    python3 tools/build_reference_dataset.py [OUT_DIR]

OUT_DIR defaults to src/minecost/data; the test suite writes to a scratch
directory and compares the result with the packaged files byte for byte.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "minecost" / "data"

EPOCH_DAYS = 14
START = dt.date(2013, 6, 29)
END = dt.date(2018, 4, 27)

SEED = 20130629
PRICE_NOISE_SIGMA = 0.03
SMOOTH_WINDOW = 6  # trailing epochs feeding the implied-efficiency smooth
SNAP_BAND = 0.20  # relative deviation that triggers an efficiency update

ELECTRICITY = 0.135
HASH_SCALE = 2.0**32
UNIT_SCALE = 3.6e15  # W/kW * s/h * hashes/GH

REWARDS = [
    (dt.date(2009, 1, 3), 50.0),
    (dt.date(2012, 11, 28), 25.0),
    (dt.date(2016, 7, 9), 12.5),
]

# (date, protocol difficulty) anchors, approximate public history.
DIFFICULTY_ANCHORS = [
    ("2013-06-29", 21.34e6),
    ("2013-09-01", 65.0e6),
    ("2013-11-01", 390.0e6),
    ("2014-01-01", 1.42e9),
    ("2014-03-01", 3.81e9),
    ("2014-05-01", 8.00e9),
    ("2014-07-01", 16.8e9),
    ("2014-09-01", 27.4e9),
    ("2014-11-01", 39.5e9),
    ("2015-01-01", 43.9e9),
    ("2015-03-01", 46.7e9),
    ("2015-05-01", 47.6e9),
    ("2015-07-01", 49.3e9),
    ("2015-09-01", 57.5e9),
    ("2015-11-01", 65.8e9),
    ("2016-01-01", 103.9e9),
    ("2016-03-01", 158.4e9),
    ("2016-05-01", 178.7e9),
    ("2016-07-01", 213.4e9),
    ("2016-09-01", 225.8e9),
    ("2016-11-01", 254.6e9),
    ("2017-01-01", 317.7e9),
    ("2017-03-01", 440.6e9),
    ("2017-05-01", 521.9e9),
    ("2017-07-01", 708.7e9),
    ("2017-09-01", 888.2e9),
    ("2017-11-01", 1.347e12),
    ("2018-01-01", 1.873e12),
    ("2018-02-01", 2.604e12),
    ("2018-03-01", 3.290e12),
    ("2018-04-01", 3.511e12),
    ("2018-04-27", 4.022e12),
]

# (date, USD market price) anchors, approximate public history.
PRICE_ANCHORS = [
    ("2013-06-29", 95.0),
    ("2013-08-01", 104.0),
    ("2013-09-01", 128.0),
    ("2013-10-01", 127.0),
    ("2013-11-01", 212.0),
    ("2013-12-01", 955.0),
    ("2014-01-01", 770.0),
    ("2014-02-01", 800.0),
    ("2014-03-01", 565.0),
    ("2014-04-01", 450.0),
    ("2014-05-01", 445.0),
    ("2014-06-01", 630.0),
    ("2014-07-01", 640.0),
    ("2014-08-01", 595.0),
    ("2014-09-01", 480.0),
    ("2014-10-01", 385.0),
    ("2014-11-01", 335.0),
    ("2014-12-01", 375.0),
    ("2015-01-01", 315.0),
    ("2015-02-01", 225.0),
    ("2015-03-01", 265.0),
    ("2015-04-01", 245.0),
    ("2015-05-01", 235.0),
    ("2015-06-01", 230.0),
    ("2015-07-01", 260.0),
    ("2015-08-01", 285.0),
    ("2015-09-01", 230.0),
    ("2015-10-01", 240.0),
    ("2015-11-01", 320.0),
    ("2015-12-01", 360.0),
    ("2016-01-01", 435.0),
    ("2016-02-01", 370.0),
    ("2016-03-01", 435.0),
    ("2016-04-01", 420.0),
    ("2016-05-01", 450.0),
    ("2016-06-01", 535.0),
    ("2016-07-01", 670.0),
    ("2016-08-01", 625.0),
    ("2016-09-01", 575.0),
    ("2016-10-01", 615.0),
    ("2016-11-01", 700.0),
    ("2016-12-01", 755.0),
    ("2017-01-01", 995.0),
    ("2017-02-01", 970.0),
    ("2017-03-01", 1190.0),
    ("2017-04-01", 1085.0),
    ("2017-05-01", 1390.0),
    ("2017-06-01", 2400.0),
    ("2017-07-01", 2500.0),
    ("2017-08-01", 2860.0),
    ("2017-09-01", 4700.0),
    ("2017-10-01", 4360.0),
    ("2017-11-01", 6750.0),
    ("2017-12-01", 10900.0),
    ("2017-12-17", 19300.0),
    ("2018-01-01", 13800.0),
    ("2018-02-01", 9100.0),
    ("2018-03-01", 10300.0),
    ("2018-04-01", 6950.0),
    ("2018-04-27", 9290.0),
]


def epoch_dates():
    dates = []
    day = START
    while day <= END:
        dates.append(day)
        day += dt.timedelta(days=EPOCH_DAYS)
    return dates


def log_interp(anchors, dates):
    """Piecewise log-linear interpolation of (date, value) anchors."""
    xs = np.array([dt.date.fromisoformat(d).toordinal() for d, _ in anchors], float)
    ys = np.log([v for _, v in anchors])
    ts = np.array([d.toordinal() for d in dates], float)
    return np.exp(np.interp(ts, xs, ys))


def reward_at(date):
    reward = REWARDS[0][1]
    for effective, value in REWARDS:
        if effective <= date:
            reward = value
    return reward


def round_sig(value, digits=2):
    if value == 0:
        return 0.0
    magnitude = math.floor(math.log10(abs(value)))
    return round(value, digits - 1 - magnitude)


def build(out_dir=DATA_DIR):
    out_dir = Path(out_dir)
    dates = epoch_dates()
    difficulty = log_interp(DIFFICULTY_ANCHORS, dates)
    price_trend = log_interp(PRICE_ANCHORS, dates)

    rng = np.random.default_rng(SEED)
    price = price_trend * np.exp(PRICE_NOISE_SIGMA * rng.standard_normal(len(dates)))

    rewards = np.array([reward_at(d) for d in dates])
    k_factor = ELECTRICITY * difficulty * HASH_SCALE / (rewards * UNIT_SCALE)

    # Efficiency that would price coins at a trailing smoothed market price,
    # held piecewise constant and never allowed to rise.
    log_trend = np.log(price_trend)
    efficiency_steps = []
    held = None
    for i, date in enumerate(dates):
        lo = max(0, i - SMOOTH_WINDOW + 1)
        smooth = math.exp(log_trend[lo : i + 1].mean())
        implied = smooth / k_factor[i]
        if held is None or abs(math.log(implied / held)) > math.log(1 + SNAP_BAND):
            candidate = round_sig(implied, 2)
            candidate = candidate if held is None else min(held, candidate)
            if candidate != held:
                held = candidate
                efficiency_steps.append((date, held))
    if efficiency_steps[-1][0] != dates[-1]:
        # Re-state the held value at the final epoch so the table declares
        # coverage of the whole observation window.
        efficiency_steps.append((dates[-1], held))
    eff_dates = [d for d, _ in efficiency_steps]
    eff_values = [v for _, v in efficiency_steps]
    step_idx = np.searchsorted([d.toordinal() for d in eff_dates],
                               [d.toordinal() for d in dates], side="right") - 1
    efficiency = np.array([eff_values[i] for i in step_idx])

    model = k_factor * efficiency
    ratio = price / model

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "observations.csv", "w") as fh:
        fh.write("date,difficulty,price_usd\n")
        for d, diff, p in zip(dates, difficulty, price):
            fh.write(f"{d.isoformat()},{round(float(diff), 2)!r},{round(float(p), 2)!r}\n")
    with open(out_dir / "efficiency.csv", "w") as fh:
        fh.write("date,w_per_ghs\n")
        for d, v in efficiency_steps:
            fh.write(f"{d.isoformat()},{float(v)!r}\n")
    with open(out_dir / "rewards.csv", "w") as fh:
        fh.write("date,reward_btc\n")
        for d, v in REWARDS:
            fh.write(f"{d.isoformat()},{v!r}\n")

    # Sanity summary; the acceptance suite re-checks these on the shipped files.
    log_m, log_p = np.log(model), np.log(price)
    lm = np.polyfit(log_m, log_p, 1)
    fitted = np.polyval(lm, log_m)
    r2 = 1 - np.sum((log_p - fitted) ** 2) / np.sum((log_p - log_p.mean()) ** 2)
    mean, sd = ratio.mean(), ratio.std(ddof=1)
    threshold = mean + 2 * sd
    print(f"epochs: {len(dates)}  efficiency steps: {len(efficiency_steps)}")
    print(f"ratio mean {mean:.3f}  sd {sd:.3f}  min {ratio.min():.3f} "
          f"max {ratio.max():.3f}")
    print(f"log-log R^2 {r2:.4f}")
    print(f"efficiency first {eff_values[0]}  last {eff_values[-1]}")
    above = [d.isoformat() for d, r in zip(dates, ratio) if r > threshold]
    print(f"epochs above mean+2sd ({threshold:.3f}): {above}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path, default=DATA_DIR,
                        help="output directory (default: src/minecost/data)")
    build(parser.parse_args().out_dir)
