"""Seeded inputs for the benchmark workloads.

Everything a workload hands to minecost is made here from ``--seed``: the
same seed always gives the same files and values. minecost itself only ever
sees the generated files and values, never the seed.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from pathlib import Path

# minecost's default electricity price ($/kWh); every reference is taken at it.
DEFAULT_ELECTRICITY = 0.135
HASH_SCALE = 2.0**32
UNIT_SCALE = 3.6e15  # W/kW * s/h * hashes/GH

HALVINGS = (
    (dt.date(2009, 1, 3), 50.0),
    (dt.date(2012, 11, 28), 25.0),
    (dt.date(2016, 7, 9), 12.5),
    (dt.date(2020, 5, 11), 6.25),
    (dt.date(2024, 4, 20), 3.125),
)

# long-history: one observation a day from 2009-01-09 to 2025-06-13.
HISTORY_START = dt.date(2009, 1, 9)
HISTORY_DAYS = 6000
EFFICIENCY_STEPS = 400
# The seed picks one of this many histories, so that each has a reference
# captured by capture_references.py (seed % HISTORY_VARIANTS).
HISTORY_VARIANTS = 32

# sweep: electricity prices 0.030, 0.031, ..., 0.300 $/kWh.
SWEEP_GRID = tuple(round(0.03 + 0.001 * k, 3) for k in range(271))

# cli-cold: the command mix, cycled from a seeded starting point.
CLI_MIX = ("backtest", "var", "ratio", "regress", "price")


def model_price(electricity, efficiency, difficulty, reward):
    """The paper's closed form, coded here independently of minecost."""
    return electricity * efficiency * difficulty * HASH_SCALE / (reward * UNIT_SCALE)


def _reward_on(day: dt.date) -> float:
    return [reward for start, reward in HALVINGS if start <= day][-1]


def _round_sig(values, digits: int) -> list[float]:
    return [float(f"{v:.{digits}g}") for v in values]


def history_variant(seed: int) -> int:
    return seed % HISTORY_VARIANTS


def write_long_history(variant: int, directory: Path) -> dict[str, Path]:
    """Write observations, efficiency and rewards CSVs for one daily history.

    The model price follows a noisy log trend; the market price is the model
    price times a mean-reverting ratio with a few bubble excursions, scaled
    so that the mean market/model ratio lands between 1.1 and 1.4 (the
    bundled reconstruction has 1.183). The efficiency table ends on the last
    observation date, so no date is carried past it.
    """
    # Imported here so that cli-cold, which never builds a history, does not
    # pay for numpy in its own process.
    import numpy as np

    rng = np.random.default_rng(20090109 + variant)
    n = HISTORY_DAYS
    t = np.arange(n)
    days = [HISTORY_START + dt.timedelta(days=int(i)) for i in t]

    k = np.arange(EFFICIENCY_STEPS)
    offsets = np.rint(k * (n - 1) / (EFFICIENCY_STEPS - 1)).astype(int)
    progress = (k / (EFFICIENCY_STEPS - 1)) ** 0.8
    log_eff = math.log(2000.0) + (math.log(0.02) - math.log(2000.0)) * progress
    log_eff = log_eff + rng.normal(0.0, 0.02, EFFICIENCY_STEPS)
    efficiency = np.minimum.accumulate(
        _round_sig(np.exp(np.minimum.accumulate(log_eff)), 4)
    )
    eff_of_day = efficiency[np.searchsorted(offsets, t, side="right") - 1]

    trend = math.log(0.05) + (math.log(60000.0) - math.log(0.05)) * (t / (n - 1)) ** 0.6
    trend = trend + np.cumsum(rng.normal(0.0, 0.01, n))
    rewards = np.array([_reward_on(day) for day in days])
    target_model = np.exp(trend + rng.normal(0.0, 0.02, n))
    difficulty = np.array(
        _round_sig(
            target_model * rewards * UNIT_SCALE
            / (DEFAULT_ELECTRICITY * eff_of_day * HASH_SCALE),
            10,
        )
    )
    model = model_price(DEFAULT_ELECTRICITY, eff_of_day, difficulty, rewards)

    log_ratio = np.zeros(n)
    shocks = rng.normal(0.0, 0.04, n)
    for i in range(1, n):
        log_ratio[i] = 0.98 * log_ratio[i - 1] + shocks[i]
    for _ in range(int(rng.integers(3, 6))):
        centre = rng.integers(300, n - 300)
        width = rng.uniform(30.0, 90.0)
        log_ratio += rng.uniform(0.7, 1.3) * np.exp(-0.5 * ((t - centre) / width) ** 2)
    ratio = np.exp(log_ratio)
    ratio *= rng.uniform(1.1, 1.4) / ratio.mean()
    market = _round_sig(model * ratio, 10)

    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "observations": directory / "observations.csv",
        "efficiency": directory / "efficiency.csv",
        "rewards": directory / "rewards.csv",
    }
    paths["observations"].write_text(
        "date,difficulty,price_usd\n"
        + "".join(
            f"{day.isoformat()},{d!r},{p!r}\n"
            for day, d, p in zip(days, difficulty.tolist(), market)
        )
    )
    paths["efficiency"].write_text(
        "date,w_per_ghs\n"
        + "".join(
            f"{days[o].isoformat()},{float(v)!r}\n" for o, v in zip(offsets, efficiency)
        )
    )
    paths["rewards"].write_text(
        "date,reward_btc\n"
        + "".join(f"{day.isoformat()},{r!r}\n" for day, r in HALVINGS)
    )
    return paths


def sweep_prices(seed: int) -> list[float]:
    """The electricity grid in a seeded order; op ``i`` uses entry ``i % 271``."""
    order = list(SWEEP_GRID)
    random.Random(seed).shuffle(order)
    return order


def cli_plan(seed: int) -> tuple[int, list[dict]]:
    """Seeded start of the cli-cold mix and the arguments of its ``price`` ops."""
    rng = random.Random(seed)
    start = rng.randrange(len(CLI_MIX))
    prices = [
        {
            "difficulty": _round_sig([10.0 ** rng.uniform(6.0, 14.0)], 6)[0],
            "efficiency": _round_sig([rng.uniform(0.02, 2.0)], 4)[0],
            "reward": rng.choice([r for _, r in HALVINGS]),
            "electricity": rng.choice(SWEEP_GRID),
        }
        for _ in range(16)
    ]
    return start, prices
