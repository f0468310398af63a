"""Marginal production-cost model for bitcoin.

Mining spends electricity to win block rewards. Holding the electricity
rate, hardware efficiency, network difficulty, and block reward fixed, the
dollar cost of the energy needed to mint one coin is a well-defined number,
and under competition it acts as a floor under the market price: below it a
rational producer switches off. This module computes that number.

Three closed-form quantities, all pure functions of value types:

* :func:`energy_cost_per_day` - dollars of electricity a miner burns per day.
* :func:`expected_btc_per_day` - coins the same miner expects to mint per day.
* :func:`model_price` - their ratio, dollars per coin, independent of the
  miner's size because hashrate cancels.

Everything here is double precision; the largest intermediate products
(difficulty 1e14 times 2^32) stay below 1e24, far inside float range.
Inputs whose price would overflow or underflow raise DomainError.

:class:`BacktestConfig`, the backtest's knobs, lives here beside the default
electricity price and the check it validates with, so that the CLI can
build it without loading numpy (``minecost.backtest`` re-exports it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UndefinedPriceError

HOURS_PER_DAY = 24
SECONDS_PER_HOUR = 3600
WATTS_PER_KILOWATT = 1000.0
HASHES_PER_GH = 1.0e9

# Expected number of hash evaluations to solve a block at difficulty 1.
DIFFICULTY_HASH_SCALE = 2.0**32

# Worldwide blended residential/commercial electricity rate, USD per kWh.
DEFAULT_ELECTRICITY_USD_PER_KWH = 0.135


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class CostParams:
    """Cost side of the model: electricity rate and hardware efficiency.

    Attributes:
        electricity_price: USD per kilowatt-hour, > 0.
        efficiency: hardware draw in watts per GH/s of hashrate, > 0.
    """

    electricity_price: float
    efficiency: float

    def __post_init__(self):
        _require_positive_finite("electricity_price", self.electricity_price)
        _require_positive_finite("efficiency", self.efficiency)


@dataclass(frozen=True)
class NetworkParams:
    """Network side of the model: difficulty and block reward.

    Attributes:
        difficulty: dimensionless protocol difficulty, > 0. The expected
            number of hashes per block is ``difficulty * 2**32``.
        block_reward: newly minted BTC per block, >= 0. Zero is a valid
            network state but makes the model price undefined.
    """

    difficulty: float
    block_reward: float

    def __post_init__(self):
        _require_positive_finite("difficulty", self.difficulty)
        reward = float(self.block_reward)
        if not math.isfinite(reward) or reward < 0.0:
            raise DomainError(
                f"block_reward must be finite and >= 0, got {self.block_reward!r}"
            )


def energy_cost_per_day(hashrate_ghs: float, cost: CostParams) -> float:
    """Dollar cost of electricity per day for a miner running ``hashrate_ghs``.

    A rig hashing at ``h`` GH/s draws ``h * efficiency`` watts continuously,
    i.e. ``h * efficiency / 1000`` kilowatts, for 24 hours a day:

        cost/day = (h * efficiency / 1000) * electricity_price * 24

    Exactly linear in hashrate, efficiency, and the electricity rate.

    Args:
        hashrate_ghs: miner hashrate in GH/s, > 0.
        cost: electricity rate and hardware efficiency.

    Returns:
        USD per day, strictly positive.

    Raises:
        DomainError: if ``hashrate_ghs`` is not a positive finite number.
    """
    h = _require_positive_finite("hashrate_ghs", hashrate_ghs)
    kilowatts = h * cost.efficiency / WATTS_PER_KILOWATT
    return kilowatts * cost.electricity_price * HOURS_PER_DAY


def expected_btc_per_day(hashrate_ghs: float, net: NetworkParams) -> float:
    """Expected BTC minted per day by a miner running ``hashrate_ghs``.

    Solving a block takes ``difficulty * 2**32`` hashes in expectation, so a
    miner computing ``h * 1e9`` hashes per second finds

        blocks/day = h * 1e9 * 86400 / (difficulty * 2**32)

    and earns ``block_reward`` BTC per block. The 1e9 converts GH/s into
    hashes per second; without it the figure is off by nine orders of
    magnitude against observed network production (~144 blocks/day).

    Args:
        hashrate_ghs: miner hashrate in GH/s, > 0.
        net: network difficulty and block reward.

    Returns:
        BTC per day; zero iff ``block_reward`` is zero.

    Raises:
        DomainError: if ``hashrate_ghs`` is not a positive finite number.
    """
    h = _require_positive_finite("hashrate_ghs", hashrate_ghs)
    hashes_per_day = h * HASHES_PER_GH * SECONDS_PER_HOUR * HOURS_PER_DAY
    blocks_per_day = hashes_per_day / (net.difficulty * DIFFICULTY_HASH_SCALE)
    return net.block_reward * blocks_per_day


def _closed_form(electricity, efficiency, difficulty, reward):
    """``model_price`` for floats or numpy arrays alike, without checks.

    numpy's float64 ``*`` and ``/`` are the IEEE operations Python floats
    use, applied here in one order, so an array result equals the scalar
    result for each element bit for bit.
    """
    scale = WATTS_PER_KILOWATT * SECONDS_PER_HOUR * HASHES_PER_GH
    return (
        electricity * efficiency * difficulty * DIFFICULTY_HASH_SCALE
        / (reward * scale)
    )


def model_price(cost: CostParams, net: NetworkParams) -> float:
    """Production-cost price in USD per BTC.

    The ratio of daily energy cost to daily expected production. Hashrate
    appears linearly in both, so it cancels, leaving the closed form

        P = electricity_price * efficiency * difficulty * 2**32
            / (block_reward * 3.6e15)

    where 3.6e15 = 1000 W/kW * 3600 s/h * 1e9 hashes/GH. Homogeneous of
    degree 1 in each of the three numerator factors and degree -1 in the
    block reward. :func:`minecost.dataset.build_backtest_series` evaluates
    the same closed form on whole arrays.

    Args:
        cost: electricity rate and hardware efficiency.
        net: network difficulty and block reward.

    Returns:
        USD per BTC, strictly positive and finite.

    Raises:
        UndefinedPriceError: if ``block_reward`` is zero (no production, so
            cost per coin is undefined rather than merely out of domain).
        DomainError: if the inputs overflow or underflow double precision,
            so that the result is not a positive finite number.
    """
    if net.block_reward == 0.0:
        raise UndefinedPriceError(
            "model price is undefined when the block reward is zero"
        )
    price = _closed_form(
        cost.electricity_price, cost.efficiency, net.difficulty, net.block_reward
    )
    if not 0.0 < price < math.inf:
        raise DomainError(
            f"model price is {price!r}: the inputs overflow or underflow double precision"
        )
    return price


@dataclass
class BacktestConfig:
    """Knobs for a backtest run; defaults mirror the reference analysis.

    Raises:
        DomainError: on construction, when a knob is out of range or a
            price or threshold is not finite.
    """

    electricity_price: float = DEFAULT_ELECTRICITY_USD_PER_KWH
    lags: int | None = 2  # None selects by BIC + whiteness
    max_p: int = 8
    entry_k: float = 2.0
    min_len: int = 2
    include_timestamp: bool = True

    def __post_init__(self):
        _require_positive_finite("electricity_price", self.electricity_price)
        if self.lags is not None and self.lags < 1:
            raise DomainError("lags must be >= 1 or 'auto'")
        if self.max_p < 1:
            raise DomainError("max_p must be >= 1")
        _require_positive_finite("entry_k", self.entry_k)
        if self.min_len < 1:
            raise DomainError("min_len must be >= 1")
