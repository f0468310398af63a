"""Unit tests for the production-cost pricing identities."""

import math

import numpy as np
import pytest

from minecost import (
    CostParams,
    DomainError,
    NetworkParams,
    UndefinedPriceError,
    energy_cost_per_day,
    expected_btc_per_day,
    model_price,
)

# Exact decimal values, computed independently with rational arithmetic
# (tools/oracle_values.py) before the implementation was written.
ORACLE_MODEL_PRICE = 3221.225472        # 0.135 $/kWh, 0.25 W/GHs, 1e12, 12.5
ORACLE_ENERGY_500GH = 1.62              # 500 GH/s at 1.0 W/GHs, 0.135 $/kWh
ORACLE_ENERGY_1000GH = 4.536            # 1000 GH/s at 1.4 W/GHs, 0.135 $/kWh
ORACLE_BTC_PER_DAY = 0.001005828380584716796875  # 4000 GH/s, 1e12, 12.5


class TestWorkedExamples:
    def test_energy_cost_small_rig(self):
        cost = CostParams(electricity_price=0.135, efficiency=1.0)
        assert energy_cost_per_day(500.0, cost) == pytest.approx(
            ORACLE_ENERGY_500GH, rel=1e-12
        )

    def test_energy_cost_larger_rig(self):
        cost = CostParams(electricity_price=0.135, efficiency=1.4)
        assert energy_cost_per_day(1000.0, cost) == pytest.approx(
            ORACLE_ENERGY_1000GH, rel=1e-12
        )

    def test_expected_daily_production(self):
        net = NetworkParams(difficulty=1e12, block_reward=12.5)
        assert expected_btc_per_day(4000.0, net) == pytest.approx(
            ORACLE_BTC_PER_DAY, rel=1e-12
        )

    def test_model_price_reference_point(self):
        cost = CostParams(electricity_price=0.135, efficiency=0.25)
        net = NetworkParams(difficulty=1e12, block_reward=12.5)
        value = model_price(cost, net)
        assert value == pytest.approx(ORACLE_MODEL_PRICE, rel=1e-9)


class TestHashrateInvariance:
    def test_cost_over_production_matches_closed_form(self):
        """The per-coin cost must not depend on the assumed rig size."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            cost = CostParams(
                electricity_price=float(rng.uniform(0.01, 1.0)),
                efficiency=float(rng.uniform(0.05, 800.0)),
            )
            net = NetworkParams(
                difficulty=float(10 ** rng.uniform(6, 13)),
                block_reward=float(rng.choice([50.0, 25.0, 12.5, 6.25])),
            )
            reference = model_price(cost, net)
            for hashrate in (1.0, float(10 ** rng.uniform(0, 9)), 1e9):
                per_coin = energy_cost_per_day(hashrate, cost) / expected_btc_per_day(
                    hashrate, net
                )
                assert per_coin == pytest.approx(reference, rel=1e-12), (
                    f"per-coin cost {per_coin} drifted from {reference} "
                    f"at hashrate {hashrate}"
                )


class TestScalingLaws:
    """Degree-1 homogeneity in each driver, degree -1 in the reward."""

    @pytest.mark.parametrize("factor", [0.25, 2.0, 10.0])
    def test_linear_in_electricity_efficiency_difficulty(self, factor):
        cost = CostParams(electricity_price=0.2, efficiency=0.5)
        net = NetworkParams(difficulty=5e11, block_reward=12.5)
        base = model_price(cost, net)

        scaled_price = CostParams(cost.electricity_price * factor, cost.efficiency)
        assert model_price(scaled_price, net) == pytest.approx(base * factor, rel=1e-12)

        scaled_eff = CostParams(cost.electricity_price, cost.efficiency * factor)
        assert model_price(scaled_eff, net) == pytest.approx(base * factor, rel=1e-12)

        scaled_diff = NetworkParams(net.difficulty * factor, net.block_reward)
        assert model_price(cost, scaled_diff) == pytest.approx(base * factor, rel=1e-12)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 4.0])
    def test_inverse_in_block_reward(self, factor):
        cost = CostParams(electricity_price=0.2, efficiency=0.5)
        net = NetworkParams(difficulty=5e11, block_reward=12.5)
        base = model_price(cost, net)
        scaled = NetworkParams(net.difficulty, net.block_reward * factor)
        assert model_price(cost, scaled) == pytest.approx(base / factor, rel=1e-12)

    def test_model_price_always_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cost = CostParams(
                electricity_price=float(rng.uniform(1e-4, 2.0)),
                efficiency=float(rng.uniform(1e-3, 1000.0)),
            )
            net = NetworkParams(
                difficulty=float(10 ** rng.uniform(0, 14)),
                block_reward=float(rng.uniform(1e-3, 50.0)),
            )
            value = model_price(cost, net)
            assert value > 0.0 and math.isfinite(value)


class TestValidation:
    @pytest.mark.parametrize("price", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_electricity_price_rejected(self, price):
        with pytest.raises(DomainError):
            CostParams(electricity_price=price, efficiency=1.0)

    @pytest.mark.parametrize("eff", [0.0, -2.0, float("nan")])
    def test_bad_efficiency_rejected(self, eff):
        with pytest.raises(DomainError):
            CostParams(electricity_price=0.135, efficiency=eff)

    @pytest.mark.parametrize("difficulty", [0.0, -1e9, float("inf")])
    def test_bad_difficulty_rejected(self, difficulty):
        with pytest.raises(DomainError):
            NetworkParams(difficulty=difficulty, block_reward=12.5)

    def test_negative_reward_rejected(self):
        with pytest.raises(DomainError):
            NetworkParams(difficulty=1e12, block_reward=-1.0)

    def test_zero_reward_means_zero_production(self):
        net = NetworkParams(difficulty=1e12, block_reward=0.0)
        assert expected_btc_per_day(1000.0, net) == 0.0

    def test_zero_reward_price_is_undefined(self):
        cost = CostParams(electricity_price=0.135, efficiency=0.25)
        net = NetworkParams(difficulty=1e12, block_reward=0.0)
        with pytest.raises(UndefinedPriceError):
            model_price(cost, net)

    @pytest.mark.parametrize(
        "difficulty, efficiency, reward, result",
        [
            (1e308, 1e10, 1e-300, "inf"),  # numerator overflows
            (1e-300, 1e-300, 1e300, "0.0"),  # numerator underflows
            (1e308, 1e10, 1e300, "nan"),  # both overflow: inf / inf
        ],
    )
    def test_price_outside_double_range_is_a_domain_error(
        self, difficulty, efficiency, reward, result
    ):
        cost = CostParams(electricity_price=0.135, efficiency=efficiency)
        net = NetworkParams(difficulty=difficulty, block_reward=reward)
        with pytest.raises(DomainError, match=f"^model price is {result}: "):
            model_price(cost, net)

    @pytest.mark.parametrize("hashrate", [0.0, -5.0])
    def test_nonpositive_hashrate_rejected(self, hashrate):
        cost = CostParams(electricity_price=0.135, efficiency=0.25)
        net = NetworkParams(difficulty=1e12, block_reward=12.5)
        with pytest.raises(DomainError):
            energy_cost_per_day(hashrate, cost)
        with pytest.raises(DomainError):
            expected_btc_per_day(hashrate, net)
