from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restaking.incentives import (
    RewardPools,
    best_response,
    equilibrium_allocations,
    formation_utility,
)
from restaking.model import InputError, Network, restaking_degree


def network_with(allocations, stakes, services):
    return Network(
        validators=tuple(stakes),
        services=tuple(services),
        stake=stakes,
        allocation=allocations,
        threshold={s: 0.5 for s in services},
        prize={s: 1 for s in services},
    )


def random_instance(rng):
    m = rng.randint(1, 4)
    n = rng.randint(2, 5)
    rewards = {f"s{j}": rng.uniform(0.5, 3.0) for j in range(m)}
    total = sum(rewards.values())
    target = rng.uniform(0.2, m * 0.99)
    limit = min(total / r for r in rewards.values())
    target = min(target, limit * 0.97)
    pools = RewardPools(reward=rewards, target_degree=target)
    stakes = {f"v{i}": rng.uniform(1.0, 20.0) for i in range(n)}
    return stakes, pools


@pytest.mark.parametrize(
    "reward, target",
    [
        ({"a": math.nan}, 1.0),
        ({"a": math.inf}, 1.0),
        ({"a": 0.0}, 1.0),
        ({"a": -1.0}, 1.0),
        ({"a": 1.0}, math.nan),
        ({"a": 1.0}, math.inf),
        ({"a": 1.0}, 0.0),
        ({"a": 1e308, "b": 1e308}, 1.0),
    ],
)
def test_reward_pools_reject_non_positive_or_non_finite(reward, target):
    with pytest.raises(InputError):
        RewardPools(reward=reward, target_degree=target)


def test_reward_pools_own_their_rewards():
    reward = {"a": 1.0, "b": 2.0}
    pools = RewardPools(reward=reward, target_degree=1.0)
    reward["a"] = -5.0
    assert pools.reward == {"a": 1.0, "b": 2.0}


class TestValidatorReward:
    """A validator's reward from one pooled service, as formation_utility
    sums it over services."""

    def test_degree_at_target_is_paid(self):
        pools = RewardPools(reward={"a": 2.0}, target_degree=1.0)
        net = network_with({("v1", "a"): 4, ("v2", "a"): 4}, {"v1": 4, "v2": 4}, ("a",))
        assert formation_utility(net, pools, "v1") == pytest.approx(1.0)

    def test_degree_above_target_pays_nothing(self):
        pools = RewardPools(reward={"a": 2.0, "b": 2.0}, target_degree=1.0)
        net = network_with(
            {("v1", "a"): 4, ("v1", "b"): 1, ("v2", "a"): 4},
            {"v1": 4, "v2": 4},
            ("a", "b"),
        )
        assert formation_utility(net, pools, "v1") == 0

    def test_sole_allocator_collects_full_pool(self):
        pools = RewardPools(reward={"a": 3.0}, target_degree=1.0)
        net = network_with({("v1", "a"): 2}, {"v1": 4, "v2": 4}, ("a",))
        assert formation_utility(net, pools, "v1") == pytest.approx(3.0)

    def test_zero_allocation_service_pays_zero(self):
        pools = RewardPools(reward={"a": 3.0}, target_degree=1.0)
        net = network_with({}, {"v1": 4}, ("a",))
        assert formation_utility(net, pools, "v1") == 0


class TestFormationUtility:
    def test_symmetric_split(self):
        pools = RewardPools(reward={"a": 1.0, "b": 1.0}, target_degree=2.0)
        net = network_with(
            {(v, s): 2 for v in ("v1", "v2") for s in ("a", "b")},
            {"v1": 4, "v2": 4},
            ("a", "b"),
        )
        assert formation_utility(net, pools, "v1") == pytest.approx(1.0)

    def test_over_allocated_validator_gets_zero(self):
        pools = RewardPools(reward={"a": 1.0, "b": 1.0}, target_degree=1.0)
        net = network_with(
            {("v1", "a"): 4, ("v1", "b"): 4},
            {"v1": 4},
            ("a", "b"),
        )
        assert formation_utility(net, pools, "v1") == 0

    def test_everything_zero_allocated(self):
        pools = RewardPools(reward={"a": 1.0}, target_degree=1.0)
        net = network_with({}, {"v1": 4, "v2": 4, "v3": 4}, ("a",))
        assert formation_utility(net, pools, "v1") == 0


class TestEquilibrium:
    def test_equal_rewards_split_evenly(self):
        pools = RewardPools(reward={"a": 1.0, "b": 1.0}, target_degree=1.0)
        w = equilibrium_allocations({"v": 10}, pools)
        assert w[("v", "a")] == pytest.approx(5.0)
        assert w[("v", "b")] == pytest.approx(5.0)

    def test_three_services_degree_two(self):
        pools = RewardPools(reward={s: 1.0 for s in "abc"}, target_degree=2.0)
        w = equilibrium_allocations({"v": 3}, pools)
        assert all(w[("v", s)] == pytest.approx(2.0) for s in "abc")

    def test_single_service_full_stake(self):
        pools = RewardPools(reward={"a": 7.0}, target_degree=1.0)
        w = equilibrium_allocations({"v": 11}, pools)
        assert w[("v", "a")] == pytest.approx(11.0)

    def test_precondition_violation_names_service(self):
        pools = RewardPools(reward={"big": 10.0, "small": 1.0}, target_degree=2.0)
        with pytest.raises(InputError) as err:
            equilibrium_allocations({"v": 1}, pools)
        assert "big" in str(err.value)

    def test_exact_degree_with_rational_arithmetic(self):
        pools = RewardPools(
            reward={"a": Fraction(1), "b": Fraction(2)}, target_degree=Fraction(3, 2)
        )
        stakes = {"v1": Fraction(7), "v2": Fraction(4)}
        w = equilibrium_allocations(stakes, pools)
        net = network_with(w, stakes, ("a", "b"))
        for v in stakes:
            assert restaking_degree(net, v) == Fraction(3, 2)

    def test_scaling_covariance(self):
        rng = random.Random(60)
        for _ in range(20):
            stakes, pools = random_instance(rng)
            scaled = RewardPools(
                reward={s: 7.5 * r for s, r in pools.reward.items()},
                target_degree=pools.target_degree,
            )
            w1 = equilibrium_allocations(stakes, pools)
            w2 = equilibrium_allocations(stakes, scaled)
            for key in w1:
                assert w1[key] == pytest.approx(w2[key], rel=1e-12)


class TestBestResponse:
    def equilibrium_network(self, stakes, pools):
        w = equilibrium_allocations(stakes, pools)
        return network_with(w, stakes, tuple(pools.reward))

    def test_no_gain_at_equilibrium(self):
        rng = random.Random(61)
        for _ in range(15):
            stakes, pools = random_instance(rng)
            net = self.equilibrium_network(stakes, pools)
            for v in net.validators:
                assert best_response(net, pools, v)[0] <= 1e-9

    def test_budget_balance_at_equilibrium(self):
        rng = random.Random(62)
        for _ in range(15):
            stakes, pools = random_instance(rng)
            net = self.equilibrium_network(stakes, pools)
            paid = sum(formation_utility(net, pools, v) for v in net.validators)
            assert paid == pytest.approx(pools.total(), abs=1e-9)

    def test_perturbed_profile_is_improvable(self):
        pools = RewardPools(reward={"a": 1.0, "b": 1.0}, target_degree=1.0)
        stakes = {"v1": 10.0, "v2": 10.0}
        w = equilibrium_allocations(stakes, pools)
        w[("v1", "a")] = 1.0  # v1 badly under-allocates to a
        net = network_with(w, stakes, ("a", "b"))
        gain, deviation, attained = best_response(net, pools, "v1")
        assert gain == pytest.approx(1 / 3, rel=1e-12)
        assert deviation == pytest.approx({"a": 5.0, "b": 5.0}, rel=1e-12)
        assert attained

    def test_gate_never_binds_when_target_exceeds_service_count(self):
        # With target_degree >= |S| the scheme is plain proportional reward.
        pools = RewardPools(reward={"a": 1.0, "b": 1.0}, target_degree=2.0)
        stakes = {"v1": 5.0, "v2": 5.0}
        net = network_with(
            {(v, s): 5.0 for v in stakes for s in "ab"}, stakes, ("a", "b")
        )
        for v in stakes:
            assert formation_utility(net, pools, v) == pytest.approx(1.0)
            assert best_response(net, pools, v)[0] <= 1e-9

    def test_water_filling_matches_closed_form(self):
        # x_s = sqrt(r_s o_s / lam) - o_s with sqrt(r_s o_s) = (1, 2, 3) and
        # sum x_s = 6 gives x = (1, 2, 3) and utility 3 against 43/15.
        pools = RewardPools(reward={"a": 1, "b": 2, "c": 3}, target_degree=1)
        w = {("v1", s): 2 for s in "abc"}
        w.update({("v2", "a"): 1, ("v2", "b"): 2, ("v2", "c"): 3})
        net = network_with(w, {"v1": 6, "v2": 6}, "abc")
        gain, deviation, attained = best_response(net, pools, "v1")
        assert abs(gain - 2 / 15) <= 1e-12
        for s, x in zip("abc", (1, 2, 3)):
            assert abs(deviation[s] - x) <= 1e-12
        assert attained

    def test_unserved_service_is_a_supremum(self):
        # Any positive allocation to "b" collects its whole pool, so the
        # supremum, 0.5 from "a" plus 2, is approached as x_b -> 0+ and never
        # attained. The current utility is 0.5.
        pools = RewardPools(reward={"a": 1.0, "b": 2.0}, target_degree=1.0)
        net = network_with({("v1", "a"): 4.0, ("v2", "a"): 4.0}, {"v1": 4.0, "v2": 4.0}, "ab")
        gain, deviation, attained = best_response(net, pools, "v1")
        assert gain == pytest.approx(2.0, rel=1e-12)
        assert deviation == {"a": 4.0, "b": 0.0}
        assert not attained

    def test_zero_stake_has_only_the_zero_deviation(self):
        pools = RewardPools(reward={"a": 1.0}, target_degree=1.0)
        net = network_with({("v2", "a"): 4.0}, {"v1": 0.0, "v2": 4.0}, "a")
        assert best_response(net, pools, "v1") == (0.0, {"a": 0.0}, True)

    def test_unknown_validator(self):
        pools = RewardPools(reward={"a": 1.0}, target_degree=1.0)
        net = network_with({}, {"v1": 4.0}, "a")
        with pytest.raises(InputError):
            best_response(net, pools, "vX")


@st.composite
def profiles(draw):
    """A validator's view of a random profile; some services nobody else serves."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    services = tuple(f"s{j}" for j in range(m))
    stakes = {f"v{i}": draw(st.floats(0.1, 20.0)) for i in range(n)}
    unserved = draw(st.sets(st.sampled_from(services), max_size=m - 1))
    allocation = {}
    for v, sigma in stakes.items():
        for s in services:
            if v == "v0" or s not in unserved:
                allocation[(v, s)] = draw(st.floats(0.0, 1.0)) * sigma / m
    pools = RewardPools(
        reward={s: draw(st.floats(0.1, 5.0)) for s in services},
        target_degree=draw(st.floats(0.1, 1.5 * m)),
    )
    return network_with(allocation, stakes, services), pools


def deviate(net, v, deviation):
    allocation = {k: w for k, w in net.allocation.items() if k[0] != v}
    allocation.update({(v, s): x for s, x in deviation.items()})
    return replace(net, allocation=allocation)


@settings(max_examples=150, deadline=None)
@given(
    profiles(),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), min_size=1, max_size=5),
)
def test_best_response_is_feasible_and_unbeaten(profile, samples):
    net, pools = profile
    v, sigma, target = "v0", net.stake["v0"], pools.target_degree
    gain, deviation, attained = best_response(net, pools, v)
    current = formation_utility(net, pools, v)
    best = current + gain
    assert sum(deviation.values()) <= target * sigma * (1 + 1e-12)
    assert all(0 <= x <= sigma for x in deviation.values())
    if attained:
        achieved = formation_utility(deviate(net, v, deviation), pools, v)
        assert achieved == pytest.approx(best, rel=1e-12)
    for weights in samples:
        # A random point of the feasible set, scaled into the degree budget.
        x = {s: wt * sigma for s, wt in zip(net.services, weights)}
        scale = min(1.0, target * sigma / max(sum(x.values()), 1e-300))
        x = {s: xs * scale for s, xs in x.items()}
        assert formation_utility(deviate(net, v, x), pools, v) <= best * (1 + 1e-12)
