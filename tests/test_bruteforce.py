from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from restaking.bruteforce import (
    best_attack,
    build_divisible_reduction,
    build_indivisible_reduction,
    has_profitable_indivisible_attack,
    min_budget_bruteforce,
    min_cost_attack,
    subset_sum_bruteforce,
)
from restaking.mip import min_budget
from restaking.model import (
    Attack,
    InputError,
    attacked_services,
    evaluate_attack,
    generalized_eigenlayer_condition,
)

from conftest import as_fractions, random_network


class TestMinCostAttack:
    def test_atomic_pair(self, fig_atomic):
        cost, attack = min_cost_attack(fig_atomic, ("s",))
        assert cost == pytest.approx(20.0, abs=1e-7)
        assert "s" in attacked_services(fig_atomic, attack)

    def test_empty_target_rejected(self, fig_atomic):
        with pytest.raises(InputError):
            min_cost_attack(fig_atomic, ())

    def test_unknown_service_rejected(self, fig_atomic):
        with pytest.raises(InputError):
            min_cost_attack(fig_atomic, ("zzz",))

    def test_attack_achieves_reported_cost(self):
        rng = random.Random(70)
        for _ in range(25):
            net = random_network(rng)
            target = tuple(
                s for s in net.services if rng.random() < 0.6
            ) or net.services[:1]
            cost, attack = min_cost_attack(net, target)
            ev = evaluate_attack(net, attack)
            assert set(target) <= set(ev.attacked_services)
            assert ev.total_cost == pytest.approx(cost, abs=1e-7)

    def test_tightening_never_hurts(self):
        # Monotone in the target under set inclusion.
        rng = random.Random(71)
        for _ in range(20):
            net = random_network(rng, max_validators=3, max_services=3)
            services = net.services
            for size in range(1, len(services)):
                for smaller in combinations(services, size):
                    cost_small, _ = min_cost_attack(net, smaller)
                    for extra in services:
                        if extra in smaller:
                            continue
                        cost_big, _ = min_cost_attack(net, smaller + (extra,))
                        assert cost_big >= cost_small - 1e-9


class TestBestAttack:
    def test_breakeven_network(self, half_allocated):
        margin, attack = best_attack(half_allocated)
        assert margin == pytest.approx(0.0, abs=1e-9)
        assert attack.used("v", "s") == pytest.approx(1.0)

    def test_atomic_pair_margin(self, fig_atomic):
        margin, _ = best_attack(fig_atomic)
        assert margin == pytest.approx(-15.0, abs=1e-7)

    def test_sufficient_condition_networks_have_negative_margin(self):
        rng = random.Random(72)
        found = 0
        for _ in range(60):
            net = random_network(rng, max_validators=3, max_services=3)
            if not generalized_eigenlayer_condition(net):
                continue
            found += 1
            margin, _ = best_attack(net)
            assert margin < 0
        assert found >= 5


class TestExactArithmetic:
    def test_fraction_networks_are_decided_exactly(self):
        # No LP: on Fraction inputs the margin and the cost are exact, and
        # evaluate_attack scores the witnesses at exactly those values.
        rng = random.Random(75)
        for _ in range(40):
            net = as_fractions(random_network(rng))
            margin, attack = best_attack(net)
            assert isinstance(margin, Fraction)
            assert evaluate_attack(net, attack).margin == margin
            target = tuple(s for s in net.services if rng.random() < 0.6) or net.services[:1]
            cost, attack = min_cost_attack(net, target)
            evaluation = evaluate_attack(net, attack)
            assert set(target) <= evaluation.attacked_services
            assert evaluation.total_cost == cost


class TestMinBudgetBruteforce:
    def test_atomic_pair(self, fig_atomic):
        assert min_budget_bruteforce(fig_atomic) == pytest.approx(15.0, abs=1e-7)

    def test_insecure_clamps_to_zero(self, half_allocated):
        assert min_budget_bruteforce(half_allocated) == 0

    def test_agrees_with_mip(self):
        rng = random.Random(73)
        for _ in range(20):
            net = random_network(rng, max_validators=3, max_services=3)
            assert min_budget_bruteforce(net) == pytest.approx(
                min_budget(net), abs=1e-6
            )


class TestReductions:
    def test_indivisible_construction(self):
        net = build_indivisible_reduction([1, 2, 3], 3)
        assert net.threshold["s"] == pytest.approx(0.5)
        assert net.prize["s"] == 3
        assert [net.stake[v] for v in net.validators] == [1, 2, 3]
        assert all(net.w(v, "s") == net.stake[v] for v in net.validators)

    def test_indivisible_full_target_threshold_one(self):
        net = build_indivisible_reduction([2, 3], 5)
        assert net.threshold["s"] == 1

    def test_indivisible_single_element(self):
        net = build_indivisible_reduction([5], 5)
        assert net.stake["v1"] == 5 and net.threshold["s"] == 1 and net.prize["s"] == 5

    def test_divisible_construction(self):
        net = build_divisible_reduction([2, 4], 4)
        assert net.threshold["shared"] == pytest.approx(4 / 6)
        assert net.prize["shared"] == 2
        assert len(net.services) == 3
        assert net.prize["s1"] == 1 and net.prize["s2"] == 2
        assert net.threshold["s1"] == 1

    def test_divisible_unit_elements(self):
        net = build_divisible_reduction([1, 1, 1], 2)
        assert net.threshold["shared"] == pytest.approx(2 / 3)
        assert all(net.prize[f"s{i}"] == 0.5 for i in (1, 2, 3))

    def test_invalid_target_rejected(self):
        with pytest.raises(InputError):
            build_indivisible_reduction([1, 2], 4)
        with pytest.raises(InputError):
            build_divisible_reduction([1, 2], 0)

    def test_indivisible_attack_flag(self, fig_atomic):
        assert Attack(stake_used={("v1", "s"): 20}).is_indivisible(fig_atomic)
        assert not Attack(stake_used={("v1", "s"): 10}).is_indivisible(fig_atomic)

    def test_faithfulness_spot_checks(self):
        rng = random.Random(74)
        for _ in range(30):
            n = rng.randint(1, 8)
            elements = [rng.randint(1, 25) for _ in range(n)]
            target = rng.randint(1, sum(elements))
            truth = subset_sum_bruteforce(elements, target)
            assert (
                has_profitable_indivisible_attack(
                    build_indivisible_reduction(elements, target)
                )
                == truth
            )


class TestSubsetSum:
    def test_full_sum(self):
        assert subset_sum_bruteforce([1, 2, 3], 6)

    def test_gap(self):
        assert not subset_sum_bruteforce([2, 4], 3)

    def test_classic_instance(self):
        assert subset_sum_bruteforce([3, 34, 4, 12, 5, 2], 9)
