from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from restaking import bruteforce
from restaking.bruteforce import (
    _capped_sets,
    best_attack,
    min_budget_bruteforce,
    min_cost_attack,
    oracle_check,
)
from restaking.experiments import AGREEMENT_TOLERANCE, min_stake_mip
from restaking.mip import min_budget, mip_check
from restaking.model import (
    Attack,
    InputError,
    Network,
    byzantine_choices,
    byzantine_weight_cap,
    evaluate_attack,
    generalized_eigenlayer_condition,
)
from restaking.symmetry import SweepTemplate, find_beta_costly, max_budget, min_stake_for

from conftest import as_fractions, random_network
from reductions import (
    build_divisible_reduction,
    build_indivisible_reduction,
    has_profitable_indivisible_attack,
    is_indivisible,
    subset_sum_bruteforce,
)


class TestMinCostAttack:
    def test_atomic_pair(self, fig_atomic):
        cost, attack = min_cost_attack(fig_atomic, ("s",))
        assert cost == pytest.approx(20.0, abs=1e-7)
        assert "s" in evaluate_attack(fig_atomic, attack).attacked_services

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

    @pytest.mark.parametrize("stakes", [(3, 1), (3, 3)])
    def test_ties_go_to_the_attacker_exactly(self, stakes):
        # Threshold 3/4 of the total allocation: the best attack costs exactly
        # 3 for a prize of 1 on both networks, so its margin is exactly -2.
        # Budget 2 is a tie, which the attacker wins; a budget short of 2 by
        # 1e-12, far inside the float tolerance, leaves the network robust.
        # The second network is symmetric, and the closed form agrees.
        validators = ("v1", "v2")
        net = Network(validators, ("s",), dict(zip(validators, stakes)),
                      {(v, "s"): x for v, x in zip(validators, stakes)},
                      {"s": Fraction(3, sum(stakes))}, {"s": Fraction(1)})
        assert best_attack(net)[0] == -2
        engines = [oracle_check] + [find_beta_costly] * (stakes[0] == stakes[1])
        for check in engines:
            byzantine, attack = check(net, Fraction(2), 0)
            assert byzantine == () and evaluate_attack(net, attack).margin == -2
            assert check(net, 2 - Fraction(1, 10**12), 0) is None

    def test_oracle_check_refuses_a_negative_budget(self, fig_atomic):
        for budget in (-1, math.nan):
            with pytest.raises(InputError, match="budget"):
                oracle_check(fig_atomic, budget, 0)

    @pytest.mark.parametrize("budget", [-1, math.nan])
    def test_every_engine_refuses_a_negative_or_nan_budget(self, budget):
        # Insecure, so an engine that let NaN through would answer something.
        net = Network(("v1", "v2"), ("s",), {"v1": 1, "v2": 1},
                      {("v1", "s"): 1, ("v2", "s"): 1}, {"s": 0.5}, {"s": 5})
        template = SweepTemplate(3, 3, 1 / 3)
        for decide in (
            lambda: find_beta_costly(net, budget, 0),
            lambda: mip_check(net, budget, 0),
            lambda: oracle_check(net, budget, 0),
            lambda: min_stake_for(template, 1.0, budget, 0),
            lambda: min_stake_mip(template, 1.0, budget, 0),
        ):
            with pytest.raises(InputError, match="budget"):
                decide()


def every_capped_set(net: Network):
    """The plain scan of all 2^n capped sets, by size, then validator order."""
    required = {s: net.threshold[s] * net.total_allocation(s) for s in net.services}
    for size in range(len(net.validators) + 1):
        for capped in combinations(net.validators, size):
            deficit = {
                s: max(0, required[s] - sum(net.w(v, s) for v in capped))
                for s in net.services
            }
            yield capped, sum(net.stake[v] for v in capped), deficit


def with_twins(net: Network, rng: random.Random) -> Network:
    """The network with about a third of its validators made copies (same
    stake, same allocation row) of an earlier one, and a third given only an
    earlier one's stake, which they allocate in full to random services."""
    stake, allocation = dict(net.stake), dict(net.allocation)
    for i, v in enumerate(net.validators[1:], start=1):
        draw = rng.random()
        if draw < 2 / 3:
            u = net.validators[rng.randrange(i)]
            stake[v] = stake[u]
            for s in net.services:
                allocation.pop((v, s), None)
                if draw < 1 / 3 and (u, s) in allocation:
                    allocation[v, s] = allocation[u, s]
                elif draw >= 1 / 3 and rng.random() < 0.75:
                    allocation[v, s] = stake[v]
    return Network(net.validators, net.services, stake, allocation, net.threshold,
                   net.prize)


class TestClassCounts:
    def test_equals_the_plain_scan_exactly(self, monkeypatch):
        # Seeded Fraction networks, half of them with interchangeable
        # validators: one capped set per count vector gives the 2^n scan's
        # margin, cost and witness, ties included.
        rng = random.Random(76)
        cases = []
        for i in range(60):
            net = random_network(rng, max_validators=6, max_services=4)
            net = as_fractions(with_twins(net, rng) if i % 2 else net)
            target = tuple(s for s in net.services if rng.random() < 0.6) or net.services[:1]
            cases.append((net, target))
        by_counts = [(best_attack(net), min_cost_attack(net, target)) for net, target in cases]
        monkeypatch.setattr(bruteforce, "_capped_sets", every_capped_set)
        for (net, target), counted in zip(cases, by_counts):
            assert counted == (best_attack(net), min_cost_attack(net, target))
            assert isinstance(counted[0][0], Fraction)

    def test_distinct_validators_scan_every_subset_in_order(self):
        rng = random.Random(77)
        for _ in range(20):
            net = random_network(rng, max_validators=5)
            assert list(_capped_sets(net)) == list(every_capped_set(net))

    @pytest.mark.parametrize("base", [False, True])
    def test_template_has_one_capped_set_per_size(self, base):
        template = SweepTemplate(15, 15, 1 / 3, base_prize=10.0 if base else None,
                                 base_threshold=0.5 if base else None)
        net = template.build_network(5.0, 2.0)
        sizes = [len(capped) for capped, _, _ in _capped_sets(net)]
        assert sizes == list(range(16))

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 4), (8, 5), (10, 10), (15, 15)])
    @pytest.mark.parametrize("base", [False, True])
    def test_symmetric_templates_agree_with_closed_form(self, n, m, base):
        # The safe budget after the worst admissible Byzantine choice, at
        # stakes c * m / n that leave it positive in some cases and 0 in others.
        template = SweepTemplate(n, m, 1 / 3, base_prize=10.0 if base else None,
                                 base_threshold=1 / 3 if base else None)
        for c, degree, f in ((10, 1.0, 0.0), (20, min(2.0, m), 0.4), (40, m / 2, 0.2),
                             (60, 1.0, 0.3)):
            stake = c * m / n
            net = template.build_network(stake, degree)
            cap = byzantine_weight_cap(net, f)
            oracle = min(
                (min_budget_bruteforce(slashed) for _, slashed in byzantine_choices(net, cap)),
                default=math.inf,
            )
            closed = max_budget(net, cap)
            assert oracle == pytest.approx(closed, abs=AGREEMENT_TOLERANCE), (c, degree, f)


class TestMinBudgetBruteforce:
    def test_atomic_pair(self, fig_atomic):
        assert min_budget_bruteforce(fig_atomic) == pytest.approx(15.0, abs=1e-7)

    def test_insecure_clamps_to_zero(self, half_allocated):
        assert min_budget_bruteforce(half_allocated) == 0

    def test_no_services_withstands_any_budget(self):
        # Nothing to attack: the oracle answers as the budget program does.
        net = Network(("v",), (), {"v": 1}, {}, {}, {})
        assert min_budget_bruteforce(net) == min_budget(net) == math.inf

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
        assert is_indivisible(Attack(stake_used={("v1", "s"): 20}), fig_atomic)
        assert not is_indivisible(Attack(stake_used={("v1", "s"): 10}), fig_atomic)

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
