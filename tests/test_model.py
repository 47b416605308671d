from __future__ import annotations

import dataclasses
import inspect
import math
import random
from fractions import Fraction

import pytest

from restaking.bruteforce import best_attack
from restaking.model import (
    Attack,
    AttackEvaluation,
    InputError,
    Network,
    apply_byzantine,
    attackable,
    byzantine_choices,
    byzantine_subsets,
    byzantine_weight_cap,
    eigenlayer_condition,
    evaluate_attack,
    generalized_eigenlayer_condition,
    prize_shares,
    restaking_degree,
    robustness_utility,
    service_weight,
)

from conftest import as_fractions, random_network


def stretched(stake, allocations):
    services = tuple(f"s{i}" for i in range(len(allocations)))
    return Network(
        validators=("v",),
        services=services,
        stake={"v": stake},
        allocation={("v", s): w for s, w in zip(services, allocations)},
        threshold={s: 0.5 for s in services},
        prize={s: 1 for s in services},
    )


class TestRestakingDegree:
    def test_stretch_three_ways(self):
        assert restaking_degree(stretched(2, (1, 1, 1)), "v") == 1.5

    def test_zero_allocation(self):
        assert restaking_degree(stretched(10, (0, 0)), "v") == 0.0

    def test_uneven_allocations(self):
        assert restaking_degree(stretched(5, (3, 3, 1)), "v") == 1.4

    def test_unknown_validator(self):
        with pytest.raises(InputError):
            restaking_degree(stretched(2, (1,)), "nobody")


class TestAttackedServices:
    def test_full_allocation_attack(self, half_allocated):
        attack = Attack(stake_used={("v", "s"): 1})
        assert evaluate_attack(half_allocated, attack).attacked_services == {"s"}

    def test_all_zero_attack_positive_allocations(self, fig_atomic):
        attack = Attack(stake_used={})
        assert evaluate_attack(fig_atomic, attack).attacked_services == frozenset()

    def test_one_of_two_validators_meets_half(self, fig_atomic):
        attack = Attack(stake_used={("v1", "s"): 20})
        assert evaluate_attack(fig_atomic, attack).attacked_services == {"s"}

    def test_zero_allocation_service_is_attacked_for_free(self):
        net = Network(
            validators=("v",),
            services=("s",),
            stake={"v": 1},
            allocation={},
            threshold={"s": 0.9},
            prize={"s": 1},
        )
        assert evaluate_attack(net, Attack(stake_used={})).attacked_services == {"s"}

    def test_unknown_ids_rejected(self, fig_atomic):
        with pytest.raises(InputError):
            evaluate_attack(fig_atomic, Attack(stake_used={("v1", "zzz"): 1}))
        with pytest.raises(InputError):
            evaluate_attack(fig_atomic, Attack(stake_used={("zzz", "s"): 1}))


class TestEvaluateAttack:
    def test_lone_attacker_reimbursement_gap(self, fig_atomic):
        ev = evaluate_attack(fig_atomic, Attack(stake_used={("v1", "s"): 20}))
        assert ev.total_cost == 20
        assert ev.total_prize == 5
        assert ev.margin == -15

    def test_all_zero(self, fig_atomic):
        ev = evaluate_attack(fig_atomic, Attack(stake_used={}))
        assert ev.total_cost == 0 and ev.total_prize == 0

    def test_half_allocated_profitable(self, half_allocated):
        ev = evaluate_attack(half_allocated, Attack(stake_used={("v", "s"): 1}))
        assert ev.total_cost == 1 and ev.total_prize == 1
        assert beta_costly(ev, 0)

    def test_stake_aimed_at_unattacked_service_is_free(self):
        # Two services; aiming below threshold at s2 must not be charged.
        net = Network(
            validators=("v",),
            services=("s1", "s2"),
            stake={"v": 2},
            allocation={("v", "s1"): 1, ("v", "s2"): 1},
            threshold={"s1": 1, "s2": 1},
            prize={"s1": 1, "s2": 1},
        )
        ev = evaluate_attack(net, Attack(stake_used={("v", "s1"): 1, ("v", "s2"): 0.5}))
        assert ev.attacked_services == {"s1"}
        assert ev.total_cost == 1


class TestPrizeShares:
    def test_single_payer_takes_all(self, fig_atomic):
        ev = evaluate_attack(fig_atomic, Attack(stake_used={("v1", "s"): 20}))
        shares = prize_shares(fig_atomic, ev)
        assert shares == {"v1": 1.0, "v2": 0.0}

    def test_zero_cost_split_evenly(self):
        validators = tuple(f"v{i}" for i in range(4))
        net = Network(
            validators=validators,
            services=("s",),
            stake={v: 1 for v in validators},
            allocation={},
            threshold={"s": 0.5},
            prize={"s": 1},
        )
        ev = evaluate_attack(net, Attack(stake_used={}))
        shares = prize_shares(net, ev)
        assert all(share == 0.25 for share in shares.values())

    def test_proportional_split(self):
        # Costs 1 and 3 -> shares 1/4 and 3/4.
        net = Network(
            validators=("a", "b"),
            services=("s",),
            stake={"a": 1, "b": 3},
            allocation={("a", "s"): 1, ("b", "s"): 3},
            threshold={"s": 1},
            prize={"s": 2},
        )
        ev = evaluate_attack(net, Attack(stake_used={("a", "s"): 1, ("b", "s"): 3}))
        shares = prize_shares(net, ev)
        assert shares["a"] == 0.25 and shares["b"] == 0.75


class TestUtilities:
    def test_zero_attack_zero_utility(self, fig_atomic):
        assert robustness_utility(fig_atomic, Attack(stake_used={}), "v1", 0) == 0

    def test_breakeven_attack(self, half_allocated):
        attack = Attack(stake_used={("v", "s"): 1})
        assert robustness_utility(half_allocated, attack, "v", 0) == 0

    def test_lone_attacker_loss(self, fig_atomic):
        attack = Attack(stake_used={("v1", "s"): 20})
        assert robustness_utility(fig_atomic, attack, "v1", 0) == -15

    def test_budget_reimburses_losses(self, fig_atomic):
        attack = Attack(stake_used={("v1", "s"): 20})
        assert robustness_utility(fig_atomic, attack, "v1", 15) == 0

    def test_no_attacked_services_means_no_subsidy(self, fig_atomic):
        attack = Attack(stake_used={("v1", "s"): 1})
        assert robustness_utility(fig_atomic, attack, "v1", 100) == 0  # cost is 0

    def test_budget_zero_reduces_to_security_game(self):
        # The security game pays each validator its share of the prize minus
        # its cost, whether or not anything is attacked.
        rng = random.Random(62)
        for _ in range(50):
            net = random_network(rng)
            attack = Attack(stake_used={
                (v, s): rng.choice([0, rng.uniform(0, net.w(v, s)), net.w(v, s)])
                for v in net.validators for s in net.services
            })
            ev = evaluate_attack(net, attack)
            shares = prize_shares(net, ev)
            for v in net.validators:
                game = shares[v] * ev.total_prize - ev.validator_cost[v]
                assert robustness_utility(net, attack, v, 0) == game

    def test_negative_budget_rejected(self, fig_atomic):
        for budget in (-1, math.nan):
            with pytest.raises(InputError):
                robustness_utility(fig_atomic, Attack(stake_used={}), "v1", budget)


def beta_costly(ev: AttackEvaluation, budget) -> bool:
    """Something was attacked and the prize plus a budget covers the cost."""
    return bool(ev.attacked_services) and attackable(ev.margin, budget)


class TestProfitability:
    def test_breakeven_pays_at_budget_zero(self, half_allocated):
        ev = evaluate_attack(half_allocated, Attack(stake_used={("v", "s"): 1}))
        assert beta_costly(ev, 0)

    def test_empty_attacked_set_is_not(self, fig_atomic):
        assert not beta_costly(evaluate_attack(fig_atomic, Attack(stake_used={})), 0)

    def test_costly_attack_is_not_profitable(self, fig_atomic):
        ev = evaluate_attack(fig_atomic, Attack(stake_used={("v1", "s"): 20}))
        assert not beta_costly(ev, 0)

    def test_beta_costly_boundary(self, fig_atomic):
        ev = evaluate_attack(fig_atomic, Attack(stake_used={("v1", "s"): 20}))
        assert beta_costly(ev, 15)
        assert not beta_costly(ev, 14.999)

    def test_budget_zero_coincides_with_profitable(self):
        # Budget 0 asks whether the attack pays: something is attacked and
        # the prize covers the cost, float ties within 1e-9 to the attacker.
        def ev(cost, prize, attacked=frozenset({"s"})):
            return AttackEvaluation(attacked, {}, cost, prize, prize - cost)

        assert beta_costly(ev(1.0 + 1e-10, 1.0), 0)
        assert not beta_costly(ev(1.0 + 1e-8, 1.0), 0)
        assert not beta_costly(ev(0, 1, frozenset()), 0)
        assert beta_costly(ev(Fraction(1), Fraction(1)), 0)
        assert not beta_costly(ev(1 + Fraction(1, 10**12), Fraction(1)), 0)


class TestApplyByzantine:
    def test_stretch_keeps_allocations(self):
        net = stretched(2, (1, 1, 1))
        after = apply_byzantine(net, {"s0"})
        assert after.stake["v"] == 1
        assert after.w("v", "s1") == 1 and after.w("v", "s2") == 1
        assert isinstance(after.stake["v"], int)

    def test_empty_set_is_identity(self):
        net = stretched(5, (3, 3, 1))
        after = apply_byzantine(net, set())
        assert after == net

    def test_clipped_allocation(self):
        net = stretched(5, (3, 3, 1))
        after = apply_byzantine(net, {"s0"})
        assert after.stake["v"] == 2
        assert after.w("v", "s1") == 2 and after.w("v", "s2") == 1

    def test_base_service_cannot_fail(self):
        net = Network(
            validators=("v",),
            services=("s",),
            stake={"v": 1},
            allocation={("v", "s"): 1},
            threshold={"s": 0.5},
            prize={"s": 1},
            base_services=frozenset({"s"}),
        )
        with pytest.raises(InputError):
            apply_byzantine(net, {"s"})


def three_identical_services():
    validators = ("v1", "v2")
    services = ("a", "b", "c")
    return Network(
        validators=validators,
        services=services,
        stake={v: 3 for v in validators},
        allocation={(v, s): 1 for v in validators for s in services},
        threshold={s: 1 / 3 for s in services},
        prize={s: 1 for s in services},
    )


class TestByzantineSubsets:
    def test_zero_cap_only_empty(self):
        assert list(byzantine_subsets(three_identical_services(), 0)) == [()]

    def test_third_of_total_weight_gives_singletons(self):
        # weight 3 per service, total 9; a cap of 3 admits the singletons.
        subsets = list(byzantine_subsets(three_identical_services(), 3))
        assert subsets == [(), ("a",), ("b",), ("c",)]

    def test_large_cap_gives_all_subsets(self):
        subsets = list(byzantine_subsets(three_identical_services(), 100))
        assert len(subsets) == 8

    def test_base_services_excluded(self):
        net = three_identical_services()
        net = Network(
            validators=net.validators,
            services=net.services,
            stake=net.stake,
            allocation=net.allocation,
            threshold=net.threshold,
            prize=net.prize,
            base_services=frozenset({"a"}),
        )
        subsets = list(byzantine_subsets(net, 100))
        assert len(subsets) == 4 and all("a" not in t for t in subsets)

    def test_negative_cap_rejected(self):
        with pytest.raises(InputError):
            list(byzantine_subsets(three_identical_services(), -1))


def planted_network(rng: random.Random) -> Network:
    """Random network whose services copy a few shapes, some with threshold 0,
    and sometimes one base service."""
    validators = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
    stake = {v: rng.choice([1.0, 2.5, rng.uniform(0.5, 3.0)]) for v in validators}
    shapes = [
        (
            rng.choice([0.0, 0.5, rng.uniform(0.2, 1.0)]) if rng.random() < 0.3
            else rng.uniform(0.2, 1.0),
            rng.choice([1.0, rng.uniform(0.2, 2.0)]),
            {v: rng.choice([0.0, stake[v] / 2, rng.uniform(0.0, stake[v])])
             for v in validators},
        )
        for _ in range(rng.randint(1, 4))
    ]
    services = tuple(f"s{j}" for j in range(rng.randint(1, 7)))
    picked = {s: rng.choice(shapes) for s in services}
    return Network(
        validators=validators,
        services=services,
        stake=stake,
        allocation={
            (v, s): picked[s][2][v] for s in services for v in validators
            if picked[s][2][v] > 0
        },
        threshold={s: picked[s][0] for s in services},
        prize={s: picked[s][1] for s in services},
        base_services=frozenset(rng.sample(services, rng.randint(0, 1))),
    )


def dedup_reference(net: Network, cap):
    """Every admissible subset, keeping the first of each class multiset."""
    shape = lambda s: (
        net.threshold[s], net.prize[s], tuple(net.w(v, s) for v in net.validators)
    )
    seen = set()
    for subset in byzantine_subsets(net, cap):
        signature = tuple(sorted(shape(s) for s in subset))
        if signature not in seen:
            seen.add(signature)
            slashed = apply_byzantine(net, subset)
            if slashed.services:
                yield subset, slashed


class TestByzantineChoices:
    def test_matches_enumerate_then_dedup(self):
        rng = random.Random(71)
        merged = 0
        for _ in range(300):
            net = planted_network(rng)
            finite = [
                service_weight(net, s) for s in net.services
                if s not in net.base_services and service_weight(net, s) < math.inf
            ]
            # A cap just under a subset's weight admits it only through the
            # tolerance that ties give the attacker.
            tight = max(0, sum(rng.sample(finite, rng.randint(0, len(finite)))) - 5e-10)
            for cap in (0, rng.uniform(0, sum(finite)), tight, math.inf):
                got = list(byzantine_choices(net, cap))
                assert got == list(dedup_reference(net, cap))
                merged += len(list(byzantine_subsets(net, cap))) - len(got)
        assert merged > 1000  # the planted classes merge many subsets

    def test_one_choice_per_count(self):
        choices = list(byzantine_choices(three_identical_services(), 100))
        assert [subset for subset, _ in choices] == [(), ("a",), ("a", "b")]

    def test_negative_or_nan_cap_rejected(self):
        net = three_identical_services()
        for cap in (-1, math.nan):
            with pytest.raises(InputError):
                list(byzantine_choices(net, cap))
            with pytest.raises(InputError):
                list(byzantine_subsets(net, cap))
            with pytest.raises(InputError):
                byzantine_weight_cap(net, cap)


class TestSufficientConditions:
    def test_half_allocated_passes_weaker_condition_only(self, half_allocated):
        assert eigenlayer_condition(half_allocated)
        assert not generalized_eigenlayer_condition(half_allocated)

    def test_over_prized_service_fails(self):
        net = Network(
            validators=("v",),
            services=("s",),
            stake={"v": 1},
            allocation={("v", "s"): 1},
            threshold={"s": 0.5},
            prize={"s": 1},
        )
        # pi/theta = 2 > stake
        assert not eigenlayer_condition(net)

    def test_atomic_pair_passes_both(self, fig_atomic):
        # Each validator carries half of pi/theta = 10, well below 20,
        # and the service has 40 > 10 units allocated.
        assert eigenlayer_condition(fig_atomic)
        assert generalized_eigenlayer_condition(fig_atomic)

    def test_soundness_against_exhaustive_search(self):
        rng = random.Random(20240531)
        checked = 0
        for _ in range(120):
            net = random_network(rng)
            if not generalized_eigenlayer_condition(net):
                continue
            checked += 1
            margin, _ = best_attack(net)
            assert margin < 0, net
        assert checked >= 10


class TestModelInvariants:
    def test_monotonicity_in_attacking_stake(self):
        rng = random.Random(7)
        for _ in range(60):
            net = random_network(rng)
            pairs = [(v, s) for v in net.validators for s in net.services]
            base = {
                (v, s): rng.uniform(0, net.w(v, s)) for v, s in pairs
            }
            attack = Attack(stake_used=base)
            ev = evaluate_attack(net, attack)
            v, s = rng.choice(pairs)
            bumped = dict(base)
            bumped[(v, s)] = net.w(v, s)
            ev2 = evaluate_attack(net, Attack(stake_used=bumped))
            assert ev.attacked_services <= ev2.attacked_services
            assert ev2.total_cost >= ev.total_cost - 1e-12

    def test_cost_caps(self):
        rng = random.Random(8)
        for _ in range(60):
            net = random_network(rng)
            attack = Attack(
                stake_used={
                    (v, s): rng.uniform(0, net.w(v, s))
                    for v in net.validators
                    for s in net.services
                }
            )
            ev = evaluate_attack(net, attack)
            for v in net.validators:
                aimed = sum(attack.used(v, s) for s in ev.attacked_services)
                assert ev.validator_cost[v] <= net.stake[v] + 1e-12
                assert ev.validator_cost[v] <= aimed + 1e-12

    def test_share_normalization(self):
        rng = random.Random(9)
        for _ in range(60):
            net = random_network(rng)
            attack = Attack(
                stake_used={
                    (v, s): rng.uniform(0, net.w(v, s))
                    for v in net.validators
                    for s in net.services
                }
            )
            shares = prize_shares(net, evaluate_attack(net, attack))
            assert abs(sum(shares.values()) - 1) <= 1e-9

    def test_slashing_disjoint_sets(self):
        rng = random.Random(10)
        for _ in range(80):
            net = random_network(rng, max_services=4)
            services = list(net.services)
            if len(services) < 2:
                continue
            rng.shuffle(services)
            cut = rng.randint(1, len(services) - 1)
            first, second = set(services[:cut]), set(services[cut:])
            second.discard(next(iter(first)))
            sequential = apply_byzantine(apply_byzantine(net, first), second)
            joint = apply_byzantine(net, first | second)
            clipped = any(
                net.w(v, s) > joint.stake[v]
                for v in net.validators
                for s in joint.services
            )
            for v in net.validators:
                if clipped:
                    assert sequential.stake[v] <= joint.stake[v] + 1e-12
                else:
                    assert math.isclose(
                        sequential.stake[v], joint.stake[v], abs_tol=1e-12
                    )

    def test_elastic_stretch_exact(self):
        rng = random.Random(11)
        for _ in range(60):
            net = random_network(rng)
            eligible = [s for s in net.services if s not in net.base_services]
            if not eligible:
                continue
            byz = set(rng.sample(eligible, rng.randint(1, len(eligible))))
            after = apply_byzantine(net, byz)
            for (v, s), w in net.allocation.items():
                if s in byz:
                    continue
                assert after.w(v, s) == min(w, after.stake[v])


@pytest.mark.parametrize(
    "field, value",
    [
        ("stake", math.nan),
        ("stake", math.inf),
        ("allocation", math.nan),
        ("threshold", math.nan),
        ("prize", math.nan),
        ("prize", math.inf),
    ],
)
def test_non_finite_numbers_rejected(field, value):
    data = dict(
        validators=("v",),
        services=("s",),
        stake={"v": 2.0},
        allocation={("v", "s"): 1.0},
        threshold={"s": 0.5},
        prize={"s": 1.0},
    )
    key = next(iter(data[field]))
    data[field] = {key: value}
    with pytest.raises(InputError):
        Network(**data)


@pytest.mark.parametrize("big", [1e308, 10**308])
def test_totals_beyond_float_range_rejected(big):
    # Each number is finite, but the engines sum stakes and allocations:
    # with these two validators the budget MIP ended infeasible and the
    # oracle raised TypeError on infinite totals.
    with pytest.raises(InputError, match="validators: total stake"):
        Network(validators=("a", "b"), services=("s",), stake={"a": big, "b": big},
                allocation={("a", "s"): big, ("b", "s"): big},
                threshold={"s": 0.5}, prize={"s": 1.0})
    with pytest.raises(InputError, match="services: total prize"):
        Network(validators=("a",), services=("s", "t"), stake={"a": 1.0},
                allocation={("a", "s"): 1.0}, threshold={"s": 0.5, "t": 0.5},
                prize={"s": big, "t": big})


def test_threshold_zero_warning_names_the_callers_line():
    fields = dict(validators=("v",), services=("s",), stake={"v": 1.0}, allocation={},
                  threshold={"s": 0}, prize={"s": 1.0})
    with pytest.warns(UserWarning, match="service 's' has threshold 0") as caught:
        Network(**fields)
    line = inspect.currentframe().f_lineno - 1
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def unchecked_path_networks(rng: random.Random) -> list[Network]:
    """A float network, its exact twin, a variant with threshold-1 services and
    a base service (also exact), and a planted one with threshold-0 services."""
    net = random_network(rng)
    edge = dataclasses.replace(
        net,
        threshold={s: 1 if rng.random() < 0.5 else t for s, t in net.threshold.items()},
        base_services=frozenset(rng.sample(net.services, 1)),
    )
    return [net, as_fractions(net), edge, as_fractions(edge), planted_network(rng)]


@pytest.mark.parametrize("seed", range(25))
def test_unchecked_transitions_stay_valid(seed):
    """apply_byzantine builds its networks unchecked; the checked constructor
    accepts each of them and builds the same network, and the cached required
    stakes are threshold times total allocation, exactly."""
    rng = random.Random(seed)
    for net in unchecked_path_networks(rng):
        for subset in byzantine_subsets(net, math.inf):
            slashed = apply_byzantine(net, subset)
            fields = {f.name: getattr(slashed, f.name) for f in dataclasses.fields(Network)}
            assert Network(**fields) == slashed
            assert slashed.required_stake == {
                s: slashed.threshold[s] * slashed.total_allocation(s)
                for s in slashed.services
            }
            edges = [(v, s) for (v, s), w in slashed.allocation.items() if w > 0]
            if edges:
                v, s = rng.choice(edges)
                too_much = Attack(stake_used={(v, s): 2 * slashed.w(v, s) + 1})
                with pytest.raises(InputError):
                    evaluate_attack(slashed, too_much)


def test_prize_rescale_checks_prizes():
    net = Network(validators=("v",), services=("s",), stake={"v": 1.0},
                  allocation={("v", "s"): 1.0}, threshold={"s": 0.5}, prize={"s": 1e-300})
    assert net._with_prizes({"s": 2.0}).prize == {"s": 2.0}
    for prize in (1e-300 / 1e300, math.inf, math.nan):  # the first underflows to 0
        with pytest.raises(InputError, match="prize: must be positive and finite"):
            net._with_prizes({"s": prize})
    with pytest.raises(InputError):
        dataclasses.replace(apply_byzantine(net, ()), prize={"s": -1.0})


def test_network_owns_its_mappings():
    # Edits to the caller's dicts after construction reach neither the
    # network nor its cached required stakes.
    fields = dict(stake={"v": 2.0}, allocation={("v", "s"): 1.0},
                  threshold={"s": 0.5}, prize={"s": 1.0})
    net = Network(validators=("v",), services=("s",), **fields)
    assert net.required_stake == {"s": 0.5}
    fields["threshold"]["s"] = 2.0
    fields["stake"]["v"] = -1.0
    fields["allocation"][("v", "s")] = 5.0
    fields["prize"]["s"] = math.nan
    assert (net.threshold, net.stake) == ({"s": 0.5}, {"v": 2.0})
    assert (net.allocation, net.prize) == ({("v", "s"): 1.0}, {"s": 1.0})
    assert net.required_stake == {"s": 0.5}
