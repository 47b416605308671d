from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restaking.bruteforce import best_attack, min_budget_bruteforce, min_cost_attack
from restaking.experiments import min_stake_mip
from restaking.model import (
    Attack,
    InputError,
    Network,
    _le,
    apply_byzantine,
    byzantine_weight_cap,
    capped_attack,
    evaluate_attack,
)
from restaking.symmetry import (
    NotSymmetricError,
    SweepTemplate,
    SymmetricNetwork,
    as_symmetric,
    consolidated_cost,
    find_beta_costly,
    max_budget,
    min_stake_for,
    to_network,
)


def uniform_symmetric(n, m, stake, degree, threshold, prize=1.0, base=None):
    allocation = {f"s{i}": degree * stake / m for i in range(m)}
    prizes = {f"s{i}": prize for i in range(m)}
    base_set = frozenset()
    if base is not None:
        allocation["base"] = stake
        prizes["base"] = base
        base_set = frozenset({"base"})
    return SymmetricNetwork(
        n_validators=n,
        stake=stake,
        allocation=allocation,
        threshold=threshold,
        prize=prizes,
        base_services=base_set,
    )


def cap_of(sym, f):
    """The absolute Byzantine weight cap of fraction f."""
    return byzantine_weight_cap(to_network(sym), f)


def first_witness(net):
    """The attack of the witness at a budget above every cost: the
    consolidated attack on the first target, with no service Byzantine. On
    identical services that target is the first service alone."""
    byzantine, attack = find_beta_costly(net, 1e6, weight_cap=0)
    assert byzantine == ()
    return attack


def random_symmetric(rng, max_validators=6, max_services=4):
    n = rng.randint(1, max_validators)
    m = rng.randint(1, max_services)
    stake = rng.uniform(0.5, 4.0)
    return SymmetricNetwork(
        n_validators=n,
        stake=stake,
        allocation={f"s{j}": rng.uniform(0.0, stake) for j in range(m)},
        threshold=rng.uniform(0.0, 1.0),
        prize={f"s{j}": rng.uniform(0.2, 2.0) for j in range(m)},
    )


class TestAsSymmetric:
    def test_atomic_pair(self, fig_atomic):
        sym = as_symmetric(fig_atomic)
        assert sym.n_validators == 2
        assert sym.stake == 20
        assert sym.allocation == {"s": 20}
        assert sym.threshold == 0.5

    def test_unequal_stake_reports_condition(self, fig_atomic):
        net = Network(
            validators=("v1", "v2"),
            services=("s",),
            stake={"v1": 20, "v2": 21},
            allocation={("v1", "s"): 20, ("v2", "s"): 20},
            threshold={"s": 0.5},
            prize={"s": 5},
        )
        with pytest.raises(NotSymmetricError) as err:
            as_symmetric(net)
        assert err.value.condition == "stake"

    def test_unequal_allocations_reported(self):
        net = Network(
            validators=("v1", "v2"),
            services=("s",),
            stake={"v1": 20, "v2": 20},
            allocation={("v1", "s"): 20, ("v2", "s"): 10},
            threshold={"s": 0.5},
            prize={"s": 5},
        )
        with pytest.raises(NotSymmetricError) as err:
            as_symmetric(net)
        assert err.value.condition == "allocation"

    def test_unequal_thresholds_reported(self):
        net = Network(
            validators=("v",),
            services=("a", "b"),
            stake={"v": 2},
            allocation={("v", "a"): 1, ("v", "b"): 1},
            threshold={"a": 0.5, "b": 0.6},
            prize={"a": 1, "b": 1},
        )
        with pytest.raises(NotSymmetricError) as err:
            as_symmetric(net)
        assert err.value.condition == "threshold"

    def test_non_finite_stake_or_prize_rejected(self):
        for stake, prize in ((math.inf, 1.0), (2.0, math.inf), (2.0, math.nan)):
            with pytest.raises(InputError, match="finite"):
                SymmetricNetwork(
                    n_validators=2,
                    stake=stake,
                    allocation={"s": 1.0},
                    threshold=0.5,
                    prize={"s": prize},
                )

    def test_fifteen_by_fifteen(self):
        sym = uniform_symmetric(15, 15, 7.4, 1.0, 1 / 3)
        back = as_symmetric(to_network(sym))
        assert back.n_validators == 15
        assert len(back.services) == 15


class TestConsolidated:
    def test_atomic_pair_cost(self, fig_atomic):
        sym = as_symmetric(fig_atomic)
        assert consolidated_cost(sym, ("s",)) == 20

    def test_empty_target(self, fig_atomic):
        assert consolidated_cost(as_symmetric(fig_atomic), ()) == 0

    def test_fractional_validator_boundary(self):
        sym = uniform_symmetric(10, 10, 3.0, 1.0, 1 / 3)
        assert consolidated_cost(sym, sym.services) == pytest.approx(10.0)

    def test_attack_matches_cost_and_target(self, fig_atomic):
        attack = first_witness(fig_atomic)
        assert attack.stake_used == {("v1", "s"): 20}
        ev = evaluate_attack(fig_atomic, attack)
        assert ev.total_cost == consolidated_cost(as_symmetric(fig_atomic), ("s",))
        assert "s" in ev.attacked_services

    def test_integer_threshold_has_no_fractional_validator(self):
        attack = first_witness(to_network(uniform_symmetric(4, 4, 2.0, 2.0, 0.5)))
        users = {v for (v, _) in attack.stake_used}
        assert users == {"v1", "v2"}

    def test_fractional_validator_share(self):
        sym = uniform_symmetric(10, 10, 3.0, 10.0, 1 / 3)
        attack = first_witness(to_network(sym))
        w = sym.allocation["s0"]
        assert attack.used("v1", "s0") == w
        assert attack.used("v3", "s0") == w
        assert attack.used("v4", "s0") == pytest.approx(w / 3)
        assert attack.used("v5", "s0") == 0

    def test_exact_rational_arithmetic(self):
        sym = SymmetricNetwork(
            n_validators=3,
            stake=Fraction(2),
            allocation={"s": Fraction(1)},
            threshold=Fraction(1, 3),
            prize={"s": Fraction(1)},
        )
        assert consolidated_cost(sym, ("s",)) == Fraction(1)


class TestSecurity:
    def test_integer_threshold_boundary(self):
        secure = to_network(uniform_symmetric(10, 10, 2.0000001, 3.0, 0.5))
        insecure = to_network(uniform_symmetric(10, 10, 2.0, 3.0, 0.5))
        assert find_beta_costly(secure, 0, weight_cap=0) is None
        assert find_beta_costly(insecure, 0, weight_cap=0) is not None

    def test_degenerate_single_validator(self, half_allocated):
        assert find_beta_costly(half_allocated, 0, weight_cap=0) is not None

    def test_zero_allocation_service_breaks_security(self):
        sym = SymmetricNetwork(
            n_validators=2,
            stake=5,
            allocation={"a": 3, "b": 0},
            threshold=0.5,
            prize={"a": 1, "b": 1},
        )
        assert find_beta_costly(to_network(sym), 0, weight_cap=0) is not None


class TestBetaRobust:
    def test_boundary(self, fig_atomic):
        assert find_beta_costly(fig_atomic, 14.999, weight_cap=0) is None
        assert find_beta_costly(fig_atomic, 15, weight_cap=0) is not None

    def test_base_service_inequality(self):
        # One fully-allocated service with threshold 1/3 and prize 10 over
        # 15 validators: robust exactly while 5 * stake > 10 + budget.
        for stake, budget, expected in [
            (2.1, 0, True),
            (2.0, 0, False),
            (2.4, 2, False),
            (2.5, 2, True),
        ]:
            sym = SymmetricNetwork(
                n_validators=15,
                stake=stake,
                allocation={"base": stake},
                threshold=1 / 3,
                prize={"base": 10},
            )
            assert (find_beta_costly(to_network(sym), budget, weight_cap=0) is None) == expected


class TestFBetaRobust:
    def test_f_zero_reduces_to_beta(self):
        # Cap 0 means no slashing: the verdict is that of every consolidated
        # attack on the network as it is.
        rng = random.Random(51)
        for _ in range(25):
            sym = random_symmetric(rng)
            budget = rng.uniform(0, 2)
            expected = not any(
                _le(consolidated_cost(sym, target),
                    sum(sym.prize[s] for s in target) + budget)
                for size in range(1, len(sym.services) + 1)
                for target in combinations(sym.services, size)
            )
            assert (find_beta_costly(to_network(sym), budget, weight_cap=0) is None) == expected

    def test_f_one_identical_services_vacuous(self):
        # Robust at every partial Byzantine count, and the full count leaves
        # nothing to attack: f = 1 must come out (vacuously) robust.
        sym = SymmetricNetwork(
            n_validators=2,
            stake=10,
            allocation={"a": 1, "b": 1},
            threshold=1,
            prize={"a": 1, "b": 1},
        )
        assert find_beta_costly(to_network(sym), 0, weight_cap=cap_of(sym, 1)) is None

    def test_combined_network_beats_separated_deployments(self):
        # At budget 2 and a third of the services Byzantine, the combined
        # network is robust with 7.4 units per validator at its best degree,
        # undercutting the 2.4 + 5.4 = 7.8 needed by separate deployments.
        combined = SweepTemplate(
            n_validators=15, n_services=15, threshold=1 / 3, prize=1.0,
            base_prize=10.0, base_threshold=1 / 3,
        )
        best_degree = 45 / 37
        cap = byzantine_weight_cap(combined.build_network(1.0, best_degree), 1 / 3)
        at = lambda stake: combined.build_network(stake, best_degree)
        assert find_beta_costly(at(7.4001), 2, weight_cap=cap) is None
        assert find_beta_costly(at(7.3999), 2, weight_cap=cap) is not None

    def test_witness_matches_decision(self):
        # Stakes and prizes at scales up to 1e12: capped_attack, which builds
        # every witness, hits a whole random target whichever prefix of the
        # validators is capped; a witness fits the network's allocations,
        # attacks something and clears the budget up to the tolerance at the
        # network's own scale, and the verdict is the one max_budget reaches.
        rng = random.Random(52)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 3)
            scale = 10 ** rng.uniform(0, 12)
            stake = scale * rng.uniform(0.5, 4.0)
            sym = SymmetricNetwork(
                n_validators=n,
                stake=stake,
                allocation={f"s{j}": rng.uniform(0.0, stake) for j in range(m)},
                threshold=rng.uniform(0.0, 1.0),
                prize={f"s{j}": scale * rng.uniform(0.2, 2.0) for j in range(m)},
            )
            net = to_network(sym)
            target = rng.sample(sym.services, rng.randint(1, m))
            for k in range(n + 1):
                attack = capped_attack(net, target, net.validators[:k])
                assert set(target) <= evaluate_attack(net, attack).attacked_services
            cap = cap_of(sym, rng.choice([0, 0.25, 0.5, 1.0]))
            budget = rng.uniform(0, 1) * scale
            tol = 1e-9 * max(stake, *sym.prize.values())
            witness = find_beta_costly(net, budget, weight_cap=cap)
            if witness is None:
                assert max_budget(sym, weight_cap=cap) > budget - tol
                continue
            assert max_budget(sym, weight_cap=cap) <= budget + tol
            byzantine, attack = witness
            ev = evaluate_attack(apply_byzantine(net, byzantine), attack)
            assert ev.attacked_services
            assert ev.margin >= -budget - tol


class TestMinStake:
    def test_integer_threshold_flat(self):
        template = SweepTemplate(n_validators=10, n_services=10, threshold=0.5)
        for degree in (1.0, 4.0, 10.0):
            value = min_stake_for(template, degree, budget=0, f=0)
            assert value == pytest.approx(2.0, abs=1e-5)

    def test_fractional_threshold_values(self):
        template = SweepTemplate(n_validators=10, n_services=10, threshold=1 / 3)
        assert min_stake_for(template, 1.0, budget=0, f=0) == pytest.approx(
            3.0, abs=1e-5
        )
        for degree in (3.0, 5.0, 10.0):
            assert min_stake_for(template, degree, budget=0, f=0) == pytest.approx(
                2.5, abs=1e-5
            )

    def test_binary_search_brackets_the_boundary(self):
        template = SweepTemplate(n_validators=10, n_services=10, threshold=1 / 3)
        for degree in (1.0, 2.5, 7.0):
            result = min_stake_for(template, degree, budget=0.5, f=0)
            below, above = (template.build_network(result + d, degree)
                            for d in (-1e-5, 1e-5))
            assert find_beta_costly(below, 0.5, weight_cap=0) is not None
            assert find_beta_costly(above, 0.5, weight_cap=0) is None

    @settings(max_examples=30, deadline=None)
    @given(
        degree=st.floats(1.0, 3.0),
        f=st.sampled_from([0.0, 1 / 3, 1 / 2, 2 / 3]),
        budget=st.floats(0.0, 2.0),
        with_base=st.booleans(),
    )
    def test_exact_infimum_homogeneous_and_equal_to_mip(self, degree, f, budget,
                                                        with_base):
        def template(c):
            base = dict(base_prize=10.0 * c, base_threshold=1 / 3) if with_base else {}
            return SweepTemplate(3, 3, 1 / 3, prize=1.0 * c, **base)

        stake = min_stake_for(template(1), degree, budget, f)
        scaled = min_stake_for(template(3), degree, 3 * budget, f)
        by_mip = min_stake_mip(template(1), degree, budget, f)
        if math.isnan(stake):
            assert math.isnan(scaled) and math.isnan(by_mip)
            return
        cap = byzantine_weight_cap(template(1).build_network(1.0, degree), f)
        at = lambda s: template(1).build_network(s, degree)
        assert find_beta_costly(at(stake), budget, weight_cap=cap) is not None
        assert find_beta_costly(at(stake * (1 + 1e-6)), budget, weight_cap=cap) is None
        assert scaled == pytest.approx(3 * stake, rel=1e-9)
        assert by_mip == pytest.approx(stake, rel=1e-9)

    def test_unsatisfiable_is_nan(self):
        # At degree 3, a third of 15 services going Byzantine wipes all
        # stake, so no stake is ever enough.
        template = SweepTemplate(n_validators=15, n_services=15, threshold=1 / 3)
        assert math.isnan(min_stake_for(template, 3.0, budget=2, f=1 / 3))

    def test_brute_force_confirms_four_by_four_analog(self):
        # Same fractional-validator mechanics as the 10x10 case, small
        # enough for the exhaustive oracle to certify both branch values.
        template = SweepTemplate(n_validators=4, n_services=4, threshold=1 / 3)

        def oracle_secure(stake, degree):
            margin, _ = best_attack(to_network(template.build(stake, degree)))
            return margin < 0

        for degree, expected in [(1.0, 3.0), (3.0, 2.0)]:
            value = min_stake_for(template, degree, budget=0, f=0)
            assert oracle_secure(value + 1e-4, degree)
            assert not oracle_secure(value - 1e-4, degree)
            assert value == pytest.approx(expected, abs=1e-5)


class TestMaxBudget:
    def test_collapse_point(self):
        sym = uniform_symmetric(15, 15, 10.0, 3.0, 1 / 3)
        # a third of the services Byzantine wipes the stake at degree 3
        assert max_budget(sym, weight_cap=cap_of(sym, 1 / 3)) == 0

    def test_single_service_margin_at_degree_one(self):
        sym = uniform_symmetric(15, 15, 10.0, 1.0, 1 / 3)
        assert max_budget(sym, weight_cap=0) == pytest.approx(5 * (10 / 15) - 1)

    def test_non_increasing_in_f(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(2, 10)
            m = rng.randint(1, 5)
            sym = uniform_symmetric(n, m, rng.uniform(1, 10), rng.uniform(0.5, m), 1 / 3)
            values = [
                max_budget(sym, weight_cap=cap_of(sym, f))
                for f in (0, 0.25, 0.5, 0.75, 1.0)
            ]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestProperties:
    def test_consolidation_dominance(self):
        rng = random.Random(54)
        for _ in range(80):
            sym = random_symmetric(rng)
            net = to_network(sym)
            for _ in range(5):
                attack = Attack(
                    stake_used={
                        (v, s): rng.uniform(0, net.w(v, s))
                        for v in net.validators
                        for s in net.services
                        if net.w(v, s) > 0
                    }
                )
                ev = evaluate_attack(net, attack)
                if not ev.attacked_services:
                    continue
                target = sorted(ev.attacked_services)
                assert consolidated_cost(sym, target) <= ev.total_cost + 1e-9

    def test_symmetry_preserved_by_slashing(self):
        rng = random.Random(55)
        for _ in range(40):
            sym = random_symmetric(rng)
            net = to_network(sym)
            eligible = [s for s in net.services if s not in net.base_services]
            if len(eligible) < 2:
                continue
            byz = rng.sample(eligible, rng.randint(1, len(eligible) - 1))
            slashed = apply_byzantine(net, byz)
            if not slashed.validators or not slashed.services:
                continue
            if all(slashed.stake[v] == 0 for v in slashed.validators):
                continue  # fully wiped: stake 0 is not a symmetric form
            as_symmetric(slashed)  # must not raise

    def test_oracle_equivalence_small(self):
        rng = random.Random(56)
        for _ in range(25):
            sym = random_symmetric(rng, max_validators=4, max_services=3)
            net = to_network(sym)
            margin, _ = best_attack(net)
            assert (find_beta_costly(to_network(sym), 0, weight_cap=0) is None) == (margin < 0)
            assert max_budget(sym, weight_cap=0) == pytest.approx(
                min_budget_bruteforce(net), abs=1e-7
            )

    def test_byzantine_monotonicity_identical_services(self):
        # With identical services, robustness after k+1 Byzantine services
        # implies robustness after k (as long as services remain in both).
        rng = random.Random(57)
        for _ in range(30):
            n = rng.randint(2, 8)
            m = rng.randint(3, 5)
            sym = uniform_symmetric(n, m, rng.uniform(1, 6), rng.uniform(0.5, m), 1 / 3)
            budget = rng.uniform(0, 2)
            net = to_network(sym)
            robust = []
            for k in range(m):  # keep at least one service remaining
                slashed = apply_byzantine(net, [f"s{i}" for i in range(k)])
                if all(slashed.stake[v] == 0 for v in slashed.validators):
                    robust.append(False)
                    continue
                robust.append(
                    find_beta_costly(slashed, budget, weight_cap=0) is None
                )
            for k in range(len(robust) - 1):
                assert not robust[k + 1] or robust[k], (robust, k)

    def test_consolidated_cost_matches_oracle(self):
        template = SweepTemplate(n_validators=10, n_services=3, threshold=1 / 3)
        sym = template.build(3.0, 1.0)
        cost, _ = min_cost_attack(to_network(sym), sym.services)
        assert cost == pytest.approx(consolidated_cost(sym, sym.services), abs=1e-7)
