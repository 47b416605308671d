"""Acceptance suite: one test per numbered criterion.

Each test prints a PASS line with its elapsed time (run pytest with -s to
see them all) and enforces the stated tolerance and runtime budget.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from restaking.bruteforce import best_attack, min_budget_bruteforce
from restaking.incentives import (
    RewardPools,
    equilibrium_allocations,
    formation_utility,
    best_response,
)
from restaking.mip import min_budget
from restaking.model import (
    Attack,
    Network,
    apply_byzantine,
    byzantine_weight_cap,
    attackable,
    evaluate_attack,
    restaking_degree,
)
from restaking.symmetry import (
    SweepTemplate,
    consolidated_cost,
    find_beta_costly,
    max_budget,
    min_stake_for,
)
from restaking.experiments import sweep_min_stake_robustness, sweep_mip_vs_theory

from conftest import random_network, symmetric_network
from reductions import (
    build_divisible_reduction,
    build_indivisible_reduction,
    has_profitable_indivisible_attack,
    subset_sum_bruteforce,
)


class _Timer:
    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its {self.budget} s runtime budget "
                f"({elapsed:.2f} s)"
            )
        return False


def test_criterion_1_atomic_boundary(fig_atomic):
    with _Timer("1 (budget boundary, three engines)", 1.0):
        assert min_budget(fig_atomic) == pytest.approx(15.0, abs=1e-6)
        assert min_budget_bruteforce(fig_atomic) == pytest.approx(15.0, abs=1e-6)
        assert max_budget(fig_atomic, weight_cap=0) == pytest.approx(15.0, abs=1e-6)
        assert find_beta_costly(fig_atomic, 14.999999, weight_cap=0) is None
        assert find_beta_costly(fig_atomic, 15.0, weight_cap=0) is not None


def test_criterion_2_integer_threshold_flat_line():
    with _Timer("2 (flat minimum stake at integer threshold-count)", 10.0):
        template = SweepTemplate(n_validators=10, n_services=10, threshold=0.5)
        degrees = [1.0 + 0.5 * k for k in range(19)]
        for degree in degrees:
            value = min_stake_for(template, degree, budget=0, f=0)
            assert value == pytest.approx(2.0, abs=1e-5), degree


def test_criterion_3_fractional_threshold_shape():
    with _Timer("3 (fractional threshold-count shape)", 10.0):
        template = SweepTemplate(n_validators=10, n_services=10, threshold=1 / 3)
        assert min_stake_for(template, 1.0, budget=0, f=0) == pytest.approx(
            3.0, abs=1e-5
        )
        for degree in (3.0, 4.0, 6.5, 10.0):
            value = min_stake_for(template, degree, budget=0, f=0)
            assert value == pytest.approx(2.5, abs=1e-5), degree
        # independent confirmation on an exhaustively-checkable analog
        analog = SweepTemplate(n_validators=4, n_services=4, threshold=1 / 3)
        for degree, expected in ((1.0, 3.0), (3.0, 2.0)):
            value = min_stake_for(analog, degree, budget=0, f=0)
            assert value == pytest.approx(expected, abs=1e-5)
            margin_above, _ = best_attack(analog.build_network(value + 1e-4, degree))
            margin_below, _ = best_attack(analog.build_network(value - 1e-4, degree))
            assert margin_above < 0 <= margin_below


def test_criterion_4_base_service_numbers():
    with _Timer("4 (base-service stake requirements)", 120.0):
        base_alone = SweepTemplate(n_validators=15, n_services=1, threshold=1 / 3,
                                   prize=10.0)
        assert min_stake_for(base_alone, 1.0, budget=0, f=0) == pytest.approx(
            2.0, abs=1e-6
        )
        assert min_stake_for(base_alone, 1.0, budget=2, f=0) == pytest.approx(
            2.4, abs=1e-6
        )
        plain = sweep_min_stake_robustness(
            15, 15, 1 / 3, 1.0, budgets=[0], f_grid=[0.0], degree_grid=[1.0]
        )[0]
        with_base = sweep_min_stake_robustness(
            15, 15, 1 / 3, 1.0, budgets=[0], f_grid=[0.0], degree_grid=[1.0],
            base=(10.0, 1 / 3),
        )[0]
        gap = with_base.rows[0][1] - plain.rows[0][1]
        assert gap == pytest.approx(2.0, abs=1e-3)


def test_criterion_5_mip_matches_theory():
    with _Timer("5 (MIP agrees with the closed form)", 300.0):
        tables = sweep_mip_vs_theory(
            3, 3, 1 / 3, 1.0,
            budgets=[0, 1, 2],
            f_values=[0.0, 1 / 3, 2 / 3],
            degree_grid=[1.0, 1.5, 2.0, 2.5, 3.0],
        )
        for budget, table in tables.items():
            assert all(table.column("agree")), f"disagreement at budget {budget}"


def test_criterion_6_reduction_faithfulness():
    with _Timer("6 (hardness reductions mirror Subset Sum)", 120.0):
        rng = random.Random(20240601)
        for _ in range(200):
            n = rng.randint(1, 10)
            elements = [rng.randint(1, 30) for _ in range(n)]
            target = rng.randint(1, sum(elements))
            truth = subset_sum_bruteforce(elements, target)
            net = build_indivisible_reduction(elements, target)
            assert has_profitable_indivisible_attack(net) == truth
        for _ in range(50):
            n = rng.randint(1, 5)
            elements = [rng.randint(1, 30) for _ in range(n)]
            target = rng.randint(1, sum(elements))
            truth = subset_sum_bruteforce(elements, target)
            net = build_divisible_reduction(elements, target)
            margin, attack = best_attack(net)
            ev = evaluate_attack(net, attack)
            profitable = margin >= -1e-9 and bool(ev.attacked_services) and attackable(ev.margin, 0)
            assert profitable == truth


def test_criterion_7_byzantine_fixtures_exact():
    with _Timer("7 (slashing transition fixtures, rational arithmetic)", 10.0):
        stretch = Network(
            validators=("v",),
            services=("s1", "s2", "s3"),
            stake={"v": Fraction(2)},
            allocation={("v", s): Fraction(1) for s in ("s1", "s2", "s3")},
            threshold={s: Fraction(1, 2) for s in ("s1", "s2", "s3")},
            prize={s: Fraction(1) for s in ("s1", "s2", "s3")},
        )
        after = apply_byzantine(stretch, {"s1"})
        assert after.stake["v"] == Fraction(1)
        assert after.w("v", "s2") == Fraction(1)
        assert after.w("v", "s3") == Fraction(1)

        clipped = Network(
            validators=("v",),
            services=("s1", "s2", "s3"),
            stake={"v": Fraction(5)},
            allocation={
                ("v", "s1"): Fraction(3),
                ("v", "s2"): Fraction(3),
                ("v", "s3"): Fraction(1),
            },
            threshold={s: Fraction(1, 2) for s in ("s1", "s2", "s3")},
            prize={s: Fraction(1) for s in ("s1", "s2", "s3")},
        )
        after = apply_byzantine(clipped, {"s1"})
        assert after.stake["v"] == Fraction(2)
        assert after.w("v", "s2") == Fraction(2)
        assert after.w("v", "s3") == Fraction(1)


def test_criterion_8_consolidation_dominance():
    with _Timer("8 (consolidated attacks dominate, 500 networks)", 120.0):
        rng = random.Random(20240602)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = rng.randint(1, 4)
            stake = rng.uniform(0.5, 4.0)
            net = symmetric_network(
                n_validators=n,
                stake=stake,
                allocation={f"s{j}": rng.uniform(0, stake) for j in range(m)},
                threshold=rng.uniform(0, 1),
                prize={f"s{j}": rng.uniform(0.2, 2.0) for j in range(m)},
            )
            for _ in range(20):
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
                assert consolidated_cost(net, target) <= ev.total_cost + 1e-9


def test_criterion_9_incentive_equilibrium():
    with _Timer("9 (equilibrium: exact degree, balance, no deviation)", 60.0):
        rng = random.Random(20240603)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(2, 5)
            rewards = {
                f"s{j}": Fraction(rng.randint(1, 30), rng.randint(1, 10))
                for j in range(m)
            }
            total = sum(rewards.values())
            limit = min(total / r for r in rewards.values())
            target = min(
                Fraction(rng.randint(1, 4 * m), 4), limit * Fraction(97, 100)
            )
            if target <= 0:
                target = limit / 2
            pools = RewardPools(reward=rewards, target_degree=target)
            stakes = {
                f"v{i}": Fraction(rng.randint(1, 200), rng.randint(1, 10))
                for i in range(n)
            }
            allocations = equilibrium_allocations(stakes, pools)
            net = Network(
                validators=tuple(stakes),
                services=tuple(rewards),
                stake=stakes,
                allocation=allocations,
                threshold={s: Fraction(1, 2) for s in rewards},
                prize={s: Fraction(1) for s in rewards},
            )
            for v in stakes:
                assert restaking_degree(net, v) == target  # exact rationals
            paid = sum(formation_utility(net, pools, v) for v in stakes)
            assert abs(paid - pools.total()) <= Fraction(1, 10**9)
            for v in stakes:
                assert best_response(net, pools, v)[0] <= 1e-9


def test_criterion_10_monotonicity_and_oracle_equivalence():
    with _Timer("10 (budget monotonicity + engine equivalence)", 300.0):
        rng = random.Random(20240604)
        for _ in range(100):
            n = rng.randint(2, 10)
            m = rng.randint(1, 5)
            stake = rng.uniform(0.5, 8.0)
            degree = rng.uniform(0.2, m)
            net = symmetric_network(
                n_validators=n,
                stake=stake,
                allocation={f"s{j}": degree * stake / m for j in range(m)},
                threshold=rng.choice([1 / 3, 0.5, 0.25]),
                prize={f"s{j}": 1.0 for j in range(m)},
            )
            values = [
                max_budget(net, weight_cap=byzantine_weight_cap(net, f))
                for f in (0, 0.2, 0.4, 0.6, 0.8, 1.0)
            ]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        for _ in range(100):
            net = random_network(rng, max_validators=4, max_services=4)
            assert min_budget(net) == pytest.approx(
                min_budget_bruteforce(net), abs=1e-6
            )
