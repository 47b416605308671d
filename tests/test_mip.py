from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from restaking import mip
from restaking.bruteforce import best_attack, min_budget_bruteforce
from restaking.lp import OPTIMAL, LpProblem, solve_lp
from restaking.mip import (
    MipProblem,
    MipStatusError,
    build_budget_mip,
    max_attack_profit,
    max_byzantine_fraction,
    min_budget,
    mip_check,
    solve_mip,
    write_lp_format,
)
from restaking.model import (
    Network,
    apply_byzantine,
    byzantine_choices,
    byzantine_subsets,
    evaluate_attack,
    generalized_eigenlayer_condition,
    service_weight,
    total_byzantine_weight,
)
from restaking.symmetry import SweepTemplate, max_budget

from conftest import as_fractions, random_network


def three_by_three(stake=9, per_service=6, base=False):
    """Symmetric 3x3 with threshold 1/3; allocations default to degree 2."""
    validators = ("v1", "v2", "v3")
    services = ("a", "b", "c")
    return Network(
        validators=validators,
        services=services,
        stake={v: stake for v in validators},
        allocation={(v, s): per_service for v in validators for s in services},
        threshold={s: 1 / 3 for s in services},
        prize={s: 1 for s in services},
        base_services=frozenset(services) if base else frozenset(),
    )


def rescaled(net: Network, validator_factor, prize_factor) -> Network:
    """net with each validator's stake and allocations, and each service's
    prize, multiplied by their factor."""
    return dataclasses.replace(
        net,
        stake={v: validator_factor(v) * x for v, x in net.stake.items()},
        allocation={(v, s): validator_factor(v) * x for (v, s), x in net.allocation.items()},
        prize={s: prize_factor(s) * x for s, x in net.prize.items()},
    )


class TestBudgetMip:
    def test_atomic_pair_worst_margin(self, fig_atomic):
        sol = solve_mip(build_budget_mip(fig_atomic))
        assert sol.objective_value == pytest.approx(-15, abs=1e-6)

    def test_half_allocated_breakeven(self, half_allocated):
        sol = solve_mip(build_budget_mip(half_allocated))
        assert sol.objective_value == pytest.approx(0, abs=1e-6)

    def test_sufficient_condition_implies_negative_optimum(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            net = random_network(rng, max_validators=3, max_services=3)
            if not generalized_eigenlayer_condition(net):
                continue
            checked += 1
            sol = solve_mip(build_budget_mip(net))
            assert sol.objective_value < 0
        assert checked >= 5

    def test_matches_exhaustive_margin(self):
        rng = random.Random(42)
        for _ in range(30):
            net = random_network(rng)
            margin, _ = best_attack(net)
            sol = solve_mip(build_budget_mip(net))
            assert sol.objective_value == pytest.approx(margin, abs=1e-6)


class TestMinBudget:
    def test_atomic_pair(self, fig_atomic):
        assert min_budget(fig_atomic) == pytest.approx(15, abs=1e-6)

    def test_insecure_network(self, half_allocated):
        assert min_budget(half_allocated) == 0

    def test_near_boundary_symmetric_cross_check(self):
        template = SweepTemplate(n_validators=4, n_services=4, threshold=0.5)
        net = template.build_network(2.01, 2.0)
        value = min_budget(net)
        assert value == pytest.approx(0.02, abs=1e-6)
        assert value == pytest.approx(
            max_budget(template.build(2.01, 2.0), weight_cap=0), abs=1e-6
        )

    def test_oracle_equivalence(self):
        rng = random.Random(43)
        for _ in range(30):
            net = random_network(rng)
            assert min_budget(net) == pytest.approx(
                min_budget_bruteforce(net), abs=1e-6
            )

    @pytest.mark.parametrize("k", [1e-4, 1e-5])
    def test_small_stakes_keep_their_witness(self, k):
        # Witness entries here are a few 1e-6: an absolute cutoff would drop
        # them, the attack would vanish and the certificate would raise.
        rng = random.Random(7)
        for _ in range(60):
            net = random_network(rng)
            net = dataclasses.replace(
                net,
                stake={v: k * x for v, x in net.stake.items()},
                allocation={p: k * x for p, x in net.allocation.items()},
                prize={s: k * x for s, x in net.prize.items()},
            )
            assert min_budget(net) == pytest.approx(
                min_budget_bruteforce(net), abs=1e-9 * k
            )

    def test_rescaling_scales_the_minimum_budget(self):
        # Stakes, allocations and prizes times k: the minimum budget is k
        # times the one at k = 1, and no verdict flips.
        rng = random.Random(7)
        for _ in range(60):
            net = random_network(rng)
            unit = min_budget(net)
            scale = max(*net.stake.values(), *net.prize.values())
            for k in (1e-6, 1e7, 1e8, 1e9):
                value = min_budget(rescaled(net, lambda v: k, lambda s: k))
                assert (value > 0) == (unit > 0)
                assert value == pytest.approx(k * unit, rel=0, abs=1e-9 * k * scale)

    def test_mixed_magnitudes_match_the_exact_oracle(self):
        # Each validator's stake and allocations, and each prize, carry their
        # own factor in 1e-6..1e9; the oracle decides the same network in
        # exact arithmetic.
        rng = random.Random(5)
        for _ in range(160):
            net = random_network(rng)
            validator = {v: 10 ** rng.uniform(-6, 9) for v in net.validators}
            net = rescaled(net, validator.get,
                           {s: 10 ** rng.uniform(-6, 9) for s in net.services}.get)
            scale = max(*net.stake.values(), *net.prize.values())
            exact = min_budget_bruteforce(as_fractions(net))
            assert min_budget(net) == pytest.approx(float(exact), rel=0, abs=1e-9 * scale)


class TestByzantineMip:
    """Breaking Byzantine weights, read off max_byzantine_fraction."""

    def test_one_byzantine_service_breaks(self):
        # Intact margins stay above 2, but one Byzantine service slashes the
        # stake to 3 and a single-service attack then costs 3 = prize + 2:
        # the breaking weight is one service of three.
        fraction = max_byzantine_fraction(three_by_three(), 2)
        assert fraction == pytest.approx(1 / 3, abs=1e-5)
        assert fraction < 1 / 3

    def test_attackable_network_needs_no_byzantine(self, half_allocated):
        assert max_byzantine_fraction(half_allocated, 10) == 0.0

    def test_all_base_and_robust_is_infeasible(self, fig_atomic):
        # No service may turn Byzantine, and the intact network withstands
        # the budget: no Byzantine set breaks it.
        net = Network(
            validators=fig_atomic.validators,
            services=fig_atomic.services,
            stake=fig_atomic.stake,
            allocation=fig_atomic.allocation,
            threshold=fig_atomic.threshold,
            prize=fig_atomic.prize,
            base_services=frozenset({"s"}),
        )
        assert max_byzantine_fraction(net, 10) == 1.0


class TestMaxByzantineFraction:
    def test_intact_network_already_attackable(self, half_allocated):
        assert max_byzantine_fraction(half_allocated, 0) == 0.0

    def test_two_byzantine_services_needed(self):
        # At budget 1/2, one Byzantine service leaves margins above the
        # budget but two wipe the stake entirely: the breaking weight is two
        # services, so the tolerated fraction sits just below 2/3.
        net = three_by_three()
        budget = 0.5
        # independent oracle: slash k services and ask the budget program
        breaking = None
        for k in range(4):
            slashed = apply_byzantine(net, net.services[:k])
            if slashed.services:
                sol = solve_mip(build_budget_mip(slashed))
                broken = sol.objective_value >= -budget - 1e-9
            else:
                broken = False
            if broken:
                breaking = k
                break
        assert breaking == 2
        fraction = max_byzantine_fraction(net, budget)
        assert fraction == pytest.approx(2 / 3, abs=1e-5)
        assert fraction < 2 / 3

    def test_general_path_matches_enumeration(self):
        # Brute-force reference: the lightest Byzantine subset after which
        # the exhaustive attack search clears the budget; turning every
        # service Byzantine counts as breaking only at budget 0.
        rng = random.Random(79)
        checked = 0
        while checked < 12:
            net = random_network(rng, max_validators=3, max_services=3,
                                 allow_empty_service=False)
            if len(net.services) < 2:
                continue  # one base service would leave no weight at all
            if checked % 2:
                net = Network(
                    validators=net.validators, services=net.services,
                    stake=net.stake, allocation=net.allocation,
                    threshold=net.threshold, prize=net.prize,
                    base_services=frozenset({rng.choice(net.services)}),
                )
            if best_attack(net)[0] >= 0:
                continue  # not secure when intact
            checked += 1
            total = total_byzantine_weight(net)
            for budget in (0.0, 0.25):
                best = total if budget == 0 and not net.base_services else math.inf
                for subset in byzantine_subsets(net, math.inf):
                    slashed = apply_byzantine(net, subset)
                    if slashed.services and best_attack(slashed)[0] >= -budget - 1e-9:
                        best = min(best, sum(service_weight(net, s) for s in subset))
                expected = 1.0 if math.isinf(best) else max(0.0, (best - 1e-6) / total)
                assert max_byzantine_fraction(net, budget) == pytest.approx(
                    expected, abs=1e-6)

    def test_robust_for_all_fractions(self, fig_atomic):
        # At a positive budget the all-Byzantine collapse branch is off, and
        # no Byzantine set makes the attack cheap enough.
        assert max_byzantine_fraction(fig_atomic, 1) == 1.0

    def test_collapse_counts_as_failure_at_budget_zero(self, fig_atomic):
        # Turning every service Byzantine is a failure state of the weight
        # program at budget 0, so the tolerated fraction sits just below 1.
        value = max_byzantine_fraction(fig_atomic, 0)
        assert 0.999 < value < 1.0

    def test_non_increasing_in_budget(self):
        net = three_by_three()
        budgets = [0.0, 0.5, 1.0, 2.0, 5.0]
        values = [max_byzantine_fraction(net, b) for b in budgets]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestSolveMip:
    def test_integral_relaxation_returned_unchanged(self):
        lp = LpProblem(
            objective=[1.0, 1.0],
            sense="max",
            constraints=[([1.0, 0.0], "<=", 1.0), ([0.0, 1.0], "<=", 0.25)],
            bounds=[(0.0, 1.0), (0.0, None)],
        )
        problem = MipProblem(lp=lp, integral=frozenset({0}), variable_names={0: "flag"})
        relaxed = solve_lp(lp)
        sol = solve_mip(problem)
        assert sol.objective_value == pytest.approx(relaxed.objective_value)
        assert np.allclose(sol.values, relaxed.values)

    def test_binaries_integral(self, fig_atomic):
        problem = build_budget_mip(fig_atomic)
        sol = solve_mip(problem)
        binaries = [sol.values[i] for i in problem.integral]
        assert all(abs(b - round(b)) <= mip.PRECISION for b in binaries)
        assert all(round(b) in (0, 1) for b in binaries)

    def test_determinism(self):
        rng = random.Random(45)
        net = random_network(rng)
        first = solve_mip(build_budget_mip(net))
        second = solve_mip(build_budget_mip(net))
        assert first.objective_value == second.objective_value
        assert np.array_equal(first.values, second.values)

    def test_node_limit_carries_incumbent(self):
        from restaking.mip import MipNodeLimitError

        rng = random.Random(47)
        tripped = 0
        for _ in range(20):
            net = random_network(rng, max_validators=4, max_services=4)
            try:
                solve_mip(build_budget_mip(net), node_limit=2)
            except MipNodeLimitError as err:
                tripped += 1
                if err.incumbent is not None:
                    assert err.incumbent.status == OPTIMAL
        assert tripped >= 1

    def test_node_bounds_dominate_children(self):
        rng = random.Random(46)
        checked = 0
        for _ in range(20):
            net = random_network(rng)
            problem = build_budget_mip(net)
            root = solve_lp(problem.lp)
            if root.status != OPTIMAL:
                continue
            fractional = [
                k for k in problem.integral
                if abs(root.values[k] - round(root.values[k])) > 1e-6
            ]
            if not fractional:
                continue
            checked += 1
            k = fractional[0]
            for value in (0.0, 1.0):
                bounds = list(problem.lp.bounds)
                bounds[k] = (value, value)
                child = solve_lp(LpProblem(
                    objective=problem.lp.objective, sense="max",
                    constraints=problem.lp.constraints, bounds=bounds,
                ))
                if child.status == OPTIMAL:
                    assert child.objective_value <= root.objective_value + 1e-9
        assert checked >= 3

    def test_warm_children_match_cold(self, monkeypatch):
        # Every node LP starts from its parent's final tableau with one more
        # binary pinned; a cold solve with the same binaries pinned must agree.
        pinned: dict[int, tuple] = {}  # id(solution) -> (solution, its pins)

        def checked(problem, start=None, fix=None):
            pins = {**(pinned[id(start)][1] if start is not None else {}), **(fix or {})}
            sol = solve_lp(problem, start=start, fix=fix)
            if start is not None:
                bounds = list(problem.bounds)
                for k, value in pins.items():
                    bounds[k] = (float(value), float(value))
                cold = solve_lp(LpProblem(objective=problem.objective, sense=problem.sense,
                                          constraints=problem.constraints, bounds=bounds))
                assert sol.status == cold.status
                if cold.status == OPTIMAL:
                    assert sol.objective_value == pytest.approx(
                        cold.objective_value, rel=1e-9, abs=1e-9)
                checks.append(1)
            pinned[id(sol)] = (sol, pins)
            return sol

        checks: list[int] = []
        monkeypatch.setattr(mip, "solve_lp", checked)
        rng = random.Random(48)
        for size in (3, 3, 4, 5, 6, 4, 4) + (4,) * 8:
            net = random_network(rng, max_validators=size, max_services=size)
            solve_mip(build_budget_mip(net))
            if size <= 4:
                # The programs mip_check solves at an unlimited cap.
                for subset, slashed in byzantine_choices(net, math.inf):
                    if subset:
                        solve_mip(build_budget_mip(slashed))
        assert len(checks) >= 200


class TestMipCheck:
    def test_robust_report(self, fig_atomic):
        assert mip_check(fig_atomic, 14, 0) is None

    def test_witness_attack(self, half_allocated):
        byzantine, attack = mip_check(half_allocated, 0, 0)
        assert byzantine == ()
        ev = evaluate_attack(half_allocated, attack)
        assert ev.attacked_services == {"s"}
        assert ev.total_cost == pytest.approx(1, abs=1e-6)
        assert ev.total_prize == pytest.approx(1, abs=1e-6)


class TestCertificate:
    def test_misreported_optimum_raises(self, fig_atomic, monkeypatch):
        real = mip.solve_mip

        def misreported(problem, **kwargs):
            solution = real(problem, **kwargs)
            return dataclasses.replace(
                solution, objective_value=solution.objective_value + 1e-6)

        monkeypatch.setattr(mip, "solve_mip", misreported)
        with pytest.raises(MipStatusError, match="scores"):
            max_attack_profit(fig_atomic)

    def test_witness_short_of_the_budget_raises(self, fig_atomic, monkeypatch):
        # A decision solve that ignores its target returns the optimum, a
        # profit of -15, which does not clear budget 14.
        real = mip.solve_mip
        monkeypatch.setattr(mip, "solve_mip", lambda problem, **_: real(problem))
        with pytest.raises(MipStatusError, match="short of"):
            mip_check(fig_atomic, 14, 0)


def test_lp_format_dump(fig_atomic):
    text = write_lp_format(build_budget_mip(fig_atomic))
    assert text.splitlines()[1] == "Maximize"
    assert "attacked_s_" in text
    assert "Binaries" in text and text.rstrip().endswith("End")
