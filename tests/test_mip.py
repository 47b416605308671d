from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from restaking import mip
from restaking.bruteforce import best_attack, min_budget_bruteforce, oracle_check
from restaking.lp import OPTIMAL, LpProblem, solve_lp
from restaking.mip import (
    MipProblem,
    MipStatusError,
    build_budget_mip,
    max_attack_profit,
    min_budget,
    mip_check,
    solve_mip,
    write_lp_format,
)
from restaking.model import (
    Network,
    apply_byzantine,
    attackable,
    byzantine_choices,
    byzantine_subsets,
    evaluate_attack,
    generalized_eigenlayer_condition,
    service_weight,
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
            max_budget(net, weight_cap=0), abs=1e-6
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


def breaking_weight(net, budget):
    """The least weight of a Byzantine subset after which the exhaustive
    attack search clears the budget, or inf; a subset that leaves no service
    leaves nothing to attack and does not break the network."""
    best = math.inf
    for subset in byzantine_subsets(net, math.inf):
        slashed = apply_byzantine(net, subset)
        if slashed.services and attackable(best_attack(slashed)[0], budget):
            best = min(best, sum(service_weight(net, s) for s in subset))
    return best


def just_below(cap):
    """A cap that admits no subset of weight cap, past the 1e-9 tie rule."""
    return cap * (1 - 1e-6)


class TestByzantineMip:
    """Breaking Byzantine weights: mip_check finds a violation at the
    breaking weight cap and none just below it."""

    def test_one_byzantine_service_breaks(self):
        # Intact margins stay above 2, but one Byzantine service slashes the
        # stake to 3 and a single-service attack then costs 3 = prize + 2:
        # the breaking weight is one service of three.
        net = three_by_three()
        one = service_weight(net, "a")
        byzantine, _ = mip_check(net, 2, one)
        assert len(byzantine) == 1
        assert mip_check(net, 2, just_below(one)) is None

    def test_attackable_network_needs_no_byzantine(self, half_allocated):
        # Attackable intact: the first choice, the empty one, breaks it
        # under any cap.
        for cap in (0, math.inf):
            byzantine, _ = mip_check(half_allocated, 10, cap)
            assert byzantine == ()

    def test_all_base_and_robust_is_infeasible(self, fig_atomic):
        # No service may turn Byzantine, and the intact network withstands
        # the budget: no Byzantine set breaks it.
        net = dataclasses.replace(fig_atomic, base_services=frozenset({"s"}))
        assert mip_check(net, 10, math.inf) is None


class TestMaxByzantineFraction:
    """The largest Byzantine weight a network tolerates, read off mip_check
    at weight caps around it."""

    def test_intact_network_already_attackable(self, half_allocated):
        byzantine, _ = mip_check(half_allocated, 0, 0)
        assert byzantine == ()

    def test_two_byzantine_services_needed(self):
        # At budget 1/2, one Byzantine service leaves margins above the
        # budget but two wipe the stake entirely: the breaking weight is two
        # services.
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
        two = 2 * service_weight(net, "a")
        byzantine, _ = mip_check(net, budget, two)
        assert len(byzantine) == 2
        assert mip_check(net, budget, just_below(two)) is None

    def test_general_path_matches_enumeration(self):
        # At the breaking weight of the exhaustive search, mip_check and the
        # oracle find the same first violation, of that weight; below a
        # positive one, or at any cap when nothing breaks the network,
        # neither does.
        rng = random.Random(79)
        checked = 0
        while checked < 12:
            net = random_network(rng, max_validators=3, max_services=3,
                                 allow_empty_service=False)
            if len(net.services) < 2:
                continue  # one base service would leave no weight at all
            if checked % 2:
                net = dataclasses.replace(
                    net, base_services=frozenset({rng.choice(net.services)}))
            if best_attack(net)[0] >= 0:
                continue  # not secure when intact
            checked += 1
            for budget in (0.0, 0.25):
                best = breaking_weight(net, budget)
                if math.isinf(best):
                    assert mip_check(net, budget, math.inf) is None
                    assert oracle_check(net, budget, math.inf) is None
                    continue
                byzantine, _ = mip_check(net, budget, best)
                assert byzantine == oracle_check(net, budget, best)[0]
                assert sum(service_weight(net, s) for s in byzantine) == pytest.approx(best)
                if best > 0:
                    assert mip_check(net, budget, just_below(best)) is None
                    assert oracle_check(net, budget, just_below(best)) is None

    def test_robust_for_all_fractions(self, fig_atomic):
        # Turning its one service Byzantine leaves nothing to attack, so no
        # Byzantine set makes an attack cheap enough, at budget 0 as at 1.
        for budget in (0, 1):
            assert mip_check(fig_atomic, budget, math.inf) is None

    def test_non_increasing_in_budget(self):
        # A violation at some budget and cap is one at every larger budget.
        net = three_by_three()
        caps = [k * service_weight(net, "a") for k in range(4)]
        budgets = [0.0, 0.5, 1.0, 2.0, 5.0]
        broken = [[mip_check(net, b, cap) is not None for cap in caps] for b in budgets]
        for smaller, larger in zip(broken, broken[1:]):
            assert all(x <= y for x, y in zip(smaller, larger))
        assert broken[0] != broken[-1]


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

    def test_node_limit_raises(self, monkeypatch):
        from restaking.mip import MipNodeLimitError

        monkeypatch.setattr(mip, "_NODE_LIMIT", 2)
        rng = random.Random(47)
        tripped = 0
        for _ in range(20):
            net = random_network(rng, max_validators=4, max_services=4)
            try:
                solve_mip(build_budget_mip(net))
            except MipNodeLimitError:
                tripped += 1
        assert tripped >= 1

    def test_decision_answer_is_its_node(self, half_allocated, monkeypatch):
        # A decision solve returns the first node that reaches the target as
        # it is, with no LP after it: the root relaxation of half_allocated is
        # integral, so one LP answers. Elsewhere the root and two children per
        # branching are all the LPs, an odd count, and the answer is one of them.
        solved = []
        real = mip.solve_lp
        monkeypatch.setattr(mip, "solve_lp",
                            lambda *args, **kwargs: solved.append(real(*args, **kwargs))
                            or solved[-1])
        solution = solve_mip(build_budget_mip(half_allocated), target=-1.0)
        assert len(solved) == 1 and solution.values is solved[0].values
        rng = random.Random(48)
        for _ in range(10):
            net = random_network(rng)
            solved.clear()
            # Every attack profits more than minus the total stake.
            solution = solve_mip(build_budget_mip(net),
                                 target=-sum(net.stake.values()) - 1)
            assert solution.status == OPTIMAL
            assert len(solved) % 2 == 1
            assert any(solution.values is lp.values for lp in solved)

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

    def test_witness_short_of_the_budget_raises(self, monkeypatch):
        # Two validators of stake 20 each fully secure their own service at
        # threshold 1 with prize 5. The profit bound, 10 - 20 = -10, leaves
        # budget 12 to the solver; a decision solve that ignores its target
        # returns the optimum, a profit of -15, which does not clear it.
        net = Network(
            validators=("v1", "v2"), services=("s1", "s2"),
            stake={"v1": 20, "v2": 20},
            allocation={("v1", "s1"): 20, ("v2", "s2"): 20},
            threshold={"s1": 1, "s2": 1}, prize={"s1": 5, "s2": 5},
        )
        real = mip.solve_mip
        monkeypatch.setattr(mip, "solve_mip", lambda problem, **_: real(problem))
        with pytest.raises(MipStatusError, match="short of"):
            mip_check(net, 12, 0)


class TestProfitBound:
    def test_bound_is_never_below_the_best_attack(self):
        # Intact and after each Byzantine choice: exactly on exact networks,
        # within 1e-12 of the largest stake or prize on float ones.
        rng = random.Random(26)
        for _ in range(150):
            net = random_network(rng)
            for exact in (False, True):
                for _, slashed in byzantine_choices(as_fractions(net) if exact else net,
                                                    math.inf):
                    margin, _ = best_attack(slashed)
                    bound = mip._profit_bound(slashed)
                    if exact:
                        assert bound >= margin
                    else:
                        scale = max([*slashed.stake.values(), *slashed.prize.values()])
                        assert bound >= margin - 1e-12 * scale

    def test_bound_changes_no_answer(self, monkeypatch):
        # With the bound never below the target, every choice goes to the
        # budget program; mip_check answers the same.
        rng = random.Random(126)
        nets = [random_network(rng) for _ in range(40)]
        cases = [(net, budget) for net in nets for budget in (0, 0.5, 2)]

        def answers():
            return [mip_check(net, budget, math.inf) for net, budget in cases]

        bounded = answers()
        monkeypatch.setattr(mip, "_profit_bound", lambda net: math.inf)
        assert answers() == bounded


def test_lp_format_dump(fig_atomic):
    text = write_lp_format(build_budget_mip(fig_atomic))
    assert text.splitlines()[1] == "Maximize"
    assert "attacked_s_" in text
    assert "Binaries" in text and text.rstrip().endswith("End")
