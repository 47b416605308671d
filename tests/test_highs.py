"""Differential test of the embedded budget program against HiGHS.

HiGHS (through ``scipy.optimize.milp``) solves the paper's model of an
attack, not the package's program: one column per (validator, service) pair
for the stake aimed, a cost column per validator pinned to min(stake, aimed)
by big-M rows, and a binary per attacked service and per capped validator.
The package solves the capped-set program of ``mip.build_budget_mip``; the
two optima are compared in the network's units.

HiGHS accepts binaries within its integrality tolerance of 1e-6, and
through the big-M rows such a binary is worth about 1e-6 of objective. So
its binaries are rounded and the program is solved once more with them
fixed, which gives the exact value of the assignment HiGHS found.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from restaking import mip
from restaking.lp import INFEASIBLE, OPTIMAL, LpProblem, solve_lp
from restaking.mip import BELOW_TARGET, build_budget_mip, solve_mip
from restaking.model import Network, evaluate_attack

from conftest import random_network

optimize = pytest.importorskip("scipy.optimize")


def allocation_program(net: Network):
    """The paper's maximum attack profit as scipy.optimize.milp arguments.

    Columns: attacked[s] and flag[v] binaries, cost[v] in [0, stake],
    attack[v,s] in [0, allocation]. At least one service is attacked, an
    attacked service receives its required stake, and cost[v] = min(stake,
    aimed): cost <= aimed, cost >= stake * (1 - flag) and cost >= aimed -
    allocated * (1 - flag).
    """
    n, m = len(net.validators), len(net.services)
    off_z, off_c, off_a = m, m + n, m + 2 * n
    nvars = m + 2 * n + n * m
    hi = np.ones(nvars)
    rows, row_lo = [], []

    def row(entries: dict[int, float], lo: float) -> None:
        coeffs = np.zeros(nvars)
        for k, value in entries.items():
            coeffs[k] += value
        rows.append(coeffs)
        row_lo.append(lo)

    row({j: 1.0 for j in range(m)}, 1.0)
    for i, v in enumerate(net.validators):
        stake = float(net.stake[v])
        allocated = float(net.validator_allocation(v))
        hi[off_c + i] = stake
        aimed = {off_a + i * m + j: 1.0 for j in range(m)}
        row({off_c + i: -1.0, **aimed}, 0.0)
        row({off_c + i: 1.0, off_z + i: stake}, stake)
        row({off_c + i: 1.0, off_z + i: -allocated,
             **{k: -1.0 for k in aimed}}, -allocated)
    for j, s in enumerate(net.services):
        required = float(net.threshold[s] * net.total_allocation(s))
        for i, v in enumerate(net.validators):
            hi[off_a + i * m + j] = float(net.w(v, s))
        row({**{off_a + i * m + j: 1.0 for i in range(n)}, j: -required}, 0.0)

    cost = np.zeros(nvars)  # minimized: -profit
    cost[:m] = [-float(net.prize[s]) for s in net.services]
    cost[off_c:off_a] = 1.0
    integrality = np.zeros(nvars)
    integrality[:m + n] = 1
    constraints = optimize.LinearConstraint(np.array(rows), row_lo, np.inf)
    return cost, constraints, np.zeros(nvars), hi, integrality


def highs(net: Network) -> float:
    """HiGHS's optimum of the paper's model, re-solved at its rounded binaries."""
    cost, constraints, lo, hi, integrality = allocation_program(net)
    result = optimize.milp(cost, constraints=constraints,
                           bounds=optimize.Bounds(lo, hi), integrality=integrality,
                           options={"mip_rel_gap": 1e-9})
    assert result.status == 0, result.message
    binary = integrality == 1
    lo[binary] = hi[binary] = np.round(result.x[binary])
    exact = optimize.milp(cost, constraints=constraints, bounds=optimize.Bounds(lo, hi))
    assert exact.status == 0, exact.message
    return -exact.fun


def assert_agrees(net: Network) -> None:
    solution = solve_mip(build_budget_mip(net))
    value = highs(net)
    assert solution.status == OPTIMAL
    assert abs(solution.objective_value - value) <= 1e-7 * max(1.0, abs(value))


def test_budget_mip_matches_highs():
    rng = random.Random(2024)
    for size in (2, 3, 4, 5, 6, 6, 6):
        for _ in range(3):
            assert_agrees(random_network(rng, max_validators=size, max_services=size))


def test_eight_wide_budget_mips_match_highs():
    rng = random.Random(8)
    done = 0
    while done < 2:
        net = random_network(rng, max_validators=8, max_services=8)
        if len(net.validators) < 8 or len(net.services) < 8:
            continue
        assert_agrees(net)
        done += 1


def test_decision_mode_brackets_highs_optimum():
    # Just below the HiGHS optimum y an attack reaching the target exists;
    # just above it none does.
    rng = random.Random(2026)
    for size in (2, 3, 4, 5, 6, 6):
        for _ in range(3):
            net = random_network(rng, max_validators=size, max_services=size)
            problem = build_budget_mip(net)
            y = highs(net)
            step = 1e-6 * max(1.0, abs(y))
            reached = solve_mip(problem, target=y - step)
            assert reached.status == OPTIMAL
            assert reached.objective_value >= y - step
            attack = mip._attack_from_values(net, reached.values)
            assert evaluate_attack(net, attack).margin >= y - step
            assert solve_mip(problem, target=y + step).status == BELOW_TARGET


def linprog_value(lp: LpProblem, bounds) -> float | None:
    """HiGHS's optimum of a budget-program LP under bounds, None if infeasible."""
    rows = np.array([coeffs for coeffs, _, _ in lp.constraints])
    rhs = np.array([b for _, _, b in lp.constraints])
    result = optimize.linprog(-np.asarray(lp.objective), A_ub=-rows, b_ub=-rhs,
                              bounds=bounds, method="highs")
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return -result.fun


def test_kernel_matches_linprog_beyond_workload_sizes():
    # Budget-program LPs of 2..20 validators by 2..20 services: the root
    # solved cold, then a chain of children each warm from the one before
    # with more random binaries fixed, as branch and bound solves them.
    rng = random.Random(40)
    for _ in range(24):
        net = random_network(rng, max_validators=20, max_services=20, min_size=2)
        problem = build_budget_mip(net)
        solution, bounds = solve_lp(problem.lp), list(problem.lp.bounds)
        for _ in range(5):
            value = linprog_value(problem.lp, bounds)
            if value is None:
                assert solution.status == INFEASIBLE
                break
            assert solution.status == OPTIMAL
            assert abs(solution.objective_value - value) <= 1e-9 * max(1.0, abs(value))
            free = [j for j in sorted(problem.integral) if bounds[j][0] != bounds[j][1]]
            fix = {j: float(rng.randint(0, 1)) for j in rng.sample(free, min(len(free), 3))}
            for j, v in fix.items():
                bounds[j] = (v, v)
            solution = solve_lp(problem.lp, start=solution, fix=fix)
