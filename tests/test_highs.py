"""Differential test of the embedded branch and bound against HiGHS.

HiGHS (through ``scipy.optimize.milp``) accepts binaries within its
integrality tolerance of 1e-6, and through the big-M rows such a binary is
worth about 1e-6 of objective. So its binaries are rounded and the program
is solved once more with them fixed, which gives the exact value of the
assignment HiGHS found; that value is compared with the embedded optimum.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from restaking import mip
from restaking.lp import INFEASIBLE, OPTIMAL
from restaking.mip import (
    BELOW_TARGET,
    MipProblem,
    build_budget_mip,
    solve_mip,
)
from restaking.model import evaluate_attack

from conftest import random_network

optimize = pytest.importorskip("scipy.optimize")


def highs(problem: MipProblem) -> tuple[str, float | None]:
    lp = problem.lp
    sign = -1.0 if lp.sense == "max" else 1.0
    cost = sign * np.asarray(lp.objective, dtype=float)
    rows = np.array([coeffs for coeffs, _, _ in lp.constraints], dtype=float)
    row_lo = [rhs if rel != "<=" else -np.inf for _, rel, rhs in lp.constraints]
    row_hi = [rhs if rel != ">=" else np.inf for _, rel, rhs in lp.constraints]
    constraints = optimize.LinearConstraint(rows, row_lo, row_hi)
    lo = np.array([b[0] for b in lp.bounds], dtype=float)
    hi = np.array([np.inf if b[1] is None else b[1] for b in lp.bounds], dtype=float)
    integral = sorted(problem.integral)
    integrality = np.zeros(len(cost))
    integrality[integral] = 1
    result = optimize.milp(cost, constraints=constraints,
                           bounds=optimize.Bounds(lo, hi), integrality=integrality,
                           options={"mip_rel_gap": 1e-9})
    if result.status == 2:
        return INFEASIBLE, None
    assert result.status == 0, result.message
    lo[integral] = hi[integral] = np.round(result.x[integral])
    exact = optimize.milp(cost, constraints=constraints, bounds=optimize.Bounds(lo, hi))
    assert exact.status == 0, exact.message
    return OPTIMAL, sign * exact.fun


def assert_agrees(problem: MipProblem) -> None:
    solution = solve_mip(problem)
    status, value = highs(problem)
    assert solution.status == status
    if status == OPTIMAL:
        assert abs(solution.objective_value - value) <= 1e-7 * max(1.0, abs(value))


def test_budget_mip_matches_highs():
    rng = random.Random(2024)
    for size in (2, 3, 4, 5, 6, 6, 6):
        for _ in range(3):
            assert_agrees(build_budget_mip(
                random_network(rng, max_validators=size, max_services=size)))


def test_eight_wide_budget_mips_match_highs():
    rng = random.Random(8)
    done = 0
    while done < 2:
        net = random_network(rng, max_validators=8, max_services=8)
        if len(net.validators) < 8 or len(net.services) < 8:
            continue
        assert_agrees(build_budget_mip(net))
        done += 1



def test_decision_mode_brackets_highs_optimum():
    # Just below the HiGHS optimum y an attack reaching the target exists;
    # just above it none does.
    rng = random.Random(2026)
    for size in (2, 3, 4, 5, 6, 6):
        for _ in range(3):
            net = random_network(rng, max_validators=size, max_services=size)
            problem = build_budget_mip(net)
            status, y = highs(problem)
            assert status == OPTIMAL
            step = 1e-6 * max(1.0, abs(y))
            reached = solve_mip(problem, target=y - step)
            assert reached.status == OPTIMAL
            assert reached.objective_value >= y - step
            attack = mip._attack_from_values(net, reached.values)
            assert evaluate_attack(net, attack).margin >= y - step
            assert solve_mip(problem, target=y + step).status == BELOW_TARGET
