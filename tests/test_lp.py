from __future__ import annotations

import numpy as np
import pytest

from restaking import lp
from restaking.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp
from restaking.model import InputError


def test_single_upper_bound():
    sol = solve_lp(LpProblem(objective=[1.0], sense="max",
                             constraints=[([1.0], "<=", 3.0)]))
    assert sol.status == OPTIMAL
    assert sol.values[0] == pytest.approx(3.0)
    assert sol.objective_value == pytest.approx(3.0)


def test_covering_pair():
    sol = solve_lp(LpProblem(objective=[1.0, 1.0], sense="min",
                             constraints=[([1.0, 1.0], ">=", 2.0)]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(2.0)


def test_contradictory_bounds_infeasible():
    sol = solve_lp(LpProblem(objective=[1.0], sense="max",
                             constraints=[([1.0], ">=", 1.0), ([1.0], "<=", 0.0)]))
    assert sol.status == INFEASIBLE


def test_unbounded_direction():
    sol = solve_lp(LpProblem(objective=[1.0], sense="max"))
    assert sol.status == UNBOUNDED


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        solve_lp(LpProblem(objective=[1.0], constraints=[([1.0, 2.0], "<=", 1.0)]))
    with pytest.raises(InputError):
        solve_lp(LpProblem(objective=[1.0], bounds=[(0, 1), (0, 1)]))


def test_equality_constraints():
    sol = solve_lp(LpProblem(
        objective=[2.0, 3.0], sense="min",
        constraints=[([1.0, 1.0], "==", 4.0)],
        bounds=[(1.0, None), (0.0, 2.5)],
    ))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(8.0)
    np.testing.assert_allclose(sol.values, [4.0, 0.0], atol=1e-9)


def test_determinism_bit_identical():
    rng = np.random.default_rng(12)
    c = rng.normal(size=6)
    rows = [(list(rng.normal(size=6)), "<=", float(rng.uniform(1, 3))) for _ in range(8)]
    p = LpProblem(objective=list(c), sense="max", constraints=rows,
                  bounds=[(0.0, 2.0)] * 6)
    first = solve_lp(p)
    second = solve_lp(p)
    assert first.status == second.status == OPTIMAL
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.values, second.values)


def feasible_within(problem: LpProblem, x: np.ndarray) -> bool:
    for coeffs, rel, rhs in problem.constraints:
        lhs = float(np.dot(coeffs, x))
        if rel == "<=" and lhs > rhs + 1e-9:
            return False
        if rel == ">=" and lhs < rhs - 1e-9:
            return False
        if rel == "==" and abs(lhs - rhs) > 1e-9:
            return False
    for xi, (lo, hi) in zip(x, problem.bounds):
        if xi < lo - 1e-9 or (hi is not None and xi > hi + 1e-9):
            return False
    return True


def test_optimum_attained_and_undominated():
    # Weak-duality style spot check: the returned point satisfies every
    # constraint and no sampled feasible point improves on it.
    rng = np.random.default_rng(99)
    solved = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        p = LpProblem(
            objective=list(rng.normal(size=n)),
            sense="max",
            constraints=[
                (list(rng.normal(size=n)), "<=", float(rng.uniform(0.5, 2.0)))
                for _ in range(m)
            ],
            bounds=[(0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)],
        )
        sol = solve_lp(p)
        if sol.status != OPTIMAL:
            continue
        solved += 1
        assert feasible_within(p, sol.values)
        c = np.asarray(p.objective)
        for _ in range(200):
            point = np.array([rng.uniform(lo, hi) for lo, hi in p.bounds])
            if feasible_within(p, point):
                assert float(c @ point) <= sol.objective_value + 1e-7
    assert solved >= 20


def random_boxed_lp(rng: np.random.Generator) -> LpProblem:
    """A feasible LP with every column boxed and rows of every relation."""
    n = int(rng.integers(2, 8))
    lo = rng.uniform(-1.0, 1.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    point = rng.uniform(lo, hi)
    rows = []
    for _ in range(int(rng.integers(1, 9))):
        coeffs = rng.normal(size=n) * (rng.random(n) < 0.7)
        activity = float(coeffs @ point)
        rel = str(rng.choice(["<=", ">=", "=="], p=[0.45, 0.45, 0.1]))
        slack = 0.0 if rel == "==" else float(rng.uniform(0.0, 1.0))
        rows.append((list(coeffs), rel, activity + (slack if rel == "<=" else -slack)))
    return LpProblem(objective=list(rng.normal(size=n)), sense=str(rng.choice(["min", "max"])),
                     constraints=rows, bounds=list(zip(lo, hi)))


def test_warm_start_matches_cold():
    # Pin columns one after another, as branch and bound does: each solve
    # starts warm from the one before, and must agree with a cold solve of
    # the same bounds.
    rng = np.random.default_rng(2718)
    infeasible = 0
    for _ in range(150):
        problem = random_boxed_lp(rng)
        warm = solve_lp(problem)
        assert warm.status == OPTIMAL
        bounds = list(problem.bounds)
        for col in rng.permutation(len(bounds))[:3]:
            lo, hi = bounds[col]
            value = float(rng.choice([lo, hi, rng.uniform(lo, hi)]))
            bounds[col] = (value, value)
            child = solve_lp(problem, start=warm, fix={int(col): value})
            cold = solve_lp(LpProblem(objective=problem.objective, sense=problem.sense,
                                      constraints=problem.constraints, bounds=list(bounds)))
            assert child.status == cold.status
            if cold.status != OPTIMAL:
                infeasible += 1
                break
            assert abs(child.objective_value - cold.objective_value) <= 1e-9 * max(
                1.0, abs(cold.objective_value))
            assert feasible_within(LpProblem(objective=problem.objective,
                                             constraints=problem.constraints,
                                             bounds=list(bounds)), child.values)
            warm = child
    assert infeasible >= 10


BEALE = LpProblem(
    objective=[-0.75, 20.0, -0.5, 6.0],
    sense="min",
    constraints=[
        ([0.25, -8.0, -1.0, 9.0], "<=", 0.0),
        ([0.5, -12.0, -0.5, 3.0], "<=", 0.0),
        ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
    ],
)


@pytest.mark.parametrize("bounds", [None, [(0.0, 10.0)] * 4])
def test_beale_cycling_example_terminates(bounds):
    # Beale's example cycles under the textbook largest-coefficient rule.
    sol = solve_lp(LpProblem(objective=BEALE.objective, sense="min",
                             constraints=BEALE.constraints, bounds=bounds))
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.25, abs=1e-12)
    np.testing.assert_allclose(sol.values, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_bland_rule_from_the_first_pivot(monkeypatch):
    # With no degenerate pivots allowed before Bland's rule, every pass runs
    # under it; the optima must not change.
    rng = np.random.default_rng(31)
    problems = [random_boxed_lp(rng) for _ in range(40)]
    problems.append(BEALE)
    # Highly degenerate: every row is tight at the origin.
    problems.append(LpProblem(
        objective=[-1.0] * 6, sense="min",
        constraints=[([float(v) for v in rng.integers(0, 2, size=6)], "<=", 0.0)
                     for _ in range(12)] + [([1.0] * 6, "<=", 1.0)],
        bounds=[(0.0, 1.0)] * 6,
    ))
    default = [solve_lp(p) for p in problems]
    monkeypatch.setattr(lp, "_DEGENERATE_RUN", 0)
    for problem, expected in zip(problems, default):
        sol = solve_lp(problem)
        assert sol.status == expected.status == OPTIMAL
        assert sol.objective_value == pytest.approx(expected.objective_value, abs=1e-9)


def log_first_flips(monkeypatch) -> list[int]:
    """Patch the kernel to log, per dual simplex pass, how many columns its
    first iteration flips to their other bound.

    Inside the dual a list move is a set of bound flips, and a single-column
    move is the entering column's step, which ends the iteration.
    """
    real_dual, real_move = lp._dual, lp._Tableau.move
    log: list[int] = []
    first_iteration = [False]

    def dual(s):
        log.append(0)
        first_iteration[0] = True
        try:
            return real_dual(s)
        finally:
            first_iteration[0] = False

    def move(self, cols, steps):
        if first_iteration[0]:
            if isinstance(cols, list):
                log[-1] += len(cols)
            else:
                first_iteration[0] = False
        return real_move(self, cols, steps)

    monkeypatch.setattr(lp, "_dual", dual)
    monkeypatch.setattr(lp._Tableau, "move", move)
    return log


def test_first_dual_iteration_flips_columns(monkeypatch):
    # Covering 2.5 units with columns in [0, 1] of cost 1, 2, 3, 4: the
    # dual's ratio test passes the breakpoints of the two cheapest, which
    # flip to their upper bounds, and the third enters at 0.5. A fifth
    # column y of cost 0.5 is pinned at 0: cold by its bounds, and warm from
    # the optimum with y in [0, 3], where y covers everything and is basic.
    rows = [([1.0, 1.0, 1.0, 1.0, 1.0], ">=", 2.5)]
    objective = [1.0, 2.0, 3.0, 4.0, 0.5]
    loose = LpProblem(objective=objective, constraints=rows, bounds=[(0.0, 1.0)] * 4 + [(0.0, 3.0)])
    pinned = LpProblem(objective=objective, constraints=rows, bounds=[(0.0, 1.0)] * 4 + [(0.0, 0.0)])
    parent = solve_lp(loose)
    assert parent.status == OPTIMAL
    flips = log_first_flips(monkeypatch)
    cold = solve_lp(pinned)
    warm = solve_lp(loose, start=parent, fix={4: 0.0})
    assert flips == [2, 2]
    for sol in (cold, warm):
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(4.5, abs=1e-12)
        np.testing.assert_allclose(sol.values, [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-12)
