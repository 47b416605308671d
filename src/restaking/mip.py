"""Mixed-integer robustness analysis on one program.

The budget program maximizes attack profit (prize minus stake-capped cost)
over allocation-divisible attacks; its optimum y decides robustness: the
network is insecure iff y >= 0 and otherwise robust against any adversary
budget below -y. It linearizes the min expressions in the attack cost and
the threshold requirement with one big-M per row, each the smallest the row
admits: a validator's stake, its total allocation, a service's required
stake.

Every Byzantine question reduces one generator,
:func:`restaking.model.byzantine_choices`, which yields one admissible
Byzantine subset per multiset of interchangeable services with the network
its slashing leaves, and asks the budget program about that network:
:func:`mip_check` takes the first attackable subset,
:func:`max_byzantine_fraction` the lightest, and
``experiments.min_stake_mip`` the largest minimum stake. The first two only
ask whether some attack clears the budget, so their branch and bound runs in
decision mode and stops at the first attack that does; the third needs the
optimum. Every attack returned is read off the program's columns by
position, re-scored by ``evaluate_attack`` on the network it was solved on,
and a score that contradicts the solver raises :class:`MipStatusError`. The
embedded branch-and-bound solver keeps runs deterministic; instances stay
desk-scale by construction (a few dozen binaries).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from io import StringIO
from typing import Iterable

import numpy as np

from .lp import INFEASIBLE, OPTIMAL, LpProblem, LpSolution, solve_lp
from .model import (
    Attack,
    AttackEvaluation,
    InputError,
    Network,
    byzantine_choices,
    evaluate_attack,
    service_weight,
    total_byzantine_weight,
)

__all__ = [
    "MipProblem",
    "MipSolution",
    "MipNodeLimitError",
    "MipStatusError",
    "BELOW_TARGET",
    "build_budget_mip",
    "solve_mip",
    "max_attack_profit",
    "attackable",
    "min_budget",
    "max_byzantine_fraction",
    "RobustnessReport",
    "mip_check",
    "write_lp_format",
]

#: Solve precision: integrality tolerance and attack-entry cutoff (per allocation).
PRECISION = 1e-6

_BOUNDARY_TOL = 1e-9

#: Largest gap between a witness's evaluated profit and the optimum the
#: branch and bound reports, relative to the largest stake or prize.
_CERTIFICATE_TOL = 1e-9

#: Status of a decision-mode solve in which no integral solution reaches the
#: target (for the budget program, which is always feasible: no attack does).
BELOW_TARGET = "below target"


@dataclass
class MipProblem:
    """An LP plus a set of variable indices restricted to {0, 1}."""

    lp: LpProblem
    integral: frozenset[int]
    variable_names: dict[int, str]


@dataclass
class MipSolution:
    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None


class MipNodeLimitError(RuntimeError):
    """Node budget exhausted; carries the best incumbent found so far."""

    def __init__(self, message: str, incumbent: MipSolution | None):
        super().__init__(message)
        self.incumbent = incumbent


class MipStatusError(RuntimeError):
    """A program that always has an optimum was not solved to optimality, or
    the attack it returned fails its re-check by ``evaluate_attack``."""


def build_budget_mip(net: Network) -> MipProblem:
    """Maximum attack profit as a MIP.

    Variables: attacked[s] and costflag[v] binaries, cost[v] in [0, stake],
    attack[v,s] in [0, allocation]. At least one service must be attacked;
    an attacked service receives its required stake. The three cost rows
    pin cost[v] = min(stake, aimed stake): cost <= aimed, cost >=
    stake * (1 - flag) and cost >= aimed - allocation * (1 - flag), where
    the validator's total allocation bounds its aimed stake.
    """
    n, m = len(net.validators), len(net.services)

    # Layout: b (m) | z (n) | c (n) | alpha (n*m), alpha row-major by validator
    off_b, off_z, off_c, off_a = 0, m, m + n, m + 2 * n
    nvars = m + 2 * n + n * m
    a_idx = lambda i, j: off_a + i * m + j

    names: dict[int, str] = {}
    bounds: list[tuple[float, float | None]] = [(0.0, None)] * nvars
    for j, s in enumerate(net.services):
        names[off_b + j] = f"attacked[{s}]"
        bounds[off_b + j] = (0.0, 1.0)
    for i, v in enumerate(net.validators):
        names[off_z + i] = f"costflag[{v}]"
        bounds[off_z + i] = (0.0, 1.0)
        names[off_c + i] = f"cost[{v}]"
        bounds[off_c + i] = (0.0, float(net.stake[v]))
    for i, v in enumerate(net.validators):
        for j, s in enumerate(net.services):
            names[a_idx(i, j)] = f"attack[{v},{s}]"
            bounds[a_idx(i, j)] = (0.0, float(net.w(v, s)))

    rows: list[tuple[list[float], str, float]] = []

    def row(entries: dict[int, float], rel: str, rhs: float) -> None:
        coeffs = [0.0] * nvars
        for k, val in entries.items():
            coeffs[k] = val
        rows.append((coeffs, rel, rhs))

    # At least one service is attacked.
    row({off_b + j: 1.0 for j in range(m)}, ">=", 1.0)

    for i, v in enumerate(net.validators):
        aimed = {a_idx(i, j): -1.0 for j in range(m)}
        stake = float(net.stake[v])
        allocated = float(net.validator_allocation(v))
        # cost <= aimed stake
        row({off_c + i: 1.0, **aimed}, "<=", 0.0)
        # cost >= stake * (1 - flag)
        row({off_c + i: 1.0, off_z + i: stake}, ">=", stake)
        # cost >= aimed - allocated * (1 - flag)
        row({off_c + i: 1.0, off_z + i: -allocated, **aimed}, ">=", -allocated)

    for j, s in enumerate(net.services):
        required = float(net.threshold[s] * net.total_allocation(s))
        # aimed at s >= required * attacked[s]
        row({**{a_idx(i, j): 1.0 for i in range(n)}, off_b + j: -required}, ">=", 0.0)

    objective = [0.0] * nvars
    for j, s in enumerate(net.services):
        objective[off_b + j] = float(net.prize[s])
    for i in range(n):
        objective[off_c + i] = -1.0

    lp = LpProblem(objective=objective, sense="max", constraints=rows, bounds=bounds)
    integral = frozenset(range(off_b, off_b + m)) | frozenset(
        range(off_z, off_z + n)
    )
    return MipProblem(lp=lp, integral=integral, variable_names=names)


def solve_mip(problem: MipProblem, node_limit: int = 200_000,
              target: float | None = None) -> MipSolution:
    """Branch-and-bound over the binary variables.

    Best-first on the relaxation bound, branching on the most fractional
    binary (ties to the lowest index), so runs are deterministic. Each child
    is solved warm from its parent's final tableau with the branched binary
    fixed. A node is pruned when its bound is no better than the incumbent's
    objective, so the returned solution is optimal (status OPTIMAL), or
    INFEASIBLE when no integral solution exists.

    With a target the search answers the decision question instead: nodes
    whose bound is strictly worse than the target are pruned (a bound equal
    to it is kept), and the first integral node is returned; its polished
    solution reaches the target but need not be optimal. When no node is
    left the status is BELOW_TARGET. Exceeding the node budget raises
    :class:`MipNodeLimitError` with the incumbent attached.
    """
    direction = -1.0 if problem.lp.sense == "max" else 1.0  # heap pops the best bound
    integral = np.array(sorted(problem.integral), dtype=int)

    root = solve_lp(problem.lp)
    if root.status != OPTIMAL:
        return MipSolution(status=root.status)

    heap: list[tuple[float, int, LpSolution]] = [(direction * root.objective_value, 0, root)]
    counter = nodes = 0
    incumbent: LpSolution | None = None
    # Only nodes whose heap key is below the cutoff can improve: the
    # incumbent's key, or the least key worse than the target's.
    cutoff = math.inf if target is None else math.nextafter(direction * target, math.inf)

    while heap:
        key, _, relax = heapq.heappop(heap)
        if key >= cutoff:
            continue
        nodes += 1
        if nodes > node_limit:
            inc = None if incumbent is None else _polish(problem, incumbent)
            raise MipNodeLimitError(f"node limit {node_limit} exceeded", incumbent=inc)
        binaries = relax.values[integral]
        fractional = np.abs(binaries - np.round(binaries))
        if not integral.size or fractional.max() <= PRECISION:
            if target is not None:
                return _polish(problem, relax)
            incumbent, cutoff = relax, key
            continue
        # Most fractional binary; ties resolved toward the lowest index.
        branch_var = int(integral[fractional.argmax()])
        for value in (0, 1):
            child = solve_lp(problem.lp, start=relax, fix={branch_var: value})
            if child.status == OPTIMAL and direction * child.objective_value < cutoff:
                counter += 1
                heapq.heappush(heap, (direction * child.objective_value, counter, child))

    if target is not None:
        return MipSolution(status=BELOW_TARGET)
    if incumbent is None:
        return MipSolution(status=INFEASIBLE)
    return _polish(problem, incumbent)


def _polish(problem: MipProblem, incumbent: LpSolution) -> MipSolution:
    """Re-solve with every binary pinned at its rounded value.

    Guarantees the reported solution is feasible after rounding and that the
    continuous variables are consistent with the integral assignment.
    """
    integral = sorted(problem.integral)
    rounded = np.round(incumbent.values[integral])
    clean = solve_lp(problem.lp, start=incumbent, fix=dict(zip(integral, rounded)))
    if clean.status != OPTIMAL:  # cannot happen for a true incumbent
        raise MipStatusError(f"incumbent with its binaries rounded ended {clean.status}")
    return MipSolution(
        status=OPTIMAL,
        values=clean.values,
        objective_value=clean.objective_value,
    )


def _witness(net: Network, solution: MipSolution) -> tuple[Attack, AttackEvaluation]:
    """The attack a budget-program solution encodes, scored on net itself."""
    if solution.status != OPTIMAL:
        raise MipStatusError(f"budget MIP ended {solution.status}, not optimal")
    attack = _attack_from_values(net, solution.values)
    return attack, evaluate_attack(net, attack)


def max_attack_profit(net: Network) -> tuple[float, Attack]:
    """Optimal value of the budget program on net, with an attack reaching it.

    Attacking every service with every allocation is always feasible, so any
    status but OPTIMAL is a solver failure and raises MipStatusError; so does
    an attack whose profit, as ``evaluate_attack`` scores it, is not the
    optimum the solver reports.
    """
    problem = build_budget_mip(net)
    solution = solve_mip(problem)
    attack, evaluation = _witness(net, solution)
    scale = max(map(float, (*net.stake.values(), *net.prize.values())), default=0.0)
    if abs(float(evaluation.margin) - solution.objective_value) > _CERTIFICATE_TOL * scale:
        raise MipStatusError(
            f"budget MIP reports profit {solution.objective_value!r} but its "
            f"attack scores {float(evaluation.margin)!r}"
        )
    return solution.objective_value, attack


def _attack_within(net: Network, budget) -> tuple[Attack, AttackEvaluation] | None:
    """An attack on net whose profit clears -budget, or None when none does.

    The budget program runs in decision mode at the tie rule of
    :func:`attackable`; an attack it returns that does not clear the budget
    once scored by ``evaluate_attack`` raises MipStatusError.
    """
    problem = build_budget_mip(net)
    solution = solve_mip(problem, target=-budget - _BOUNDARY_TOL)
    if solution.status == BELOW_TARGET:
        return None
    attack, evaluation = _witness(net, solution)
    if not attackable(evaluation.margin, budget):
        raise MipStatusError(
            f"budget MIP returned an attack scoring {float(evaluation.margin)!r}, "
            f"short of -{budget}"
        )
    return attack, evaluation


def attackable(profit, budget) -> bool:
    """True when an optimal attack profit clears -budget (ties to the attacker)."""
    return profit >= -budget - _BOUNDARY_TOL


def min_budget(net: Network) -> float:
    """Supremum of adversary budgets the network withstands.

    Zero means the network is insecure outright (a profitable attack exists);
    a network with no services cannot be attacked at all.
    """
    if not net.services:
        return math.inf
    profit, _ = max_attack_profit(net)
    return max(0.0, -profit)


@dataclass
class RobustnessReport:
    """Outcome of a robustness check, with a witness when it fails."""

    robust: bool
    budget: float
    weight_cap: float
    byzantine: tuple[str, ...] = ()
    attack: Attack | None = None
    attacked: tuple[str, ...] = ()
    cost: float | None = None
    prize: float | None = None


def _attack_from_values(net: Network, values: np.ndarray) -> Attack:
    """The attack a budget-program solution of net encodes, read off its alpha
    block by position, so any id decodes. Entries at most PRECISION of their
    allocation are noise; a relative cutoff keeps small-stake witnesses."""
    n, m = len(net.validators), len(net.services)
    alpha = values[m + 2 * n:].reshape(n, m)
    used = {(v, s): float(alpha[i, j]) for i, v in enumerate(net.validators)
            for j, s in enumerate(net.services)
            if alpha[i, j] > PRECISION * net.w(v, s)}
    return Attack(stake_used=used)


def mip_check(net: Network, budget, weight_cap) -> RobustnessReport:
    """Decide robustness against a budget and a Byzantine weight cap.

    The budget program decides, for each distinct admissible Byzantine
    subset, whether the network its slashing leaves can be attacked within
    the budget. The first failing subset is reported with its witness attack.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    for subset, slashed in byzantine_choices(net, weight_cap):
        found = _attack_within(slashed, budget)
        if found is not None:
            attack, evaluation = found
            return RobustnessReport(
                robust=False,
                budget=budget,
                weight_cap=weight_cap,
                byzantine=tuple(subset),
                attack=attack,
                attacked=tuple(sorted(evaluation.attacked_services)),
                cost=float(evaluation.total_cost),
                prize=float(evaluation.total_prize),
            )
    return RobustnessReport(robust=True, budget=budget, weight_cap=weight_cap)


def max_byzantine_fraction(net: Network, budget) -> float:
    """Largest weighted fraction of Byzantine services the network tolerates.

    The breaking weight is the least prize-to-threshold weight of a Byzantine
    subset after which a budget-costly attack exists; turning every service
    Byzantine leaves nothing to attack and counts as a failure only at budget
    0. Returns the breaking weight's fraction of the total non-base weight,
    stepped inside the open boundary by the solve precision: 1.0 means no
    Byzantine set breaks the network, 0.0 that the intact network is already
    attackable at this budget.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    total = total_byzantine_weight(net)
    collapse = budget <= 0 and not net.base_services and 0 < total < math.inf
    best = total if collapse else math.inf
    for subset, slashed in byzantine_choices(net, math.inf):
        weight = sum(service_weight(net, s) for s in subset)
        if weight < best and _attack_within(slashed, budget) is not None:
            best = weight
    if math.isinf(best):
        return 1.0
    return max(0.0, (best - PRECISION) / total) if total else 0.0


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def write_lp_format(problem: MipProblem) -> str:
    """Render a MIP as human-readable LP-format text for external checking."""
    lp = problem.lp
    n = lp.n_variables()
    names = [
        _sanitize(problem.variable_names.get(i, f"x{i}")) for i in range(n)
    ]
    out = StringIO()

    def term_string(coeffs: Iterable[float]) -> str:
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c):g} {names[i]}")
        if not parts:
            return "0"
        first = parts[0]
        first = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return " ".join([first] + parts[1:])

    out.write("Maximize\n" if lp.sense == "max" else "Minimize\n")
    out.write(f" obj: {term_string(lp.objective)}\n")
    out.write("Subject To\n")
    rel_map = {"<=": "<=", ">=": ">=", "==": "="}
    for k, (coeffs, rel, rhs) in enumerate(lp.constraints):
        out.write(f" c{k + 1}: {term_string(coeffs)} {rel_map[rel]} {rhs:g}\n")
    out.write("Bounds\n")
    bounds = lp.bounds or [(0.0, None)] * n
    for i, (lo, hi) in enumerate(bounds):
        if hi is None:
            out.write(f" {names[i]} >= {lo:g}\n")
        else:
            out.write(f" {lo:g} <= {names[i]} <= {hi:g}\n")
    out.write("Binaries\n")
    for i in sorted(problem.integral):
        out.write(f" {names[i]}\n")
    out.write("End\n")
    return out.getvalue()
