"""Mixed-integer robustness analysis on one program.

The budget program maximizes attack profit (prize minus stake-capped cost);
its optimum y decides robustness: the network is insecure iff y >= 0 and
otherwise robust against any adversary budget below -y. It searches the
cheapest attacks directly: an attack is a set T of attacked services and a
set C of validators whose cost reaches their stake, which then aim their
whole allocations at T, and it costs stake(C) plus, per service in T, the
required stake C leaves uncovered (see :mod:`restaking.bruteforce`). With
attacked[s] and capped[v] binaries and one deficit column per service, that
is m + 1 rows and no big-M. Every coefficient is a stake, an allocation, a
required stake or a prize, so the program is homogeneous in the data. The
objective is divided by the largest stake or prize and each deficit row by
its own largest coefficient: the LP's absolute tolerances then act on
numbers of order one at any scale, and the optimum is reported back in the
network's units.

Every Byzantine question reduces one generator,
:func:`restaking.model.byzantine_choices`, which yields one admissible
Byzantine subset per multiset of interchangeable services with the network
its slashing leaves, and asks the budget program about that network:
:func:`mip_check` takes the first attackable subset, returned with its
witness as every engine returns one (``(Byzantine services, attack)``),
:func:`max_byzantine_fraction` the lightest, and
``experiments.min_stake_mip`` the largest minimum stake. The first two only
ask whether some attack clears the budget, so their branch and bound runs in
decision mode and stops at the first attack that does; the third needs the
optimum. Every attack returned is read off the program's binaries by
position (:func:`restaking.model.capped_attack` of its T and C), re-scored
by ``evaluate_attack`` on the network it was solved on, and a score that
contradicts the solver raises :class:`MipStatusError`. The
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
    capped_attack,
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
    "mip_check",
    "write_lp_format",
]

#: Solve precision: integrality tolerance of the binaries.
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
    """An LP plus a set of variable indices restricted to {0, 1}.

    The LP's objective is the program's in units of ``scale``: solve_mip
    multiplies it back and divides its target by it.
    """

    lp: LpProblem
    integral: frozenset[int]
    variable_names: dict[int, str]
    scale: float = 1.0


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
    """Maximum attack profit as a MIP over attacked sets and capped validators.

    Variables: attacked[s] and capped[v] binaries, deficit[s] >= 0. Maximize
    sum prize[s] * attacked[s] - sum stake[v] * capped[v] - sum deficit[s]
    subject to at least one attacked service and, per service, deficit[s] >=
    required[s] * attacked[s] - sum allocation[v, s] * capped[v]: m + n
    binaries, 2m + n columns, m + 1 rows. The objective is divided by the
    largest stake or prize, the problem's scale, and each deficit row by its
    largest coefficient, in which its deficit column then counts.
    """
    n, m = len(net.validators), len(net.services)
    scale = max(map(float, (*(net.stake[v] for v in net.validators),
                            *(net.prize[s] for s in net.services))), default=0.0) or 1.0

    # Layout: b (m) | z (n) | d (m)
    off_b, off_z, off_d = 0, m, m + n
    nvars = 2 * m + n
    names: dict[int, str] = {}
    for j, s in enumerate(net.services):
        names[off_b + j] = f"attacked[{s}]"
        names[off_d + j] = f"deficit[{s}]"
    for i, v in enumerate(net.validators):
        names[off_z + i] = f"capped[{v}]"
    bounds: list[tuple[float, float | None]] = [(0.0, 1.0)] * (m + n) + [(0.0, None)] * m

    # At least one service is attacked.
    rows: list[tuple[list[float], str, float]] = [([1.0] * m + [0.0] * (n + m), ">=", 1.0)]
    # Each deficit row is divided by its largest coefficient, which becomes
    # the unit its deficit column counts in.
    units = []
    for j, s in enumerate(net.services):
        required = float(net.threshold[s] * net.total_allocation(s))
        column = [float(net.w(v, s)) for v in net.validators]
        unit = max([required, *column]) or scale
        coeffs = [0.0] * nvars
        coeffs[off_b + j] = -required / unit
        for i in range(n):
            coeffs[off_z + i] = column[i] / unit
        coeffs[off_d + j] = 1.0
        rows.append((coeffs, ">=", 0.0))
        units.append(unit)

    objective = (
        [float(net.prize[s]) / scale for s in net.services]
        + [-float(net.stake[v]) / scale for v in net.validators]
        + [-unit / scale for unit in units]
    )
    lp = LpProblem(objective=objective, sense="max", constraints=rows, bounds=bounds)
    return MipProblem(lp=lp, integral=frozenset(range(m + n)), variable_names=names,
                      scale=scale)


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
    :class:`MipNodeLimitError` with the incumbent attached. The target and
    the objective value returned are in the problem's own units, ``scale``
    times the LP's.
    """
    direction = -1.0 if problem.lp.sense == "max" else 1.0  # heap pops the best bound
    if target is not None:
        target = target / problem.scale
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
        objective_value=clean.objective_value * problem.scale,
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
    if abs(float(evaluation.margin) - solution.objective_value) > _CERTIFICATE_TOL * problem.scale:
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


def _attack_from_values(net: Network, values: np.ndarray) -> Attack:
    """The attack a budget-program solution of net encodes: the cheapest one
    on its attacked services with its capped validators paying their stake,
    both read off the binaries by position, so any id decodes."""
    m = len(net.services)
    attacked = [s for j, s in enumerate(net.services) if values[j] > 0.5]
    capped = [v for i, v in enumerate(net.validators) if values[m + i] > 0.5]
    return capped_attack(net, attacked, capped)


def mip_check(net: Network, budget, weight_cap) -> tuple[tuple[str, ...], Attack] | None:
    """The first violation of (weight cap, budget)-robustness, or None.

    The budget program decides, for each distinct admissible Byzantine
    subset, whether the network its slashing leaves can be attacked within
    the budget. The first subset that can is returned with its witness:
    ``(Byzantine services, attack on the network they leave)``.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    for subset, slashed in byzantine_choices(net, weight_cap):
        found = _attack_within(slashed, budget)
        if found is not None:
            return tuple(subset), found[0]
    return None


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
    # Coefficients are the program's divided by the scale; so is the objective.
    out.write(f"\\ scale: {problem.scale:.17g}\n")

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
