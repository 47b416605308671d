"""Mixed-integer programs for robustness analysis.

Two programs are generated from a network:

* the budget program maximizes attack profit (prize minus stake-capped cost)
  over allocation-divisible attacks; its optimum y decides robustness: the
  network is insecure iff y >= 0 and otherwise robust against any adversary
  budget below -y;
* the Byzantine program minimizes the prize-to-threshold weight of a set of
  Byzantine services whose slashing enables an attack that stays within the
  adversary budget.

Both use big-M linearizations of the min/max expressions in the attack cost
and slashing transition. The embedded branch-and-bound solver keeps runs
deterministic and proves optima to a 1e-6 gap; instances stay desk-scale by
construction (a few dozen binaries).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Iterator

import numpy as np

from .lp import INFEASIBLE, OPTIMAL, LpProblem, LpSolution, solve_lp
from .model import (
    Attack,
    InputError,
    Network,
    apply_byzantine,
    byzantine_subsets,
    evaluate_attack,
    service_weight,
    total_byzantine_weight,
)

__all__ = [
    "MipProblem",
    "MipSolution",
    "MipNodeLimitError",
    "MipStatusError",
    "big_m_constants",
    "build_budget_mip",
    "build_byzantine_mip",
    "solve_mip",
    "max_attack_profit",
    "attackable",
    "min_budget",
    "max_byzantine_fraction",
    "RobustnessReport",
    "distinct_byzantine_subsets",
    "mip_check",
    "write_lp_format",
]

#: Solve precision: integrality tolerance and the certified optimality gap.
PRECISION = 1e-6

_BOUNDARY_TOL = 1e-9


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
    gap: float = 0.0


class MipNodeLimitError(RuntimeError):
    """Node budget exhausted; carries the best incumbent found so far."""

    def __init__(self, message: str, incumbent: MipSolution | None):
        super().__init__(message)
        self.incumbent = incumbent


class MipStatusError(RuntimeError):
    """A program that always has an optimum was not solved to optimality."""


def big_m_constants(net: Network) -> tuple[float, float, float, float, float]:
    """Big-M constants (M1..M5) sized from the network data.

    M1 bounds the per-service threshold requirement, M2 = M3 bound stake and
    per-validator total allocation, M4 bounds any single stake, and M5 is the
    service count.
    """
    m1 = max(
        (net.threshold[s] * net.total_allocation(s) for s in net.services),
        default=0,
    )
    max_stake = max((net.stake[v] for v in net.validators), default=0)
    max_alloc = max((net.validator_allocation(v) for v in net.validators), default=0)
    m2 = max(max_stake, max_alloc)
    return m1, m2, m2, max_stake, len(net.services)


def build_budget_mip(net: Network) -> MipProblem:
    """Maximum attack profit as a MIP.

    Variables: attacked[s] and costflag[v] binaries, cost[v] in [0, stake],
    attack[v,s] in [0, allocation]. At least one service must be attacked;
    the four costflag rows pin cost[v] = min(stake, aimed stake).
    """
    n, m = len(net.validators), len(net.services)
    m1, m2, _, _, _ = big_m_constants(net)

    # Layout: b (m) | z (n) | c (n) | alpha (n*m)
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
        aimed = {a_idx(i, j): 1.0 for j in range(m)}
        # cost <= aimed stake
        row({off_c + i: 1.0, **{k: -c for k, c in aimed.items()}}, "<=", 0.0)
        # cost >= stake - M2 * flag
        row({off_c + i: 1.0, off_z + i: m2}, ">=", float(net.stake[v]))
        # cost >= aimed - M2 * (1 - flag)
        row(
            {off_c + i: 1.0, off_z + i: -m2, **{k: -c for k, c in aimed.items()}},
            ">=",
            -m2,
        )

    for j, s in enumerate(net.services):
        required = net.threshold[s] * net.total_allocation(s)
        entries = {a_idx(i, j): 1.0 for i in range(n)}
        entries[off_b + j] = -m1
        row(entries, ">=", float(required) - m1)

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


def build_byzantine_mip(net: Network, budget) -> MipProblem:
    """Minimum Byzantine weight enabling an attack within the budget.

    Extends the budget program with byz[s] flags, post-slash stake remstake[v]
    and allocations remalloc[v,s], and their linearization flags. Either some
    service is attacked or every service is Byzantine; a Byzantine service
    cannot be attacked; the attack must clear cost <= prize + budget. Base
    services (and threshold-0 services, whose weight is infinite) have their
    Byzantine flag pinned to zero.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    n, m = len(net.validators), len(net.services)
    m1, m2, m3, m4, m5 = big_m_constants(net)

    # Layout: b (m) | y (m) | u (1) | z (n) | zs (n) | c (n) | r (n)
    #         | alpha (n*m) | rem (n*m) | zz (n*m)
    off_b = 0
    off_y = m
    off_u = 2 * m
    off_z = off_u + 1
    off_zs = off_z + n
    off_c = off_zs + n
    off_r = off_c + n
    off_a = off_r + n
    off_rem = off_a + n * m
    off_zz = off_rem + n * m
    nvars = off_zz + n * m
    a_idx = lambda i, j: off_a + i * m + j
    rem_idx = lambda i, j: off_rem + i * m + j
    zz_idx = lambda i, j: off_zz + i * m + j

    names: dict[int, str] = {off_u: "allbyz"}
    bounds: list[tuple[float, float | None]] = [(0.0, None)] * nvars
    bounds[off_u] = (0.0, 1.0)
    for j, s in enumerate(net.services):
        names[off_b + j] = f"attacked[{s}]"
        bounds[off_b + j] = (0.0, 1.0)
        names[off_y + j] = f"byz[{s}]"
        pinned = s in net.base_services or net.threshold[s] == 0
        bounds[off_y + j] = (0.0, 0.0) if pinned else (0.0, 1.0)
    for i, v in enumerate(net.validators):
        names[off_z + i] = f"costflag[{v}]"
        bounds[off_z + i] = (0.0, 1.0)
        names[off_zs + i] = f"stakeflag[{v}]"
        bounds[off_zs + i] = (0.0, 1.0)
        names[off_c + i] = f"cost[{v}]"
        bounds[off_c + i] = (0.0, float(net.stake[v]))
        names[off_r + i] = f"remstake[{v}]"
        bounds[off_r + i] = (0.0, float(net.stake[v]))
    for i, v in enumerate(net.validators):
        for j, s in enumerate(net.services):
            names[a_idx(i, j)] = f"attack[{v},{s}]"
            bounds[a_idx(i, j)] = (0.0, float(net.w(v, s)))
            names[rem_idx(i, j)] = f"remalloc[{v},{s}]"
            bounds[rem_idx(i, j)] = (0.0, float(net.w(v, s)))
            names[zz_idx(i, j)] = f"allocflag[{v},{s}]"
            bounds[zz_idx(i, j)] = (0.0, 1.0)

    rows: list[tuple[list[float], str, float]] = []

    def row(entries: dict[int, float], rel: str, rhs: float) -> None:
        coeffs = [0.0] * nvars
        for k, val in entries.items():
            coeffs[k] = val
        rows.append((coeffs, rel, rhs))

    # Either at least one attacked service, or all services Byzantine.
    row({**{off_b + j: 1.0 for j in range(m)}, off_u: m5}, ">=", 1.0)
    row({**{off_y + j: 1.0 for j in range(m)}, off_u: -m5}, ">=", float(m) - m5)
    # The attack is budget-costly: prize - cost >= -budget. In the
    # all-Byzantine branch (u = 1, so no attack) the requirement tightens to
    # 0 >= budget, keeping total collapse a failure state only at budget 0.
    row(
        {
            **{off_b + j: float(net.prize[s]) for j, s in enumerate(net.services)},
            **{off_c + i: -1.0 for i in range(n)},
            off_u: -2.0 * float(budget),
        },
        ">=",
        -float(budget),
    )

    for j in range(m):
        # A Byzantine service cannot be attacked.
        row({off_b + j: 1.0, off_y + j: 1.0}, "<=", 1.0)

    for i, v in enumerate(net.validators):
        aimed = {a_idx(i, j): 1.0 for j in range(m)}
        # cost = min(remaining stake, aimed stake)
        row({off_c + i: 1.0, off_r + i: -1.0}, "<=", 0.0)
        row({off_c + i: 1.0, **{k: -c for k, c in aimed.items()}}, "<=", 0.0)
        row({off_c + i: 1.0, off_r + i: -1.0, off_z + i: m2}, ">=", 0.0)
        row(
            {off_c + i: 1.0, off_z + i: -m2, **{k: -c for k, c in aimed.items()}},
            ">=",
            -m2,
        )
        # remaining stake = max(0, stake - slashed allocations)
        slash = {off_y + j: float(net.w(v, s)) for j, s in enumerate(net.services)}
        row({off_r + i: 1.0, **slash}, ">=", float(net.stake[v]))
        row({off_r + i: 1.0, **slash, off_zs + i: -m3}, "<=", float(net.stake[v]))
        row({off_r + i: 1.0, off_zs + i: m3}, "<=", m3)

    for j, s in enumerate(net.services):
        # Threshold over the post-slash allocations, active when attacked.
        entries = {a_idx(i, j): 1.0 for i in range(n)}
        for i in range(n):
            entries[rem_idx(i, j)] = -float(net.threshold[s])
        entries[off_b + j] = -m1
        row(entries, ">=", -m1)

    for i, v in enumerate(net.validators):
        for j, s in enumerate(net.services):
            w = float(net.w(v, s))
            # attacking stake is limited by the post-slash allocation
            row({a_idx(i, j): 1.0, rem_idx(i, j): -1.0}, "<=", 0.0)
            # post-slash allocation = min(original allocation, remaining stake)
            row({rem_idx(i, j): 1.0, off_r + i: -1.0}, "<=", 0.0)
            row({rem_idx(i, j): 1.0, zz_idx(i, j): m4}, ">=", w)
            row({rem_idx(i, j): 1.0, off_r + i: -1.0, zz_idx(i, j): -m4}, ">=", -m4)

    objective = [0.0] * nvars
    for j, s in enumerate(net.services):
        weight = service_weight(net, s)
        objective[off_y + j] = 0.0 if math.isinf(weight) else float(weight)

    lp = LpProblem(objective=objective, sense="min", constraints=rows, bounds=bounds)
    integral = (
        frozenset(range(off_b, off_b + m))
        | frozenset(range(off_y, off_y + m))
        | {off_u}
        | frozenset(range(off_z, off_z + n))
        | frozenset(range(off_zs, off_zs + n))
        | frozenset(range(off_zz, off_zz + n * m))
    )
    return MipProblem(lp=lp, integral=integral, variable_names=names)


def solve_mip(problem: MipProblem, node_limit: int = 200_000) -> MipSolution:
    """Branch-and-bound over the binary variables.

    Best-first on the relaxation bound, branching on the most fractional
    binary (ties to the lowest index), so runs are deterministic. Each child
    is solved warm from its parent's final tableau with the branched binary
    fixed. The returned optimum is proven to within the 1e-6 gap; exceeding
    the node budget raises :class:`MipNodeLimitError` with the incumbent
    attached.
    """
    direction = -1.0 if problem.lp.sense == "max" else 1.0  # heap pops the best bound
    integral = np.array(sorted(problem.integral), dtype=int)

    root = solve_lp(problem.lp)
    if root.status != OPTIMAL:
        return MipSolution(status=root.status)

    heap: list[tuple[float, int, LpSolution]] = [(direction * root.objective_value, 0, root)]
    counter = nodes = 0
    incumbent: LpSolution | None = None
    cutoff = math.inf  # the incumbent's heap key; only nodes below it can improve

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
            incumbent, cutoff = relax, key
            continue
        # Most fractional binary; ties resolved toward the lowest index.
        branch_var = int(integral[fractional.argmax()])
        for value in (0, 1):
            child = solve_lp(problem.lp, start=relax, fix={branch_var: value})
            if child.status == OPTIMAL and direction * child.objective_value < cutoff:
                counter += 1
                heapq.heappush(heap, (direction * child.objective_value, counter, child))

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
        return MipSolution(
            status=OPTIMAL,
            values=incumbent.values,
            objective_value=incumbent.objective_value,
            gap=PRECISION,
        )
    return MipSolution(
        status=OPTIMAL,
        values=clean.values,
        objective_value=clean.objective_value,
        gap=0.0,
    )


def max_attack_profit(net: Network) -> tuple[float, Attack]:
    """Optimal value of the budget program on net, with an attack reaching it.

    Attacking every service with every allocation is always feasible, so any
    status but OPTIMAL is a solver failure and raises MipStatusError.
    """
    problem = build_budget_mip(net)
    solution = solve_mip(problem)
    if solution.status != OPTIMAL:
        raise MipStatusError(f"budget MIP ended {solution.status}, not optimal")
    return solution.objective_value, _attack_from_values(problem, solution.values)


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


def _service_class(net: Network, s: str) -> tuple:
    """Services with equal threshold, prize and allocations are interchangeable."""
    return net.threshold[s], net.prize[s], tuple(net.w(v, s) for v in net.validators)


def _identical_nonbase_services(net: Network) -> bool:
    eligible = [s for s in net.services if s not in net.base_services]
    return len({_service_class(net, s) for s in eligible}) <= 1


def _attackable_at(net: Network, budget) -> bool:
    """True when a budget-costly attack exists (ties go to the attacker)."""
    return bool(net.services) and attackable(max_attack_profit(net)[0], budget)


def max_byzantine_fraction(net: Network, budget) -> float:
    """Largest weighted fraction of Byzantine services the network tolerates.

    Returns the fraction (of the total non-base prize-to-threshold weight)
    just below the cheapest Byzantine set that enables a budget-costly
    attack, stepping inside the open boundary by the solve precision. 1.0
    means no Byzantine set breaks the network; 0.0 means the intact network
    is already attackable at this budget.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    total = total_byzantine_weight(net)
    if total == 0:
        return 0.0 if _attackable_at(net, budget) else 1.0

    eligible = [s for s in net.services if s not in net.base_services]
    if _identical_nonbase_services(net):
        # Symmetric shortcut: only the count of Byzantine services matters.
        unit = service_weight(net, eligible[0])
        breaking_weight = None
        for count in range(len(eligible) + 1):
            slashed = apply_byzantine(net, eligible[:count])
            if slashed.services:
                broken = _attackable_at(slashed, budget)
            else:
                # Everything Byzantine: no attack exists, which the weight
                # program counts as a failure state only at budget 0.
                broken = budget <= 0
            if broken:
                breaking_weight = count * unit
                break
        if breaking_weight is None:
            return 1.0
    else:
        solution = solve_mip(build_byzantine_mip(net, budget))
        if solution.status == INFEASIBLE:
            return 1.0
        breaking_weight = solution.objective_value

    fraction = (breaking_weight - PRECISION) / total
    return min(1.0, max(0.0, fraction))


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


def _attack_from_values(problem: MipProblem, values: np.ndarray) -> Attack:
    used = {}
    for idx, name in problem.variable_names.items():
        if name.startswith("attack[") and values[idx] > PRECISION:
            pair = name[len("attack[") : -1]
            v, s = pair.split(",", 1)
            used[(v, s)] = float(values[idx])
    return Attack(stake_used=used)


def distinct_byzantine_subsets(net: Network, weight_cap) -> Iterator[tuple[str, ...]]:
    """Admissible Byzantine subsets, one per multiset of service classes.

    Subsets drawing the same number of services from each class of
    interchangeable services lead to the same post-slash network up to
    renaming. Only the first such subset, in :func:`byzantine_subsets`
    order, is yielded.
    """
    class_of = {s: _service_class(net, s) for s in net.services}
    seen: set[tuple] = set()
    for subset in byzantine_subsets(net, weight_cap):
        signature = tuple(sorted(class_of[s] for s in subset))
        if signature in seen:
            continue
        seen.add(signature)
        yield subset


def mip_check(net: Network, budget, weight_cap) -> RobustnessReport:
    """Decide robustness against a budget and a Byzantine weight cap.

    Every admissible Byzantine subset (deduplicated by service equivalence
    class, since interchangeable services lead to the same post-slash state)
    is applied, and the budget program decides whether the remaining network
    can be attacked within the budget. The first failing subset is reported
    with its witness attack.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    for subset in distinct_byzantine_subsets(net, weight_cap):
        slashed = apply_byzantine(net, subset)
        if not slashed.services:
            continue  # nothing left to attack
        profit, attack = max_attack_profit(slashed)
        if attackable(profit, budget):
            evaluation = evaluate_attack(slashed, attack)
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


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def write_lp_format(problem: MipProblem, stream=None) -> str:
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
    text = out.getvalue()
    if stream is not None:
        stream.write(text)
    return text
