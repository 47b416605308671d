"""Exhaustive oracles for small networks, plus hardness-reduction builders.

The oracle rests on one identity: given a set T of services to attack, the
cheapest attack covering T costs

    min over capped sets C of validators of
        stake(C) + sum over s in T of max(0, required(s) - w_C(s)),

where w_C(s) is what C allocates to s. A validator whose cost hits its stake
pays it whatever it aims, so it aims its whole allocation at T; every other
unit of stake costs one, and any validator outside C can supply it. For a
fixed C the best T is separable: every service whose prize exceeds its
deficit, or the single best service when none does. Interchangeable
validators (equal stake and allocations) form classes, and the oracle scans
one capped set per count vector over them, from the model's generator of
Byzantine choices. It needs no LP, so ints and ``Fraction`` values are decided
exactly. Exponential in the classes by design: exactness is the whole point,
and the reduction results say no general fast algorithm is expected.

The reduction builders construct the networks that tie profitable-attack
search to Subset Sum; they double as randomized correctness fixtures.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .model import (
    Attack,
    InputError,
    Network,
    _check_nonnegative,
    _class_choices,
    attackable,
    byzantine_choices,
    capped_attack,
    evaluate_attack,
)

__all__ = [
    "min_cost_attack",
    "best_attack",
    "oracle_check",
    "min_budget_bruteforce",
    "best_indivisible_attack",
    "has_profitable_indivisible_attack",
    "build_indivisible_reduction",
    "build_divisible_reduction",
    "subset_sum_bruteforce",
]


def _capped_sets(net: Network) -> Iterator[tuple[tuple[str, ...], float, dict]]:
    """The first capped set C of each count vector over classes of equal
    validators (stake and allocation row), by size, then validator order, with
    its stake and the stake each service still needs once C aims all it has."""
    required = net.required_stake
    row = lambda v: (net.stake[v], tuple(net.w(v, s) for s in net.services))
    for _, capped in _class_choices(net.validators, row, lambda v: 0, math.inf):
        deficit = {
            s: max(0, required[s] - sum(net.w(v, s) for v in capped))
            for s in net.services
        }
        yield capped, sum(net.stake[v] for v in capped), deficit


def min_cost_attack(net: Network, target: Sequence[str]) -> tuple[float, Attack]:
    """Cheapest attack whose attacked set covers ``target``, with its cost.

    Scans one capped set per validator count vector; exact for exact inputs.
    """
    target = tuple(dict.fromkeys(target))
    if not target:
        raise InputError("target must be non-empty")
    unknown = set(target) - set(net.services)
    if unknown:
        raise InputError(f"unknown services: {sorted(unknown)}")
    best = None
    for capped, stake, deficit in _capped_sets(net):
        cost = stake + sum(deficit[s] for s in target)
        if best is None or cost < best[0]:
            best = (cost, capped)
    return best[0], capped_attack(net, target, best[1])


def best_attack(net: Network) -> tuple[float, Attack]:
    """Highest-margin attack over all non-empty target sets.

    The network is secure iff the returned margin is negative. Each capped
    set attacks every service whose prize exceeds its deficit, or the single
    best service when none does; ties go to the smaller capped set.
    """
    if not net.services:
        raise InputError("network has no services")
    best_margin, best = -math.inf, None
    for capped, stake, deficit in _capped_sets(net):
        gain = {s: net.prize[s] - deficit[s] for s in net.services}
        attacked = [s for s in net.services if gain[s] > 0] or [max(net.services, key=gain.get)]
        margin = sum(gain[s] for s in attacked) - stake
        if margin > best_margin:
            best_margin, best = margin, (attacked, capped)
    return best_margin, capped_attack(net, *best)


def oracle_check(net: Network, budget, weight_cap) -> tuple[tuple[str, ...], Attack] | None:
    """The first violation of (weight cap, budget)-robustness, or None.

    The oracle's check, beside ``find_beta_costly`` and ``mip_check``: the
    first Byzantine choice whose best attack is
    :func:`restaking.model.attackable`, with that attack. Exact when the
    network and the budget are."""
    _check_nonnegative("budget", budget)
    for subset, slashed in byzantine_choices(net, weight_cap):
        margin, attack = best_attack(slashed)
        if attackable(margin, budget):
            return subset, attack
    return None


def min_budget_bruteforce(net: Network) -> float:
    """Supremum of safe adversary budgets, by exhaustive attack search."""
    margin, _ = best_attack(net)
    return max(0.0, -margin)


def best_indivisible_attack(net: Network) -> tuple[float, Attack]:
    """Highest-margin attack using full allocations only.

    Pure enumeration over the nonzero (validator, service) edges, pruned by
    the total-prize upper bound; exponential in the edge count, so only for
    reduction-sized networks.
    """
    edges = [(v, s) for (v, s), w in net.allocation.items() if w > 0]
    edges.sort()
    total_prize = sum(net.prize.values())
    best_margin = -math.inf
    best: Attack | None = Attack(stake_used={})

    def recurse(idx: int, chosen: dict) -> None:
        nonlocal best_margin, best
        if idx == len(edges):
            attack = Attack(stake_used=dict(chosen))
            evaluation = evaluate_attack(net, attack)
            if evaluation.attacked_services and evaluation.margin > best_margin:
                best_margin = evaluation.margin
                best = attack
            return
        if total_prize <= best_margin:
            return
        v, s = edges[idx]
        recurse(idx + 1, chosen)
        chosen[(v, s)] = net.w(v, s)
        recurse(idx + 1, chosen)
        del chosen[(v, s)]

    recurse(0, {})
    return best_margin, best


def has_profitable_indivisible_attack(net: Network) -> bool:
    return attackable(best_indivisible_attack(net)[0], 0)


def build_indivisible_reduction(
    elements: Sequence[int], target: int
) -> Network:
    """Network whose profitable indivisible attacks mirror Subset Sum.

    One service with threshold target/total and prize equal to the target;
    one validator per element, fully allocated.
    """
    if not elements or any(e <= 0 for e in elements):
        raise InputError("elements must be positive")
    total = sum(elements)
    if not 0 < target <= total:
        raise InputError("target must satisfy 0 < target <= sum(elements)")
    validators = tuple(f"v{i + 1}" for i in range(len(elements)))
    return Network(
        validators=validators,
        services=("s",),
        stake={v: e for v, e in zip(validators, elements)},
        allocation={(v, "s"): e for v, e in zip(validators, elements)},
        threshold={"s": target / total},
        prize={"s": target},
    )


def build_divisible_reduction(elements: Sequence[int], target: int) -> Network:
    """Network whose profitable divisible attacks mirror Subset Sum.

    Each element gets a private service (threshold 1, prize element/2) plus
    a shared service (threshold target/total, prize target/2); validator i
    allocates its full stake to both its private service and the shared one.
    """
    if not elements or any(e <= 0 for e in elements):
        raise InputError("elements must be positive")
    total = sum(elements)
    if not 0 < target <= total:
        raise InputError("target must satisfy 0 < target <= sum(elements)")
    n = len(elements)
    validators = tuple(f"v{i + 1}" for i in range(n))
    services = tuple(f"s{i + 1}" for i in range(n)) + ("shared",)
    allocation: dict[tuple[str, str], float] = {}
    threshold: dict[str, float] = {}
    prize: dict[str, float] = {}
    for i, e in enumerate(elements):
        allocation[(validators[i], services[i])] = e
        allocation[(validators[i], "shared")] = e
        threshold[services[i]] = 1
        prize[services[i]] = e / 2
    threshold["shared"] = target / total
    prize["shared"] = target / 2
    return Network(
        validators=validators,
        services=services,
        stake={v: e for v, e in zip(validators, elements)},
        allocation=allocation,
        threshold=threshold,
        prize=prize,
    )


def subset_sum_bruteforce(elements: Sequence[int], target: int) -> bool:
    """Ground truth for the reduction tests: plain subset enumeration."""
    n = len(elements)
    for mask in range(1 << n):
        acc = 0
        for i in range(n):
            if mask >> i & 1:
                acc += elements[i]
        if acc == target:
            return True
    return False
