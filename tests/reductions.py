"""Subset-Sum reductions, the hardness results' networks, as test fixtures.

These functions construct the networks that tie profitable-attack search to
Subset Sum; the tests decide them with an indivisible-attack search or the
oracle and compare against plain subset enumeration, so they double as
randomized correctness fixtures.
"""

from __future__ import annotations

import math
from typing import Sequence

from restaking.model import Attack, InputError, Network, attackable, evaluate_attack


def is_indivisible(attack: Attack, net: Network) -> bool:
    """True when every entry is 0 or exactly the full allocation."""
    return all(
        a == 0 or a == net.w(v, s) for (v, s), a in attack.stake_used.items()
    )


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
