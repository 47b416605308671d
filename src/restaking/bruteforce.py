"""Exhaustive oracles for small networks.

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
)

__all__ = [
    "min_cost_attack",
    "best_attack",
    "oracle_check",
    "min_budget_bruteforce",
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
    """Supremum of safe adversary budgets, by exhaustive attack search; as
    for ``mip.min_budget``, a network with no services cannot be attacked."""
    if not net.services:
        return math.inf
    margin, _ = best_attack(net)
    return max(0.0, -margin)
