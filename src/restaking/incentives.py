"""Reward scheme targeting a network-wide restaking degree.

Each service distributes a reward pool proportionally to allocations, but
only to validators whose restaking degree stays at or below the target.
Under the stated condition on pool sizes (no single service's share of the
total rewards exceeds the full-stake allocation once scaled by the target
degree), allocating target_degree * pool_share * stake to every service is
a Nash equilibrium whose degree is exactly the target. best_response
certifies it: each validator's exact best response, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from .model import InputError, Network, restaking_degree

__all__ = [
    "RewardPools",
    "validator_reward",
    "formation_utility",
    "equilibrium_allocations",
    "best_response",
]

_GATE_TOL = 1e-9


@dataclass(frozen=True)
class RewardPools:
    """Per-service reward pools and the target restaking degree."""

    reward: Mapping[str, float]
    target_degree: float

    def __post_init__(self):
        if not 0 < self.target_degree < math.inf:
            raise InputError("target_degree must be positive and finite")
        for s, r in self.reward.items():
            if not 0 < r < math.inf:
                raise InputError(f"reward must be positive and finite (service {s!r})")

    def total(self):
        return sum(self.reward.values())


def _within_target(net: Network, pools: RewardPools, v: str) -> bool:
    degree = restaking_degree(net, v)
    target = pools.target_degree
    return degree <= target + _GATE_TOL * max(1.0, abs(target))


def validator_reward(net: Network, pools: RewardPools, v: str, s: str):
    """Reward of one validator from one service.

    Proportional share of the pool while the validator's degree respects the
    target; zero otherwise. A service nobody allocates to pays nothing.
    """
    if v not in net.stake:
        raise InputError(f"unknown validator {v!r}")
    if s not in pools.reward:
        raise InputError(f"no reward pool for service {s!r}")
    if not _within_target(net, pools, v):
        return 0
    total = net.total_allocation(s)
    if total == 0:
        return 0
    return net.w(v, s) / total * pools.reward[s]


def formation_utility(net: Network, pools: RewardPools, v: str):
    """Total rewards of a validator; the degree gate applies to all of them."""
    if v not in net.stake:
        raise InputError(f"unknown validator {v!r}")
    if not _within_target(net, pools, v):
        return 0
    utility = 0
    for s in net.services:
        if s not in pools.reward:
            continue
        total = net.total_allocation(s)
        if total == 0:
            continue
        utility += net.w(v, s) / total * pools.reward[s]
    return utility


def equilibrium_allocations(
    stakes: Mapping[str, float], pools: RewardPools
) -> dict[tuple[str, str], float]:
    """The equilibrium profile: target_degree * pool share * stake.

    Requires target_degree * reward(s) / total rewards <= 1 for every
    service, otherwise the profile would exceed some validator's stake.
    """
    total = pools.total()
    shares = {}
    for s, r in pools.reward.items():
        share = pools.target_degree * r / total
        if share > 1 + _GATE_TOL:
            raise InputError(
                f"equilibrium violates the stake cap for service {s!r}: "
                f"target_degree * reward share = {share:.6f} > 1"
            )
        shares[s] = share
    return {
        (v, s): shares[s] * sigma for v, sigma in stakes.items() for s in pools.reward
    }


def best_response(
    net: Network, pools: RewardPools, v: str
) -> tuple[float, dict[str, float], bool]:
    """Exact best response of one validator, everyone else held fixed.

    Returns the gain over formation_utility(net, pools, v), the maximizing
    allocation to each pooled service, and whether that maximum is attained.
    With o_s the others' allocation to service s, the validator maximizes
    sum r_s * x_s / (x_s + o_s) subject to sum x_s <= target_degree * stake
    and 0 <= x_s <= stake. That program is concave and separable, so the
    optimum is water-filling (Kelly 1997; Johari and Tsitsiklis 2004): at
    water level mu (1 / sqrt of the budget's multiplier),
    x_s = clip(mu * c_s - o_s, 0, stake) with c_s = sqrt(r_s * o_s). Between
    consecutive breakpoints o_s / c_s and (stake + o_s) / c_s the sum is
    A * mu + K, so mu = (budget - K) / A. A service nobody else serves pays
    r_s for any positive allocation: the supremum takes it as x_s -> 0+,
    which no allocation attains.
    """
    if v not in net.stake:
        raise InputError(f"unknown validator {v!r}")
    sigma = net.stake[v]
    budget = pools.target_degree * sigma
    reward = pools.reward
    others = {
        s: sum(net.w(u, s) for u in net.validators if u != v)
        for s in net.services
        if s in reward
    }
    served = [s for s, o in others.items() if o > 0]
    x = dict.fromkeys(others, 0.0)
    if sigma > 0 and len(served) * sigma <= budget:
        x.update(dict.fromkeys(served, sigma))
    elif sigma > 0 and served:
        c = {s: math.sqrt(reward[s]) * math.sqrt(others[s]) for s in served}
        zero = {s: others[s] / c[s] for s in served}
        full = {s: (sigma + others[s]) / c[s] for s in served}

        def fill(mu):
            return {s: min(max(mu * c[s] - others[s], 0.0), sigma) for s in served}

        points = sorted({*zero.values(), *full.values()})
        k = next(
            (i for i in range(1, len(points)) if sum(fill(points[i]).values()) >= budget),
            len(points) - 1,
        )
        lo, hi = points[k - 1], points[k]
        inner = [s for s in served if zero[s] < (lo + hi) / 2 < full[s]]
        area = sum(c[s] for s in inner)
        capped = sum(full[s] <= lo for s in served)
        level = sigma * capped - sum(others[s] for s in inner)
        # area > 0 in exact arithmetic; it rounds to 0 only when the stake is
        # below the others' rounding error, and lo is feasible then.
        x.update(fill(min(max((budget - level) / area, lo), hi) if area else lo))
    deviated = replace(
        net,
        allocation={
            **{key: w for key, w in net.allocation.items() if key[0] != v},
            **{(v, s): xs for s, xs in x.items()},
        },
    )
    free = [s for s, o in others.items() if o == 0] if sigma > 0 else []
    best = formation_utility(deviated, pools, v) + sum(reward[s] for s in free)
    return best - formation_utility(net, pools, v), x, not free
