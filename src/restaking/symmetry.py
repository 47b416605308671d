"""Exact polynomial-time analysis of symmetric networks.

In a symmetric network (equal stakes, equal per-service allocation columns,
one common threshold) every attack can be replaced by a canonical
consolidated attack with the same prize and no higher cost: the first
floor(threshold * n) validators commit their full allocation and one more
validator commits the fractional remainder. Security and robustness checks
therefore reduce to evaluating a closed-form cost over subsets of services,
and subsets only matter through their (allocation, prize) class counts, so
the enumeration is polynomial per class. Byzantine choices come from the
class-count generator in :mod:`restaking.model` that every engine shares,
one per count vector, and one generator here pairs each of them with every
consolidated attack after it; :func:`find_beta_costly`, :func:`max_budget`
and :func:`min_stake_for` reduce it by first, min and max. Like the other
engines, :func:`find_beta_costly` decides the caller's network and reports a
violation as ``(Byzantine services, attack)``, the attack built on that
network, with its validator ids and stakes, by
:func:`restaking.model.capped_attack` with the first floor(threshold * n)
validators capped. Byzantine weight caps are absolute, as everywhere in the
package (see :func:`restaking.model.byzantine_weight_cap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator, Mapping

from .model import (
    TOLERANCE,
    Attack,
    InputError,
    Network,
    _class_choices,
    _exact,
    _le,
    apply_byzantine,
    byzantine_weight_cap,
    capped_attack,
)

__all__ = [
    "SymmetricNetwork",
    "NotSymmetricError",
    "as_symmetric",
    "to_network",
    "consolidated_cost",
    "find_beta_costly",
    "max_budget",
    "SweepTemplate",
    "min_stake_for",
]

_REL_TOL = 1e-12


class NotSymmetricError(ValueError):
    """Raised when a network fails one of the three symmetry conditions."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class SymmetricNetwork:
    """Compact form of a symmetric network.

    allocation maps each service to the (common) per-validator allocation;
    prize maps each service to its attack prize. Services listed in
    base_services can never be chosen Byzantine.
    """

    n_validators: int
    stake: float
    allocation: Mapping[str, float]
    threshold: float
    prize: Mapping[str, float]
    base_services: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "base_services", frozenset(self.base_services))
        if self.n_validators < 1:
            raise InputError("need at least one validator")
        if not 0 < self.stake < math.inf:
            raise InputError("stake must be positive and finite")
        if not 0 <= self.threshold <= 1:
            raise InputError("threshold must lie in [0, 1]")
        if set(self.allocation) != set(self.prize):
            raise InputError("allocation and prize must cover the same services")
        for s, w in self.allocation.items():
            if w < 0 or not _le(w, self.stake):
                raise InputError(f"allocation must lie in [0, stake] (service {s!r})")
        for s, p in self.prize.items():
            if not 0 < p < math.inf:
                raise InputError(f"prize must be positive and finite (service {s!r})")
        if not self.base_services <= set(self.allocation):
            raise InputError("base_services must be a subset of services")

    @property
    def services(self) -> tuple[str, ...]:
        return tuple(self.allocation)


def _values_close(a, b) -> bool:
    if _exact(a, b):
        return a == b
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def as_symmetric(net: Network) -> SymmetricNetwork:
    """Compact a network, or raise NotSymmetricError naming the failed check."""
    if not net.validators:
        raise NotSymmetricError("stake", "network has no validators")
    v0 = net.validators[0]
    sigma = net.stake[v0]
    for v in net.validators[1:]:
        if not _values_close(net.stake[v], sigma):
            raise NotSymmetricError("stake", f"validator {v!r} has a different stake")
    allocation = {}
    for s in net.services:
        w0 = net.w(v0, s)
        for v in net.validators[1:]:
            if not _values_close(net.w(v, s), w0):
                raise NotSymmetricError(
                    "allocation",
                    f"validator {v!r} allocates differently to service {s!r}",
                )
        allocation[s] = w0
    if not net.services:
        raise NotSymmetricError("threshold", "network has no services")
    theta = net.threshold[net.services[0]]
    for s in net.services[1:]:
        if not _values_close(net.threshold[s], theta):
            raise NotSymmetricError(
                "threshold", f"service {s!r} has a different threshold"
            )
    return SymmetricNetwork(
        n_validators=len(net.validators),
        stake=sigma,
        allocation=allocation,
        threshold=theta,
        prize={s: net.prize[s] for s in net.services},
        base_services=net.base_services,
    )


def to_network(sym: SymmetricNetwork) -> Network:
    """Expand the compact form; validators are named v1..vn."""
    validators = tuple(f"v{i + 1}" for i in range(sym.n_validators))
    return Network(
        validators=validators,
        services=sym.services,
        stake={v: sym.stake for v in validators},
        allocation={
            (v, s): w for v in validators for s, w in sym.allocation.items() if w != 0
        },
        threshold={s: sym.threshold for s in sym.services},
        prize=dict(sym.prize),
        base_services=sym.base_services,
    )


def _threshold_split(sym: SymmetricNetwork):
    """floor and fractional part of threshold * n, snapped for float noise."""
    t = sym.threshold * sym.n_validators
    if _exact(t):
        k = math.floor(t)
    else:
        k = math.floor(t + 1e-9)
    frac = t - k
    if frac < 0:
        frac = 0
    return k, frac


def consolidated_cost(sym: SymmetricNetwork, target: Iterable[str]):
    """Cost of the consolidated attack on the target services.

    With W the summed per-validator allocation over the target, the first
    floor(threshold * n) validators pay min(stake, W) and the fractional
    validator pays min(stake, frac * W).
    """
    target = tuple(target)
    unknown = set(target) - set(sym.services)
    if unknown:
        raise InputError(f"unknown services: {sorted(unknown)}")
    w_total = sum(sym.allocation[s] for s in target)
    k, frac = _threshold_split(sym)
    return k * min(sym.stake, w_total) + min(sym.stake, frac * w_total)


def _classes(sym: SymmetricNetwork) -> list[tuple[tuple, list[str]]]:
    """Group services by (allocation, prize); counts fully determine attacks."""
    groups: dict[tuple, list[str]] = {}
    for s in sym.services:
        groups.setdefault((sym.allocation[s], sym.prize[s]), []).append(s)
    return list(groups.items())


def _slash(sym: SymmetricNetwork, byz: dict, names: tuple) -> SymmetricNetwork | None:
    """Network left after the non-base services ``names``, ``byz[class-key]``
    per (allocation, prize) class, turn Byzantine.

    Returns None when no services remain (the vacuous, trivially robust
    case), and the network itself for the empty choice. When slashing wipes
    the whole stake, the result keeps a positive stake but zero allocations,
    which evaluates identically for attacks (every cost term is capped by
    the zero allocation).
    """
    if not names and sym.allocation:
        return sym
    slashed_total = sum(key[0] * cnt for key, cnt in byz.items())
    new_stake = max(0, sym.stake - slashed_total)
    gone = set(names)
    remaining = {
        s: min(sym.allocation[s], new_stake) for s in sym.services if s not in gone
    }
    if not remaining:
        return None
    return SymmetricNetwork(
        n_validators=sym.n_validators,
        stake=new_stake if new_stake > 0 else sym.stake,
        allocation=remaining,
        threshold=sym.threshold,
        prize={s: sym.prize[s] for s in remaining},
        base_services=sym.base_services & set(remaining),
    )


def _consolidated_attacks(sym: SymmetricNetwork, weight_cap) -> Iterator[tuple]:
    """Every admissible Byzantine choice with every consolidated attack after it.

    Yields ``(byz, classes, counts, cost, prize)``: ``byz`` names the
    Byzantine services of one choice per count vector over (allocation,
    prize) classes within ``weight_cap``, and ``counts`` picks the attacked
    services per class of ``classes``, the classes of the network slashing
    leaves; ``cost`` is the consolidated attack's cost and ``prize`` its
    prize. A choice that removes every service leaves nothing to attack and
    yields nothing.
    """
    eligible = [s for s in sym.services if s not in sym.base_services]
    key = lambda s: (sym.allocation[s], sym.prize[s])
    weight = lambda s: math.inf if sym.threshold == 0 else sym.prize[s] / sym.threshold
    for per_class, byz in _class_choices(eligible, key, weight, weight_cap):
        slashed = _slash(sym, per_class, byz)
        if slashed is None:
            continue
        classes = _classes(slashed)
        k, frac = _threshold_split(slashed)
        stake = slashed.stake
        # Per class, the allocation and prize of 0..size services; the three
        # products run in step, and the first (all-zero) vector is skipped.
        counts = [range(len(ids) + 1) for _, ids in classes]
        allocs = [[c * key[0] for c in r] for (key, _), r in zip(classes, counts)]
        prizes = [[c * key[1] for c in r] for (key, _), r in zip(classes, counts)]
        for vector, ws, ps in islice(
            zip(product(*counts), product(*allocs), product(*prizes)), 1, None
        ):
            w_total = sum(ws)
            cost = k * min(stake, w_total) + min(stake, frac * w_total)
            yield byz, classes, vector, cost, sum(ps)


def find_beta_costly(
    net: Network, budget, weight_cap
) -> tuple[tuple[str, ...], Attack] | None:
    """The first violation of (weight cap, budget)-robustness, or None.

    ``net`` must pass :func:`as_symmetric`. Every Byzantine choice of total
    weight at most ``weight_cap`` is applied, and the network is robust when
    every consolidated attack on what slashing leaves costs strictly more
    than its prize plus the budget; a choice that removes every service is
    vacuously fine. A violation is ``(Byzantine services, consolidated
    attack)``, both picked deterministically from their equivalence classes
    in service order; the attack is built on ``net`` after slashing, so it
    names the caller's validators and fits their stakes.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    sym = as_symmetric(net)
    # threshold * n, and with it the capped count, is the same after slashing.
    k, _ = _threshold_split(sym)
    for byz, classes, counts, cost, prize in _consolidated_attacks(sym, weight_cap):
        if _le(cost, prize + budget):
            target = [s for c, (_, ids) in zip(counts, classes) for s in ids[:c]]
            slashed = apply_byzantine(net, byz)
            return byz, capped_attack(slashed, target, net.validators[:k])
    return None


def max_budget(sym: SymmetricNetwork, weight_cap) -> float:
    """Supremum of budgets for which the network is (weight cap, budget)-robust.

    Closed form: the minimum over admissible Byzantine choices and attack
    subsets of (consolidated cost - prize) on the slashed network, clamped
    at zero. Returns inf when no attack subset exists at all.
    """
    worst = min(
        (cost - prize for *_, cost, prize in _consolidated_attacks(sym, weight_cap)),
        default=math.inf,
    )
    return worst if math.isinf(worst) else max(0, worst)


@dataclass(frozen=True)
class SweepTemplate:
    """Family of symmetric networks used by the stake sweeps.

    Regular services share one threshold and prize and receive the uniform
    allocation degree * stake / n_services per validator. When a base
    service is configured, every validator additionally allocates their
    entire stake to it.
    """

    n_validators: int
    n_services: int
    threshold: float
    prize: float = 1.0
    base_prize: float | None = None
    base_threshold: float | None = None

    def __post_init__(self):
        if self.n_validators < 1 or self.n_services < 1:
            raise InputError("need at least one validator and one service")
        if not 0 < self.threshold <= 1:
            raise InputError("threshold must lie in (0, 1]")
        if self.has_base() and not 0 < self.base_threshold <= 1:
            raise InputError("base_threshold must lie in (0, 1]")

    def has_base(self) -> bool:
        return self.base_prize is not None

    def _allocations(self, stake, degree):
        if stake <= 0:
            raise InputError("stake must be positive")
        if degree < 0 or degree > self.n_services:
            raise InputError(
                "degree must lie in [0, n_services] for the uniform allocation"
            )
        per_service = degree * stake / self.n_services
        allocation = {f"s{i + 1}": per_service for i in range(self.n_services)}
        prize = {f"s{i + 1}": self.prize for i in range(self.n_services)}
        threshold = {f"s{i + 1}": self.threshold for i in range(self.n_services)}
        base: frozenset[str] = frozenset()
        if self.has_base():
            allocation["base"] = stake
            prize["base"] = self.base_prize
            threshold["base"] = self.base_threshold
            base = frozenset({"base"})
        return allocation, prize, threshold, base

    def build(self, stake, degree) -> SymmetricNetwork:
        """Compact symmetric form; requires the base threshold to match."""
        allocation, prize, threshold, base = self._allocations(stake, degree)
        if self.has_base() and self.base_threshold != self.threshold:
            raise InputError(
                "base service must share the common threshold in symmetric form"
            )
        return SymmetricNetwork(
            n_validators=self.n_validators,
            stake=stake,
            allocation=allocation,
            threshold=self.threshold,
            prize=prize,
            base_services=base,
        )

    def build_network(self, stake, degree) -> Network:
        """Full network form; works for any base threshold."""
        allocation, prize, threshold, base = self._allocations(stake, degree)
        validators = tuple(f"v{i + 1}" for i in range(self.n_validators))
        return Network(
            validators=validators,
            services=tuple(allocation),
            stake={v: stake for v in validators},
            allocation={
                (v, s): w for v in validators for s, w in allocation.items() if w != 0
            },
            threshold=threshold,
            prize=prize,
            base_services=base,
        )


def _stake_ratio(prize, budget, cost) -> float:
    """Stake above which an attack costing ``cost`` at stake 1 stops paying:
    (prize + budget) / cost, or inf when the attack is free within TOLERANCE."""
    return math.inf if cost <= TOLERANCE else (prize + budget) / cost


def min_stake_for(template: SweepTemplate, degree, budget, f) -> float:
    """Infimum per-validator stake at which the template is (f, budget)-robust.

    ``f`` is a fraction of the total non-base weight; its absolute cap,
    :func:`restaking.model.byzantine_weight_cap`, does not depend on the
    stake. Allocations and slashing scale with the stake, so a consolidated
    attack costing g at stake 1 costs stake * g, and the infimum is the
    largest :func:`_stake_ratio` over admissible Byzantine choices and
    consolidated attacks at stake 1. It is exact: attackable there (ties go
    to the attacker), robust above. Returns nan when some choice leaves an
    attack that costs nothing: the configuration is unsatisfiable at any
    stake (slashing can wipe all stake regardless of its size).
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    cap = byzantine_weight_cap(template.build_network(1.0, degree), f)
    stake = max(
        _stake_ratio(prize, budget, cost)
        for *_, cost, prize in _consolidated_attacks(template.build(1.0, degree), cap)
    )
    return stake if math.isfinite(stake) else math.nan
