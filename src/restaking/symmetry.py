"""Exact polynomial-time analysis of symmetric networks.

In a symmetric network (equal stakes, equal per-service allocation columns,
one common threshold) every attack can be replaced by a canonical
consolidated attack with the same prize and no higher cost: the first
floor(threshold * n) validators commit their full allocation and one more
validator commits the fractional remainder. One validator's stake and
allocation row therefore decide every cost, security and robustness checks
reduce to evaluating a closed-form cost over subsets of services, and
subsets only matter through their (allocation, prize) class counts, so the
enumeration is polynomial per class. Byzantine choices come from the
class-count generator in :mod:`restaking.model` that every engine shares,
one per count vector; one generator here slashes the row of each choice by
the rule of :func:`restaking.model.apply_byzantine` and pairs it with every
consolidated attack after it; :func:`find_beta_costly`, :func:`max_budget`
and :func:`min_stake_for` reduce it by first, min and max.

Like the other engines, every public function here takes the caller's
:class:`restaking.model.Network` (:func:`min_stake_for` takes a
:class:`SweepTemplate` and builds one), keeps no network type of its own,
and raises NotSymmetricError, naming the failed condition, when it is not
symmetric. :func:`find_beta_costly` reports a violation as ``(Byzantine
services, attack)``, the attack built on that network, with its validator
ids and stakes, by :func:`restaking.model.capped_attack` with the first
floor(threshold * n) validators capped. Byzantine weight caps are absolute,
as everywhere in the package (see :func:`restaking.model.byzantine_weight_cap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator

from .model import (
    TOLERANCE,
    Attack,
    InputError,
    Network,
    _check_nonnegative,
    _class_choices,
    _exact,
    apply_byzantine,
    attackable,
    byzantine_weight_cap,
    capped_attack,
    service_weight,
)

__all__ = [
    "NotSymmetricError",
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


def _values_close(a, b) -> bool:
    if a == b:
        return True
    if _exact(a, b):
        return False
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _row(net: Network) -> tuple:
    """The common stake and the first validator's allocation row, by service,
    of a symmetric network; NotSymmetricError naming the failed check else."""
    if not net.validators:
        raise NotSymmetricError("stake", "network has no validators")
    v0, *others = net.validators
    sigma = net.stake[v0]
    for v in others:
        if not _values_close(net.stake[v], sigma):
            raise NotSymmetricError("stake", f"validator {v!r} has a different stake")
    row = {}
    for s in net.services:
        w0 = net.w(v0, s)
        for v in others:
            if not _values_close(net.w(v, s), w0):
                raise NotSymmetricError(
                    "allocation",
                    f"validator {v!r} allocates differently to service {s!r}",
                )
        row[s] = w0
    if not net.services:
        raise NotSymmetricError("threshold", "network has no services")
    theta = net.threshold[net.services[0]]
    for s in net.services[1:]:
        if not _values_close(net.threshold[s], theta):
            raise NotSymmetricError(
                "threshold", f"service {s!r} has a different threshold"
            )
    return sigma, row


def _threshold_split(net: Network):
    """floor and fractional part of threshold * n, snapped for float noise;
    the threshold is the first service's, which :func:`_row` found common."""
    t = net.threshold[net.services[0]] * len(net.validators)
    if _exact(t):
        k = math.floor(t)
    else:
        k = math.floor(t + 1e-9)
    frac = t - k
    if frac < 0:
        frac = 0
    return k, frac


def consolidated_cost(net: Network, target: Iterable[str]):
    """Cost of the consolidated attack on the target services of a symmetric
    network (NotSymmetricError otherwise); a repeated service counts once.

    With W the summed per-validator allocation over the target, the first
    floor(threshold * n) validators pay min(stake, W) and the fractional
    validator pays min(stake, frac * W).
    """
    stake, row = _row(net)
    target = tuple(dict.fromkeys(target))
    unknown = set(target) - set(row)
    if unknown:
        raise InputError(f"unknown services: {sorted(unknown)}")
    w_total = sum(row[s] for s in target)
    k, frac = _threshold_split(net)
    return k * min(stake, w_total) + min(stake, frac * w_total)


def _consolidated_attacks(net: Network, weight_cap) -> Iterator[tuple]:
    """Every admissible Byzantine choice with every consolidated attack after it.

    Yields ``(byz, classes, counts, cost, prize)``: ``byz`` names the
    Byzantine services of one choice per count vector over (allocation,
    prize) classes within ``weight_cap``, and ``counts`` picks the attacked
    services per class of ``classes``, the (allocation, prize) classes of
    the services slashing leaves; ``cost`` is the consolidated attack's cost
    and ``prize`` its prize. A choice is slashed as :func:`apply_byzantine`
    slashes it: the stake less the Byzantine allocations summed in service
    order, at least 0, with every allocation left clipped to that stake. A
    choice that removes every service leaves nothing to attack and yields
    nothing.
    """
    stake, row = _row(net)
    k, frac = _threshold_split(net)
    eligible = [s for s in net.services if s not in net.base_services]
    key = lambda s: (row[s], net.prize[s])
    for _, byz in _class_choices(eligible, key, lambda s: service_weight(net, s), weight_cap):
        left = max(0, stake - sum(row[s] for s in byz))
        groups: dict[tuple, list[str]] = {}
        for s in net.services:
            if s not in byz:
                groups.setdefault((min(row[s], left), net.prize[s]), []).append(s)
        classes = list(groups.items())
        # Per class, the allocation and prize of 0..size services; the three
        # products run in step, and the first (all-zero) vector is skipped.
        # No class left yields nothing: its one vector is the skipped one.
        counts = [range(len(ids) + 1) for _, ids in classes]
        allocs = [[c * key[0] for c in r] for (key, _), r in zip(classes, counts)]
        prizes = [[c * key[1] for c in r] for (key, _), r in zip(classes, counts)]
        for vector, ws, ps in islice(
            zip(product(*counts), product(*allocs), product(*prizes)), 1, None
        ):
            w_total = sum(ws)
            cost = k * min(left, w_total) + min(left, frac * w_total)
            yield byz, classes, vector, cost, sum(ps)


def find_beta_costly(
    net: Network, budget, weight_cap
) -> tuple[tuple[str, ...], Attack] | None:
    """The first violation of (weight cap, budget)-robustness, or None.

    ``net`` must be symmetric (else NotSymmetricError). Every Byzantine
    choice of total weight at most ``weight_cap`` is applied, and the network
    is robust when every consolidated attack on what slashing leaves costs
    strictly more than its prize plus the budget; a choice that removes every
    service is vacuously fine. A violation is ``(Byzantine services, consolidated
    attack)``, both picked deterministically from their equivalence classes
    in service order; the attack is built on ``net`` after slashing, so it
    names the caller's validators and fits their stakes.
    """
    _check_nonnegative("budget", budget)
    for byz, classes, counts, cost, prize in _consolidated_attacks(net, weight_cap):
        if attackable(prize - cost, budget):
            target = [s for c, (_, ids) in zip(counts, classes) for s in ids[:c]]
            # threshold * n, and with it the capped count, is the same after slashing.
            k, _ = _threshold_split(net)
            return byz, capped_attack(apply_byzantine(net, byz), target, net.validators[:k])
    return None


def max_budget(net: Network, weight_cap) -> float:
    """Supremum of budgets for which a symmetric network (NotSymmetricError
    otherwise) is (weight cap, budget)-robust.

    Closed form: the minimum over admissible Byzantine choices and attack
    subsets of (consolidated cost - prize) on the slashed network, clamped
    at zero. Returns inf when no attack subset exists at all.
    """
    attacks = _consolidated_attacks(net, weight_cap)
    worst = min(
        (cost - prize for *_, cost, prize in attacks),
        default=math.inf,
    )
    return worst if math.isinf(worst) else max(0, worst)


@dataclass(frozen=True)
class SweepTemplate:
    """Family of symmetric networks used by the stake sweeps.

    Regular services share one threshold and prize and receive the uniform
    allocation degree * stake / n_services per validator. A base service is
    configured by both ``base_prize`` and ``base_threshold``, or by neither;
    every validator then additionally allocates their entire stake to it.
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
        if (self.base_prize is None) != (self.base_threshold is None):
            raise InputError("base_prize and base_threshold must be given together")
        if self.has_base() and not 0 < self.base_threshold <= 1:
            raise InputError("base_threshold must lie in (0, 1]")

    def has_base(self) -> bool:
        return self.base_prize is not None

    def build_network(self, stake, degree) -> Network:
        """The template's network at this stake and degree; validators are
        v1..vn, services s1..sm, then ``base`` when configured."""
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
    (prize + budget) / cost, or inf when the attack is free within TOLERANCE.

    The cutoff is absolute: a cost at stake 1 of at most TOLERANCE (1e-9)
    counts as free, so every finite ratio is below (prize + budget) * 1e9.
    """
    return math.inf if cost <= TOLERANCE else (prize + budget) / cost


def min_stake_for(template: SweepTemplate, degree, budget, f) -> float:
    """Infimum per-validator stake at which the template is (f, budget)-robust.

    ``f`` is a fraction of the total non-base weight; its absolute cap,
    :func:`restaking.model.byzantine_weight_cap`, does not depend on the
    stake. Allocations and slashing scale with the stake, so a consolidated
    attack costing g at stake 1 costs stake * g, and the infimum is the
    largest :func:`_stake_ratio` over admissible Byzantine choices and
    consolidated attacks at stake 1. It is exact: attackable there (ties go
    to the attacker), robust above. The template must be symmetric: a base
    threshold that differs from the common one raises NotSymmetricError.

    Returns nan when some choice leaves an attack that costs at most
    ``TOLERANCE`` (1e-9) at stake 1: the configuration is unsatisfiable at
    any stake (slashing can wipe all stake regardless of its size), and a
    cost that small is taken as free. Every finite result is therefore
    below (prize + budget) * 1e9.
    """
    _check_nonnegative("budget", budget)
    unit = template.build_network(1.0, degree)
    cap = byzantine_weight_cap(unit, f)
    stake = max(
        _stake_ratio(prize, budget, cost)
        for *_, cost, prize in _consolidated_attacks(unit, cap)
    )
    return stake if math.isfinite(stake) else math.nan
