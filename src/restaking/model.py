"""Core data model for restaking networks and attack evaluation.

A restaking network is a weighted bipartite graph: validators hold stake and
allocate portions of it to services; each service has an attack threshold
(fraction of its allocated stake needed to misbehave) and an attack prize
(value extractable by misbehaving). Allocations are elastic: their sum may
exceed the validator's stake, and after a slashing event the remaining stake
stretches to cover the remaining allocations.

All operations are pure and preserve exact numeric types: networks built from
ints or ``fractions.Fraction`` values are evaluated exactly, while float
networks use a 1e-9 comparison tolerance with ties resolved toward the
insecure side (an attack on the boundary counts as feasible / profitable).

Byzantine choices: :func:`byzantine_subsets` lists every admissible subset,
the reference; :func:`byzantine_choices` yields one per count vector over
classes of interchangeable services from the generator the closed form in
``symmetry`` reduces too, so every engine visits the same choices in order.

Witnesses: every engine reports a violation as ``(Byzantine services, attack
on the network they leave)``, and builds the attack with
:func:`capped_attack` from the attacked services and the validators that
pay their whole stake.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "InputError",
    "Network",
    "check_total",
    "Attack",
    "AttackEvaluation",
    "PrizeShares",
    "restaking_degree",
    "attacked_services",
    "evaluate_attack",
    "capped_attack",
    "prize_shares",
    "robustness_utility",
    "is_beta_costly",
    "apply_byzantine",
    "byzantine_subsets",
    "byzantine_choices",
    "byzantine_weight_cap",
    "service_weight",
    "total_byzantine_weight",
    "eigenlayer_condition",
    "generalized_eigenlayer_condition",
]

#: Comparison tolerance for inexact (float) inputs. Boundary ties go to the
#: attacker: a cost exactly equal to the prize is a profitable attack.
TOLERANCE = 1e-9


class InputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


def _exact(*values) -> bool:
    return all(isinstance(v, numbers.Rational) for v in values)


def check_total(values, where: str) -> None:
    """Raise InputError, naming where, when the values sum beyond float range."""
    total = sum(values)
    try:
        finite = math.isfinite(total)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a float") from None
    if not finite:
        raise InputError(f"{where}: must be finite, got {total!r}")


def _le(a, b) -> bool:
    """a <= b, tolerance-padded for floats so the insecure side wins ties."""
    if _exact(a, b):
        return a <= b
    return a <= b + TOLERANCE


def _ge(a, b) -> bool:
    """a >= b, tolerance-padded for floats so the insecure side wins ties."""
    if _exact(a, b):
        return a >= b
    return a >= b - TOLERANCE


def _lt_strict(a, b) -> bool:
    """a < b with slack for floats; used where the secure side needs strict."""
    if _exact(a, b):
        return a < b
    return a < b - TOLERANCE


@dataclass(frozen=True)
class Network:
    """A restaking network.

    Attributes:
        validators: validator ids in deterministic (insertion) order.
        services: service ids in deterministic (insertion) order.
        stake: per-validator stake, non-negative (zero only arises from
            slashing transitions; fresh networks require positive stake),
            with a total within float range.
        allocation: stake pledged per (validator, service) pair; omitted
            pairs are zero.
        threshold: per-service attack threshold in [0, 1].
        prize: per-service attack prize, positive, with a total within
            float range.
        base_services: services that can never be chosen Byzantine.
    """

    validators: tuple[str, ...]
    services: tuple[str, ...]
    stake: Mapping[str, float]
    allocation: Mapping[tuple[str, str], float]
    threshold: Mapping[str, float]
    prize: Mapping[str, float]
    base_services: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "validators", tuple(self.validators))
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "base_services", frozenset(self.base_services))
        vset, sset = set(self.validators), set(self.services)
        if len(vset) != len(self.validators):
            raise InputError("duplicate validator ids")
        if len(sset) != len(self.services):
            raise InputError("duplicate service ids")
        for v in self.validators:
            if v not in self.stake:
                raise InputError(f"missing stake for validator {v!r}")
            if not 0 <= self.stake[v] < math.inf:
                raise InputError(
                    f"stake: must be non-negative and finite (validator {v!r})"
                )
        check_total((self.stake[v] for v in self.validators), "validators: total stake")
        for s in self.services:
            if s not in self.threshold or s not in self.prize:
                raise InputError(f"missing threshold or prize for service {s!r}")
            if not (0 <= self.threshold[s] <= 1):
                raise InputError(f"threshold: must lie in [0, 1] (service {s!r})")
            if not 0 < self.prize[s] < math.inf:
                raise InputError(
                    f"prize: must be positive and finite (service {s!r})"
                )
        check_total((self.prize[s] for s in self.services), "services: total prize")
        for (v, s), w in self.allocation.items():
            if v not in vset:
                raise InputError(f"allocation: unknown validator {v!r}")
            if s not in sset:
                raise InputError(f"allocation: unknown service {s!r}")
            if w < 0 or not _le(w, self.stake[v]):
                raise InputError(
                    f"allocation: must lie in [0, stake] (validator {v!r}, service {s!r})"
                )
        if not self.base_services <= sset:
            raise InputError("base_services: must be a subset of services")
        for s in self.services:
            if self.threshold[s] == 0 and s not in self.base_services:
                warnings.warn(
                    f"service {s!r} has threshold 0: it can be attacked for free "
                    "and is never selectable as Byzantine for a finite cap",
                    stacklevel=2,
                )

    def w(self, v: str, s: str):
        """Allocation of validator v to service s (0 when unspecified)."""
        return self.allocation.get((v, s), 0)

    def total_allocation(self, s: str):
        return sum(self.w(v, s) for v in self.validators)

    def validator_allocation(self, v: str):
        return sum(self.w(v, s) for s in self.services)


@dataclass(frozen=True)
class Attack:
    """Per-(validator, service) attacking stake, bounded by allocations."""

    stake_used: Mapping[tuple[str, str], float]

    def used(self, v: str, s: str):
        return self.stake_used.get((v, s), 0)

    def validate_for(self, net: Network) -> None:
        vset, sset = set(net.validators), set(net.services)
        for (v, s), a in self.stake_used.items():
            if v not in vset:
                raise InputError(f"attack: unknown validator {v!r}")
            if s not in sset:
                raise InputError(f"attack: unknown service {s!r}")
            if a < 0 or not _le(a, net.w(v, s)):
                raise InputError(
                    f"attack: stake_used must lie in [0, allocation] "
                    f"(validator {v!r}, service {s!r})"
                )

    def is_indivisible(self, net: Network) -> bool:
        """True when every entry is 0 or exactly the full allocation."""
        return all(
            a == 0 or a == net.w(v, s) for (v, s), a in self.stake_used.items()
        )


@dataclass(frozen=True)
class AttackEvaluation:
    """Outcome of an attack: attacked set, per-validator costs, and margin."""

    attacked_services: frozenset[str]
    validator_cost: Mapping[str, float]
    total_cost: float
    total_prize: float
    margin: float


@dataclass(frozen=True)
class PrizeShares:
    """Per-validator share of the total attack prize; sums to one."""

    share: Mapping[str, float]


def restaking_degree(net: Network, v: str):
    """Sum of a validator's allocations divided by their stake.

    A validator whose stake was fully slashed (stake 0) has degree 0; its
    allocations are necessarily 0 as well.
    """
    if v not in net.stake:
        raise InputError(f"unknown validator {v!r}")
    sigma = net.stake[v]
    if sigma == 0:
        return 0
    total = net.validator_allocation(v)
    return total / sigma


def attacked_services(net: Network, a: Attack) -> frozenset[str]:
    """Services where the aimed stake meets the threshold fraction.

    A service with zero total allocation is attacked by any attack, including
    the all-zero one, because 0 >= threshold * 0 holds.
    """
    a.validate_for(net)
    attacked = set()
    for s in net.services:
        aimed = sum(a.used(v, s) for v in net.validators)
        required = net.threshold[s] * net.total_allocation(s)
        if _ge(aimed, required):
            attacked.add(s)
    return frozenset(attacked)


def evaluate_attack(net: Network, a: Attack) -> AttackEvaluation:
    """Evaluate costs and prize of an attack.

    Only stake aimed at services that clear their threshold is charged, and
    each validator's charge is capped at their stake.
    """
    attacked = attacked_services(net, a)
    costs = {}
    in_order = [s for s in net.services if s in attacked]  # not hash order
    for v in net.validators:
        used = sum(a.used(v, s) for s in in_order)
        costs[v] = min(net.stake[v], used)
    total_cost = sum(costs.values())
    total_prize = sum(net.prize[s] for s in in_order)
    return AttackEvaluation(
        attacked_services=attacked,
        validator_cost=costs,
        total_cost=total_cost,
        total_prize=total_prize,
        margin=total_prize - total_cost,
    )


def capped_attack(net: Network, attacked: Iterable[str], capped: Iterable[str]) -> Attack:
    """The cheapest attack on ``attacked`` in which the ``capped`` validators
    pay their whole stake.

    A validator whose cost hits its stake pays it whatever it aims, so capped
    validators aim their full allocations at every attacked service; the
    stake each service still needs is then taken from the other validators in
    validator order, at a cost of one per unit. Filled in floats, the stake
    aimed at a service reaches its required stake as :func:`evaluate_attack`
    sums it, without its tolerance, so the attack holds at any scale.
    """
    capped = frozenset(capped)
    used = {}
    aimed = lambda s: sum(used.get((v, s), 0) for v in net.validators)
    for s in attacked:
        required = net.threshold[s] * net.total_allocation(s)
        for v in net.validators:
            if v in capped and net.w(v, s) > 0:
                used[v, s] = net.w(v, s)
        # Each fill is re-summed as evaluate_attack sums it, and raised until
        # the sum is not short; full allocations sum to the total, which no
        # threshold exceeds, so the loop ends.
        for v in net.validators:
            short = required - aimed(s)
            if short <= 0:
                break
            while v not in capped and short > 0 and used.get((v, s), 0) < net.w(v, s):
                have = used.get((v, s), 0)
                raised = have + short
                if raised == have:  # short is below a float ulp of have
                    raised = math.nextafter(have, math.inf)
                used[v, s] = min(net.w(v, s), raised)
                short = required - aimed(s)
    return Attack(stake_used=used)


def prize_shares(net: Network, evaluation: AttackEvaluation) -> PrizeShares:
    """Split the prize proportionally to cost, or evenly when cost is zero."""
    if evaluation.total_cost > 0:
        shares = {
            v: evaluation.validator_cost[v] / evaluation.total_cost
            for v in net.validators
        }
    else:
        n = len(net.validators)
        shares = {v: 1 / n for v in net.validators} if n else {}
    return PrizeShares(share=shares)


def robustness_utility(net: Network, a: Attack, v: str, budget):
    """Validator utility when an adversary adds ``budget`` to the prize pot.

    The subsidy is paid only if at least one service is attacked. Budget 0
    is the security game: the validator's prize share minus its cost.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    evaluation = evaluate_attack(net, a)
    if evaluation.attacked_services:
        shares = prize_shares(net, evaluation)
        pot = evaluation.total_prize + budget
        return shares.share[v] * pot - evaluation.validator_cost[v]
    return -evaluation.validator_cost[v]


def is_beta_costly(evaluation: AttackEvaluation, budget) -> bool:
    """True when something was attacked and the prize plus an adversary
    subsidy covers the cost; with budget 0, when the attack is profitable.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    return bool(evaluation.attacked_services) and _le(
        evaluation.total_cost, evaluation.total_prize + budget
    )


def apply_byzantine(net: Network, byz: Iterable[str]) -> Network:
    """Transition the network after the given services turn Byzantine.

    Byzantine services slash their full allocations (capped at each
    validator's stake) and disappear; remaining allocations are clipped to
    the remaining stake. Exact input types are preserved, so integer networks
    transition exactly.
    """
    byz = frozenset(byz)
    unknown = byz - set(net.services)
    if unknown:
        raise InputError(f"unknown services: {sorted(unknown)}")
    forbidden = byz & net.base_services
    if forbidden:
        raise InputError(
            f"base services cannot be Byzantine: {sorted(forbidden)}"
        )
    remaining = tuple(s for s in net.services if s not in byz)
    gone = [s for s in net.services if s in byz]  # not hash order
    new_stake = {}
    for v in net.validators:
        slashed = sum(net.w(v, s) for s in gone)
        new_stake[v] = max(0, net.stake[v] - slashed)
    new_alloc = {
        (v, s): min(w, new_stake[v])
        for (v, s), w in net.allocation.items()
        if s not in byz
    }
    return Network(
        validators=net.validators,
        services=remaining,
        stake=new_stake,
        allocation=new_alloc,
        threshold={s: net.threshold[s] for s in remaining},
        prize={s: net.prize[s] for s in remaining},
        base_services=net.base_services,
    )


def service_weight(net: Network, s: str):
    """Prize-to-threshold ratio: the stake securing the service in isolation."""
    theta = net.threshold[s]
    if theta == 0:
        return math.inf
    return net.prize[s] / theta


def total_byzantine_weight(net: Network):
    """Combined weight of all services eligible to turn Byzantine."""
    return sum(
        service_weight(net, s) for s in net.services if s not in net.base_services
    )


def byzantine_weight_cap(net: Network, fraction):
    """Absolute weight cap corresponding to a fraction of the total weight.

    Zero fraction always means a zero cap, even when a threshold-0 service
    makes the total weight infinite.
    """
    if fraction < 0:
        raise InputError("fraction must be non-negative")
    if fraction == 0:
        return 0
    total = total_byzantine_weight(net)
    if total == 0:
        return 0
    if math.isinf(fraction) or math.isinf(total):
        return math.inf
    return fraction * total


def byzantine_subsets(net: Network, weight_cap) -> Iterator[tuple[str, ...]]:
    """Yield every subset of non-base services within the given weight cap.

    The cap is absolute: a subset qualifies when the sum of its members'
    prize-to-threshold weights is at most ``weight_cap``. The empty subset is
    always yielded first; enumeration order is by size, then by service
    order, so iteration is deterministic. Services with threshold 0 have
    infinite weight and appear only under an infinite cap.
    """
    if weight_cap < 0:
        raise InputError("weight_cap must be non-negative")
    eligible = [s for s in net.services if s not in net.base_services]
    weights = {s: service_weight(net, s) for s in eligible}
    for size in range(len(eligible) + 1):
        for combo in combinations(eligible, size):
            if _le(sum(weights[s] for s in combo), weight_cap):
                yield combo


def _class_choices(eligible: Sequence[str], key: Callable[[str], Hashable],
                   weight: Callable[[str], float], weight_cap) -> Iterator[tuple]:
    """The one generator of Byzantine choices, over classes of interchangeable services.

    ``eligible`` lists the services that may turn Byzantine in service order;
    services with equal ``key`` form a class, whose members all have the
    ``weight`` of its first. Yields ``(counts, representative)`` once per
    count vector within ``weight_cap``: ``counts`` maps each class key with
    Byzantine members to their number, and the representative is the first
    that many members of each class. Choices come in :func:`byzantine_subsets`
    order, of which each representative is its count vector's first subset.
    """
    if not weight_cap >= 0:  # written so that NaN fails too
        raise InputError("weight_cap must be non-negative")
    members: dict[Hashable, list[int]] = {}
    for pos, s in enumerate(eligible):
        members.setdefault(key(s), []).append(pos)
    classes = [(k, p, weight(eligible[p[0]])) for k, p in members.items()]
    # One level per size, extended in order: a representative is a smaller one
    # plus a later service that is its class's next member. Weights are summed
    # in service order and only grow, so a choice over the cap has no
    # admissible extension.
    level = [((0,) * len(classes), (), -1, 0)]
    while level:
        for counts, chosen, _, _ in level:
            yield {k: c for (k, _, _), c in zip(classes, counts) if c}, chosen
        grown = []
        for counts, chosen, last, total in level:
            nexts = sorted(
                (positions[c], k)
                for k, ((_, positions, _), c) in enumerate(zip(classes, counts))
                if c < len(positions) and positions[c] > last
            )
            for pos, k in nexts:
                heavier = total + classes[k][2]
                if _le(heavier, weight_cap):
                    more = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
                    grown.append((more, chosen + (eligible[pos],), pos, heavier))
        level = grown


def byzantine_choices(net: Network, weight_cap) -> Iterator[tuple[tuple[str, ...], Network]]:
    """One admissible Byzantine subset per count vector over classes of
    interchangeable services, with the network its slashing leaves.

    Services with equal threshold, prize and allocations are interchangeable:
    subsets drawing as many from each class leave the same network up to
    renaming. Each is the first of its kind in :func:`byzantine_subsets`
    order, and they come in that order; those that leave no service are
    skipped.
    """
    eligible = [s for s in net.services if s not in net.base_services]
    column = lambda s: tuple(net.w(v, s) for v in net.validators)
    key = lambda s: (net.threshold[s], net.prize[s], column(s))
    for _, subset in _class_choices(eligible, key, lambda s: service_weight(net, s), weight_cap):
        slashed = apply_byzantine(net, subset)
        if slashed.services:
            yield subset, slashed


def eigenlayer_condition(net: Network) -> bool:
    """Sufficient security condition under full-stake slashing.

    Each validator's weighted exposure (allocation share of every service's
    isolation weight) must stay strictly below their stake. Services with no
    allocated stake contribute nothing (0/0 reads as 0 here), which is why
    this check alone is not sufficient in the elastic model.
    """
    for v in net.validators:
        exposure = 0
        for s in net.services:
            total = net.total_allocation(s)
            if total == 0:
                continue
            w = net.w(v, s)
            if w == 0:
                continue
            weight = service_weight(net, s)
            if math.isinf(weight):
                return False
            exposure += (w / total) * weight
        if not _lt_strict(exposure, net.stake[v]):
            return False
    return True


def generalized_eigenlayer_condition(net: Network) -> bool:
    """Sufficient security condition for elastic networks.

    On top of the per-validator exposure bound, every service must have
    strictly more allocated stake than its isolation weight. When this holds
    the network has no profitable attack.
    """
    if not eigenlayer_condition(net):
        return False
    for s in net.services:
        weight = service_weight(net, s)
        if math.isinf(weight):
            return False
        if not _lt_strict(weight, net.total_allocation(s)):
            return False
    return True
