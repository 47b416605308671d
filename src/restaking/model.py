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
Every engine closes its check with that one rule, :func:`attackable`.

Byzantine choices: :func:`byzantine_subsets` lists every admissible subset,
the reference; :func:`byzantine_choices` yields one per count vector over
classes of interchangeable services (equal threshold, prize and allocation
column) in :func:`byzantine_subsets` order. The closed form in ``symmetry``
reduces the same generator over classes of equal prize and first
validator's allocation: on a network symmetric only within its 1e-12
tolerance these can be coarser, and it visits an in-order subset of the
others' choices. Every engine slashes a choice by one rule, that of
:func:`apply_byzantine`: the closed form applies it to one validator's
stake and allocation row, the other engines call it.

Reference definitions, which no engine calls: :func:`prize_shares` and
:func:`robustness_utility` (a validator's payoff from an attack) and the
sufficient conditions :func:`eigenlayer_condition` and
:func:`generalized_eigenlayer_condition` state the paper's definitions, and
the tests hold the engines to them; :func:`byzantine_subsets` is the tests'
reference enumerator, and ``perfbench`` checks its sweep-mip ops with it.

Witnesses: every engine reports a violation as ``(Byzantine services, attack
on the network they leave)``, and builds the attack with
:func:`capped_attack` from the attacked services and the validators that
pay their whole stake.

Validation happens where a network enters: constructing a :class:`Network`,
loading one from a file, or ``dataclasses.replace`` on one checks every
field (and warns once about each threshold-0 service), on copies of the
caller's mappings that the network owns; each range rule of a network is
stated there once, and the file loader adds only what a file needs. Every
engine refuses a negative or NaN budget, cap or fraction by one rule, and
one test decides what counts as a finite number. What the package
derives from a valid network is valid by construction and is not checked
again: slashing transitions (:func:`apply_byzantine`) and the prize rescale
of ``experiments.min_stake_mip`` build through the private
``Network._trusted``, and attacks built by :func:`capped_attack` are scored
without :meth:`Attack.validate_for`. Each network computes its services'
required stakes (:attr:`Network.required_stake`) once.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "InputError",
    "Network",
    "Attack",
    "AttackEvaluation",
    "restaking_degree",
    "evaluate_attack",
    "capped_attack",
    "prize_shares",
    "robustness_utility",
    "attackable",
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


def _finite(x) -> bool:
    """The one finite-number test: False for NaN, infinities and integers
    too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_total(values, where: str) -> None:
    """Raise InputError, naming where, when the values sum beyond float range."""
    if not _finite(sum(values)):
        raise InputError(f"{where}: must be finite and within float range")


def _check_nonnegative(name: str, value) -> None:
    """The one rule for budgets, caps and fractions: NaN fails it too."""
    if not value >= 0:
        raise InputError(f"{name} must be non-negative, got {value!r}")


def _repeated(ids: Sequence[str]) -> str:
    """The first id that ids repeats; only called once a repeat is known."""
    seen = set()
    return next(i for i in ids if i in seen or seen.add(i))


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
        stake: per-validator stake, non-negative, with a total within
            float range. The constructor accepts 0, which slashing leaves;
            the file loader requires a positive stake.
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
        # Own copies, so that a caller's later edits bypass no check and
        # leave no cached value stale.
        for name in ("stake", "allocation", "threshold", "prize"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        object.__setattr__(self, "validators", tuple(self.validators))
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "base_services", frozenset(self.base_services))
        vset, sset = set(self.validators), set(self.services)
        if len(vset) != len(self.validators):
            raise InputError(f"duplicate validator id {_repeated(self.validators)!r}")
        if len(sset) != len(self.services):
            raise InputError(f"duplicate service id {_repeated(self.services)!r}")
        for v in self.validators:
            if v not in self.stake:
                raise InputError(f"missing stake for validator {v!r}")
            if not 0 <= self.stake[v] < math.inf:
                raise InputError(
                    f"stake: must be non-negative and finite (validator {v!r})"
                )
        _check_total((self.stake[v] for v in self.validators), "validators: total stake")
        for s in self.services:
            if s not in self.threshold or s not in self.prize:
                raise InputError(f"missing threshold or prize for service {s!r}")
            if not (0 <= self.threshold[s] <= 1):
                raise InputError(f"threshold: must lie in [0, 1] (service {s!r})")
            _check_prize(s, self.prize[s])
        _check_total((self.prize[s] for s in self.services), "services: total prize")
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
                    stacklevel=3,  # past the generated __init__, at its caller
                )

    @classmethod
    def _trusted(cls, validators: tuple[str, ...], services: tuple[str, ...],
                 stake: Mapping[str, float], allocation: Mapping[tuple[str, str], float],
                 threshold: Mapping[str, float], prize: Mapping[str, float],
                 base_services: frozenset[str]) -> Network:
        """A network from fields derived from a valid one, not checked again.

        Only for transitions inside the package whose output is valid by
        construction; every other path goes through the checked constructor.
        The mappings are kept, not copied: pass fresh ones or a network's own.
        """
        net = object.__new__(cls)
        net.__dict__.update(validators=validators, services=services, stake=stake,
                            allocation=allocation, threshold=threshold, prize=prize,
                            base_services=base_services)
        return net

    def _with_prizes(self, prize: Mapping[str, float]) -> Network:
        """This network with other prizes, of which only the prizes are checked."""
        for s in self.services:
            _check_prize(s, prize[s])
        _check_total((prize[s] for s in self.services), "services: total prize")
        return Network._trusted(self.validators, self.services, self.stake,
                                self.allocation, self.threshold, prize, self.base_services)

    def w(self, v: str, s: str):
        """Allocation of validator v to service s (0 when unspecified)."""
        return self.allocation.get((v, s), 0)

    def total_allocation(self, s: str):
        return sum(self.w(v, s) for v in self.validators)

    @cached_property
    def required_stake(self) -> dict[str, float]:
        """Stake aimed at each service that attacks it: threshold times total
        allocation, computed once per network."""
        return {s: self.threshold[s] * self.total_allocation(s) for s in self.services}

    def validator_allocation(self, v: str):
        return sum(self.w(v, s) for s in self.services)


def _check_prize(s: str, prize) -> None:
    if not 0 < prize < math.inf:
        raise InputError(f"prize: must be positive and finite (service {s!r})")


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


@dataclass(frozen=True)
class AttackEvaluation:
    """Outcome of an attack: attacked set, per-validator costs, and margin."""

    attacked_services: frozenset[str]
    validator_cost: Mapping[str, float]
    total_cost: float
    total_prize: float
    margin: float


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


def evaluate_attack(net: Network, a: Attack) -> AttackEvaluation:
    """Evaluate costs and prize of an attack.

    The attacked services are those where the aimed stake meets the
    threshold fraction; one with zero total allocation is attacked by any
    attack, the all-zero one included, because 0 >= threshold * 0 holds.
    Only stake aimed at attacked services is charged, and each validator's
    charge is capped at their stake.
    """
    a.validate_for(net)
    return _score(net, a)


def _score(net: Network, a: Attack) -> AttackEvaluation:
    """:func:`evaluate_attack` of an attack known to fit net's allocations,
    such as one :func:`capped_attack` built on it."""
    attacked = frozenset(
        s for s in net.services
        if _ge(sum(a.used(v, s) for v in net.validators), net.required_stake[s])
    )
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
        required = net.required_stake[s]
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


def prize_shares(net: Network, evaluation: AttackEvaluation) -> dict[str, float]:
    """Each validator's share of the prize, summing to one: proportional to
    cost, or even when the cost is zero."""
    if evaluation.total_cost > 0:
        return {
            v: evaluation.validator_cost[v] / evaluation.total_cost
            for v in net.validators
        }
    n = len(net.validators)
    return {v: 1 / n for v in net.validators} if n else {}


def robustness_utility(net: Network, a: Attack, v: str, budget):
    """Validator utility when an adversary adds ``budget`` to the prize pot.

    The subsidy is paid only if at least one service is attacked. Budget 0
    is the security game: the validator's prize share minus its cost.
    """
    _check_nonnegative("budget", budget)
    evaluation = evaluate_attack(net, a)
    if evaluation.attacked_services:
        pot = evaluation.total_prize + budget
        return prize_shares(net, evaluation)[v] * pot - evaluation.validator_cost[v]
    return -evaluation.validator_cost[v]


def attackable(margin, budget) -> bool:
    """True when an attack's margin (prize minus cost) clears -budget: the tie
    rule of every engine, exact on exact values, else within TOLERANCE."""
    return _ge(margin, -budget)


def apply_byzantine(net: Network, byz: Iterable[str]) -> Network:
    """Transition the network after the given services turn Byzantine.

    Byzantine services slash their full allocations (capped at each
    validator's stake) and disappear; remaining allocations are clipped to
    the remaining stake. Exact input types are preserved, so integer networks
    transition exactly. The result is valid by construction (stakes stay
    non-negative, allocations within them, base services in place), so it is
    built unchecked.
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
    return Network._trusted(
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
    _check_nonnegative("fraction", fraction)
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
    _check_nonnegative("weight_cap", weight_cap)
    eligible = [s for s in net.services if s not in net.base_services]
    weights = {s: service_weight(net, s) for s in eligible}
    for size in range(len(eligible) + 1):
        for combo in combinations(eligible, size):
            if _le(sum(weights[s] for s in combo), weight_cap):
                yield combo


def _class_choices(eligible: Sequence[str], key: Callable[[str], Hashable],
                   weight: Callable[[str], float], weight_cap) -> Iterator[tuple]:
    """The one generator of Byzantine choices (and, over validators, of capped sets).

    ``eligible`` lists the services that may turn Byzantine in service order;
    services with equal ``key`` form a class, whose members all have the
    ``weight`` of its first. Yields ``(counts, representative)`` once per
    count vector within ``weight_cap``: ``counts`` maps each class key with
    Byzantine members to their number, and the representative is the first
    that many members of each class. Choices come in :func:`byzantine_subsets`
    order, of which each representative is its count vector's first subset.
    """
    _check_nonnegative("weight_cap", weight_cap)
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
    order, and they come in that order; the one that takes every service
    leaves nothing to attack and is not yielded.
    """
    for subset in _byzantine_representatives(net, weight_cap):
        yield subset, apply_byzantine(net, subset)


def _byzantine_representatives(net: Network, weight_cap) -> Iterator[tuple[str, ...]]:
    """The subsets :func:`byzantine_choices` slashes, unslashed: one per count
    vector over classes of interchangeable services, less the one that takes
    every service."""
    eligible = [s for s in net.services if s not in net.base_services]
    column = lambda s: tuple(net.w(v, s) for v in net.validators)
    key = lambda s: (net.threshold[s], net.prize[s], column(s))
    for _, subset in _class_choices(eligible, key, lambda s: service_weight(net, s), weight_cap):
        if len(subset) < len(net.services):
            yield subset


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
