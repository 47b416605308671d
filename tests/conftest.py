from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from restaking.model import Network


@pytest.fixture
def fig_atomic():
    """Two validators with 20 stake each fully securing one service.

    Threshold 1/2, prize 5: the cheapest attack uses 20 units for a prize of
    5, so the network withstands any budget below 15.
    """
    return Network(
        validators=("v1", "v2"),
        services=("s",),
        stake={"v1": 20, "v2": 20},
        allocation={("v1", "s"): 20, ("v2", "s"): 20},
        threshold={"s": 0.5},
        prize={"s": 5},
    )


@pytest.fixture
def half_allocated():
    """One validator with stake 2 allocating 1 to a threshold-1 service.

    The full-allocation attack costs 1 and wins a prize of 1, so the network
    is insecure even though the full-stake-slashing condition passes.
    """
    return Network(
        validators=("v",),
        services=("s",),
        stake={"v": 2},
        allocation={("v", "s"): 1},
        threshold={"s": 1},
        prize={"s": 1},
    )


def random_network(rng: random.Random, max_validators: int = 4,
                   max_services: int = 4, allow_empty_service: bool = True,
                   min_size: int = 1) -> Network:
    """Random small network for oracle cross-checks, with at least min_size
    validators and services."""
    n = rng.randint(min_size, max_validators)
    m = rng.randint(min_size, max_services)
    validators = tuple(f"v{i}" for i in range(n))
    services = tuple(f"s{j}" for j in range(m))
    stake = {v: rng.uniform(0.5, 3.0) for v in validators}
    allocation = {}
    for v in validators:
        for s in services:
            if rng.random() < 0.75:
                allocation[(v, s)] = rng.uniform(0.0, stake[v])
    if not allow_empty_service:
        for s in services:
            if not any((v, s) in allocation for v in validators):
                v = rng.choice(validators)
                allocation[(v, s)] = rng.uniform(0.1, stake[v])
    threshold = {s: rng.uniform(0.2, 1.0) for s in services}
    prize = {s: rng.uniform(0.2, 2.0) for s in services}
    return Network(
        validators=validators,
        services=services,
        stake=stake,
        allocation=allocation,
        threshold=threshold,
        prize=prize,
    )


def as_fractions(net: Network) -> Network:
    """The same network in exact arithmetic: every float becomes the Fraction
    it represents."""
    exact = lambda values: {key: Fraction(x) for key, x in values.items()}
    return dataclasses.replace(
        net,
        stake=exact(net.stake),
        allocation=exact(net.allocation),
        threshold=exact(net.threshold),
        prize=exact(net.prize),
    )


def symmetric_network(n_validators: int, stake, allocation: dict, threshold, prize: dict,
                      base_services=frozenset()) -> Network:
    """Symmetric network: validators v1..vn of one stake, each allocating
    ``allocation[s]`` to service s, and one threshold for every service."""
    validators = tuple(f"v{i + 1}" for i in range(n_validators))
    return Network(
        validators=validators,
        services=tuple(allocation),
        stake={v: stake for v in validators},
        allocation={
            (v, s): w for v in validators for s, w in allocation.items() if w != 0
        },
        threshold={s: threshold for s in allocation},
        prize=dict(prize),
        base_services=base_services,
    )
