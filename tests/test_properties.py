"""Property-based checks of the model invariants on generated networks."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from restaking.bruteforce import min_budget_bruteforce
from restaking.mip import MipStatusError, min_budget
from restaking.model import (
    Attack,
    Network,
    apply_byzantine,
    capped_attack,
    evaluate_attack,
    prize_shares,
)
from restaking.symmetry import SymmetricNetwork, consolidated_cost, to_network

from conftest import as_fractions


@st.composite
def networks(draw, max_validators=4, max_services=4):
    n = draw(st.integers(1, max_validators))
    m = draw(st.integers(1, max_services))
    validators = tuple(f"v{i}" for i in range(n))
    services = tuple(f"s{j}" for j in range(m))
    stake = {
        v: draw(st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False))
        for v in validators
    }
    allocation = {}
    for v in validators:
        for s in services:
            frac = draw(st.floats(0.0, 1.0))
            if frac > 0:
                allocation[(v, s)] = frac * stake[v]
    threshold = {s: draw(st.floats(0.0, 1.0)) for s in services}
    prize = {s: draw(st.floats(0.1, 3.0)) for s in services}
    return Network(
        validators=validators,
        services=services,
        stake=stake,
        allocation=allocation,
        threshold=threshold,
        prize=prize,
    )


@st.composite
def attacks_on(draw, net):
    used = {}
    for (v, s), w in net.allocation.items():
        frac = draw(st.floats(0.0, 1.0))
        if frac > 0:
            used[(v, s)] = frac * w
    return Attack(stake_used=used)


@st.composite
def network_and_attack(draw):
    net = draw(networks())
    attack = draw(attacks_on(net))
    return net, attack


@settings(max_examples=150, deadline=None)
@given(network_and_attack(), st.data())
def test_more_attacking_stake_never_shrinks_the_attack(case, data):
    net, attack = case
    if not net.allocation:
        return
    ev = evaluate_attack(net, attack)
    pair = data.draw(st.sampled_from(sorted(net.allocation)))
    bumped = dict(attack.stake_used)
    bumped[pair] = net.allocation[pair]
    ev2 = evaluate_attack(net, Attack(stake_used=bumped))
    assert ev.attacked_services <= ev2.attacked_services
    assert ev2.total_cost >= ev.total_cost - 1e-9


@settings(max_examples=150, deadline=None)
@given(network_and_attack())
def test_costs_capped_by_stake_and_aim(case):
    net, attack = case
    ev = evaluate_attack(net, attack)
    for v in net.validators:
        aimed = sum(attack.used(v, s) for s in ev.attacked_services)
        assert ev.validator_cost[v] <= net.stake[v] + 1e-12
        assert ev.validator_cost[v] <= aimed + 1e-12
    assert ev.total_cost == sum(ev.validator_cost.values())


@settings(max_examples=150, deadline=None)
@given(network_and_attack())
def test_shares_always_normalize(case):
    net, attack = case
    shares = prize_shares(net, evaluate_attack(net, attack))
    assert abs(sum(shares.share.values()) - 1.0) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(networks(), st.data())
def test_sequential_slashing_never_keeps_more_stake(net, data):
    if len(net.services) < 2:
        return
    services = list(net.services)
    cut = data.draw(st.integers(1, len(services) - 1))
    first, second = set(services[:cut]), set(services[cut:])
    sequential = apply_byzantine(apply_byzantine(net, first), second)
    joint = apply_byzantine(net, first | second)
    for v in net.validators:
        assert sequential.stake[v] <= joint.stake[v] + 1e-9


@settings(max_examples=100, deadline=None)
@given(networks())
def test_slashing_clips_allocations_exactly(net):
    if not net.services:
        return
    byz = set(net.services[: max(1, len(net.services) // 2)])
    after = apply_byzantine(net, byz)
    for (v, s), w in net.allocation.items():
        if s in byz:
            continue
        assert after.w(v, s) == min(w, after.stake[v])


@st.composite
def symmetric_networks(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    stake = draw(st.floats(0.5, 4.0))
    return SymmetricNetwork(
        n_validators=n,
        stake=stake,
        allocation={f"s{j}": draw(st.floats(0.0, 1.0)) * stake for j in range(m)},
        threshold=draw(st.floats(0.0, 1.0)),
        prize={f"s{j}": draw(st.floats(0.2, 2.0)) for j in range(m)},
    )


@settings(max_examples=150, deadline=None)
@given(symmetric_networks(), st.data())
def test_consolidation_never_costs_more(sym, data):
    net = to_network(sym)
    attack = data.draw(attacks_on(net))
    ev = evaluate_attack(net, attack)
    if not ev.attacked_services:
        return
    assert consolidated_cost(sym, sorted(ev.attacked_services)) <= ev.total_cost + 1e-9


@st.composite
def wide_networks(draw):
    """Up to 5 x 5, stakes and prizes log-uniform over 1e-6..1e9, each
    allocation a fraction of its validator's stake."""
    magnitude = st.floats(-6.0, 9.0).map(lambda e: 10.0 ** e)
    validators = tuple(f"v{i}" for i in range(draw(st.integers(1, 5))))
    services = tuple(f"s{j}" for j in range(draw(st.integers(1, 5))))
    stake = {v: draw(magnitude) for v in validators}
    allocation = {(v, s): draw(st.floats(0.0, 1.0)) * stake[v]
                  for v in validators for s in services}
    return Network(validators=validators, services=services, stake=stake,
                   allocation={pair: w for pair, w in allocation.items() if w > 0},
                   threshold={s: draw(st.floats(0.0, 1.0)) for s in services},
                   prize={s: draw(magnitude) for s in services})


@settings(max_examples=150, deadline=None)
@given(st.one_of(networks(), wide_networks()), st.data())
def test_capped_attack_hits_its_target(net, data):
    # Every engine's witness attack comes from capped_attack: within the
    # allocations (evaluate_attack validates it), it attacks every target
    # service whichever validators pay their whole stake, on small networks
    # and on ones whose stakes and prizes span fifteen magnitudes.
    target = data.draw(st.lists(st.sampled_from(net.services), unique=True))
    capped = data.draw(st.lists(st.sampled_from(net.validators), unique=True))
    ev = evaluate_attack(net, capped_attack(net, target, capped))
    assert set(target) <= ev.attacked_services


@settings(max_examples=60, deadline=None)
@given(wide_networks())
def test_min_budget_is_exact_or_raises_over_fifteen_magnitudes(net):
    # The MIP against the exact oracle. Its 1e-6 integrality and 1e-8 row
    # tolerances act on rows scaled to their largest coefficient, so on
    # some of these networks (a full allocation at threshold 1 next to a
    # stake 1e-6 of it) its optimum misses the oracle's by more than
    # 1e-9 of the largest stake or prize. The witness re-check must then
    # raise MipStatusError: an answer is never silently wrong.
    scale = max(*net.stake.values(), *net.prize.values())
    exact = float(min_budget_bruteforce(as_fractions(net)))
    try:
        value = min_budget(net)
    except MipStatusError:
        return
    assert abs(value - exact) <= 1e-9 * scale
