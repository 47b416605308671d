from __future__ import annotations

import json

import pytest

from restaking.files import load_network, load_reward_pools
from restaking.model import InputError


def write(tmp_path, payload):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE = {
    "validators": [{"id": "v1", "stake": 20}, {"id": "v2", "stake": 20}],
    "services": [{"id": "s", "threshold": 0.5, "prize": 5}],
    "allocations": [
        {"validator": "v1", "service": "s", "amount": 20},
        {"validator": "v2", "service": "s", "amount": 20},
    ],
}


def test_round_trip(tmp_path):
    net = load_network(write(tmp_path, BASE))
    assert net.validators == ("v1", "v2")
    assert net.stake["v1"] == 20 and isinstance(net.stake["v1"], int)
    assert net.threshold["s"] == 0.5
    assert net.w("v1", "s") == 20


def test_omitted_allocations_default_to_zero(tmp_path):
    payload = dict(BASE, allocations=[])
    net = load_network(write(tmp_path, payload))
    assert net.w("v1", "s") == 0


def test_base_flag(tmp_path):
    payload = dict(BASE)
    payload["services"] = [{"id": "s", "threshold": 0.5, "prize": 5, "base": True}]
    net = load_network(write(tmp_path, payload))
    assert net.base_services == {"s"}


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p["validators"].append({"id": "v1", "stake": 3}), "duplicate"),
        (lambda p: p["services"].append({"id": "s", "threshold": 0.5, "prize": 1}),
         "duplicate service id 's'"),
        (lambda p: p["validators"].__setitem__(0, {"id": "v1", "stake": -1}), "stake"),
        (lambda p: p["validators"].__setitem__(0, {"id": "v1"}), "stake"),
        (lambda p: p["services"].__setitem__(0, {"id": "s", "threshold": 1.5, "prize": 5}), "threshold"),
        (lambda p: p["services"].__setitem__(0, {"id": "s", "threshold": 0.5, "prize": 0}), "prize"),
        (lambda p: p["allocations"].__setitem__(0, {"validator": "vX", "service": "s", "amount": 1}), "vX"),
        (lambda p: p["allocations"].__setitem__(0, {"validator": "v1", "service": "sX", "amount": 1}), "sX"),
        (lambda p: p["allocations"].__setitem__(0, {"validator": "v1", "service": "s", "amount": 25}), "amount"),
    ],
)
def test_errors_name_field_and_id(tmp_path, mutate, fragment):
    payload = json.loads(json.dumps(BASE))
    mutate(payload)
    with pytest.raises(InputError) as err:
        load_network(write(tmp_path, payload))
    assert fragment in str(err.value)


def _set(path, value):
    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (_set(("validators",), 5), "validators: expected a list"),
        (_set(("allocations",), 7), "allocations: expected a list"),
        (_set(("services",), {"id": "s"}), "services: expected a list"),
        (_set(("validators",), [1]), "validators[0]: expected an object"),
        (_set(("validators", 0, "id"), 3), "validators[0].id: expected a string"),
        (_set(("allocations", 0, "validator"), [1]), "allocations[0].validator"),
        (_set(("allocations", 1, "service"), {}), "allocations[1].service"),
        (_set(("validators", 0, "stake"), 10**400), "validators[0].stake"),
        (_set(("services", 0, "prize"), -(10**400)), "services[0].prize"),
        (_set(("services", 0, "base"), "yes"), "services[0].base"),
        (_set(("services", 0, "base"), 1), "services[0].base"),
        (_set(("validators",), [{"id": "a", "stake": 1e308}, {"id": "b", "stake": 1e308}]),
         "total stake"),
        (_set(("validators",), [{"id": "a", "stake": 10**308}, {"id": "b", "stake": 10**308}]),
         "total stake"),
    ],
)
def test_malformed_shapes_name_the_field(tmp_path, mutate, fragment):
    payload = json.loads(json.dumps(BASE))
    mutate(payload)
    with pytest.raises(InputError) as err:
        load_network(write(tmp_path, payload))
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", [b"1" * 5000, b"\xff\xfe", None])
def test_unreadable_files_are_input_errors(tmp_path, text):
    path = tmp_path / "net.json"
    if text is not None:  # None: the file does not exist
        path.write_bytes(text)
    with pytest.raises(InputError) as err:
        load_network(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "rewards, fragment",
    [({"s": 10**400, "t": 1}, "rewards.s"), ({"s": 1e308, "t": 1e308}, "rewards: total")],
)
def test_rewards_beyond_float_range(tmp_path, rewards, fragment):
    payload = dict(BASE)
    payload["services"] = BASE["services"] + [{"id": "t", "threshold": 0.5, "prize": 5}]
    payload["rewards"] = rewards
    payload["target_degree"] = 1.0
    with pytest.raises(InputError) as err:
        load_reward_pools(write(tmp_path, payload))
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_rejected(tmp_path, text):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(BASE).replace('"prize": 5', f'"prize": {text}'),
                    encoding="utf-8")
    with pytest.raises(InputError):
        load_network(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken", encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_network(path)
    assert "line" in str(err.value)


def test_reward_pools(tmp_path):
    payload = dict(BASE)
    payload["rewards"] = {"s": 2.0}
    payload["target_degree"] = 1.0
    net, pools = load_reward_pools(write(tmp_path, payload))
    assert pools.reward["s"] == 2.0
    assert pools.target_degree == 1.0


def test_reward_pools_require_all_services(tmp_path):
    payload = dict(BASE)
    payload["rewards"] = {}
    payload["target_degree"] = 1.0
    with pytest.raises(InputError):
        load_reward_pools(write(tmp_path, payload))
