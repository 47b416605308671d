"""Reading network description files.

The on-disk format is JSON (UTF-8):

    {
      "validators":  [{"id": "v1", "stake": 20}, ...],
      "services":    [{"id": "s1", "threshold": 0.5, "prize": 5, "base": false}, ...],
      "allocations": [{"validator": "v1", "service": "s1", "amount": 20}, ...],
      "rewards":       {"s1": 1.0, ...},        # optional, for incentive analysis
      "target_degree": 1.5                       # optional, paired with rewards
    }

Omitted allocation pairs default to 0. JSON integers are kept as Python
ints, so integer-valued networks evaluate exactly. The loader reads the
JSON: lists must hold objects, ids must be strings, numbers must be finite
and within float range (the non-standard constants NaN and Infinity are
rejected) and "base" must be a JSON boolean; these shape errors carry the
JSON path. A file also needs what a network built in Python need not: a
positive stake (the constructor accepts 0, which slashing leaves), each
amount at most its validator's stake with no float tolerance, and no
repeated validator id or allocation pair. Every range rule (thresholds,
prizes, totals, known ids, rewards) is the one :class:`Network` or
:class:`RewardPools` states, and its error names the field and id.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .incentives import RewardPools
from .model import InputError, Network, _finite

__all__ = ["load_json", "load_network", "load_network_data", "load_reward_pools"]


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise InputError(f"{where}: missing required field {key!r}")
    return obj[key]


def _entries(data: dict, key: str, required: bool = True):
    """(where, entry) for each object in the list data[key]."""
    entries = _require(data, key, "network") if required else data.get(key, [])
    if not isinstance(entries, list):
        raise InputError(f"{key}: expected a list of objects")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"{key}[{i}]: expected an object")
        yield f"{key}[{i}]", entry


def _string(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if not isinstance(value, str):
        raise InputError(f"{where}.{key}: expected a string")
    return value


def _number(value: Any, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    if not _finite(value):
        raise InputError(f"{where}: must be finite and within float range")
    return value


def _reject_constant(name: str):
    raise InputError(f"non-finite number {name} is not allowed")


def load_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file, reporting every failure to read it as InputError."""
    try:
        return json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or a huge literal
        raise InputError(f"{path}: {exc}")


def load_network_data(data: dict) -> Network:
    """Build a Network from an already-parsed description dict."""
    if not isinstance(data, dict):
        raise InputError("network description must be a JSON object")

    validators: list[str] = []
    stake: dict[str, float] = {}
    for where, entry in _entries(data, "validators"):
        vid = _string(entry, "id", where)
        if vid in stake:
            raise InputError(f"{where}.id: duplicate validator id {vid!r}")
        value = _number(_require(entry, "stake", where), f"{where}.stake")
        if value <= 0:
            raise InputError(f"{where}.stake: must be positive (id {vid!r})")
        validators.append(vid)
        stake[vid] = value

    services: list[str] = []
    threshold: dict[str, float] = {}
    prize: dict[str, float] = {}
    base: set[str] = set()
    for where, entry in _entries(data, "services"):
        sid = _string(entry, "id", where)
        services.append(sid)
        threshold[sid] = _number(_require(entry, "threshold", where), f"{where}.threshold")
        prize[sid] = _number(_require(entry, "prize", where), f"{where}.prize")
        is_base = entry.get("base", False)
        if not isinstance(is_base, bool):
            raise InputError(f"{where}.base: expected true or false (id {sid!r})")
        if is_base:
            base.add(sid)

    allocation: dict[tuple[str, str], float] = {}
    for where, entry in _entries(data, "allocations", required=False):
        vid = _string(entry, "validator", where)
        sid = _string(entry, "service", where)
        amount = _number(_require(entry, "amount", where), f"{where}.amount")
        if vid in stake and amount > stake[vid]:
            raise InputError(f"{where}.amount: must be at most the stake (validator {vid!r})")
        if (vid, sid) in allocation:
            raise InputError(f"{where}: duplicate allocation pair ({vid!r}, {sid!r})")
        allocation[(vid, sid)] = amount

    return Network(
        validators=tuple(validators),
        services=tuple(services),
        stake=stake,
        allocation=allocation,
        threshold=threshold,
        prize=prize,
        base_services=frozenset(base),
    )


def load_network(path: str | Path) -> Network:
    """Load a network description file."""
    return load_network_data(load_json(path))


def load_reward_pools(path: str | Path) -> tuple[Network, RewardPools]:
    """Load a network file that also carries reward pools.

    Requires the optional "rewards" and "target_degree" fields.
    """
    data = load_json(path)
    net = load_network_data(data)
    rewards = _require(data, "rewards", "network")
    if not isinstance(rewards, dict):
        raise InputError("rewards: expected an object mapping service id to number")
    for sid, value in rewards.items():
        if sid not in net.prize:
            raise InputError(f"rewards.{sid}: unknown service id")
        _number(value, f"rewards.{sid}")
    missing = set(net.services) - set(rewards)
    if missing:
        raise InputError(f"rewards: missing entries for services {sorted(missing)}")
    degree = _number(_require(data, "target_degree", "network"), "target_degree")
    return net, RewardPools(reward=rewards, target_degree=degree)
