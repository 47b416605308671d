"""Reading network description files.

The on-disk format is JSON (UTF-8):

    {
      "validators":  [{"id": "v1", "stake": 20}, ...],
      "services":    [{"id": "s1", "threshold": 0.5, "prize": 5, "base": false}, ...],
      "allocations": [{"validator": "v1", "service": "s1", "amount": 20}, ...],
      "rewards":       {"s1": 1.0, ...},        # optional, for incentive analysis
      "target_degree": 1.5                       # optional, paired with rewards
    }

Omitted allocation pairs default to 0. Validation errors name the offending
field and id. JSON integers are kept as Python ints, so integer-valued
networks evaluate exactly. The non-standard constants NaN and Infinity are
rejected, and so are integers, total stakes, total prizes and total rewards
beyond float range. Lists must hold objects, ids must be strings and "base"
must be a JSON boolean.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .incentives import RewardPools
from .model import InputError, Network, check_total

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
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise InputError(f"{where}: integer too large for a float") from None
    if not finite:
        raise InputError(f"{where}: must be finite, got {value!r}")
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
    # Network checks the totals too; checked here, they are reported first.
    check_total(stake.values(), "validators: total stake")

    services: list[str] = []
    threshold: dict[str, float] = {}
    prize: dict[str, float] = {}
    base: set[str] = set()
    for where, entry in _entries(data, "services"):
        sid = _string(entry, "id", where)
        if sid in threshold:
            raise InputError(f"{where}.id: duplicate service id {sid!r}")
        theta = _number(_require(entry, "threshold", where), f"{where}.threshold")
        if not 0 <= theta <= 1:
            raise InputError(f"{where}.threshold: must lie in [0, 1] (id {sid!r})")
        pi = _number(_require(entry, "prize", where), f"{where}.prize")
        if pi <= 0:
            raise InputError(f"{where}.prize: must be positive (id {sid!r})")
        services.append(sid)
        threshold[sid] = theta
        prize[sid] = pi
        is_base = entry.get("base", False)
        if not isinstance(is_base, bool):
            raise InputError(f"{where}.base: expected true or false (id {sid!r})")
        if is_base:
            base.add(sid)
    check_total(prize.values(), "services: total prize")

    allocation: dict[tuple[str, str], float] = {}
    for where, entry in _entries(data, "allocations", required=False):
        vid = _string(entry, "validator", where)
        sid = _string(entry, "service", where)
        if vid not in stake:
            raise InputError(f"{where}.validator: unknown validator id {vid!r}")
        if sid not in threshold:
            raise InputError(f"{where}.service: unknown service id {sid!r}")
        amount = _number(_require(entry, "amount", where), f"{where}.amount")
        if amount < 0 or amount > stake[vid]:
            raise InputError(
                f"{where}.amount: must lie in [0, stake] (validator {vid!r})"
            )
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
    pools: dict[str, float] = {}
    for sid, value in rewards.items():
        if sid not in net.prize:
            raise InputError(f"rewards.{sid}: unknown service id")
        value = _number(value, f"rewards.{sid}")
        if value <= 0:
            raise InputError(f"rewards.{sid}: must be positive")
        pools[sid] = value
    _number(sum(pools.values()), "rewards: total")
    missing = set(net.services) - set(pools)
    if missing:
        raise InputError(f"rewards: missing entries for services {sorted(missing)}")
    degree = _number(
        _require(data, "target_degree", "network"), "target_degree"
    )
    if degree <= 0:
        raise InputError("target_degree: must be positive")
    return net, RewardPools(reward=pools, target_degree=degree)
