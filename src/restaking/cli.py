"""Command-line front end.

Three subcommands:

* ``check``   — decide security / (f, budget)-robustness of a network file,
                printing a witness attack when the verdict is negative.
* ``sweep``   — run the configured parameter sweeps and write CSV files.
* ``incentives`` — compute the reward-scheme equilibrium for a network file
                carrying reward pools; ``--verify`` prints the largest exact
                best-response gain and that validator's best response.

Exit codes: 0 the network is robust, 1 it is not, 2 input, capability or
solver error (including engine disagreement, which is itself a
cross-validation feature, printed with every engine's verdict and the
witness of each engine that found one). All numbers print with six
decimals, matching the 1e-6 solve precision. Reported safe budgets are open
upper bounds: a network robust "at budget b" withstands any budget strictly
below the failure point.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

from . import experiments as exp
from . import mip as mipmod
from .bruteforce import _capped_sets, best_attack
from .files import load_json, load_network, load_reward_pools
from .incentives import best_response, equilibrium_allocations
from .model import (
    InputError,
    Network,
    _byzantine_representatives,
    apply_byzantine,
    byzantine_choices,
    byzantine_weight_cap,
    evaluate_attack,
    restaking_degree,
    total_byzantine_weight,
)
from .symmetry import NotSymmetricError, find_beta_costly

_ORACLE_LIMIT = 2**8  # capped sets, and Byzantine choices, the oracle may scan
_MIP_LIMIT = 40  # binaries in the budget program at desk scale


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{float(x):.6f}"


def _print_witness(net: Network, engine: str, witness: tuple) -> None:
    """Print an engine's witness: its Byzantine services, then the attack on
    the network they leave, with each validator's aimed stake and cost."""
    byzantine, attack = witness
    print(f"witness ({engine}):")
    if byzantine:
        print("  byzantine services: " + ", ".join(byzantine))
    slashed = apply_byzantine(net, byzantine)
    evaluation = evaluate_attack(slashed, attack)
    print("  attacked services: " + ", ".join(sorted(evaluation.attacked_services)))
    for v in slashed.validators:
        used = {
            s: attack.used(v, s)
            for s in slashed.services
            if attack.used(v, s) > 0
        }
        if used:
            parts = ", ".join(f"{s}={_fmt(a)}" for s, a in sorted(used.items()))
            print(f"  {v}: {parts} (cost {_fmt(evaluation.validator_cost[v])})")
    print(
        f"  total cost {_fmt(evaluation.total_cost)}, "
        f"prize {_fmt(evaluation.total_prize)}, "
        f"margin {_fmt(evaluation.margin)}"
    )


def _oracle_engine(net: Network, budget, cap) -> tuple | None:
    for subset, slashed in byzantine_choices(net, cap):
        margin, attack = best_attack(slashed)
        if mipmod.attackable(margin, budget):
            return subset, attack
    return None


#: Decision engines by name. Each returns the witness ``(byzantine services,
#: attack on the network they leave)`` of a violation, or None when the
#: network is robust against ``budget`` after any Byzantine choice of weight
#: at most ``cap``.
_ENGINES = {
    "symmetric": find_beta_costly,
    # Looked up on the module at each call, so that a wrapper installed on
    # mip.mip_check sees the checks made here.
    "mip": lambda net, budget, cap: mipmod.mip_check(net, budget, cap),
    "brute-force": _oracle_engine,
}


def _engine_names(net: Network, cap, mip: bool, oracle: bool) -> list[str]:
    """Engines to run after the closed form: the MIP if asked, the oracle on request."""
    names = []
    if mip:
        n_bin = len(net.validators) + len(net.services)
        if n_bin > _MIP_LIMIT:
            raise InputError(
                f"network too large for the MIP engine ({n_bin} binaries > "
                f"{_MIP_LIMIT}); no engine can decide it"
            )
        names.append("mip")
    if oracle:
        # Slashing can merge validator classes but never split them, so the
        # intact network has the most capped sets. The choice that leaves no
        # service is not scanned, so it does not count.
        choices = (s for s in _byzantine_representatives(net, cap)
                   if len(s) < len(net.services))
        for scan in (_capped_sets(net), choices):
            if len(list(islice(scan, _ORACLE_LIMIT + 1))) > _ORACLE_LIMIT:
                raise InputError(
                    f"network too large for the brute-force oracle (more than "
                    f"{_ORACLE_LIMIT} capped validator sets or Byzantine choices)"
                )
        names.append("brute-force")
    return names


def cmd_check(args) -> int:
    net = load_network(args.network)
    budget = args.budget
    if not 0 <= budget < math.inf:  # written so that NaN fails too
        raise InputError("--budget must be non-negative and finite")
    if args.weight_cap is not None and args.fraction is not None:
        raise InputError("--fraction and --weight-cap are mutually exclusive")
    if args.weight_cap is not None:
        cap = args.weight_cap
        if not 0 <= cap < math.inf:
            raise InputError("--weight-cap must be non-negative and finite")
        total = total_byzantine_weight(net)
        fraction = min(1.0, cap / total) if total > 0 else 0.0
    else:
        fraction = 0.0 if args.fraction is None else args.fraction
        if not 0 <= fraction <= 1:
            raise InputError("--fraction must lie in [0, 1]")
        cap = byzantine_weight_cap(net, fraction)

    if args.dump_mip:
        problem = mipmod.build_budget_mip(net)
        Path(args.dump_mip).write_text(
            mipmod.write_lp_format(problem), encoding="utf-8"
        )
        print(f"wrote MIP dump to {args.dump_mip}")

    try:
        witnesses = {"symmetric": _ENGINES["symmetric"](net, budget, cap)}
    except NotSymmetricError:
        witnesses = {}
    for name in _engine_names(net, cap, args.mip or not witnesses, args.oracle):
        witnesses[name] = _ENGINES[name](net, budget, cap)
    answers = {w is None for w in witnesses.values()}
    if len(answers) > 1:
        print("engine discrepancy:")
        for name, witness in witnesses.items():
            print(f"  {name}: {'robust' if witness is None else 'not robust'}")
        for name, witness in witnesses.items():
            if witness is not None:
                _print_witness(net, name, witness)
        return 2

    what = (
        "secure"
        if budget == 0 and fraction == 0
        else f"(f={_fmt(fraction)}, budget={_fmt(budget)})-robust"
    )
    engines = ", ".join(witnesses)
    if answers.pop():
        print(f"verdict: {what} (engines: {engines})")
        return 0
    print(f"verdict: NOT {what} (engines: {engines})")
    name, witness = next(iter(witnesses.items()))
    _print_witness(net, name, witness)
    return 1


def _preset_fig3(params: dict) -> list[tuple[str, exp.Table]]:
    step = params.get("degree_step", 0.1)
    thresholds = params.get("thresholds", [1 / 3, 0.5])
    out = []
    for n in params.get("sizes", [10, 11, 12]):
        table = exp.sweep_min_stake_security(
            n, n, thresholds, exp.degree_grid(n, step)
        )
        out.append((f"figure3_n{n}.csv", table))
    return out


def _fractions(n: int, last: int) -> list[float]:
    """Byzantine fractions k/n for k = 0..last, stopping at 1.

    A larger fraction admits the same Byzantine sets as 1.
    """
    return [k / n for k in range(min(last, n) + 1)]


def _preset_fig4(params: dict) -> list[tuple[str, exp.Table]]:
    n = params.get("n", 15)
    budgets = params.get("budgets", [0, 1, 2])
    step = params.get("degree_step", 0.25)
    degrees = exp.degree_grid(n, step, 1.0, params.get("degree_max", 6.0))
    out = []
    f_grid = _fractions(n, 9)
    tables = exp.sweep_min_stake_robustness(
        n, n, 1 / 3, 1.0, budgets, f_grid, degrees
    )
    for budget, table in tables.items():
        out.append((f"figure4_y_stake_budget_{budget:g}.csv", table))
    f_grid_base = _fractions(n, 10)
    tables = exp.sweep_min_stake_robustness(
        n, n, 1 / 3, 1.0, budgets, f_grid_base, degrees, base=(10.0, 1 / 3)
    )
    for budget, table in tables.items():
        out.append(
            (f"figure4_y_stake_budget_{budget:g}_base_service_10_0.33.csv", table)
        )
    return out


def _preset_fig5(params: dict) -> list[tuple[str, exp.Table]]:
    n = params.get("n", 15)
    stake = params.get("stake", 10.0)
    degrees = params.get("degrees", [1.0 + 0.25 * k for k in range(9)])
    f_grid = params.get("f_grid", _fractions(n, 12))
    template = exp.SweepTemplate(n_validators=n, n_services=n, threshold=1 / 3)
    table = exp.sweep_failure_threshold(template, stake, degrees, f_grid)
    return [("figure5.csv", table)]


def _preset_fig6(params: dict) -> list[tuple[str, exp.Table]]:
    n = params.get("n", 15)
    f_grid = params.get("f_grid", _fractions(n, 9))
    table = exp.sweep_failure_decomposition(
        n, n, 1 / 3, 1.0, 10.0, 1 / 3,
        stakes=tuple(params.get("stakes", (2.4, 5.4, 7.8))),
        degrees=tuple(params.get("degrees", (5 / 3, 45 / 37))),
        f_grid=f_grid,
    )
    return [("figure6.csv", table)]


def _preset_fig7(params: dict) -> list[tuple[str, exp.Table]]:
    budgets = params.get("budgets", [0, 1, 2])
    degrees = params.get("degrees", [1.0, 1.5, 2.0, 2.5, 3.0])
    f_values = params.get("f_values", [0.0, 1 / 3, 2 / 3])
    tables = exp.sweep_mip_vs_theory(3, 3, 1 / 3, 1.0, budgets, f_values, degrees)
    return [
        (f"figure7_budget_{budget:g}.csv", table)
        for budget, table in tables.items()
    ]


def _preset_fig8(params: dict) -> list[tuple[str, exp.Table]]:
    budgets = params.get("budgets", [0, 1, 2])
    degrees = params.get("degrees", [1.0, 1.5, 2.0, 2.5, 3.0])
    f_grid = params.get("f_grid", [0.0, 1 / 3, 1 / 2, 2 / 3])
    tables = exp.sweep_min_stake_mip(
        3, 3, 1 / 3, 1.0, budgets, f_grid, degrees, base=(10.0, 0.5)
    )
    return [
        (f"figure8_y_stake_base_service_10_0.50_loss_threshold_{budget:g}.csv", table)
        for budget, table in tables.items()
    ]


def _preset_custom(params: dict) -> list[tuple[str, exp.Table]]:
    kind = params.get("kind")
    filename = params.get("file", "custom.csv")
    if kind == "security":
        table = exp.sweep_min_stake_security(
            params["n"], params["m"], params["thresholds"],
            params.get("degrees"),
        )
        return [(filename, table)]
    if kind == "robustness":
        tables = exp.sweep_min_stake_robustness(
            params["n"], params["m"], params["threshold"],
            params.get("prize", 1.0), params["budgets"], params["f_grid"],
            params.get("degrees"),
            base=tuple(params["base"]) if params.get("base") else None,
        )
        path = Path(filename)
        return [(f"{path.stem}_budget_{b:g}{path.suffix}", t) for b, t in tables.items()]
    if kind == "failure":
        template = exp.SweepTemplate(
            n_validators=params["n"], n_services=params["m"],
            threshold=params["threshold"], prize=params.get("prize", 1.0),
        )
        table = exp.sweep_failure_threshold(
            template, params["stake"], params["degrees"], params["f_grid"]
        )
        return [(filename, table)]
    raise InputError(f"unknown custom sweep kind {kind!r}")


_PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
    "custom": _preset_custom,
}


# Preset parameters that hold a grid: a list of numbers.
_GRID_KEYS = ("sizes", "thresholds", "budgets", "degrees", "f_grid", "f_values", "stakes",
              "base")
# Preset parameters that hold one number.
_SCALAR_KEYS = ("n", "m", "stake", "threshold", "prize", "degree_step", "degree_max")
# Grids a preset reads as a fixed number of values.
_GRID_LENGTHS = {("fig6", "stakes"): 3, ("fig6", "degrees"): 2, ("custom", "base"): 2}
# Parameters a custom sweep of each kind has no default for.
_CUSTOM_REQUIRED = {
    "security": ("n", "m", "thresholds"),
    "robustness": ("n", "m", "threshold", "budgets", "f_grid"),
    "failure": ("n", "m", "threshold", "stake", "degrees", "f_grid"),
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _check_entry(entry: dict) -> None:
    """Raise InputError unless the entry names a preset and its parameters
    have the types that preset reads."""
    name = entry.get("name")
    if not isinstance(name, str) or name not in _PRESETS:
        raise InputError(f"unknown sweep preset {name!r}; choose from {sorted(_PRESETS)}")

    def fail(message: str):
        raise InputError(f"sweep {name!r}: {message}")

    for key in _GRID_KEYS:
        grid = entry.get(key)
        if grid is None:
            continue
        if not isinstance(grid, list) or not all(_is_number(v) for v in grid):
            fail(f"{key!r} must be a list of finite numbers")
        length = _GRID_LENGTHS.get((name, key))
        if length is not None and len(grid) != length:
            fail(f"{key!r} must hold {length} numbers")
    for key in _SCALAR_KEYS:
        if key in entry and not _is_number(entry[key]):
            fail(f"{key!r} must be a finite number")
    for key in ("n", "m"):
        if key in entry and not _is_count(entry[key]):
            fail(f"{key!r} must be a positive integer")
    if not all(_is_count(n) for n in entry.get("sizes", [])):
        fail("'sizes' must hold positive integers")
    if not entry.get("degree_step", 1) > 0:
        fail("'degree_step' must be positive")
    file = entry.get("file", "custom.csv")
    if not isinstance(file, str) or Path(file).name != file or file in ("", ".."):
        fail("'file' must be a file name, with no directory part")
    if name == "custom":
        for key in _CUSTOM_REQUIRED.get(entry.get("kind"), ()):
            if key not in entry:
                fail(f"a {entry['kind']} sweep needs {key!r}")


def _sweep_entries(config) -> list[dict]:
    """The config's sweep entries, after checking the shape the presets read."""
    if not isinstance(config, dict):
        raise InputError("sweep config must be a JSON object")
    sweeps = config.get("sweeps", [])
    if not isinstance(sweeps, list) or not all(isinstance(e, dict) for e in sweeps):
        raise InputError("'sweeps' must be a list of objects")
    for entry in sweeps:
        _check_entry(entry)
    return sweeps


def cmd_sweep(args) -> int:
    sweeps = _sweep_entries(load_json(args.config))
    if not sweeps:
        print("warning: no sweeps configured, nothing to do", file=sys.stderr)
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for entry in sweeps:
        for filename, table in _PRESETS[entry["name"]](entry):
            path = outdir / filename
            exp.write_csv(table, path)
            print(f"{path}: {len(table.rows)} rows")
    return 0


def cmd_incentives(args) -> int:
    net, pools = load_reward_pools(args.network)
    if args.verify and not net.validators:
        raise InputError("--verify needs at least one validator")
    allocations = equilibrium_allocations(net.stake, pools)
    equilibrium = replace(net, allocation=allocations)
    print("equilibrium allocations:")
    header = "          " + "  ".join(f"{s:>12}" for s in net.services)
    print(header)
    for v in net.validators:
        cells = "  ".join(_fmt(allocations[(v, s)]).rjust(12) for s in net.services)
        print(f"{v:>10}  {cells}")
    print("restaking degrees:")
    for v in net.validators:
        print(f"  {v}: {_fmt(restaking_degree(equilibrium, v))}")
    if args.verify:
        responses = {v: best_response(equilibrium, pools, v) for v in net.validators}
        v = max(responses, key=lambda u: responses[u][0])
        gain, deviation, attained = responses[v]
        note = "" if attained else " (supremum, not attained)"
        print(f"max best-response gain: {gain:.9f}{note}")
        cells = ", ".join(f"{s}={_fmt(x)}" for s, x in deviation.items())
        print(f"  validator {v}, best response: {cells}")
        if gain > 1e-6:
            print("warning: profile is not an equilibrium")
            return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="restaking",
        description="Security, robustness, and incentive analysis of restaking networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide security / robustness of a network file")
    check.add_argument("network", help="network description JSON file")
    check.add_argument("--budget", type=float, default=0.0,
                       help="adversary budget (default 0)")
    check.add_argument("--fraction", type=float, default=None,
                       help="Byzantine weight cap as a fraction of the total "
                            "non-base weight (default 0)")
    check.add_argument("--weight-cap", type=float, default=None,
                       help="absolute Byzantine weight cap (alternative to --fraction)")
    check.add_argument("--oracle", action="store_true",
                       help="cross-check with the exhaustive oracle (few validator classes)")
    check.add_argument("--mip", action="store_true",
                       help="force the MIP engine even for symmetric networks")
    check.add_argument("--dump-mip", metavar="FILE", default=None,
                       help="write the budget MIP in LP format for external solvers")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="run configured sweeps and write CSVs")
    sweep.add_argument("config", help="JSON file with a 'sweeps' array of presets")
    sweep.add_argument("--out", default=".", help="output directory (default '.')")
    sweep.set_defaults(func=cmd_sweep)

    inc = sub.add_parser("incentives", help="reward-scheme equilibrium for a network file")
    inc.add_argument("network", help="network JSON with 'rewards' and 'target_degree'")
    inc.add_argument("--verify", action="store_true",
                     help="compute every validator's exact best response")
    inc.set_defaults(func=cmd_incentives)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotSymmetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (mipmod.MipStatusError, mipmod.MipNodeLimitError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
