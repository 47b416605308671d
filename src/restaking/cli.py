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
decimals, matching the 1e-6 solve precision, but for an f or budget in the
verdict that six decimals would hide, printed by ``repr``, and a zero one
with no sign. Warnings print as ``warning: <message>`` lines on stderr.
Reported safe budgets are open upper bounds: a network robust "at budget b"
withstands any budget strictly below the failure point.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import replace
from itertools import islice
from pathlib import Path

from . import experiments as exp
from . import mip as mipmod
from .bruteforce import _capped_sets, oracle_check
from .files import load_json, load_network, load_reward_pools
from .incentives import best_response, equilibrium_allocations
from .model import (
    InputError,
    Network,
    _byzantine_representatives,
    _finite,
    apply_byzantine,
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


def _fmt_shown(x) -> str:
    """:func:`_fmt` with no sign on a zero, or ``repr`` where six decimals
    would hide the value: a nonzero value that rounds to 0, or one of 1e15+."""
    text = _fmt(x if x != 0 else 0.0)
    if (x != 0 and float(text) == 0) or abs(x) >= 1e15:
        return repr(float(x))
    return text


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


#: Decision engines by name. Each returns the witness ``(byzantine services,
#: attack on the network they leave)`` of a violation, or None when the
#: network is robust against ``budget`` after any Byzantine choice of weight
#: at most ``cap``.
_ENGINES = {
    "symmetric": find_beta_costly,
    # Looked up on the module at each call, so that a wrapper installed on
    # mip.mip_check sees the checks made here.
    "mip": lambda net, budget, cap: mipmod.mip_check(net, budget, cap),
    "brute-force": oracle_check,
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
        # intact network has the most capped sets.
        for scan in (_capped_sets(net), _byzantine_representatives(net, cap)):
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
    # Signs are every engine's rule (and byzantine_weight_cap's); the flags
    # add finiteness and the upper end of a fraction.
    for flag, value in (("--budget", budget), ("--fraction", args.fraction),
                        ("--weight-cap", args.weight_cap)):
        if value is not None and not _finite(value):
            raise InputError(f"{flag} must be finite")
    if args.weight_cap is not None and args.fraction is not None:
        raise InputError("--fraction and --weight-cap are mutually exclusive")
    if args.weight_cap is not None:
        cap = args.weight_cap
        total = total_byzantine_weight(net)
        fraction = min(1.0, cap / total) if total > 0 else 0.0
    else:
        fraction = 0.0 if args.fraction is None else args.fraction
        if fraction > 1:
            raise InputError("--fraction must lie in [0, 1]")
        cap = byzantine_weight_cap(net, fraction)

    try:
        witnesses = {"symmetric": _ENGINES["symmetric"](net, budget, cap)}
    except NotSymmetricError:
        witnesses = {}
    for name in _engine_names(net, cap, args.mip or not witnesses, args.oracle):
        witnesses[name] = _ENGINES[name](net, budget, cap)
    if args.dump_mip:
        # The program in dispute: on the network that the first printed
        # witness's Byzantine services leave, or the intact one if none is printed.
        byzantine = next((w[0] for w in witnesses.values() if w is not None), ())
        text = mipmod.write_lp_format(mipmod.build_budget_mip(
            apply_byzantine(net, byzantine) if byzantine else net))
        if byzantine:
            scale, rest = text.split("\n", 1)
            text = f"{scale}\n\\ byzantine: {', '.join(byzantine)}\n{rest}"
        Path(args.dump_mip).write_text(text, encoding="utf-8")
        print(f"wrote MIP dump to {args.dump_mip}")
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
        else f"(f={_fmt_shown(fraction)}, budget={_fmt_shown(budget)})-robust"
    )
    engines = ", ".join(witnesses)
    if answers.pop():
        print(f"verdict: {what} (engines: {engines})")
        return 0
    print(f"verdict: NOT {what} (engines: {engines})")
    name, witness = next(iter(witnesses.items()))
    _print_witness(net, name, witness)
    return 1


def _fractions(n: int, last: int) -> list[float]:
    """Byzantine fractions k/n for k = 0..last, stopping at 1.

    A larger fraction admits the same Byzantine sets as 1.
    """
    return [k / n for k in range(min(last, n) + 1)]


# A sweep is a function that returns (file name, table) pairs. Its keyword
# parameters and their defaults are all that a config entry may set: the
# checks below read them from its signature.


def _preset_fig3(sizes=(10, 11, 12), thresholds=(1 / 3, 0.5), degree_step=0.1):
    return [
        (f"figure3_n{n}.csv",
         exp.sweep_min_stake_security(n, n, thresholds, exp.degree_grid(n, degree_step)))
        for n in sizes
    ]


def _preset_fig4(n=15, budgets=(0, 1, 2), degree_step=0.25, degree_max=6.0):
    degrees = exp.degree_grid(n, degree_step, degree_max)
    out = []
    for last, base, suffix in ((9, None, ""), (10, (10.0, 1 / 3), "_base_service_10_0.33")):
        tables = exp.sweep_min_stake_robustness(
            n, n, 1 / 3, 1.0, budgets, _fractions(n, last), degrees, base
        )
        out += [(f"figure4_y_stake_budget_{b:g}{suffix}.csv", t) for b, t in tables.items()]
    return out


def _preset_fig5(n=15, stake=10.0,
                 degrees=(1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0), f_grid=None):
    template = exp.SweepTemplate(n_validators=n, n_services=n, threshold=1 / 3)
    f_grid = _fractions(n, 12) if f_grid is None else f_grid
    return [("figure5.csv", exp.sweep_failure_threshold(template, stake, degrees, f_grid))]


def _preset_fig6(n=15, stakes=(2.4, 5.4, 7.8), degrees=(5 / 3, 45 / 37), f_grid=None):
    table = exp.sweep_failure_decomposition(
        n, n, 1 / 3, 1.0, 10.0, 1 / 3, stakes=tuple(stakes), degrees=tuple(degrees),
        f_grid=_fractions(n, 9) if f_grid is None else f_grid,
    )
    return [("figure6.csv", table)]


def _preset_fig7(budgets=(0, 1, 2), degrees=(1.0, 1.5, 2.0, 2.5, 3.0),
                 f_values=(0.0, 1 / 3, 2 / 3)):
    tables = exp.sweep_mip_vs_theory(3, 3, 1 / 3, 1.0, budgets, f_values, degrees)
    return [(f"figure7_budget_{b:g}.csv", t) for b, t in tables.items()]


def _preset_fig8(budgets=(0, 1, 2), degrees=(1.0, 1.5, 2.0, 2.5, 3.0),
                 f_grid=(0.0, 1 / 3, 1 / 2, 2 / 3)):
    tables = exp.sweep_min_stake_robustness(
        3, 3, 1 / 3, 1.0, budgets, f_grid, degrees, base=(10.0, 0.5))
    return [
        (f"figure8_y_stake_base_service_10_0.50_loss_threshold_{budget:g}.csv", table)
        for budget, table in tables.items()
    ]


def _custom_security(n, m, thresholds, degrees=None, file="custom.csv"):
    return [(file, exp.sweep_min_stake_security(n, m, thresholds, degrees))]


def _custom_robustness(n, m, threshold, budgets, f_grid, prize=1.0, degrees=None,
                       base=None, file="custom.csv"):
    tables = exp.sweep_min_stake_robustness(
        n, m, threshold, prize, budgets, f_grid, degrees, base
    )
    path = Path(file)
    return [(f"{path.stem}_budget_{b:g}{path.suffix}", t) for b, t in tables.items()]


def _custom_failure(n, m, threshold, stake, degrees, f_grid, prize=1.0, file="custom.csv"):
    template = exp.SweepTemplate(
        n_validators=n, n_services=m, threshold=threshold, prize=prize
    )
    return [(file, exp.sweep_failure_threshold(template, stake, degrees, f_grid))]


_PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
}
#: Sweeps of the ``custom`` preset, by ``kind``.
_CUSTOM = {
    "security": _custom_security,
    "robustness": _custom_robustness,
    "failure": _custom_failure,
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _list_of(item, length: int | None = None):
    """A check for a list of ``length`` items (any number but 0 when None)."""
    return lambda v: (isinstance(v, list) and all(map(item, v))
                      and (len(v) == length if length else len(v) > 0))


_NUMBER = (_is_number, "a finite number")
_COUNT = (_is_count, "a positive integer")
_GRID = (_list_of(_is_number), "a non-empty list of finite numbers")

#: What a sweep parameter must hold, by name: a check and what it asks for.
_KINDS = {
    **dict.fromkeys(("n", "m"), _COUNT),
    **dict.fromkeys(("stake", "threshold", "prize"), _NUMBER),
    **dict.fromkeys(("thresholds", "budgets", "degrees", "f_grid", "f_values"), _GRID),
    "sizes": (_list_of(_is_count), "a non-empty list of positive integers"),
    "degree_step": (lambda v: _is_number(v) and v > 0, "a positive number"),
    # A lower end would leave the grid from 1 empty.
    "degree_max": (lambda v: _is_number(v) and v >= 1, "a number of at least 1"),
    "stakes": (_list_of(_is_number, 3), "a list of 3 finite numbers"),
    # fig6 reads one degree for the network without a base and one with it.
    ("fig6", "degrees"): (_list_of(_is_number, 2), "a list of 2 finite numbers"),
    "base": (_list_of(_is_number, 2), "a list of 2 finite numbers"),
    "file": (lambda v: isinstance(v, str) and Path(v).name == v and v not in ("", ".."),
             "a file name, with no directory part"),
}


def _check_entry(entry: dict) -> Callable[[], list[tuple[str, exp.Table]]]:
    """The call that runs a sweep entry: its preset's function, or its custom
    kind's, on the entry's other keys. Raise InputError for an unknown preset
    or kind, a key the function does not take, a required one missing, or a
    value not of its name's kind; the call names the sweep in any InputError
    raised while it runs."""
    params = dict(entry)
    name = params.pop("name", None)
    if name == "custom":
        kind = params.pop("kind", None)
        if not isinstance(kind, str) or kind not in _CUSTOM:
            raise InputError(
                f"unknown custom sweep kind {kind!r}; choose from {list(_CUSTOM)}"
            )
        sweep, label = _CUSTOM[kind], f"custom {kind}"
    elif isinstance(name, str) and name in _PRESETS:
        sweep, label = _PRESETS[name], name
    else:
        raise InputError(
            f"unknown sweep preset {name!r}; choose from {[*_PRESETS, 'custom']}"
        )

    def fail(message: str):
        raise InputError(f"sweep {label!r}: {message}")

    signature = inspect.signature(sweep).parameters
    for key, value in params.items():
        if key not in signature:
            fail(f"unknown parameter {key!r}; it takes {list(signature)}")
        check, what = _KINDS.get((name, key)) or _KINDS[key]
        if not check(value):
            fail(f"{key!r} must be {what}")
    for key, parameter in signature.items():
        if parameter.default is parameter.empty and key not in params:
            fail(f"missing parameter {key!r}")

    def run():
        try:
            return sweep(**params)
        except InputError as exc:
            fail(str(exc))
    return run


def _sweep_entries(config) -> list[Callable[[], list[tuple[str, exp.Table]]]]:
    """The calls that run the config's sweep entries, all checked before any runs."""
    if not isinstance(config, dict):
        raise InputError("sweep config must be a JSON object")
    sweeps = config.get("sweeps", [])
    if not isinstance(sweeps, list) or not all(isinstance(e, dict) for e in sweeps):
        raise InputError("'sweeps' must be a list of objects")
    return [_check_entry(entry) for entry in sweeps]


def cmd_sweep(args) -> int:
    sweeps = _sweep_entries(load_json(args.config))
    if not sweeps:
        print("warning: no sweeps configured, nothing to do", file=sys.stderr)
        return 0
    # Every entry runs before any file is written, so a failing one leaves none.
    tables = [pair for sweep in sweeps for pair in sweep()]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, table in tables:
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
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
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
