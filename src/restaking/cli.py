"""Command-line front end.

Three subcommands:

* ``check``   — decide security / (f, budget)-robustness of a network file,
                printing a witness attack when the verdict is negative.
* ``sweep``   — run the configured parameter sweeps and write CSV files.
* ``incentives`` — compute the reward-scheme equilibrium for a network file
                carrying reward pools, optionally verifying best responses.

Exit codes: 0 the network is robust, 1 it is not, 2 input, capability or
solver error (including engine disagreement, which is itself a
cross-validation feature). All numbers print with six decimals, matching
the 1e-6 solve precision. Reported safe budgets are open upper bounds: a
network robust "at budget b" withstands any budget strictly below the
failure point.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import experiments as exp
from . import mip as mipmod
from .bruteforce import best_attack
from .files import load_json, load_network, load_reward_pools
from .incentives import equilibrium_allocations, verify_best_response
from .model import (
    Attack,
    InputError,
    Network,
    apply_byzantine,
    byzantine_subsets,
    byzantine_weight_cap,
    evaluate_attack,
    restaking_degree,
    total_byzantine_weight,
)
from .symmetry import (
    NotSymmetricError,
    SearchBracketError,
    as_symmetric,
    find_beta_costly,
    to_network,
)

_ORACLE_LIMIT = 8  # exhaustive search stays tractable up to this many of each
_MIP_LIMIT = 40  # binaries in the budget program at desk scale


class _Verdict:
    def __init__(self, engine: str, robust: bool, detail: str = ""):
        self.engine = engine
        self.robust = robust
        self.detail = detail


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{float(x):.6f}"


def _describe_attack(net: Network, attack: Attack) -> list[str]:
    evaluation = evaluate_attack(net, attack)
    lines = [
        "  attacked services: " + ", ".join(sorted(evaluation.attacked_services)),
    ]
    for v in net.validators:
        used = {
            s: attack.used(v, s)
            for s in net.services
            if attack.used(v, s) > 0
        }
        if used:
            parts = ", ".join(f"{s}={_fmt(a)}" for s, a in sorted(used.items()))
            lines.append(f"  {v}: {parts} (cost {_fmt(evaluation.validator_cost[v])})")
    lines.append(
        f"  total cost {_fmt(evaluation.total_cost)}, "
        f"prize {_fmt(evaluation.total_prize)}, "
        f"margin {_fmt(evaluation.margin)}"
    )
    return lines


def _symmetric_verdict(net: Network, budget, fraction) -> _Verdict | None:
    try:
        sym = as_symmetric(net)
    except NotSymmetricError:
        return None
    violation = find_beta_costly(sym, fraction, budget)
    if violation is None:
        return _Verdict("symmetric", True)
    lines = []
    if violation.byzantine:
        lines.append("  byzantine services: " + ", ".join(violation.byzantine))
    slashed = apply_byzantine(to_network(sym), violation.byzantine)
    lines.extend(_describe_attack(slashed, violation.attack))
    return _Verdict("symmetric", False, "\n".join(lines))


def _mip_verdict(net: Network, budget, cap) -> _Verdict:
    report = mipmod.mip_check(net, budget, cap)
    if report.robust:
        return _Verdict("mip", True)
    lines = []
    if report.byzantine:
        lines.append("  byzantine services: " + ", ".join(report.byzantine))
    slashed = apply_byzantine(net, report.byzantine)
    lines.extend(_describe_attack(slashed, report.attack))
    return _Verdict("mip", False, "\n".join(lines))


def _oracle_verdict(net: Network, budget, cap) -> _Verdict:
    for subset in byzantine_subsets(net, cap):
        slashed = apply_byzantine(net, subset)
        if not slashed.services:
            continue
        margin, attack = best_attack(slashed)
        if margin >= -budget - 1e-9:
            lines = []
            if subset:
                lines.append("  byzantine services: " + ", ".join(subset))
            lines.extend(_describe_attack(slashed, attack))
            return _Verdict("brute-force", False, "\n".join(lines))
    return _Verdict("brute-force", True)


def cmd_check(args) -> int:
    net = load_network(args.network)
    budget = args.budget
    if not budget >= 0:  # written so that NaN fails too
        raise InputError("--budget must be non-negative")
    if args.weight_cap is not None and args.fraction is not None:
        raise InputError("--fraction and --weight-cap are mutually exclusive")
    if args.weight_cap is not None:
        cap = args.weight_cap
        if not cap >= 0:
            raise InputError("--weight-cap must be non-negative")
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

    verdicts: list[_Verdict] = []
    symmetric = _symmetric_verdict(net, budget, fraction)
    want_mip = args.mip or symmetric is None
    if symmetric is not None:
        verdicts.append(symmetric)
    if want_mip:
        n_bin = len(net.validators) + len(net.services)
        if n_bin > _MIP_LIMIT:
            raise InputError(
                f"network too large for the MIP engine ({n_bin} binaries > "
                f"{_MIP_LIMIT}); no engine can decide it"
            )
        verdicts.append(_mip_verdict(net, budget, cap))
    if args.oracle:
        if (
            len(net.validators) > _ORACLE_LIMIT
            or len(net.services) > _ORACLE_LIMIT
        ):
            raise InputError(
                f"network too large for the brute-force oracle "
                f"(limit {_ORACLE_LIMIT} validators/services)"
            )
        verdicts.append(_oracle_verdict(net, budget, cap))

    answers = {v.robust for v in verdicts}
    if len(answers) > 1:
        print("engine discrepancy:")
        for v in verdicts:
            print(f"  {v.engine}: {'robust' if v.robust else 'not robust'}")
        return 2

    robust = answers.pop()
    engines = ", ".join(v.engine for v in verdicts)
    what = (
        "secure"
        if budget == 0 and fraction == 0
        else f"(f={_fmt(fraction)}, budget={_fmt(budget)})-robust"
    )
    if robust:
        print(f"verdict: {what} (engines: {engines})")
        return 0
    print(f"verdict: NOT {what} (engines: {engines})")
    for v in verdicts:
        if not v.robust and v.detail:
            print(f"witness ({v.engine}):")
            print(v.detail)
            break
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


def _preset_fig4(params: dict) -> list[tuple[str, exp.Table]]:
    n = params.get("n", 15)
    budgets = params.get("budgets", [0, 1, 2])
    step = params.get("degree_step", 0.25)
    degrees = exp.degree_grid(n, step, 1.0, params.get("degree_max", 6.0))
    out = []
    f_grid = [k / n for k in range(10)]
    tables = exp.sweep_min_stake_robustness(
        n, n, 1 / 3, 1.0, budgets, f_grid, degrees
    )
    for budget, table in tables.items():
        out.append((f"figure4_y_stake_budget_{budget:g}.csv", table))
    f_grid_base = [k / n for k in range(11)]
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
    f_grid = params.get("f_grid", [k / n for k in range(13)])
    template = exp.SweepTemplate(n_validators=n, n_services=n, threshold=1 / 3)
    table = exp.sweep_failure_threshold(template, stake, degrees, f_grid)
    return [("figure5.csv", table)]


def _preset_fig6(params: dict) -> list[tuple[str, exp.Table]]:
    n = params.get("n", 15)
    f_grid = params.get("f_grid", [k / n for k in range(10)])
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
        return [
            (filename.replace(".csv", f"_budget_{b:g}.csv"), t)
            for b, t in tables.items()
        ]
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
_GRID_KEYS = ("sizes", "thresholds", "budgets", "degrees", "f_grid", "f_values", "stakes")


def _sweep_entries(config) -> list[dict]:
    """The config's sweep entries, after checking the shape the presets read."""
    if not isinstance(config, dict):
        raise InputError("sweep config must be a JSON object")
    sweeps = config.get("sweeps", [])
    if not isinstance(sweeps, list) or not all(isinstance(e, dict) for e in sweeps):
        raise InputError("'sweeps' must be a list of objects")
    for entry in sweeps:
        for key in _GRID_KEYS:
            grid = entry.get(key)
            if grid is None:
                continue
            if not isinstance(grid, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in grid
            ):
                raise InputError(
                    f"sweep {entry.get('name')!r}: {key!r} must be a list of finite numbers"
                )
    return sweeps


def cmd_sweep(args) -> int:
    sweeps = _sweep_entries(load_json(args.config))
    if not sweeps:
        print("warning: no sweeps configured, nothing to do", file=sys.stderr)
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for entry in sweeps:
        name = entry.get("name")
        if name not in _PRESETS:
            raise InputError(
                f"unknown sweep preset {name!r}; choose from {sorted(_PRESETS)}"
            )
        for filename, table in _PRESETS[name](entry):
            path = outdir / filename
            exp.write_csv(table, path)
            print(f"{path}: {len(table.rows)} rows")
    return 0


def cmd_incentives(args) -> int:
    net, pools = load_reward_pools(args.network)
    allocations = equilibrium_allocations(net.stake, pools)
    equilibrium = Network(
        validators=net.validators,
        services=net.services,
        stake=net.stake,
        allocation=allocations,
        threshold=net.threshold,
        prize=net.prize,
        base_services=net.base_services,
    )
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
        worst = max(
            verify_best_response(equilibrium, pools, v, args.verify)
            for v in net.validators
        )
        print(f"max best-response gain: {worst:.9f}")
        if worst > 1e-6:
            print("warning: profile is not an equilibrium at this resolution")
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
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
                       help="cross-check with the exhaustive oracle (small networks)")
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
    inc.add_argument("--verify", type=int, metavar="RESOLUTION", default=0,
                     help="verify best responses on a deviation grid")
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
    except (mipmod.MipStatusError, mipmod.MipNodeLimitError, SearchBracketError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
