"""Parameter sweeps producing the CSV tables behind the robustness figures.

Each sweep emits a table whose first column is the x-axis (restaking_degree
or robustness_threshold) and whose remaining columns are named
min_stake_threshold_<label> or min_budget_<label>, so reproduced figures
diff cleanly against expectations.

A minimum-stake cell takes ``restaking check``'s engine: the closed form on a
symmetric template, else :func:`min_stake_mip` (:func:`_min_stake`); only
:func:`sweep_mip_vs_theory`, which compares the two, names both.

A cell whose configuration is unsatisfiable at any stake (slashing can wipe
the entire stake regardless of its size) is emitted as nan.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from . import mip as mipmod
from .model import (
    Attack,
    InputError,
    Network,
    _check_nonnegative,
    _finite,
    _score,
    attackable,
    byzantine_choices,
    byzantine_weight_cap,
)
from .symmetry import NotSymmetricError, SweepTemplate, _stake_ratio, max_budget, min_stake_for

__all__ = [
    "Table",
    "write_csv",
    "sweep_min_stake_security",
    "sweep_min_stake_robustness",
    "sweep_failure_threshold",
    "sweep_failure_decomposition",
    "sweep_mip_vs_theory",
    "degree_grid",
    "SweepTemplate",
    "min_stake_mip",
]

AGREEMENT_TOLERANCE = 1e-5


@dataclass
class Table:
    columns: list[str]
    rows: list[list]

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (int, float)):
        return f"{value:.6f}"
    return str(value)


def write_csv(table: Table, path: str | Path) -> None:
    """UTF-8 comma-separated output with a header row and '.' decimals."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(v) for v in row])


def _rows(fn: Callable, xs: Sequence, ys: Sequence, task: Callable) -> list[list]:
    """One row ``[x, fn(*task(x, y)) for y in ys]`` per x."""
    return [[x] + [fn(*task(x, y)) for y in ys] for x in xs]


#: The most degrees a grid may hold; a finer or longer one is refused before
#: it is built, as it would exhaust memory before its first cell ran.
_MAX_DEGREES = 10**5


def degree_grid(n_services: int, step: float = 0.1, hi: float | None = None) -> list[float]:
    """Degrees 1, 1 + step, ... up to hi (n_services when None), rounded to
    10 decimals; InputError for a step that is not positive and finite, an
    end that is not finite or lies above n_services, where every cell would
    fail, or more than _MAX_DEGREES degrees."""
    hi = n_services if hi is None else hi
    if not (_finite(step) and step > 0 and _finite(hi)):
        raise InputError("degree grid needs a positive finite step and a finite end")
    if hi > n_services:
        raise InputError("degree must lie in [0, n_services] for the uniform allocation")
    if (hi - 1) / step >= _MAX_DEGREES:
        raise InputError(f"degree grid would hold more than {_MAX_DEGREES} degrees")
    grid = []
    k = 0
    while True:
        d = 1 + k * step
        if d > hi + 1e-12:
            break
        grid.append(round(d, 10))
        k += 1
    return grid


def _degrees(grid: Sequence[float] | None, n_services: int) -> list[float]:
    """The given degrees, or the default grid from 1 to n_services when None."""
    return degree_grid(n_services) if grid is None else list(grid)


def _min_stake_tables(cell: Callable, template: SweepTemplate, budgets: Sequence[float],
                      f_grid: Sequence[float], degrees: Sequence[float],
                      suffix: str = "") -> dict[float, Table]:
    """One table per budget of ``cell(template, degree, budget, f)``: a
    restaking_degree column, then one min_stake_threshold_<f><suffix> per f."""
    columns = ["restaking_degree"] + [
        f"min_stake_threshold_{f:.2f}{suffix}" for f in f_grid
    ]
    return {
        budget: Table(columns, _rows(cell, degrees, f_grid,
                                     lambda d, f: (template, d, budget, f)))
        for budget in budgets
    }


def sweep_min_stake_security(
    n: int,
    m: int,
    thresholds: Sequence[float],
    degree_grid: Sequence[float] | None = None,
) -> Table:
    """Minimum stake for security per restaking degree, one column per threshold."""
    degrees = _degrees(degree_grid, m)
    columns = ["restaking_degree"] + [
        f"min_stake_threshold_{theta:.2f}" for theta in thresholds
    ]
    rows = _rows(min_stake_for, degrees, thresholds, lambda d, theta: (
        SweepTemplate(n_validators=n, n_services=m, threshold=theta), d, 0, 0))
    return Table(columns=columns, rows=rows)


def sweep_min_stake_robustness(
    n: int,
    m: int,
    threshold: float,
    prize: float,
    budgets: Sequence[float],
    f_grid: Sequence[float],
    degree_grid: Sequence[float] | None = None,
    base: tuple[float, float] | None = None,
) -> dict[float, Table]:
    """Minimum stake for (f, budget)-robustness; one table per budget.

    The base variant adds a service (prize, threshold) to which every
    validator allocates their entire stake. Each cell is :func:`_min_stake`:
    the closed form, or the MIPs for a base whose threshold differs.
    """
    base_prize, base_threshold = base or (None, None)
    template = SweepTemplate(
        n_validators=n, n_services=m, threshold=threshold, prize=prize,
        base_prize=base_prize, base_threshold=base_threshold,
    )
    return _min_stake_tables(_min_stake, template, budgets, f_grid, _degrees(degree_grid, m))


def _budget_cell(template: SweepTemplate, stake, degree, f) -> float:
    """max_budget at the absolute cap of Byzantine fraction f."""
    net = template.build_network(stake, degree)
    return max_budget(net, weight_cap=byzantine_weight_cap(net, f))


def sweep_failure_threshold(
    template: SweepTemplate,
    stake: float,
    degrees: Sequence[float],
    f_grid: Sequence[float],
) -> Table:
    """Maximum tolerable budget per Byzantine fraction, one column per degree.

    The result is a left-continuous piecewise-constant step function of f:
    it only changes where the cap admits one more Byzantine service.
    """
    columns = ["robustness_threshold"] + [f"min_budget_{d:.2f}" for d in degrees]
    rows = _rows(_budget_cell, f_grid, degrees, lambda f, d: (template, stake, d, f))
    return Table(columns=columns, rows=rows)


def sweep_failure_decomposition(
    n: int,
    m: int,
    threshold: float,
    prize: float,
    base_prize: float,
    base_threshold: float,
    stakes: tuple[float, float, float],
    degrees: tuple[float, float],
    f_grid: Sequence[float],
) -> Table:
    """Failure thresholds for base-only, no-base, and combined networks.

    stakes = (base-only, no-base, combined); degrees = (no-base degree,
    combined degree). The base service alone is one fully-allocated service.
    """
    base_only = SweepTemplate(
        n_validators=n, n_services=1, threshold=base_threshold, prize=base_prize
    )
    no_base = SweepTemplate(n_validators=n, n_services=m, threshold=threshold,
                            prize=prize)
    combined = SweepTemplate(
        n_validators=n, n_services=m, threshold=threshold, prize=prize,
        base_prize=base_prize, base_threshold=base_threshold,
    )
    configs = [
        (base_only, stakes[0], 1.0),
        (no_base, stakes[1], degrees[0]),
        (combined, stakes[2], degrees[1]),
    ]
    columns = [
        "robustness_threshold",
        "min_budget_base_only",
        "min_budget_no_base",
        "min_budget_total",
    ]
    rows = _rows(_budget_cell, f_grid, configs, lambda f, config: (*config, f))
    return Table(columns=columns, rows=rows)


def _cost_ratio(net: Network, attack: Attack, budget) -> float:
    """:func:`restaking.symmetry._stake_ratio` of an attack on a stake-1 network:
    its full allocation or one ``capped_attack`` built on it, so it fits."""
    evaluation = _score(net, attack)
    return _stake_ratio(evaluation.total_prize, budget, evaluation.total_cost)


def min_stake_mip(
    template: SweepTemplate,
    degree: float,
    budget: float,
    f: float,
) -> float:
    """Minimum stake for (f, budget)-robustness decided by the MIPs.

    Template stakes, allocations and slashing all scale with the stake, so an
    attack costing g at stake 1 costs stake * g, and the minimum stake is the
    largest (prize + budget) / g over admissible Byzantine choices (one per
    service-class multiset) and attacks. Dinkelbach iteration finds it with a
    few budget MIPs per choice on the slashed stake-1 network, prizes divided
    by the stake. The result is the exact infimum: attackable there (ties go
    to the attacker), robust above; nan when some choice leaves an attack
    that costs nothing.
    """
    _check_nonnegative("budget", budget)
    unit = template.build_network(1.0, degree)
    cap = byzantine_weight_cap(unit, f)
    stake = 0.0
    for _, slashed in byzantine_choices(unit, cap):
        # The all-out attack's ratio is a lower bound on this choice's optimum.
        everything = Attack(stake_used=slashed.allocation)
        stake = max(stake, _cost_ratio(slashed, everything, budget))
        while math.isfinite(stake):
            prize = {s: p / stake for s, p in slashed.prize.items()}
            profit, attack = mipmod.max_attack_profit(slashed._with_prizes(prize))
            if not attackable(profit * stake, budget):
                break
            ratio = _cost_ratio(slashed, attack, budget)
            if ratio <= stake * (1 + 1e-12):  # slack for rounding in the ratio
                break
            stake = ratio
        if math.isinf(stake):
            return math.nan
    return stake


def _min_stake(template: SweepTemplate, degree, budget, f) -> float:
    """min_stake_for, or min_stake_mip on a template the closed form refuses."""
    try:
        return min_stake_for(template, degree, budget, f)
    except NotSymmetricError:
        return min_stake_mip(template, degree, budget, f)


def sweep_mip_vs_theory(
    n: int,
    m: int,
    threshold: float,
    prize: float,
    budgets: Sequence[float],
    f_values: Sequence[float],
    degree_grid: Sequence[float],
) -> dict[float, Table]:
    """Side-by-side MIP and closed-form minimum stakes with agreement flags.

    One table per budget; the final column records whether every (f) pair
    agreed within 1e-5 on that row.
    """
    template = SweepTemplate(n_validators=n, n_services=m, threshold=threshold,
                             prize=prize)
    with_milp = _min_stake_tables(min_stake_mip, template, budgets, f_values,
                                  degree_grid, "_with_milp")
    without_milp = _min_stake_tables(min_stake_for, template, budgets, f_values,
                                     degree_grid, "_without_milp")
    result = {}
    for budget, mip_table in with_milp.items():
        theory_table = without_milp[budget]
        rows = []
        for (d, *mips), (_, *theos) in zip(mip_table.rows, theory_table.rows):
            agree = all(
                (math.isnan(a) and math.isnan(b)) or abs(a - b) <= AGREEMENT_TOLERANCE
                for a, b in zip(mips, theos)
            )
            rows.append([d] + mips + theos + [agree])
        columns = mip_table.columns + theory_table.columns[1:] + ["agree"]
        result[budget] = Table(columns=columns, rows=rows)
    return result
