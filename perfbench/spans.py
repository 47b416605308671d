"""Spans around calls into the package's layers, and the per-layer metrics.

The tracer replaces public functions at the module attribute their caller
looks up (``restaking.mip.solve_lp`` is the LP as the MIP calls it), so no
source file changes. Every call made while the tracer is active becomes a
span: name, start, end, parent span and op id, kept in memory and written out
once the run ends. A layer's self time is the duration of its spans minus the
time covered by their child spans, the tracer's own work around each child
included (sizing an LP, recording the span), so that this work lands in no
layer's self time. A wrapper whose target no longer exists is
skipped and listed as absent; its counters then read zero.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path

# (module, attribute, layer). The module is the call site, not the definer.
TARGETS = [
    ("experiments", "sweep_min_stake_robustness", "experiments"),
    ("experiments", "sweep_failure_threshold", "experiments"),
    ("experiments", "min_stake_mip", "experiments"),
    ("experiments", "max_budget", "symmetry"),
    ("symmetry", "is_f_beta_robust", "symmetry"),
    ("symmetry", "is_beta_robust", "symmetry"),
    ("cli", "main", "cli"),
    ("cli", "load_network", "files"),
    ("cli", "apply_byzantine", "model"),
    ("cli", "best_attack", "bruteforce"),
    ("mip", "mip_check", "mip"),
    ("mip", "build_budget_mip", "mip"),
    ("mip", "solve_mip", "mip"),
    ("mip", "apply_byzantine", "model"),
    ("mip", "solve_lp", "lp"),
    ("bruteforce", "min_cost_attack", "bruteforce"),
    ("bruteforce", "solve_lp", "lp"),
]
# Generators are counted per item yielded, not spanned.
COUNTED = [("mip", "byzantine_subsets", "mip.subsets_yielded")]

# name -> (unit, better); the order is the order printed.
PER_LAYER = {
    "lp.solves": ("count", "lower"),
    "lp.self_s": ("s", "lower"),
    "lp.us_per_solve": ("us", "lower"),
    "lp.rows_mean": ("rows", "lower"),
    "lp.cols_mean": ("cols", "lower"),
    "lp.tableau_kb_mean": ("KiB", "lower"),
    "lp.nonoptimal": ("count", "lower"),
    "lp.op_share": ("ratio", "lower"),
    "mip.checks": ("count", "lower"),
    "mip.subsets_yielded": ("count", "lower"),
    "mip.subsets_solved": ("count", "lower"),
    "mip.dedup_ratio": ("ratio", "lower"),
    "mip.solves": ("count", "lower"),
    "mip.lps_per_solve": ("count", "lower"),
    "mip.build_s": ("s", "lower"),
    "mip.self_s": ("s", "lower"),
    "experiments.cells": ("count", "higher"),
    "experiments.probes_per_cell": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "symmetry.probes": ("count", "lower"),
    "symmetry.byz_choices": ("count", "lower"),
    "symmetry.us_per_probe": ("us", "lower"),
    "symmetry.self_s": ("s", "lower"),
    "bruteforce.targets": ("count", "lower"),
    "bruteforce.lps_per_target": ("count", "lower"),
    "bruteforce.self_s": ("s", "lower"),
    "model.apply_byzantine_calls": ("count", "lower"),
    "model.apply_byzantine_s": ("s", "lower"),
    "files.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def lp_size(problem) -> tuple[int, int, float]:
    """Rows, structural columns and tableau KiB of the dense simplex.

    As the kernel lays it out: an equality is two rows, each finite upper
    bound one more row, and every row whose normalised sense is >= carries a
    phase-1 artificial column besides its slack.
    """
    n = len(problem.objective)
    bounds = problem.bounds or [(0.0, None)] * n
    lows = [(i, lo) for i, (lo, _) in enumerate(bounds) if lo]
    rows = artificials = 0
    for coeffs, rel, rhs in problem.constraints:
        shifted = rhs - sum(coeffs[i] * lo for i, lo in lows)
        if rel == "==":
            rows += 2
            artificials += 1  # exactly one of the <= / >= pair
        else:
            rows += 1
            artificials += (shifted >= 0) if rel == ">=" else (shifted < 0)
    rows += sum(1 for _, hi in bounds if hi is not None)
    cells = (rows + 1) * (n + rows + artificials + 1)
    return rows, n, cells * 8 / 1024


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.layers: list[str] = []
        # (name index, parent span, op, start, end, self seconds, extra)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._installed: list[tuple] = []

    def install(self, pkg) -> None:
        for module_name, attr, layer in TARGETS:
            module = getattr(pkg, module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.names.append(f"{layer}:{module_name}.{attr}")
            self.layers.append(layer)
            is_lp = layer == "lp"
            self._patch(module, attr, self._span(target, len(self.names) - 1, is_lp))
        for module_name, attr, counter in COUNTED:
            module = getattr(pkg, module_name)
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._count(target, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _patch(self, module, attr, wrapper) -> None:
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, target, name_idx: int, is_lp: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(target)
        def wrapper(*args, **kwargs):
            if not self.active:
                return target(*args, **kwargs)
            entered = clock()
            extra = lp_size(args[0]) if is_lp else None
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if is_lp:
                    extra = extra + (getattr(result, "status", None) == "optimal",)
                spans[idx] = (name_idx, parent, self.op, start, end,
                              end - start - frame[1], extra)
                if stack:
                    stack[-1][1] += clock() - entered

        return wrapper

    def _count(self, target, counter: str):
        @wraps(target)
        def wrapper(*args, **kwargs):
            for item in target(*args, **kwargs):
                if self.active:
                    self.counters[counter] += 1
                yield item

        return wrapper

    def metrics(self, op_seconds: float, ops: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics of every span recorded."""
        names, layers, spans = self.names, self.layers, self.spans
        count: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_by_layer: defaultdict = defaultdict(float)
        under: Counter = Counter()  # (child name, parent name) pairs
        top_symmetry = 0
        top_symmetry_s = 0.0
        lp_rows = lp_cols = lp_kb = 0.0
        lp_nonoptimal = 0
        for name_idx, parent, _op, start, end, self_s, extra in spans:
            name = names[name_idx]
            layer = layers[name_idx]
            count[name] += 1
            total[name] += end - start
            self_by_layer[layer] += self_s
            parent_name = names[spans[parent][0]] if parent >= 0 else None
            under[(name, parent_name)] += 1
            if layer == "symmetry" and (parent < 0 or layers[spans[parent][0]] != "symmetry"):
                top_symmetry += 1
                top_symmetry_s += end - start
            if extra is not None:
                rows, cols, kb, optimal = extra
                lp_rows += rows
                lp_cols += cols
                lp_kb += kb
                lp_nonoptimal += not optimal

        def named(suffix: str) -> list[str]:
            return [n for n in names if n.endswith(suffix)]

        def n_of(*suffixes: str) -> int:
            return sum(count[n] for s in suffixes for n in named(s))

        def n_under(child: str, parent: str) -> int:
            return sum(under[(c, p)] for c in named(child) for p in named(parent))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        lp_solves = n_of(".solve_lp")
        mip_solves = n_of("mip.solve_mip")
        targets = n_of("bruteforce.min_cost_attack")
        cells = n_of("experiments.sweep_min_stake_robustness",
                     "experiments.sweep_failure_threshold",
                     "experiments.min_stake_mip")
        mip_checks = n_of("mip.mip_check")
        yielded = self.counters["mip.subsets_yielded"]
        solved = n_under("mip.build_budget_mip", "mip.mip_check")
        values = {
            "lp.solves": lp_solves,
            "lp.self_s": self_by_layer["lp"],
            "lp.us_per_solve": 1e6 * ratio(sum(total[n] for n in named(".solve_lp")), lp_solves),
            "lp.rows_mean": ratio(lp_rows, lp_solves),
            "lp.cols_mean": ratio(lp_cols, lp_solves),
            "lp.tableau_kb_mean": ratio(lp_kb, lp_solves),
            "lp.nonoptimal": lp_nonoptimal,
            "lp.op_share": ratio(self_by_layer["lp"], op_seconds),
            "mip.checks": mip_checks,
            "mip.subsets_yielded": yielded,
            "mip.subsets_solved": solved,
            "mip.dedup_ratio": ratio(solved, yielded),
            "mip.solves": mip_solves,
            "mip.lps_per_solve": ratio(n_under("mip.solve_lp", "mip.solve_mip"), mip_solves),
            "mip.build_s": sum(total[n] for n in named("mip.build_budget_mip")),
            "mip.self_s": self_by_layer["mip"],
            "experiments.cells": cells,
            "experiments.probes_per_cell": ratio(
                n_under("mip.mip_check", "experiments.min_stake_mip") + top_symmetry, cells),
            "experiments.self_s": self_by_layer["experiments"],
            "symmetry.probes": top_symmetry,
            "symmetry.byz_choices": n_under("symmetry.is_beta_robust",
                                            "symmetry.is_f_beta_robust"),
            "symmetry.us_per_probe": 1e6 * ratio(top_symmetry_s, top_symmetry),
            "symmetry.self_s": self_by_layer["symmetry"],
            "bruteforce.targets": targets,
            "bruteforce.lps_per_target": ratio(
                n_under("bruteforce.solve_lp", "bruteforce.min_cost_attack"), targets),
            "bruteforce.self_s": self_by_layer["bruteforce"],
            "model.apply_byzantine_calls": n_of(".apply_byzantine"),
            "model.apply_byzantine_s": sum(total[n] for n in named(".apply_byzantine")),
            "files.load_s": sum(total[n] for n in named("cli.load_network")),
            "cli.self_s": self_by_layer["cli"],
            "trace.ops": ops,
            "trace.overhead": overhead,
        }
        return values

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, op, self seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name_idx, parent, op, start, end, self_s, _extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": self.names[name_idx],
                                     "start": start, "end": end, "parent": parent,
                                     "op": op, "self": self_s}) + "\n")
