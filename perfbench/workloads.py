"""The three benchmark workloads: their op universes, how one op runs, and how
its output is checked.

An op is one sweep cell or one ``restaking check`` invocation. Each workload
defines a finite universe of ops; every op carries a stable id under which
``reference/<workload>.json`` stores the op's outcome at the commit the
reference was made from, and the time the op took then. A run draws its op sequence from the
universe with the seed (see ``Workload.schedule``), so the program only ever
sees the generated grids and files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Tolerance for closed-form cells against their stored references.
CLOSED_FORM_TOLERANCE = 1e-6
#: Fallback for ``experiments.AGREEMENT_TOLERANCE`` should it move.
AGREEMENT_TOLERANCE = 1e-5
#: Stakes probed around a fig8 cell by the oracle: robust at value + ABOVE,
#: attackable at value - BELOW. The window holds both the bisection's upper
#: bracket and an exact infimum.
ORACLE_ABOVE = 1e-6
ORACLE_BELOW = 1e-5
#: Stake at which an unsatisfiable (nan) fig8 cell must still be attackable.
ORACLE_LARGE_STAKE = 1e6

CHECK_BUDGETS = (0, 1)
CHECK_FRACTIONS = (0.0, 0.2, 0.4)
ORACLE_MAX_SIZE = 4


@dataclass
class Op:
    id: str
    params: dict
    ref: dict = field(default_factory=dict)  # {"outcome": ..., "ms": ...}


@dataclass
class Outcome:
    value: object = None
    error: str | None = None  # exception type name when the op raised


class Workload:
    """One workload; subclasses fill in the universe, run and check."""

    name = ""
    why = ""
    #: Strata hold at most ``stratum_size`` ops whose reference times lie
    #: within a factor ``stratum_spread``; see ``strata``.
    stratum_size: int
    stratum_spread: float

    def __init__(self, pkg):
        self.pkg = pkg  # namespace holding the imported restaking modules

    # -- inputs -----------------------------------------------------------
    def universe(self) -> list[Op]:
        raise NotImplementedError

    def prepare(self, ops: list[Op], workdir: Path) -> None:
        """Write any input files the ops read; called inside set-up."""

    # -- ops --------------------------------------------------------------
    def run(self, op: Op):
        raise NotImplementedError

    def execute(self, op: Op) -> Outcome:
        try:
            return Outcome(value=self.run(op))
        except Exception as exc:  # an op that raises is a failed op
            return Outcome(error=type(exc).__name__)

    def check(self, op: Op, outcome: Outcome) -> bool:
        raise NotImplementedError

    def reference_outcome(self, outcome: Outcome):
        """The JSON form stored as an op's reference outcome."""
        return {"error": outcome.error} if outcome.error else outcome.value

    def strata(self, ops: list[Op]) -> list[list[Op]]:
        """Group ops of one reference outcome class and similar reference cost.

        Within a class, ops sorted by their reference time are cut into runs
        of at most ``stratum_size`` whose dearest op costs at most
        ``stratum_spread`` times the cheapest. Strata come in a fixed order
        that interleaves cheap and dear ones (golden-ratio steps over the
        cost rank), so any prefix of a round has about the round's mix.
        """
        by_class: dict[str, list[Op]] = {}
        for op in ops:
            by_class.setdefault(_outcome_class(op.ref["outcome"]), []).append(op)
        groups: list[list[Op]] = []
        for key in sorted(by_class):
            group: list[Op] = []
            for op in sorted(by_class[key], key=lambda op: (op.ref["ms"], op.id)):
                if group and (len(group) >= self.stratum_size
                              or op.ref["ms"] > self.stratum_spread * group[0].ref["ms"]):
                    groups.append(group)
                    group = []
                group.append(op)
            groups.append(group)
        groups.sort(key=lambda g: (sum(op.ref["ms"] for op in g) / len(g), g[0].id))
        order = sorted(range(len(groups)), key=lambda rank: ((rank * _GOLDEN) % 1.0, rank))
        return [groups[rank] for rank in order]

    def schedule(self, ops: list[Op], seed: int) -> Iterator[Op]:
        """Endless seeded op sequence made of rounds.

        A round takes one op from every stratum, in the strata's fixed order;
        each stratum hands out its members in a seeded order and then starts
        over. The seed thus picks which ops run, and never the mix of costs
        and outcomes they have.
        """
        rng = random.Random(seed)
        groups = [rng.sample(group, len(group)) for group in self.strata(ops)]
        k = 0
        while True:
            for group in groups:
                yield group[k % len(group)]
            k += 1


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def attach_reference(ops: list[Op], reference: dict) -> list[Op]:
    table = reference["ops"]
    missing = [op.id for op in ops if op.id not in table]
    if missing:
        raise KeyError(f"no reference for {len(missing)} ops, e.g. {missing[0]}")
    for op in ops:
        op.ref = table[op.id]
    return ops


_GOLDEN = (5 ** 0.5 - 1) / 2


def _outcome_class(ref_outcome) -> str:
    if isinstance(ref_outcome, float) and math.isnan(ref_outcome):
        return "nan"
    return "value" if isinstance(ref_outcome, float) else f"code{ref_outcome}"


# ---------------------------------------------------------------------------
# sweep-closed-form
# ---------------------------------------------------------------------------

_N = 15
_THETA = 1 / 3


def _same(a: float, b: float, tol: float) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    if isinstance(b, float) and math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


class SweepClosedForm(Workload):
    name = "sweep-closed-form"
    why = ("fig4 minimum-stake and fig5/fig6 max-budget cells at n = m = 15: "
           "all closed form, zero LPs; the no-change control for lp/mip work")
    stratum_size = 20
    stratum_spread = 1.5

    def __init__(self, pkg):
        super().__init__(pkg)
        exp = pkg.experiments
        self.base = (10.0, _THETA)
        self.fig5 = exp.SweepTemplate(n_validators=_N, n_services=_N, threshold=_THETA)
        # fig6: base service alone, no base, and combined; (template, stake, degree)
        self.fig6 = {
            "base_only": (exp.SweepTemplate(n_validators=_N, n_services=1,
                                            threshold=_THETA, prize=10.0), 2.4, 1.0),
            "no_base": (exp.SweepTemplate(n_validators=_N, n_services=_N,
                                          threshold=_THETA, prize=1.0), 5.4, 5 / 3),
            "combined": (exp.SweepTemplate(n_validators=_N, n_services=_N,
                                           threshold=_THETA, prize=1.0,
                                           base_prize=10.0, base_threshold=_THETA),
                         7.8, 45 / 37),
        }

    def universe(self) -> list[Op]:
        ops = []
        degrees = [1.0 + 0.25 * i for i in range(21)]
        for kind, n_f in (("fig4", 10), ("fig4b", 11)):
            for b in (0, 1, 2):
                for k in range(n_f):
                    for d in degrees:
                        ops.append(Op(f"{kind}:b{b}:f{k}/15:d{d:g}",
                                      {"kind": kind, "b": b, "f": k / _N, "d": d}))
        for k in range(13):
            for d in degrees[:9]:
                ops.append(Op(f"fig5:f{k}/15:d{d:g}", {"kind": "fig5", "f": k / _N, "d": d}))
        for config in self.fig6:
            for k in range(10):
                ops.append(Op(f"fig6:{config}:f{k}/15",
                              {"kind": "fig6", "config": config, "f": k / _N}))
        return ops

    def run(self, op: Op):
        exp = self.pkg.experiments
        p = op.params
        if p["kind"] in ("fig4", "fig4b"):
            base = self.base if p["kind"] == "fig4b" else None
            tables = exp.sweep_min_stake_robustness(
                _N, _N, _THETA, 1.0, [p["b"]], [p["f"]], [p["d"]], base=base)
            return tables[p["b"]].rows[0][1]
        if p["kind"] == "fig5":
            return exp.sweep_failure_threshold(self.fig5, 10.0, [p["d"]], [p["f"]]).rows[0][1]
        template, stake, degree = self.fig6[p["config"]]
        return exp.sweep_failure_threshold(template, stake, [degree], [p["f"]]).rows[0][1]

    def check(self, op: Op, outcome: Outcome) -> bool:
        ref = op.ref["outcome"]
        if outcome.error or isinstance(ref, dict):
            return False
        return _same(float(outcome.value), float(ref), CLOSED_FORM_TOLERANCE)


# ---------------------------------------------------------------------------
# sweep-mip
# ---------------------------------------------------------------------------

class SweepMip(Workload):
    name = "sweep-mip"
    why = ("fig7 (3x3) and fig8 (3x4, asymmetric base) cells, less the 18 that raise "
           "TypeError, one min_stake_mip each: ~28 probes of small budget MIPs, so LP "
           "per-solve overhead")
    stratum_size = 5
    stratum_spread = 1.2

    def __init__(self, pkg):
        super().__init__(pkg)
        exp = pkg.experiments
        self.templates = {
            "fig7": exp.SweepTemplate(n_validators=3, n_services=3, threshold=_THETA, prize=1.0),
            "fig8": exp.SweepTemplate(n_validators=3, n_services=3, threshold=_THETA, prize=1.0,
                                      base_prize=10.0, base_threshold=0.5),
        }
        # Raised by the bracket search for an unsatisfiable cell, which the
        # sweeps print as nan; absent once the search is replaced.
        self.unsatisfiable = getattr(pkg.symmetry, "SearchBracketError", None)
        self._verified: dict[tuple, bool] = {}

    def universe(self) -> list[Op]:
        ops = []
        f_values = {"fig7": (("0", 0.0), ("1/3", 1 / 3), ("2/3", 2 / 3)),
                    "fig8": (("0", 0.0), ("1/3", 1 / 3), ("1/2", 1 / 2), ("2/3", 2 / 3))}
        for kind, fs in f_values.items():
            for b in (0, 1, 2):
                for d in (1.0, 1.5, 2.0, 2.5, 3.0):
                    for label, f in fs:
                        ops.append(Op(f"{kind}:b{b}:f{label}:d{d:g}",
                                      {"kind": kind, "b": b, "f": f, "d": d}))
        return ops

    def run(self, op: Op):
        p = op.params
        template = self.templates[p["kind"]]
        try:
            return self.pkg.experiments.min_stake_mip(template, p["d"], p["b"], p["f"])
        except Exception as exc:
            if self.unsatisfiable is not None and isinstance(exc, self.unsatisfiable):
                return math.nan
            raise

    def check(self, op: Op, outcome: Outcome) -> bool:
        if outcome.error:
            return False
        key = (op.id, repr(outcome.value))
        if key not in self._verified:
            check = self._check_fig7 if op.params["kind"] == "fig7" else self._check_fig8
            self._verified[key] = check(op.params, float(outcome.value))
        return self._verified[key]

    def _check_fig7(self, p: dict, value: float) -> bool:
        """Agreement with the closed form, as the fig7 table's flag defines it."""
        exp = self.pkg.experiments
        tol = getattr(exp, "AGREEMENT_TOLERANCE", AGREEMENT_TOLERANCE)
        tables = exp.sweep_min_stake_robustness(3, 3, _THETA, 1.0, [p["b"]], [p["f"]], [p["d"]])
        return _same(value, float(tables[p["b"]].rows[0][1]), tol)

    def _check_fig8(self, p: dict, value: float) -> bool:
        """The exhaustive oracle brackets the returned stake."""
        template = self.templates["fig8"]
        if math.isnan(value):
            return not self._oracle_robust(
                template.build_network(ORACLE_LARGE_STAKE, p["d"]), p["b"], p["f"])
        if value - ORACLE_BELOW <= 0:
            return False
        return (self._oracle_robust(template.build_network(value + ORACLE_ABOVE, p["d"]),
                                    p["b"], p["f"])
                and not self._oracle_robust(
                    template.build_network(value - ORACLE_BELOW, p["d"]), p["b"], p["f"]))

    def _oracle_robust(self, net, budget, fraction) -> bool:
        model, bruteforce = self.pkg.model, self.pkg.bruteforce
        cap = model.byzantine_weight_cap(net, fraction)
        for subset in model.byzantine_subsets(net, cap):
            slashed = model.apply_byzantine(net, subset)
            if not slashed.services:
                continue
            margin, _ = bruteforce.best_attack(slashed)
            if margin >= -budget - 1e-9:  # ties go to the attacker
                return False
        return True


# ---------------------------------------------------------------------------
# check-corpus
# ---------------------------------------------------------------------------

def make_network(rng: random.Random, prize_scale: float) -> dict:
    """One asymmetric network description, as the JSON the CLI reads.

    4-6 validators x 4-6 services; stakes U(1, 10); each pair allocates with
    probability 0.6 (every service gets at least one allocation); thresholds
    U(0.34, 0.8). A service's prize is U(0.5, 1.5) * prize_scale times the
    stake needed to reach its threshold, which scales the prizes to each
    network's own stakes.
    """
    n, m = rng.randint(4, 6), rng.randint(4, 6)
    validators = [f"v{i + 1}" for i in range(n)]
    services = [f"s{j + 1}" for j in range(m)]
    stake = {v: rng.uniform(1, 10) for v in validators}
    alloc: dict[tuple[str, str], float] = {}
    for v in validators:
        for s in services:
            if rng.random() < 0.6:
                alloc[(v, s)] = rng.uniform(0.1, 1.0) * stake[v]
    for s in services:
        if not any((v, s) in alloc for v in validators):
            v = rng.choice(validators)
            alloc[(v, s)] = rng.uniform(0.1, 1.0) * stake[v]
    threshold = {s: rng.uniform(0.34, 0.8) for s in services}
    prize = {}
    for s in services:
        secured = threshold[s] * sum(w for (_, t), w in alloc.items() if t == s)
        prize[s] = rng.uniform(0.5, 1.5) * prize_scale * secured
    return {
        "validators": [{"id": v, "stake": stake[v]} for v in validators],
        "services": [{"id": s, "threshold": threshold[s], "prize": prize[s]}
                     for s in services],
        "allocations": [{"validator": v, "service": s, "amount": w}
                        for (v, s), w in alloc.items()],
    }


class CheckCorpus(Workload):
    name = "check-corpus"
    why = ("asymmetric 4-6 x 4-6 network files, 6 (budget, fraction) checks each, via "
           "`restaking check`: robust verdicts visit every Byzantine subset, so bigger LPs")
    stratum_size = 5
    stratum_spread = 1.3

    def __init__(self, pkg, networks: dict[str, dict]):
        super().__init__(pkg)
        self.networks = networks
        self.paths: dict[str, Path] = {}

    def universe(self) -> list[Op]:
        ops = []
        for key, net in sorted(self.networks.items()):
            small = (len(net["validators"]) <= ORACLE_MAX_SIZE
                     and len(net["services"]) <= ORACLE_MAX_SIZE)
            for b in CHECK_BUDGETS:
                for f in CHECK_FRACTIONS:
                    ops.append(Op(f"{key}:b{b}:f{f:g}",
                                  {"net": key, "b": b, "f": f, "oracle": small}))
        return ops

    def prepare(self, ops: list[Op], workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for key in sorted({op.params["net"] for op in ops}):
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(self.networks[key]), encoding="utf-8")
            self.paths[key] = path

    def argv(self, op: Op) -> list[str]:
        p = op.params
        argv = ["check", str(self.paths[p["net"]]),
                "--budget", str(p["b"]), "--fraction", str(p["f"])]
        return argv + ["--oracle"] if p["oracle"] else argv

    def run(self, op: Op):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return self.pkg.cli.main(self.argv(op))
            except SystemExit as exc:  # argparse rejecting the arguments
                return exc.code

    def check(self, op: Op, outcome: Outcome) -> bool:
        # Exit 2 (engine discrepancy or error) never counts as a verdict, and
        # misses the stored 0 or 1, so it is a wrong answer.
        verdict = outcome.value if outcome.error is None else None
        return verdict in (0, 1) and verdict == op.ref["outcome"]


WORKLOADS: dict[str, Callable] = {
    SweepClosedForm.name: SweepClosedForm,
    SweepMip.name: SweepMip,
    CheckCorpus.name: CheckCorpus,
}


def build(name: str, pkg, reference: dict) -> Workload:
    if name == CheckCorpus.name:
        return CheckCorpus(pkg, reference["networks"])
    return WORKLOADS[name](pkg)
