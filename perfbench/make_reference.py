"""Regenerate ``reference/<workload>.json`` from the current source.

    python3 perfbench/make_reference.py [workload ...]

Runs every op of each workload's universe REPEATS times, single-threaded,
and stores its outcome (the value, exit code or exception type), which must
not change between repeats, and its fastest wall-clock time in ms. Run nothing
else on the machine meanwhile. The times only sort ops into strata of
similar cost; the outcomes are what later runs are checked against, so
regenerate only from a commit whose outputs are trusted. The check-corpus
networks are drawn here, from CORPUS_SEED, and stored with their verdicts.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import time
from pathlib import Path

import run  # pins the thread counts before numpy is imported
import workloads

CORPUS_SEED = 20250301
CORPUS_NETWORKS = 60
#: Prize scale giving about as many robust as attackable verdicts.
PRIZE_SCALE = 0.3
#: Each op runs this often; its reference time is the fastest run.
REPEATS = 3


def generate(name: str, workdir: Path) -> dict:
    pkg = run.import_package()
    reference: dict = {"ops": {}}
    if name == workloads.CheckCorpus.name:
        rng = random.Random(CORPUS_SEED)
        reference["networks"] = {f"net{i:02d}": workloads.make_network(rng, PRIZE_SCALE)
                                 for i in range(CORPUS_NETWORKS)}
    workload = workloads.build(name, pkg, reference)
    ops = workload.universe()
    workload.prepare(ops, workdir)
    workload.execute(ops[0])  # warm-up
    for op in ops:
        outcomes, times = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            outcomes.append(workload.reference_outcome(workload.execute(op)))
            times.append(1e3 * (time.perf_counter() - t0))
        if any(json.dumps(o) != json.dumps(outcomes[0]) for o in outcomes):
            raise RuntimeError(f"{op.id}: outcome differs between repeats: {outcomes}")
        reference["ops"][op.id] = {"outcome": outcomes[0], "ms": min(times)}
        print(name, op.id, reference["ops"][op.id], flush=True)
    reference["environment"] = run.environment()
    return reference


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workdir = run.OUT / f"reference-{name}"
        try:
            reference = generate(name, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
