"""Benchmark of the restaking toolkit: sweeps and `restaking check`.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-mip --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sweep-closed-form``, ``sweep-mip`` and
``check-corpus``. One process, one thread: ``RESTAKING_THREADS`` and the BLAS
thread counts are pinned to 1 before anything is imported.

A run sets up (package import, inputs, references) several times and reports
the median as ``setup_s``; runs one untimed warm-up op; then runs ops from
the seeded schedule one after another (a closed loop with a single caller),
timing each with ``time.perf_counter``, until ``--seconds`` of op time at the
reference speed (``Speed``) have passed. Every output is checked against its
reference after the clock stops. With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the same loop runs with spans recorded
and the last line holds the per-layer metrics, including the tracing overhead
measured by replaying the first ops untraced. The line before it is a JSON
object with the details: environment, failure counts with their base, the
tail percentile and how many ops lie beyond it, and the unscaled wall-clock
figures.

Times are scaled to a reference speed. The speed of a shared machine drifts
by more than the bounds, within seconds and over hours, so between ops (never
inside one) the loop times a fixed chunk of work. Op times are scaled by
NOMINAL_CHUNK_S over the run's mean chunk time, and each set-up by the chunks
timed just before and after it.

Exits 2 without a result when the package or the references cannot be
loaded.
"""

from __future__ import annotations

import os

for _var in ("RESTAKING_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("lp", "model", "files", "symmetry", "mip", "bruteforce", "experiments", "cli")
SETUP_REPEATS = 15
#: Share of the run length replayed untraced to measure the tracing overhead.
REPLAY_SHARE = 0.25
#: Ops that must lie beyond the reported tail latency.
TAIL_BEYOND = 10
#: One speed sample: pure-Python integer steps, then row operations on a
#: small dense numpy array, the two kinds of work the workloads do. A sample
#: is taken between ops once SAMPLE_EVERY seconds have passed since the last.
CHUNK_STEPS = 10000
CHUNK_PIVOTS = 75
SAMPLE_EVERY = 0.1
#: Chunk time at the reference speed (about the median on the 2-core x86-64
#: machine that recorded the baseline).
NOMINAL_CHUNK_S = 1.9e-3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(RuntimeError):
    pass


def chunk() -> float:
    """Seconds taken by a fixed chunk of pure-Python and numpy work."""
    import numpy as np

    table = np.linspace(1.0, 2.0, 36 * 60).reshape(36, 60)
    t0 = time.perf_counter()
    acc = 0
    for i in range(CHUNK_STEPS):
        acc += i * i % 7
    for k in range(CHUNK_PIVOTS):
        row = k % 36
        table -= 1e-3 * np.outer(table[:, k % 60], table[row] / table[row, k % 60])
        table[row] = np.abs(table[row]) + 1.0
    return time.perf_counter() - t0


class Speed:
    """The machine's speed, sampled between ops and never inside one.

    ``sample`` times one ``chunk`` once SAMPLE_EVERY seconds have passed since
    the last sample. ``scale`` is NOMINAL_CHUNK_S over the mean chunk time,
    each chunk weighted by the wall time since the sample before it.
    """

    def __init__(self):
        self.last = None
        self.samples = 0
        self.weight = self.weighted = 0.0

    def sample(self) -> None:
        now = time.perf_counter()
        if self.last is not None and now - self.last < SAMPLE_EVERY:
            return
        weight = SAMPLE_EVERY if self.last is None else now - self.last
        self.weighted += weight * chunk()
        self.weight += weight
        self.samples += 1
        self.last = time.perf_counter()

    def scale(self) -> float:
        return NOMINAL_CHUNK_S * self.weight / self.weighted


def import_package() -> SimpleNamespace:
    """Import (again) the restaking package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "restaking" or n.startswith("restaking.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("restaking")
    except ImportError as exc:
        raise SetupError(f"cannot import restaking from {SRC}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != SRC / "restaking":
        raise SetupError(f"restaking imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"restaking.{m}") for m in MODULES})


def set_up(name: str, workdir: Path):
    pkg = import_package()
    try:
        reference = workloads.load_reference(name)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot load the {name} reference: {exc}") from exc
    workload = workloads.build(name, pkg, reference)
    try:
        ops = workloads.attach_reference(workload.universe(), reference)
    except KeyError as exc:
        raise SetupError(f"the {name} reference does not match: {exc}") from exc
    # Ops whose reference records an exception (a known defect, such as the
    # 18 fig8 cells that raise TypeError at the baseline commit) are left out:
    # every op a run draws must have an answer to check.
    ops = [op for op in ops if not isinstance(op.ref["outcome"], dict)]
    workload.prepare(ops, workdir)
    return pkg, workload, ops


def run_loop(workload, schedule, seconds: float, speed: Speed, tracer=None):
    """Closed loop over the schedule until ``seconds`` of op time at the
    reference speed.

    Stopping on scaled rather than wall time keeps the number of ops, and so
    the percentile of ``op_ms_tail``, the same whether the machine runs fast
    or slow. Returns records of (op, outcome, wall seconds the op took).
    """
    records = []
    clock = time.perf_counter
    gc.collect()
    op_seconds = 0.0
    for op in schedule:
        speed.sample()
        if tracer is not None:
            tracer.op = len(records)
        t0 = clock()
        outcome = workload.execute(op)
        t1 = clock()
        records.append((op, outcome, t1 - t0))
        op_seconds += t1 - t0
        if op_seconds * speed.scale() >= seconds:
            break
    return records


def replay(workload, records, budget_s: float, traced_speed: Speed) -> float:
    """Traced time over untraced time of the first ops, rerun untraced.

    Each side is scaled to the reference speed by its own samples.
    """
    speed = Speed()
    traced = untraced = 0.0
    for op, _, seconds in records:
        if traced and traced + seconds > budget_s:
            break
        speed.sample()
        t0 = time.perf_counter()
        workload.execute(op)
        untraced += time.perf_counter() - t0
        traced += seconds
    speed.sample()
    return traced * traced_speed.scale() / (untraced * speed.scale())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "restaking").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = OUT / f"work-{os.getpid()}"
    try:
        try:
            import numpy  # noqa: F401  (a dependency, loaded once per process)
        except ImportError as exc:
            raise SetupError(f"numpy is missing: {exc}") from exc
        tracer = tracing.Tracer() if args.trace else None
        setup = []  # (wall seconds, seconds at the reference speed)
        for _ in range(SETUP_REPEATS):
            before = chunk()
            t0 = time.perf_counter()
            pkg, workload, ops = set_up(args.workload, workdir)
            seconds = time.perf_counter() - t0
            setup.append((seconds, seconds * 2 * NOMINAL_CHUNK_S / (before + chunk())))
        if tracer is not None:
            tracer.install(pkg)
        # Warm-up: lazy imports and first-call costs, timed by neither metric.
        workload.execute(min(ops, key=lambda op: (op.ref["ms"], op.id)))
        schedule = workload.schedule(ops, args.seed)
        if tracer is not None:
            tracer.active = True
        speed = Speed()
        records = run_loop(workload, schedule, args.seconds, speed, tracer)
        speed.sample()
        overhead = None
        if tracer is not None:
            tracer.active = False
            overhead = replay(workload, records, args.seconds * REPLAY_SHARE, speed)
        report(args, workload, ops, records, setup, speed, tracer, overhead)
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, workload, ops, records, setup, speed, tracer, overhead) -> None:
    verdicts = [workload.check(op, outcome) for op, outcome, _ in records]
    errors = sum(1 for _, outcome, _ in records if outcome.error)
    attempted = len(records)
    correct_ops = sum(verdicts)
    failed = attempted - correct_ops

    latencies = [seconds for _, _, seconds in records]
    _, tail_pct, beyond = tail(latencies)

    def figures(scale: float, setup_index: int) -> dict:
        return {
            "ops_per_s": correct_ops / (scale * sum(latencies)),
            "op_ms_p50": 1e3 * scale * statistics.median(latencies),
            "op_ms_tail": 1e3 * scale * tail(latencies)[0],
            "setup_s": statistics.median(s[setup_index] for s in setup),
        }

    end_to_end = dict(figures(speed.scale(), 1),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    details = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": {"value": failed / attempted, "failed": failed,
                         "attempted": attempted, "raised": errors},
        "errors_by_type": dict(Counter(o.error for _, o, _ in records if o.error)),
        "op_ms_tail": {"value": end_to_end["op_ms_tail"], "percentile": tail_pct,
                       "ops_beyond": beyond},
        "end_to_end": end_to_end,
        "wall_clock": figures(1.0, 0),
        "speed": {"scale": speed.scale(), "samples": speed.samples,
                  "chunk_ms_mean": 1e3 * speed.weighted / speed.weight},
        "setup_s_repeats": [s[1] for s in setup],
        "strata": len(workload.strata(ops)),
        "universe": len(ops),
        "distinct_ops": len({op.id for op, _, _ in records}),
        "env": environment(),
    }
    if tracer is not None:
        per_layer = tracer.metrics(sum(latencies), attempted, overhead)
        details["per_layer"] = per_layer
        details["absent_targets"] = tracer.absent
        details["spans"] = len(tracer.spans)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        tracer.uninstall()
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": unit} for k, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    op_log = [[op.id, 1e3 * seconds, outcome.error or outcome.value, ok]
              for (op, outcome, seconds), ok in zip(records, verdicts)]
    out_path.write_text(json.dumps({"details": details, "result": result, "ops": op_log}))

    units = dict(END_TO_END, failed_ratio="ratio")
    for key, value in dict(end_to_end, failed_ratio=failed / attempted).items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    print(f"  (failed {failed} of {attempted}; tail at p{tail_pct:.1f} "
          f"with {beyond} ops beyond; speed scale {speed.scale():.4f})")
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
