"""Benchmark of awnev: seeded workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2.  One process, one thread, closed loop: each
task starts when the previous one returns.

``--trace 0`` warms up on a separately seeded task list for about a
second, then runs passes over freshly seeded task lists until the next
pass would overrun ``--seconds`` (at least one), then checks every output
and prints the end-to-end metrics.  Each time metric is a median over the
passes of the run, so one slow stretch of the shared machine moves it
less.  ``--trace 1`` warms up the same way, runs pass 0 untraced and then
traced (same inputs), prints the per-layer metrics and writes the spans to
``.perfbench/trace_<workload>_seed<seed>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``fail_frac`` is
``failed / attempted``; it is carried by those two keys and printed in the
summary, not listed among the metrics, because a metric here is never 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy loads: the benchmark is one single-threaded
# closed loop, and a BLAS pool on a 2-core machine only adds timing noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_RUNS = 7  # fresh interpreters per run; setup_s is their median
WARMUP_S = 1.0  # untimed tasks run before the first timed pass
WARMUP_PASS = 10**6  # pass index of the warm-up task list; timed passes count from 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# timed in a fresh interpreter: importing every layer and building pass 0
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import awnev.exprcli, awnev.asymptotics
import workloads
workloads.build({workload!r}, {seed!r}, 0)
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """Put ``src/`` first on the path and import awnev from it, or exit 2."""
    if not (SRC / "awnev" / "__init__.py").is_file():
        print(f"error: no awnev sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import awnev

    if Path(awnev.__file__).resolve().parent != (SRC / "awnev").resolve():
        print(f"error: awnev imported from {awnev.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class Outcome:
    task: object
    output: object
    error: str | None
    seconds: float


def run_pass(tasks, tracer=None):
    """Run the tasks in a closed loop; a task that raises is recorded, not fatal."""
    outcomes = []
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = perf_counter()
        try:
            out, err = task.call(), None
        except Exception as exc:  # a failed task counts against fail_frac
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        outcomes.append(Outcome(task, out, err, perf_counter() - t0))
    return outcomes


def check(outcomes):
    """(outcome, reason) for every task whose output fails its oracle."""
    failures = []
    for oc in outcomes:
        reason = oc.error
        if reason is None:
            try:
                reason = oc.task.check(oc.output)
            except Exception as exc:  # an oracle that cannot judge fails the task
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((oc, reason))
    return failures


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def measure_setup(workload: str, seed: int) -> float:
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_RUNS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def warm_up(workload: str, seed: int):
    """Untimed tasks of a separately seeded list, for about WARMUP_S seconds.

    The first calls into numpy and awnev pay for lazy set-up that later
    calls do not; this keeps that cost out of the first timed pass.  The
    outcomes are checked with the timed ones.
    """
    import workloads

    t0 = perf_counter()
    outcomes = []
    for task in workloads.build(workload, seed, WARMUP_PASS):
        outcomes += run_pass([task])
        if perf_counter() - t0 > WARMUP_S:
            break
    return outcomes


def measure(workload: str, seed: int, seconds: float):
    """Untraced passes; returns (metrics, outcomes, notes)."""
    import workloads

    setup_s = measure_setup(workload, seed)
    outcomes = warm_up(workload, seed)
    start = perf_counter()
    walls, p50s, p90s, beyond = [], [], [], []
    while True:
        tasks = workloads.build(workload, seed, len(walls))
        gc.collect()  # no collection left over from building or the last pass
        t0 = perf_counter()
        done = run_pass(tasks)
        walls.append(perf_counter() - t0)
        lat_ms = [oc.seconds * 1e3 for oc in done]
        p50s.append(percentile(lat_ms, 50))
        p90s.append(percentile(lat_ms, 90))
        beyond.append(sum(v > p90s[-1] for v in lat_ms))
        outcomes += done
        if perf_counter() - start + walls[-1] > seconds:
            break
    # ru_maxrss is in KiB on Linux; read before the oracles allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = f"median of {len(walls)} passes of {len(tasks)} tasks"
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "task_p50_ms": statistics.median(p50s),
        "task_p90_ms": statistics.median(p90s),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "wall_s": passes,
        "task_p50_ms": f"{passes}, each pass's median task",
        "task_p90_ms": f"{passes}, each pass's 90th percentile; {min(beyond)} or more tasks beyond it in every pass",
        "peak_rss_mb": "ru_maxrss of the benchmark process, before the output checks",
    }
    return metrics, outcomes, notes


def measure_traced(workload: str, seed: int):
    """Pass 0 untraced, then traced; per-layer metrics and both passes' outcomes."""
    import tracer as tracing
    import workloads

    warm = warm_up(workload, seed)
    t0 = perf_counter()
    plain = run_pass(workloads.build(workload, seed, 0))
    wall_plain = perf_counter() - t0
    tr = tracing.Tracer()
    tasks = workloads.build(workload, seed, 0)
    tr.install()
    try:
        t0 = perf_counter()
        traced = run_pass(tasks, tr)
        wall_traced = perf_counter() - t0
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr)
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace_{workload}_seed{seed}.csv"
    tr.write(path)
    for a, b in zip(plain, traced):
        if b.error is None and repr(a.output) != repr(b.output):
            b.error = "traced output differs from the untraced one"
    notes = {"trace.overhead_frac": f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}"}
    return metrics, warm + plain + traced, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.trace:
        metrics, outcomes, notes = measure_traced(args.workload, args.seed)
        units = tracing.per_layer_units()
    else:
        metrics, outcomes, notes = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    failures = check(outcomes)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_frac = {len(failures) / len(outcomes):.6g}  "
          f"({len(failures)} failed of {len(outcomes)} attempted)")
    for oc, reason in failures:
        print(f"FAILED {oc.task.kind} {oc.task.params}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
