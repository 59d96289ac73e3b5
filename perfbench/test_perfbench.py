"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from awnev import funcrep, qcore  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# a cheap slice of each workload that still crosses every traced layer kind
_CHEAP = {
    "sweep": lambda tasks: tasks[:10],  # the first function's grids, T(r) and counts
    "roots": lambda tasks: [
        t for t in tasks if t.kind == "nevanlinna.argument_principle_count"
    ][:4],
    "identities": lambda tasks: [
        t for t in tasks
        if t.kind in ("qcore.qpoch_infinite", "kernel.theta", "kernel.verify_identity",
                      "awops.aw_taylor", "awops.aw_diff_iterate", "cli.eval", "cli.dq")
    ],
}


def test_generators_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        first = [(t.kind, t.params) for t in workloads.build(w, 3)]
        again = [(t.kind, t.params) for t in workloads.build(w, 3)]
        other = [(t.kind, t.params) for t in workloads.build(w, 4)]
        assert first == again
        # another seed: same task kinds and counts, other parameters
        assert [k for k, _ in other] == [k for k, _ in first]
        assert [p for _, p in other] != [p for _, p in first]


def test_tracing_leaves_outputs_unchanged():
    for w in workloads.WORKLOADS:
        plain = run.run_pass(_CHEAP[w](workloads.build(w, 1)))
        tr = tracer.Tracer()
        tasks = _CHEAP[w](workloads.build(w, 1))
        tr.install()
        try:
            traced = run.run_pass(tasks, tr)
        finally:
            tr.uninstall()
        assert tr.spans, w
        assert all(oc.error is None for oc in plain + traced), w
        assert [repr(oc.output) for oc in plain] == [repr(oc.output) for oc in traced], w
    # every patched reference is restored
    assert funcrep.log_qpoch_infinite is qcore.log_qpoch_infinite
    assert not hasattr(qcore.log_qpoch_infinite, "__wrapped__")
    assert not hasattr(funcrep.FunctionExpr.breve_log, "__wrapped__")


def test_tracer_sees_calls_through_imported_names():
    tr = tracer.Tracer()
    f = workloads.build("sweep", 1)[0].check.f  # a FunctionExpr of the first slot
    tr.install()
    try:
        f.breve_log(3.0 + 1.0j)
    finally:
        tr.uninstall()
    names = [s[tracer.NAME] for s in tr.spans]
    # funcrep calls log_qpoch_infinite through its own imported name
    assert names[0] == "funcrep.FunctionExpr.breve_log"
    assert "qcore.log_qpoch_infinite" in names
    m = tracer.layer_metrics(tr)
    assert m["qcore.log_qpoch_infinite.scalar_calls"] == m["qcore.log_qpoch_infinite.calls"]
    assert m["funcrep.calls"] == 1 and m["funcrep.FunctionExpr.breve_log.points"] == 1


def test_every_printed_metric_is_declared():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    printed = set(tracer.layer_metrics(tracer.Tracer())) | {"trace.overhead_frac"}
    assert printed == set(per_layer)
    assert per_layer == tracer.per_layer_units()
    for name in list(e2e) + list(per_layer):
        assert NAME.match(name), name


def test_a_raising_task_is_counted_and_the_run_goes_on():
    tasks = [
        workloads.Task("boom", (), lambda: 1 / 0, lambda out: None),
        workloads.Task("fine", (), lambda: 2, lambda out: None if out == 2 else "wrong"),
        workloads.Task("wrong", (), lambda: 3, lambda out: None if out == 2 else "wrong"),
    ]
    outcomes = run.run_pass(tasks)
    failures = run.check(outcomes)
    assert len(outcomes) == 3
    assert [oc.task.kind for oc, _ in failures] == ["boom", "wrong"]
    assert failures[0][1].startswith("raised ZeroDivisionError")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, str(Path(BENCH.name) / "run.py"), "--workload", "roots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""

