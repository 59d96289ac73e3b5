"""Outside-in tracer: spans around awnev's public functions, from outside.

``Tracer.install()`` replaces each listed function with a wrapper in every
``awnev.*`` module namespace that holds a reference to it (``funcrep``,
``kernel`` and ``awpoly`` import the q-Pochhammer functions by name, so
patching the defining module alone would miss their calls) and replaces
the two ``breve_log`` class attributes.  ``uninstall()`` puts the
originals back.  The program's source is untouched.

Each call appends one span ``[function, start, end, parent span, task id,
raised, points, scalar, results]`` to an in-memory list; spans are written out
once, when the run ends.  A span's self time is its duration minus the
durations of its child spans (the process is single-threaded, so children
never overlap).  Time spent in functions that are not wrapped is charged
to the nearest wrapped caller.
"""

from __future__ import annotations

import csv
import importlib
import sys
from time import perf_counter

import numpy as np

LAYERS = ("qcore", "funcrep", "awops", "nevanlinna", "kernel", "asymptotics", "awpoly", "exprcli")

# layer -> wrapped functions ("Class.method" for the two breve_log methods)
TRACED = {
    "qcore": ("log_qpoch_infinite", "qpoch_infinite", "lift_to_z_array"),
    "funcrep": ("ProductForm.breve_log", "FunctionExpr.breve_log", "merged_ledger",
                "zero_pole_ledger", "evaluate"),
    "nevanlinna": ("proximity", "counting", "aw_counting", "aw_counting_at", "apoint_events",
                   "argument_principle_count", "deficiencies", "radius_grid"),
    "kernel": ("kernel_solve", "kernel_member", "theta", "verify_identity"),
    "awops": ("aw_diff", "aw_diff_iterate", "aw_taylor"),
    "awpoly": ("orthogonality_check", "eigen_residual", "rodrigues_residual",
               "generating_residual"),
    "asymptotics": ("asym_log_modulus", "weight_ratio_proximity"),
    "exprcli": ("parse", "lower", "main"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer in LAYERS for fn in TRACED[layer])
_LAYER_OF = {name: name.split(".", 1)[0] for name in FUNCTIONS}

# span fields
NAME, START, END, PARENT, TASK, RAISED, POINTS, SCALAR, RESULTS = range(9)


# (position, keyword) of the evaluation-point argument whose size a span
# records; ``self`` comes first for the two methods
_POINTS_ARG = {
    "qcore.log_qpoch_infinite": (0, "a"),
    "funcrep.FunctionExpr.breve_log": (1, "z"),
    "funcrep.ProductForm.breve_log": (1, "z"),
}
_RESULTS = {
    # a-points returned, weighted by multiplicity
    "nevanlinna.apoint_events": lambda out: sum(h for _, h in out),
    # generators recovered
    "kernel.kernel_solve": lambda out: len(out.c_generators),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        pos, keyword = _POINTS_ARG.get(name, (None, None))
        results = _RESULTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, False, 0, 0, 0]
            if pos is not None:
                point = args[pos] if len(args) > pos else kwargs[keyword]
                span[POINTS] = int(np.size(point))
                span[SCALAR] = int(np.ndim(point) == 0)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if results:
                span[RESULTS] = results(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "awnev" or key.startswith("awnev."))]
        for name in FUNCTIONS:
            layer, attr = name.split(".", 1)
            home = importlib.import_module(f"awnev.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original), original)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, original)

    def _patch(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "function", "start_s", "end_s", "parent", "task", "raised",
                          "points", "scalar", "results"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                out.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                              s[PARENT], s[TASK], int(s[RAISED]), s[POINTS], s[SCALAR], s[RESULTS]])


def _under(spans, i, target) -> int:
    """Index of the nearest ancestor of span i named ``target``, or -1."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == target:
            return p
        p = spans[p][PARENT]
    return -1


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer and per-function calls, self time and counts from the spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for layer in LAYERS:
        out.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0, f"{layer}.raised": 0})
    for name in FUNCTIONS:
        out.update({f"{name}.calls": 0, f"{name}.self_s": 0.0})
    lqp_points = lqp_scalar = breve_points = prox_points = ap_points = ks_points = 0
    ap_roots = ks_gens = 0
    for i, s in enumerate(spans):
        name, layer = s[NAME], _LAYER_OF[s[NAME]]
        self_s = (s[END] - s[START]) - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
        parent = s[PARENT]
        if parent < 0 or _LAYER_OF[spans[parent][NAME]] != layer:
            # an entry into the layer from outside it
            out[f"{layer}.calls"] += 1
            out[f"{layer}.raised"] += int(s[RAISED])
        if name == "qcore.log_qpoch_infinite":
            lqp_points += s[POINTS]
            lqp_scalar += s[SCALAR]
        elif name == "funcrep.FunctionExpr.breve_log":
            breve_points += s[POINTS]
            prox_points += s[POINTS] * (_under(spans, i, "nevanlinna.proximity") >= 0)
            ap_points += s[POINTS] * (_under(spans, i, "nevanlinna.apoint_events") >= 0)
            ks_points += s[POINTS] * (_under(spans, i, "kernel.kernel_solve") >= 0)
        elif name == "nevanlinna.apoint_events":
            ap_roots += s[RESULTS]
        elif name == "kernel.kernel_solve":
            ks_gens += s[RESULTS]
    out["qcore.log_qpoch_infinite.points"] = lqp_points
    out["qcore.log_qpoch_infinite.scalar_calls"] = lqp_scalar
    out["funcrep.FunctionExpr.breve_log.points"] = breve_points
    out["nevanlinna.proximity.points"] = prox_points
    # useful-to-attempted ratios; 0 when the workload locates no roots
    out["nevanlinna.apoint_events.points_per_root"] = ap_points / ap_roots if ap_roots else 0.0
    out["kernel.kernel_solve.points_per_root"] = ks_points / ks_gens if ks_gens else 0.0
    return out


def per_layer_units() -> dict:
    """Unit of every per-layer metric ``layer_metrics`` reports."""
    units = {}
    for layer in LAYERS:
        units.update(
            {f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.raised": "count"}
        )
    for name in FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s"})
    units.update({
        "qcore.log_qpoch_infinite.points": "count",
        "qcore.log_qpoch_infinite.scalar_calls": "count",
        "funcrep.FunctionExpr.breve_log.points": "count",
        "nevanlinna.proximity.points": "count",
        "nevanlinna.apoint_events.points_per_root": "points/root",
        "kernel.kernel_solve.points_per_root": "points/root",
        "trace.overhead_frac": "frac",
    })
    return units
