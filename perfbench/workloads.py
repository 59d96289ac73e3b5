"""Seeded task lists for the three benchmark workloads.

A task is one user-level call into awnev: a library entry point or one
``exprcli.main(argv)`` invocation with its output captured.  Each workload
is a fixed list of *slots*; a slot fixes the task kind and the centre of
its parameters, and the seed only jitters the parameters around that
centre.  So every seed gives the same task kinds and counts, and the cost
of a pass stays close to the same across seeds, while no two seeds (or
two passes of one run) repeat an input that a result cache could serve.

Building a task list calls nothing in awnev beyond constructors
(``QParam``, ``ProductForm``, ``build_named``, ``AWParams``,
``KernelTermSpec``): the set-up timing in ``run.py`` times exactly this.
Every call into a layer goes through a module attribute
(``nevanlinna.deficiencies``, never a name imported from it), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from awnev import awops, awpoly, exprcli, funcrep, kernel, nevanlinna, qcore

import oracles

WORKLOADS = ("sweep", "roots", "identities")


@dataclass(frozen=True)
class Task:
    """One user-level call and the independent check of its output.

    ``params`` records the generated inputs; it is what makes two builds
    comparable and what a failure report prints.  ``check`` returns None
    when the output is right and a one-line reason otherwise.
    """

    kind: str
    params: tuple
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exprcli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


class _Jitter:
    """Seeded perturbation of slot centres (relative, so scale-free)."""

    def __init__(self, seed: int, pass_index: int, workload: str):
        tag = WORKLOADS.index(workload)
        # SeedSequence takes non-negative words; a negative seed wraps to 64 bits
        self.rng = np.random.default_rng([int(seed) & (2**64 - 1), int(pass_index), tag])

    def rel(self, centre: float, frac: float) -> float:
        return float(centre * (1.0 + self.rng.uniform(-frac, frac)))

    def cplx(self, centre: complex, frac: float) -> complex:
        """Jitter modulus and argument of a complex centre by ``frac``.

        A real centre stays real (only its modulus moves), so real bases
        and generators keep the kind of value the slot names.
        """
        c = complex(centre)
        if c.imag == 0:
            return complex(self.rel(c.real, frac))
        mod = abs(c) * (1.0 + self.rng.uniform(-frac, frac))
        arg = math.atan2(c.imag, c.real) + self.rng.uniform(-frac, frac)
        return complex(mod * math.cos(arg), mod * math.sin(arg))

    def phase(self) -> float:
        return float(self.rng.uniform(0.0, 2.0 * math.pi))


def _lit(v) -> str:
    """A complex number as a CLI literal the expression grammar accepts."""
    v = complex(v)
    re_, im = f"{v.real:.15f}", f"{abs(v.imag):.15f}"
    if v.imag == 0:
        return re_
    return f"{re_}{'-' if v.imag < 0 else '+'}{im}i"


def _phi(c, q: qcore.QParam) -> funcrep.FunctionExpr:
    """phi(x; c) = (c z, c / z; q)_inf as a one-term expression."""
    return funcrep.ProductForm(1.0, (), (funcrep.ProductFactor(complex(c), q.q, 1),), q).as_expr()


# --- sweep -----------------------------------------------------------------------

# (label, build_named name or "phi", q centre, fixed integer params,
#  continuous params (centre) or None, Theta_AW(0) target from criterion 5)
_SWEEP_SLOTS = (
    ("f_fraction", "f_fraction", 0.25, {"n": 3}, None, 2.0 / 3.0),
    ("f_one_over", "f_one_over", 0.35, {"n": 3}, None, 1.0 / 3.0),
    ("f_rational", "f_rational", 0.45, {"m": 2, "n": 3}, None, 2.0 / 3.0),
    ("theta4", "theta4", 0.55, {}, None, None),
    ("phi", "phi", 0.4, {}, {"c": 0.7}, None),
    ("qhermite_gen", "qhermite_gen", -0.4, {}, {"t": 0.5}, None),
    ("qultra_gen", "qultra_gen", 0.3 + 0.3j, {}, {"beta": 0.55, "t": 0.4}, None),
    ("phi_q0.9", "phi", 0.9, {}, {"c": 0.8}, None),
)
_CHAR_INDICES = (2, 4, 6, 8, 10, 12)  # radii of the 1e30 grid timed one by one


def _sweep_function(slot, jit: _Jitter):
    label, name, qc, ints, conts, target = slot
    # q near 1 is jittered least: the product length grows like 1/(1-|q|)
    q = qcore.QParam(jit.cplx(qc, 0.002) if abs(qc) > 0.8 else jit.cplx(qc, 0.05))
    params = dict(ints)
    for key, centre in (conts or {}).items():
        params[key] = jit.rel(centre, 0.05)
    if name == "phi":
        f = _phi(params["c"], q)
    else:
        f = funcrep.build_named(name, q, **params)
    return label, q, params, f, target


def _sweep_cli_expr(slot_label, q: qcore.QParam, params):
    """CLI expression text for the slots the CLI tasks reuse."""
    if slot_label == "phi":
        return f"pinf({_lit(params['c'])})"
    if slot_label == "theta4":
        return "theta4"
    if slot_label == "f_one_over":
        n = params["n"]
        base = q.q ** (2 * n - 1)
        return "*".join(f"pinf({_lit(q.q ** (2 * k))};{_lit(base)})" for k in range(n))
    raise ValueError(slot_label)


def _sweep(jit: _Jitter):
    tasks = []
    cli_inputs = []
    for slot in _SWEEP_SLOTS:
        label, q, params, f, target = _sweep_function(slot, jit)
        ctx = {}
        key = (label, q.q, tuple(sorted(params.items())))

        def grid(rmax, name, f=f, ctx=ctx):
            def call():
                ctx[name] = nevanlinna.radius_grid(f, 10.0, rmax, 14)
                return ctx[name]

            return call

        tasks.append(Task("nevanlinna.radius_grid", key + (1e8,), grid(1e8, "g8"),
                          oracles.RadiusGridCheck(f, 10.0, 1e8)))
        tasks.append(Task("nevanlinna.radius_grid", key + (1e30,), grid(1e30, "g30"),
                          oracles.RadiusGridCheck(f, 10.0, 1e30)))
        for i in _CHAR_INDICES:
            tasks.append(Task(
                "nevanlinna.characteristic", key + (i,),
                lambda f=f, ctx=ctx, i=i: nevanlinna.characteristic(f, ctx["g30"][i]),
                oracles.CharacteristicCheck(f),
            ))
        for kind in ("Zero", "Pole"):
            tasks.append(Task(
                "nevanlinna.aw_counting", key + (kind,),
                lambda f=f, ctx=ctx, kind=kind: nevanlinna.aw_counting(f, ctx["g8"][-1], kind),
                oracles.AWCountingCheck(f, kind),
            ))
        tasks.append(Task(
            "nevanlinna.deficiencies", key,
            lambda f=f, ctx=ctx: nevanlinna.deficiencies(f, ctx["g8"], [0.0, math.inf]),
            oracles.DeficiencyCheck(target),
        ))
        tasks.append(Task(
            "nevanlinna.log_order", key,
            lambda f=f, ctx=ctx: (ctx["g8"], nevanlinna.log_order(f, ctx["g8"])),
            oracles.LogOrderCheck(f, single_factor=label == "phi"),
        ))
        if label in ("phi", "theta4", "f_one_over"):
            cli_inputs.append((label, q, params, f, target))
    for label, q, params, f, target in cli_inputs:
        expr = _sweep_cli_expr(label, q, params)
        char_argv = ["char", "--q", _lit(q.q), "--expr", expr,
                     "--rmin", "10", "--rmax", "1e8", "--points", "10"]
        tasks.append(Task("cli.char", tuple(char_argv), lambda a=char_argv: run_cli(a),
                          oracles.CliCharCheck(f)))
        def_argv = ["deficiency", "--q", _lit(q.q), "--expr", expr, "--value", "0",
                    "--value", "inf", "--rmin", "10", "--rmax", "1e8", "--points", "12"]
        target = 1.0 / params["n"] if label == "f_one_over" else None
        tasks.append(Task("cli.deficiency", tuple(def_argv), lambda a=def_argv: run_cli(a),
                          oracles.CliDeficiencyCheck(target)))
    return tasks


# --- roots -----------------------------------------------------------------------

# aw_counting_at slots: (q centre, generator c centre, target value, radius centre).
# Radii span 2..30.  Forty slots hold exactly one a-point inside the circle
# for every jitter (checked at the corners of the jitter box and at 0.9 r and
# 1.1 r), so their costs cluster and task_p90_ms falls in the middle of that
# cluster; the last two hold two and three a-points.
_AWCOUNT_SLOTS = (
    (0.14, 0.6, 0.5 + 0.5j, 2.0),
    (0.18, 0.557 + 0.172j, 1.5 - 0.5j, 2.14),
    (0.22, 0.544, 0.8j, 2.3),
    (0.14, 0.315 + 0.398j, 0.8j, 2.46),
    (0.18, 0.473, 2.0 + 1.0j, 2.64),
    (0.22, 0.031 + 0.441j, -0.6 + 0.9j, 2.83),
    (0.14, 0.412, 1.2 + 0.2j, 3.03),
    (0.18, -0.194 + 0.332j, 0.3 - 1.4j, 3.25),
    (0.22, 0.359, 0.3 - 1.4j, 3.49),
    (0.14, -0.302 + 0.143j, 1.7 - 0.6j, 3.74),
    (0.18, 0.312, 0.5 + 0.5j, 4.0),
    (0.22, -0.288 - 0.046j, 1.5 - 0.5j, 4.29),
    (0.14, 0.272, 0.8j, 4.6),
    (0.18, -0.184 - 0.174j, 0.8j, 4.93),
    (0.22, 0.236, 2.0 + 1.0j, 5.29),
    (0.14, -0.046 - 0.216j, -0.6 + 0.9j, 5.67),
    (0.18, 0.206, 1.2 + 0.2j, 6.07),
    (0.22, 0.073 - 0.178j, 0.3 - 1.4j, 6.51),
    (0.14, 0.179, 0.3 - 1.4j, 6.98),
    (0.18, 0.139 - 0.092j, 1.7 - 0.6j, 7.48),
    (0.22, 0.156, 0.5 + 0.5j, 8.02),
    (0.14, 0.145 + 0.002j, 1.5 - 0.5j, 8.6),
    (0.18, 0.136, 0.8j, 9.21),
    (0.22, 0.103 + 0.073j, 0.8j, 9.88),
    (0.14, 0.118, 2.0 + 1.0j, 10.59),
    (0.18, 0.038 + 0.103j, -0.6 + 0.9j, 11.35),
    (0.22, 0.103, 1.2 + 0.2j, 12.16),
    (0.14, -0.023 + 0.093j, 0.3 - 1.4j, 13.04),
    (0.18, 0.089, 0.3 - 1.4j, 13.98),
    (0.22, -0.062 + 0.055j, 1.7 - 0.6j, 14.98),
    (0.14, 0.078, 0.5 + 0.5j, 16.06),
    (0.18, -0.072 + 0.009j, 1.5 - 0.5j, 17.21),
    (0.22, 0.068, 0.8j, 18.45),
    (0.14, -0.056 - 0.029j, 0.8j, 19.78),
    (0.18, 0.059, 2.0 + 1.0j, 21.2),
    (0.22, -0.026 - 0.048j, -0.6 + 0.9j, 22.72),
    (0.14, 0.051, 1.2 + 0.2j, 24.36),
    (0.18, 0.005 - 0.048j, 0.3 - 1.4j, 26.11),
    (0.22, 0.045, 0.3 - 1.4j, 27.99),
    (0.14, 0.027 - 0.032j, 1.7 - 0.6j, 30.0),
    (0.3, 1.0, 0.5 + 0.5j, 2.6),
    (0.25, 0.9 + 0.2j, -1.1 - 0.7j, 10.0),
)
_CIRCLES_PER_SLOT = 5  # cheap argument-principle circles around each slot's function
# kernel_solve slots: (q centre, planted generators, C) -- one or two classes.
# Small q keeps each solve at about 2 s (one class) and 5 s (two classes):
# the annulus search costs more as |q| grows (about 3.5 s and 8 s at
# q = 0.4 and 0.3), and a few long tasks would otherwise set most of the
# pass time and its spread.
_KSOLVE_SLOTS = (
    (0.12, (0.45 + 0.3j,), 0.8 - 0.6j),
    (0.1, (0.55 - 0.2j, -0.4 + 0.3j), 1.1 + 0.2j),
)
_KSOLVE_CLI_SLOT = (0.14, (0.6 + 0.25j,), 1.2 - 0.3j)


def _planted_terms(gens, C, q: qcore.QParam, w: float):
    """Two kernel terms summing to C * prod pair(gens): pair(g q) = pair(g) / g^2."""
    g0 = gens[0]
    rest = tuple(gens[1:])
    return [
        kernel.KernelTermSpec(w * C, (g0,) + rest),
        kernel.KernelTermSpec((1.0 - w) * C * g0 * g0, (g0 * q.q,) + rest),
    ]


def _roots(jit: _Jitter):
    groups = []  # one aw_counting_at task and its circles per slot
    for qc, cc, val, rc in _AWCOUNT_SLOTS:
        tasks = []
        groups.append(tasks)
        q = qcore.QParam(jit.rel(qc, 0.03))
        c = jit.cplx(cc, 0.03)
        a = jit.cplx(val, 0.03)
        r = jit.rel(rc, 0.03)
        f = _phi(c, q)
        key = (q.q, c, a, r)
        tasks.append(Task("nevanlinna.aw_counting_at", key,
                          lambda f=f, a=a, r=r: nevanlinna.aw_counting_at(f, a, r),
                          oracles.AWCountingAtCheck(f, a, r)))
        for k in range(_CIRCLES_PER_SLOT):
            # alternate zero counts (exact ledger oracle) and generic values
            ca = 0.0 if k % 2 == 0 else jit.cplx(val, 0.3)
            cr = jit.rel(rc * (0.6 + 0.5 * k), 0.05)
            tasks.append(Task(
                "nevanlinna.argument_principle_count", (q.q, c, ca, cr),
                lambda f=f, ca=ca, cr=cr: nevanlinna.argument_principle_count(f, ca, cr),
                oracles.WindingCheck(f, ca, cr),
            ))
    solves = []
    for qc, gens, C in _KSOLVE_SLOTS:
        q = qcore.QParam(jit.rel(qc, 0.03))
        gens = tuple(jit.cplx(g, 0.03) for g in gens)
        C = jit.cplx(C, 0.05)
        terms = _planted_terms(gens, C, q, jit.rel(0.6, 0.1))
        solves.append(Task("kernel.kernel_solve", (q.q, gens, C),
                          lambda terms=terms, q=q: kernel.kernel_solve(terms, q),
                          oracles.KernelSolveCheck(terms, gens, q)))
    qc, gens, C = _KSOLVE_CLI_SLOT
    q = qcore.QParam(jit.rel(qc, 0.03))
    gens = tuple(jit.cplx(g, 0.03) for g in gens)
    C = jit.cplx(C, 0.05)
    terms = _planted_terms(gens, C, q, jit.rel(0.6, 0.1))
    spec = ";".join(
        f"{_lit(t.coefficient)}:{','.join(_lit(g) for g in t.generators)}" for t in terms
    )
    argv = ["kernel-solve", "--q", _lit(q.q), "--terms", spec]
    solves.append(Task("cli.kernel-solve", tuple(argv), lambda a=argv: run_cli(a),
                       oracles.CliKernelSolveCheck(terms, gens, q)))
    # the seconds-long solves go between the slots at even spacing, so the
    # aw_counting_at calls that set task_p90_ms are spread over the whole pass
    # rather than packed into its first part
    after = {len(groups) * (j + 1) // (len(solves) + 1) - 1: t for j, t in enumerate(solves)}
    tasks = []
    for i, group in enumerate(groups):
        tasks += group
        if i in after:
            tasks.append(after[i])
    return tasks


# --- identities ------------------------------------------------------------------

# admissible Askey-Wilson parameter sets (real or conjugate pairs, |.| < 1)
# and the (m, n) orthogonality integrals timed for each.  At q = 0.9 only
# diagonal entries: there orthogonality_check's convergence test (absolute
# 1e-9 between 128 and 256 nodes) rejects off-diagonal integrals whose
# roundoff alone is ~1e-9 against a ~1e6 diagonal, for every node count.
_OFF_AND_ON = ((0, 0), (1, 1), (0, 1), (1, 2))
_AW_SLOTS = (
    (0.35, (0.3, -0.2, 0.1 + 0.2j, 0.1 - 0.2j), _OFF_AND_ON),
    (0.5, (0.3, 0.2, 0.1, 0.05), _OFF_AND_ON),
    (0.25, (0.5, -0.3, 0.2, 0.4), _OFF_AND_ON),
    (0.9, (0.3, -0.2, 0.1 + 0.2j, 0.1 - 0.2j), ((0, 0), (1, 1))),
)
_QPOCH_SLOTS = tuple(
    (qc, ac)
    for qc in (0.2, 0.45, 0.7, 0.9, -0.5, 0.3 + 0.4j)
    for ac in (0.5, 0.9 + 0.3j, -2.0, 0.3 - 0.6j)
)
_THETA_SLOTS = tuple((j, qc) for qc in (0.15, 0.4, 0.9) for j in (1, 2, 3, 4))
_FAB_SLOTS = ((0.35, 0.4 + 0.1j, 0.7), (0.5, -0.3 + 0.5j, 0.6 - 0.2j), (0.9, 0.8, 0.5 + 0.4j))


def _aw_params(jit: _Jitter, qc, ps):
    q = qcore.QParam(jit.rel(qc, 0.002 if qc > 0.8 else 0.04))
    out = []
    for p in ps:
        p = complex(p)
        if p.imag > 0:
            out.append(jit.cplx(p, 0.04))
        elif p.imag < 0:
            out.append(out[-1].conjugate())  # keep the conjugate pair exact
        else:
            out.append(jit.rel(p.real, 0.04))
    return awpoly.AWParams(*out, q)


def _identities(jit: _Jitter):
    tasks = []
    for qc, ps, pairs in _AW_SLOTS:
        p = _aw_params(jit, qc, ps)
        key = (p.q.q,) + p.params()
        for m, n in pairs:
            tasks.append(Task("awpoly.orthogonality_check", key + (m, n),
                              lambda p=p, m=m, n=n: awpoly.orthogonality_check(m, n, p),
                              oracles.OrthogonalityCheck(p, m, n)))
        for n in (1, 2, 3):
            tasks.append(Task("awpoly.eigen_residual", key + (n,),
                              lambda p=p, n=n: awpoly.eigen_residual(n, p),
                              oracles.BelowCheck(1e-7)))
            tasks.append(Task("awpoly.rodrigues_residual", key + (n,),
                              lambda p=p, n=n: awpoly.rodrigues_residual(n, p),
                              oracles.BelowCheck(1e-9)))
        for kind in ("qHermite", "qUltraspherical"):
            t = jit.rel(0.3, 0.1)
            beta = jit.rel(0.2, 0.1)
            x = jit.rel(0.4, 0.2)
            tasks.append(Task("awpoly.generating_residual", key + (kind, t, beta, x),
                              lambda kind=kind, t=t, beta=beta, x=x, q=p.q:
                              awpoly.generating_residual(kind, t, beta, x, q),
                              oracles.BelowCheck(1e-9)))
    for qc, ac in _QPOCH_SLOTS:
        q = qcore.QParam(jit.cplx(qc, 0.002 if abs(qc) > 0.8 else 0.04))
        a = jit.cplx(ac, 0.04)
        tasks.append(Task("qcore.qpoch_infinite", (q.q, a),
                          lambda a=a, q=q: qcore.qpoch_infinite(a, q),
                          oracles.QPochCheck(a, q)))
    for j, qc in _THETA_SLOTS:
        q = qcore.QParam(jit.rel(qc, 0.002 if qc > 0.8 else 0.04))
        w = complex(jit.rel(0.6, 0.5), jit.rel(0.15, 0.5))
        tasks.append(Task("kernel.theta", (j, w, q.q),
                          lambda j=j, w=w, q=q: kernel.theta(j, w, q),
                          oracles.ThetaCheck(j, w, q)))
    for qc in (0.2, 0.35):
        q = qcore.QParam(jit.rel(qc, 0.04))
        zs = [jit.rel(1.2, 0.5) * complex(math.cos(t), math.sin(t))
              for t in (jit.phase() for _ in range(12))]
        ws = [complex(jit.rel(0.5, 0.9), jit.rel(0.1, 0.9)) for _ in range(12)]
        pairs = list(zip(ws[:6], ws[6:]))
        for ident, samples in (("TripleProduct", zs), ("SquareSum", ws), ("Addition", pairs)):
            tasks.append(Task(
                "kernel.verify_identity", (ident, q.q, tuple(samples)),
                lambda ident=ident, q=q, s=samples: kernel.verify_identity(ident, q, s),
                oracles.BelowCheck(1e-10),
            ))
    for qc, ac, bc in _FAB_SLOTS:
        q = qcore.QParam(jit.rel(qc, 0.002 if qc > 0.8 else 0.04))
        a, b = jit.cplx(ac, 0.04), jit.cplx(bc, 0.04)
        f = kernel.make_fab(a, b, q).as_expr()
        tasks.append(Task("kernel.kernel_member", (q.q, a, b),
                          lambda f=f: kernel.kernel_member(f),
                          oracles.KernelMemberCheck(f)))
    for qc in (0.3, 0.5, 0.9):
        q = qcore.QParam(jit.rel(qc, 0.002 if qc > 0.8 else 0.04))
        a = jit.rel(0.6, 0.1)
        planted = [jit.rel(c, 0.2) for c in (1.5, -0.7, 0.4, 0.25)]
        poly = oracles.phi_basis_poly(planted, a, q.q)
        form = funcrep.ProductForm(1.0, tuple(poly), (), q)
        tasks.append(Task("awops.aw_taylor", (q.q, a, tuple(planted)),
                          lambda form=form, a=a: awops.aw_taylor(form, a, 5),
                          oracles.TaylorCheck(planted)))
        c = jit.cplx(0.6 + 0.2j, 0.05)
        f = _phi(c, q)
        for k in (1, 2, 3):
            x = jit.cplx(2.5 + 1.0j, 0.1)
            tasks.append(Task("awops.aw_diff_iterate", (q.q, c, k, x),
                              lambda f=f, k=k, x=x: awops.aw_diff_iterate(f, k, x),
                              oracles.DiffIterateCheck(c, q, k, x)))
    # CLI: one invocation per command, each with its own seeded inputs
    for qc in (0.3, 0.5):
        q = jit.rel(qc, 0.04)
        a = jit.rel(0.7, 0.1)
        argv = ["asym-check", "--q", _lit(q), "--a", _lit(a)]
        tasks.append(Task("cli.asym-check", tuple(argv), lambda a=argv: run_cli(a),
                          oracles.CliAsymCheck(q)))
    p = _aw_params(jit, 0.4, (0.3, 0.2, 0.1, 0.05))
    argv = ["awpoly", "--q", _lit(p.q.q), "--n", "1", "--mode", "ortho"] + [
        arg for name, v in zip("abcd", p.params()) for arg in (f"--{name}", _lit(v))
    ]
    tasks.append(Task("cli.awpoly", tuple(argv), lambda a=argv: run_cli(a),
                      oracles.CliOrthoCheck(p)))
    for ident in ("triple", "square", "addition"):
        argv = ["theta-verify", "--q", _lit(jit.rel(0.25, 0.2)), "--identity", ident]
        tasks.append(Task("cli.theta-verify", tuple(argv), lambda a=argv: run_cli(a),
                          oracles.CliThetaVerifyCheck()))
    for qc in (0.3, 0.5):
        q = qcore.QParam(jit.rel(qc, 0.04))
        gens = [jit.rel(g, 0.1) for g in (0.3, 0.7, 0.5)]
        expr = f"pinf({_lit(gens[0])})*pinf({_lit(gens[1])})/pinf({_lit(gens[2])})"
        factors = ((gens[0], 1), (gens[1], 1), (gens[2], -1))
        x = jit.cplx(2.5 + 1.0j, 0.1)
        argv = ["eval", "--q", _lit(q.q), "--expr", expr, "--x", _lit(x)]
        tasks.append(Task("cli.eval", tuple(argv), lambda a=argv: run_cli(a),
                          oracles.CliValueCheck(factors, q, x, 0)))
        for order in (1, 2):
            argv = ["dq", "--q", _lit(q.q), "--expr", expr, "--x", _lit(x), "--order", str(order)]
            tasks.append(Task("cli.dq", tuple(argv), lambda a=argv: run_cli(a),
                              oracles.CliValueCheck(factors, q, x, order)))
    return tasks


_BUILDERS = {"sweep": _sweep, "roots": _roots, "identities": _identities}


def build(workload: str, seed: int, pass_index: int = 0):
    """The task list of one pass of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](_Jitter(seed, pass_index, workload))
