"""Acceptance gate: one numbered check per shipped guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line (run pytest with
``-s``, the repository default) and then asserts, so a red criterion is
visible both in the printed summary and in the pytest report.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from awnev.awops import aw_avg, aw_diff, aw_diff_basis, phi_basis
from awnev.awpoly import AWParams, eigen_residual, eigenvalue, orthogonality_check
from awnev.asymptotics import asym_error_bound, asym_log_modulus
from awnev.errors import ExpressionError
from awnev.exprcli import main as cli_main
from awnev.exprcli import parse, to_source
from awnev.funcrep import (
    FunctionExpr,
    ProductFactor,
    ProductForm,
    build_named,
    evaluate,
    merged_ledger,
)
from awnev.kernel import (
    KernelTermSpec,
    kernel_pair_form,
    kernel_solve,
    kernel_sum_expr,
    make_fab,
    verify_identity,
)
from awnev.nevanlinna import (
    argument_principle_count,
    aw_counting,
    characteristic,
    deficiencies,
    log_order,
    radius_grid,
)
from awnev.qcore import QParam, lift_to_z_array


def _report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _single(a, q, m=1):
    return ProductForm(1.0, (), (ProductFactor(a, q.q, m),), q)


def test_criterion_01_basis_derivative():
    t0 = time.perf_counter()
    a = 0.4
    rng = np.random.default_rng(1)
    worst = 0.0
    for qv in (0.25, 0.5, 0.3 + 0.2j):
        q = QParam(qv)
        for n in range(1, 9):
            scalar, shifted = aw_diff_basis(n, a, q)
            for _ in range(20):
                x = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
                got = aw_diff(lambda t: phi_basis(n, a, q, t), x, q)
                want = scalar * phi_basis(n - 1, shifted, q, x)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    dt = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-9 and dt < 5.0,
        f"basis rule max rel residual {worst:.2e} (tol 1e-9), {dt:.2f}s (< 5s)",
    )


def test_criterion_02_quotient_rule():
    rng = np.random.default_rng(2)
    q = QParam(0.5)
    worst = 0.0
    for trial in range(50):
        ga = complex(rng.uniform(0.1, 0.8), rng.uniform(-0.2, 0.2))
        ha = complex(rng.uniform(0.1, 0.8), rng.uniform(-0.2, 0.2))
        g = ProductForm(1.0 + 0.1 * trial, (), (ProductFactor(ga, 0.5, 1),), q)
        h = ProductForm(1.0, (), (ProductFactor(ha, 0.5, 1),), q)
        gh = ProductForm(g.constant, (), g.factors + (ProductFactor(ha, 0.5, -1),), q)
        hinv = h.inverse()
        x = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
        lhs = aw_diff(gh, x, q)
        rhs = aw_avg(g, x, q) * aw_diff(hinv, x, q) + aw_avg(hinv, x, q) * aw_diff(g, x, q)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _report(2, worst < 1e-9, f"quotient rule max residual {worst:.2e} on 50 pairs (tol 1e-9)")


def test_criterion_03_triple_product():
    rng = np.random.default_rng(3)
    worst = 0.0
    for qv in (0.1, 0.3, 0.2 + 0.1j):
        q = QParam(qv)
        zs = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(10)] + [
            rng.uniform(0.4, 2.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(10)
        ]
        worst = max(worst, verify_identity("TripleProduct", q, zs))
    _report(3, worst < 1e-12, f"triple product max residual {worst:.2e} (tol 1e-12)")


def test_criterion_04_theta_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for qv in (0.1, 0.2):
        q = QParam(qv)
        args = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.25, 0.25)) for _ in range(20)]
        worst = max(worst, verify_identity("SquareSum", q, args))
        pairs = [
            (
                complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.25, 0.25)),
                complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.25, 0.25)),
            )
            for _ in range(20)
        ]
        worst = max(worst, verify_identity("Addition", q, pairs))
    _report(4, worst < 1e-10, f"theta identity max residual {worst:.2e} (tol 1e-10)")


def test_criterion_05_deficiency_families():
    q = QParam(0.5)
    ok = True
    details = []
    cases = []
    for n in (2, 3, 4):
        cases.append((f"f_fraction({n})", build_named("f_fraction", q, n=n), (n - 1) / n))
        cases.append((f"f_one_over({n})", build_named("f_one_over", q, n=n), 1.0 / n))
    for m, n in ((1, 2), (2, 3)):
        cases.append((f"f_rational({m},{n})", build_named("f_rational", q, m=m, n=n), m / n))
    for label, f, target in cases:
        t0 = time.perf_counter()
        rs = radius_grid(f, 10.0, 1e8, 14)
        reports, _ = deficiencies(f, rs, [0.0])
        dt = time.perf_counter() - t0
        err = abs(reports[0].theta_aw - target)
        this_ok = err <= 0.07 and dt < 10.0
        ok = ok and this_ok
        details.append(f"{label}: Θ_AW(0)={reports[0].theta_aw:.3f} (target {target:.3f}, {dt:.1f}s)")
    _report(5, ok, "; ".join(details))


def test_criterion_06_picard_log_bound():
    ok = True
    details = []
    checks = [
        ("phi(x;1)", FunctionExpr(((1.0, _single(1.0, QParam(0.5))),)), ["Zero"]),
        ("theta4", build_named("theta4", QParam(0.4)), ["Zero"]),
        (
            "H(x)",
            build_named("qultra_gen", QParam(0.5), beta=0.3, t=0.4),
            ["Zero", "Pole"],
        ),
    ]
    for label, f, kinds in checks:
        rs = radius_grid(f, 10.0, 1e6, 10)
        for kind in kinds:
            C = max(aw_counting(f, r, kind).N_aw - math.log(r) for r in rs)
            this_ok = C < 5.0
            ok = ok and this_ok
            details.append(f"{label}/{kind}: fitted C={C:.2f}")
    _report(6, ok, "; ".join(details) + " (all < 5)")


def test_criterion_07_defect_relation():
    q = QParam(0.5)
    battery = [
        ("phi(x;1)", FunctionExpr(((1.0, _single(1.0, q)),))),
        ("phi(x;0.4)", FunctionExpr(((1.0, _single(0.4, q)),))),
        ("f_fraction(3)", build_named("f_fraction", q, n=3)),
        ("f_one_over(3)", build_named("f_one_over", q, n=3)),
        ("f_rational(2,3)", build_named("f_rational", q, m=2, n=3)),
        ("H(x)", build_named("qultra_gen", q, beta=0.3, t=0.4)),
        ("theta4", build_named("theta4", QParam(0.4))),
    ]
    ok = True
    details = []
    for label, f in battery:
        rs = radius_grid(f, 10.0, 1e7, 12)
        _, total = deficiencies(f, rs, [0.0, math.inf])
        this_ok = total <= 2.1
        ok = ok and this_ok
        details.append(f"{label}: ΣΘ_AW={total:.3f}")
    _report(7, ok, "; ".join(details) + " (all <= 2.1)")


def test_criterion_08_kernel_solver():
    q = QParam(0.35)
    rng = np.random.default_rng(8)
    worst = 0.0
    from awnev.kernel import kernel_member, kernel_residual
    from awnev.qcore import DEFAULT_POLICY

    members = True
    for _ in range(10):
        a = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        b = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        f = make_fab(a, b, q).as_expr()
        res = kernel_residual(f, policy=DEFAULT_POLICY)
        worst = max(worst, res)
        members = members and kernel_member(f)
    # round trip: split a known (b, C) right-hand side into two same-class
    # terms (pair(bq) = pair(b)/b^2) and recover b and C from the sum
    b, C = 0.55 - 0.2j, 1.3 + 0.4j
    terms = [
        KernelTermSpec(0.6 * C, (b,)),
        KernelTermSpec(0.4 * C * b * b, (b * q.q,)),
    ]
    sol = kernel_solve(terms, q)
    rep = sol.c_generators[0]
    k = round(math.log(abs(rep / b)) / math.log(q.abs_q))
    b_rec = rep / q.q**k
    x = 3.2 - 0.9j
    lhs = evaluate(kernel_sum_expr(terms, q), x)
    rhs = evaluate(kernel_pair_form(sol.c_generators, q, constant=sol.C), x)
    ok = (
        members
        and worst < 1e-8
        and len(sol.c_generators) == 1
        and abs(b_rec - b) <= 1e-6 * abs(b)
        and sol.residual < 1e-7
        and abs(lhs - rhs) <= 1e-6 * abs(lhs)
    )
    _report(
        8,
        ok,
        f"make_fab max residual {worst:.2e} (tol 1e-8); round trip |b_rec-b|="
        f"{abs(b_rec - b):.2e}, solver residual {sol.residual:.2e}",
    )


def test_criterion_09_asymptotic_bound():
    rng = np.random.default_rng(9)
    violations = 0
    worst_margin = -math.inf
    for qv in (0.25, 0.5):
        q = QParam(qv)
        bound = asym_error_bound(q)
        for a in (1.0, 0.7):
            f = ProductForm(1.0, (), (ProductFactor(a, qv, 1),), q)
            for _ in range(100):
                x = math.exp(rng.uniform(math.log(10.0), math.log(1e6))) * cmath.exp(
                    1j * rng.uniform(0.0, 2.0 * math.pi)
                )
                z = complex(lift_to_z_array(complex(x)))
                err = abs(f.breve_log(z).real - asym_log_modulus(a, x, q))
                worst_margin = max(worst_margin, err - bound)
                if err > bound:
                    violations += 1
    _report(
        9,
        violations == 0,
        f"400 samples, {violations} violations (worst error-minus-bound {worst_margin:.2f})",
    )


def test_criterion_10_aw_equation():
    p = AWParams(0.3, 0.2, 0.1, 0.05, QParam(0.5))
    worst_eigen = max(eigen_residual(n, p) for n in range(1, 6))
    lam_ok = eigenvalue(1, AWParams(0.8, 0.5, 0.5, 0.5, QParam(0.5))) == pytest.approx(
        1.8, abs=1e-14
    )
    diag = {}
    worst_off = 0.0
    for m in range(5):
        for n in range(m, 5):
            v = abs(orthogonality_check(m, n, p))
            if m == n:
                diag[n] = v
            else:
                worst_off = max(worst_off, v)
    rel_off = worst_off / min(diag.values())
    ok = worst_eigen < 1e-7 and lam_ok and rel_off < 1e-7
    _report(
        10,
        ok,
        f"eigen residual {worst_eigen:.2e} (tol 1e-7); off-diagonal/diagonal "
        f"{rel_off:.2e} (tol 1e-7); lambda_1 = 1.8 {'exact' if lam_ok else 'WRONG'}",
    )


def test_criterion_11_ledger_argument_principle():
    rng = np.random.default_rng(11)
    q = QParam(0.5)
    shapes = [
        FunctionExpr(((1.0, _single(0.6, q)),)),
        FunctionExpr(((1.0, _single(0.4, q, m=-1)),)),
        FunctionExpr(((1.0, ProductForm(1.0, (0.3, 1.0), (ProductFactor(0.5, 0.5, 1),), q)),)),
        build_named("qultra_gen", q, beta=0.3, t=0.4),
    ]
    checked = 0
    agree = True
    for f in shapes:
        for _ in range(5):
            r = float(rng.uniform(4.0, 30.0))
            zeros = sum(e.multiplicity for e in merged_ledger(f, r, "Zero") if e.multiplicity > 0)
            poles = sum(-e.multiplicity for e in merged_ledger(f, r, "Pole") if e.multiplicity < 0)
            signed = argument_principle_count(f, 0.0, r)
            agree = agree and signed == zeros - poles
            checked += 1
    _report(11, agree and checked == 20, f"{checked} random (function, r) pairs, all signed counts agree")


def test_criterion_12_log_order_and_drift():
    ok = True
    details = []
    for qv, a in ((0.5, 1.0), (0.5, 0.4), (0.25, 0.7)):
        q = QParam(qv)
        f = _single(a, q)
        fe = FunctionExpr(((1.0, f),))
        rs = radius_grid(fe, 10.0, 1e8, 12)
        sigma = log_order(f, rs)
        this_ok = 1.9 <= sigma <= 2.1
        ok = ok and this_ok
        details.append(f"q={qv}, a={a}: sigma={sigma:.3f}")
        finv = FunctionExpr(((1.0, f.inverse()),))
        drift = max(
            abs(characteristic(fe, r).T - characteristic(finv, r).T)
            for r in radius_grid(fe, 10.0, 1e6, 8)
        )
        ok = ok and drift < 2.0
        details.append(f"drift={drift:.2f}")
    _report(12, ok, "; ".join(details) + " (sigma in [1.9, 2.1], drift < 2)")


def test_criterion_13_parser_and_cli(capsys):
    # golden round trips
    golden = [
        "x",
        "x^2+1",
        "pinf(0.3)",
        "pinf(0.3;0.25)",
        "pn(0.4,3)",
        "theta4",
        "poly(1,0,2)",
        "x*(x+1)",
        "1/pinf(0.3)",
        "pinf(0.4)*pinf(0.75)/(pinf(0.5)*pinf(0.6))",
        "-2i*x^3+0.3+0.1i",
    ]
    round_ok = all(parse(to_source(parse(s))) == parse(s) for s in golden)
    # fuzz: the parser must only ever raise the expression-error family
    rng = random.Random(13)
    alphabet = "0123456789.+-*/^();,ix pnthea4_E"
    crashes = 0
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            parse(s)
        except ExpressionError:
            pass
        except Exception:
            crashes += 1
    # exit codes: 0 success, 2 expression error, 3 numeric failure, 4 precondition
    codes = (
        cli_main(["eval", "--q", "0.5", "--expr", "x^2+1", "--x", "2"]),
        cli_main(["eval", "--q", "0.5", "--expr", "pinf(0)", "--x", "2"]),
        cli_main(["theta-verify", "--q", "0.2", "--identity", "triple", "--tol", "1e-30"]),
        cli_main(
            ["deficiency", "--q", "0.5", "--expr", "pinf(0.4)", "--value", "0",
             "--rmin", "10", "--rmax", "50", "--points", "6"]
        ),
    )
    capsys.readouterr()
    codes_ok = codes == (0, 2, 3, 4)
    _report(
        13,
        round_ok and crashes == 0 and codes_ok,
        f"golden round trips {'ok' if round_ok else 'FAIL'}; fuzz 10000 inputs, "
        f"{crashes} crashes; exit codes {codes} (want (0, 2, 3, 4))",
    )
