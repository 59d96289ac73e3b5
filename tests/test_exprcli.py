"""Expression grammar round trips, fuzzing, lowering, and CLI exit codes."""

import io
import json
import math
import random
import sys

import numpy as np
import pytest

from awnev.errors import ExpressionError, SemanticError
from awnev.exprcli import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    PInf,
    PN,
    Poly,
    Pow,
    Theta,
    Var,
    lower,
    main,
    parse,
    parse_complex,
    to_source,
)
from awnev.funcrep import ProductFactor, ProductForm, build_named, evaluate
from awnev.qcore import QParam


# --- golden round-trip corpus -------------------------------------------------


def _rand_const(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Const(complex(rng.randrange(1, 9)))
    if kind == 1:
        return Const(complex(round(rng.uniform(0.1, 5.0), 3)))
    if kind == 2:
        return Const(complex(0.0, round(rng.uniform(0.1, 3.0), 2)))
    return Const(complex(round(rng.uniform(0.1, 2.0), 2), round(rng.uniform(-2.0, 2.0), 2)))


def _rand_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Var()
    if kind == 1:
        return _rand_const(rng)
    if kind == 2:
        a = round(rng.uniform(-0.9, 0.9), 3) or 0.3
        if rng.random() < 0.5:
            return PInf(complex(a))
        return PInf(complex(a), complex(round(rng.uniform(0.1, 0.8), 2)))
    if kind == 3:
        return PN(complex(round(rng.uniform(-0.9, 0.9), 2) or 0.4), rng.randrange(0, 4))
    if kind == 4:
        return Theta(rng.randrange(1, 5))
    return Poly(tuple(complex(round(rng.uniform(-2, 2), 2)) for _ in range(rng.randrange(1, 4))))


def _rand_node(rng, depth, allow_top_mul=True):
    """Random AST whose canonical printing re-parses to the same tree."""
    if depth <= 0:
        return _rand_leaf(rng)
    kind = rng.randrange(6)
    if kind == 0:
        # keep sums left-associated: the right operand is never a bare Add
        return Add(_rand_node(rng, depth - 1), _rand_node(rng, depth - 1, False))
    if kind == 1 and allow_top_mul:
        right = _rand_node(rng, depth - 1, allow_top_mul=False)
        while isinstance(right, (Mul, Div, Add)):
            right = Neg(right) if isinstance(right, Add) else _rand_leaf(rng)
        return Mul(_rand_node(rng, depth - 1), right)
    if kind == 2 and allow_top_mul:
        right = _rand_node(rng, depth - 1, allow_top_mul=False)
        while isinstance(right, (Mul, Div, Add)):
            right = _rand_leaf(rng)
        return Div(_rand_node(rng, depth - 1), right)
    if kind == 3:
        base = _rand_node(rng, depth - 1)
        while isinstance(base, Pow):
            base = _rand_leaf(rng)
        exp = rng.randrange(-3, 4) or 2
        return Pow(base, exp)
    if kind == 4:
        return Neg(_rand_node(rng, depth - 1, allow_top_mul=False))
    return _rand_leaf(rng)


def test_golden_round_trip_corpus():
    rng = random.Random(1234)
    for _ in range(50):
        ast = _rand_node(rng, rng.randrange(1, 4))
        src = to_source(ast)
        assert parse(src) == ast, src


def test_round_trip_hand_cases():
    for src, want in [
        ("x", Var()),
        ("x^2+1", Add(Pow(Var(), 2), Const(1 + 0j))),
        ("-2i", Neg(Const(2j))),
        ("0.3+0.1i", Const(0.3 + 0.1j)),
        ("pinf(0.3)", PInf(0.3 + 0j)),
        ("pinf(0.3;0.25)", PInf(0.3 + 0j, 0.25 + 0j)),
        ("pn(0.4,3)", PN(0.4 + 0j, 3)),
        ("theta4", Theta(4)),
        ("poly(1,0,2)", Poly((1 + 0j, 0j, 2 + 0j))),
        ("x*(x+1)", Mul(Var(), Add(Var(), Const(1 + 0j)))),
        ("1/pinf(0.3)", Div(Const(1 + 0j), PInf(0.3 + 0j))),
    ]:
        ast = parse(src)
        assert ast == want
        assert parse(to_source(ast)) == ast


def test_parse_rejections():
    for bad in ["", "   ", "x+", "pinf()", "pinf(0)", "pinf(0.3;2.0)", "pn(0.3,-1)",
                "theta5", "x^i", "2**3", "(x", "x)", "foo(1)", "x 2"]:
        with pytest.raises(ExpressionError):
            parse(bad)


def test_fuzz_parser_never_crashes():
    rng = random.Random(99)
    alphabet = "0123456789.+-*/^();,ix pnthea4_E"
    for _ in range(10_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        try:
            parse(s)
        except ExpressionError:
            pass  # the only permitted failure family
        except RecursionError:
            pytest.fail(f"parser blew the stack on {s!r}")


# --- lowering equivalence -------------------------------------------------------


def _close(u, v, tol=1e-12):
    return abs(u - v) <= tol * max(1.0, abs(u), abs(v))


def test_lower_pinf_matches_product_form():
    from awnev.funcrep import FunctionExpr

    q = QParam(0.5)
    f = lower(parse("pinf(0.3)"), q)
    g = FunctionExpr(((1.0, ProductForm(1.0, (), (ProductFactor(0.3, 0.5, 1),), q)),))
    for x in (0.2, 5.0, -1.4 + 0.6j):
        assert _close(evaluate(f, x), evaluate(g, x))


def test_lower_sum_and_hermite():
    q = QParam(0.5)
    f = lower(parse("x + pinf(0.3)"), q)
    assert len(f.terms) == 2
    g = ProductForm(1.0, (), (ProductFactor(0.3, 0.5, 1),), q)
    from awnev.funcrep import FunctionExpr

    ref = FunctionExpr(((1.0, ProductForm(1.0, (0.0, 1.0), (), q)), (1.0, g)))
    for x in (0.7, 3.0 - 2.0j):
        assert _close(evaluate(f, x), evaluate(ref, x))
    # 1/pinf(t) is the q-Hermite generating function
    h = lower(parse("1/pinf(0.3)"), q)
    ref_h = build_named("qhermite_gen", q, t=0.3)
    for x in (0.2, -0.6, 0.1 + 0.05j):
        assert _close(evaluate(h, x), evaluate(ref_h, x))


def test_lower_theta_and_pn():
    q = QParam(0.4)
    f = lower(parse("theta4"), q)
    ref = build_named("theta4", q)
    for x in (0.3, 2.0, -1.5 + 0.4j):
        assert _close(evaluate(f, x), evaluate(ref, x))
    # pn(a, n) equals the explicit finite product
    g = lower(parse("pn(0.4,3)"), q)
    for x in (0.3, -2.0 + 1.0j):
        want = 1.0
        for j in range(3):
            w = 0.4 * 0.4**j
            want *= 1.0 - 2.0 * w * x + w * w
        assert _close(evaluate(g, x), want)


def test_lower_division_by_sum_unsupported():
    q = QParam(0.5)
    with pytest.raises(ExpressionError):
        lower(parse("1/(x+1)"), q)


def test_parse_complex_helper():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("-2i") == -2j
    assert parse_complex("inf") == float("inf")
    with pytest.raises(ExpressionError):
        parse_complex("x")


# --- CLI exit codes and output shapes ------------------------------------------


def test_cli_eval_success(capsys):
    rc = main(["eval", "--q", "0.5", "--expr", "x^2+1", "--x", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "value"
    assert float(out.splitlines()[1]) == pytest.approx(5.0, rel=1e-12)


def test_cli_parse_error_exit_2(capsys):
    assert main(["eval", "--q", "0.5", "--expr", "pinf(0)", "--x", "2"]) == 2
    assert main(["eval", "--q", "2.0", "--expr", "x", "--x", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_numeric_failure_exit_3(capsys):
    rc = main(["theta-verify", "--q", "0.2", "--identity", "triple", "--tol", "1e-30"])
    capsys.readouterr()
    assert rc == 3


def test_cli_term_cap_exit_3(capsys):
    # at q = 0.999999 the tail bound needs ~4.7e7 factors, past the cap
    rc = main(["eval", "--q", "0.999999", "--expr", "pinf(0.5)", "--x", "2"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_cli_tol_only_where_read(capsys):
    # --tol belongs to kernel-check, theta-verify and awpoly's residual modes;
    # elsewhere it is a usage error rather than an option that is silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["char", "--q", "0.5", "--expr", "pinf(0.5)", "--rmin", "10", "--rmax", "1000",
              "--points", "3", "--tol", "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the ortho rows hold integrals, not residuals, so there is nothing to check
    assert main(["awpoly", "--q", "0.5", "--n", "1", "--a", "0.3", "--b", "0.2", "--c", "0.1",
                 "--d", "0.05", "--mode", "ortho", "--tol", "1e-30"]) == 2
    capsys.readouterr()
    expr = "pinf(0.4)*pinf(0.75)/(pinf(0.5)*pinf(0.6))"
    assert main(["kernel-check", "--q", "0.3", "--expr", expr, "--tol", "1e-30"]) == 3
    capsys.readouterr()


def test_cli_precondition_exit_4(capsys):
    rc = main(
        ["deficiency", "--q", "0.5", "--expr", "pinf(0.4)", "--value", "0",
         "--rmin", "10", "--rmax", "50", "--points", "6"]
    )
    capsys.readouterr()
    assert rc == 4


def test_cli_char_csv_columns(capsys):
    rc = main(
        ["char", "--q", "0.5", "--expr", "1/pinf(0.4)", "--rmin", "10",
         "--rmax", "1000", "--points", "4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,m,n,N,T,n_aw,N_aw"
    assert len(lines) == 5


def test_cli_char_radii_past_the_square_of_x(capsys):
    # radii above ~1.3e154 used to overflow x^2 in the Joukowski lift (exit 1);
    # a radius whose lift z = 2x overflows is out of range (exit 4)
    argv = ["char", "--q", "0.5", "--expr", "pinf(0.4)", "--rmin", "10", "--points", "3"]
    assert main(argv + ["--rmax", "1e200"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 3 and float(rows[-1][0]) == 1e200
    assert all(math.isfinite(float(v)) for row in rows for v in row)
    assert main(argv + ["--rmax", "1.7e308"]) == 4
    capsys.readouterr()


class _ClosedPipe(io.StringIO):
    """An output stream whose reader has gone, as under ``awnev ... | head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_broken_pipe_exits_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    rc = main(
        ["char", "--q", "0.5", "--expr", "1/pinf(0.4)", "--rmin", "10",
         "--rmax", "1000", "--points", "5"]
    )
    assert rc == 1
    assert capsys.readouterr().err == ""


def test_cli_json_metadata(capsys):
    rc = main(
        ["char", "--q", "0.5", "--expr", "1/pinf(0.4)", "--rmin", "10",
         "--rmax", "1000", "--points", "3", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["metadata"]["q"] == "0.5"
    assert doc["metadata"]["expression"] == "1/pinf(0.4)"
    assert doc["columns"] == ["r", "m", "n", "N", "T", "n_aw", "N_aw"]
    assert len(doc["rows"]) == 3


def test_cli_kernel_solve(capsys):
    rc = main(
        ["kernel-solve", "--q", "0.3", "--terms", "2.5:0.4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "c1,C,residual"
    assert row.startswith("0.4,2.5,")


def test_cli_kernel_check(capsys):
    # ratio of two generator pairs (a, q/a) with a = 0.4 and a = 0.5, q = 0.3
    expr = "pinf(0.4)*pinf(0.75)/(pinf(0.5)*pinf(0.6))"
    assert main(["kernel-check", "--q", "0.3", "--expr", expr]) == 0
    capsys.readouterr()
    assert main(["kernel-check", "--q", "0.3", "--expr", "x^2"]) == 3
    capsys.readouterr()


_CLI_MIX = (
    ["eval", "--q", "0.5", "--expr", "x^2+1", "--x", "2"],
    ["deficiency", "--q", "0.5", "--expr", "1/pinf(0.4)", "--value", "0", "--value", "inf",
     "--rmin", "10", "--rmax", "1e6", "--points", "6", "--format", "json"],
    ["eval", "--q", "0.5"],  # argparse error: --expr and --x missing
    ["dq", "--q", "0.5", "--expr", "pinf(0.4)", "--x", "1.3", "--order", "2"],
    ["eval", "--q", "2.0", "--expr", "x", "--x", "2"],  # exit 2
    ["theta-verify", "--q", "0.2", "--identity", "square", "--format", "json"],
    ["deficiency", "--q", "0.5", "--expr", "1/pinf(0.4)", "--value", "inf",
     "--rmin", "10", "--rmax", "1e6", "--points", "6"],
)


def _cli_call(argv, capsys):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit from parse_args
        rc = exc.code
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_cli_parser_reuse_matches_fresh_parser(capsys):
    # the parser is built once per process; alternating subcommands (with
    # repeatable options and usage errors between them) through it must give
    # the same output as a freshly built parser
    from awnev import exprcli

    fresh = []
    for argv in _CLI_MIX:
        exprcli._build_parser.cache_clear()
        fresh.append(_cli_call(argv, capsys))
    parser = exprcli._build_parser()
    reused = [_cli_call(argv, capsys) for _ in range(2) for argv in _CLI_MIX]
    assert exprcli._build_parser() is parser
    assert reused == fresh + fresh
    assert [rc for rc, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0]
