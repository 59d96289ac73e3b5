"""Expression grammar, parser, lowering, and the command-line surface.

Grammar (whitespace insignificant)::

    expr := add
    add  := mul (('+' | '-') mul)*
    mul  := pow (('*' | '/') pow)*
    pow  := ['-'] atom ('^' int)?
    atom := number | 'x' | 'pinf(' cplx [';' cplx] ')' | 'pn(' cplx ',' int ')'
          | 'theta' [1-4] | 'poly(' cplx (',' cplx)* ')' | '(' expr ')'

Complex literals: ``1.5``, ``0.3+0.1i``, ``-2i``.  pinf's optional second
argument is the factor base; it defaults to the global q, which is a CLI
flag rather than part of the grammar so one expression file works across
q sweeps.

The CLI emits CSV (fixed columns, documented per command) or JSON (the
same rows plus a metadata header).  Exit codes: 0 success, 1 output pipe
closed by its reader, 2 parse or semantic error, 3 numeric failure /
residual above tolerance, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .awops import aw_diff_iterate
from .awpoly import (
    AWParams,
    eigen_residual,
    orthogonality_check,
    rodrigues_residual,
)
from .asymptotics import asym_error_bound, asym_log_modulus
from .errors import (
    AwnevError,
    ExpressionError,
    ExprSyntaxError,
    NumericFailure,
    PreconditionError,
    SemanticError,
    UnsupportedShape,
)
from .funcrep import FunctionExpr, ProductFactor, ProductForm, build_named, evaluate
from .kernel import KERNEL_RTOL, KernelTermSpec, kernel_residual, kernel_solve, verify_identity
from .nevanlinna import (
    aw_counting,
    characteristic,
    deficiencies,
    radius_grid,
    share_check,
)
from .qcore import QParam, lift_to_z

__all__ = [
    "Const",
    "Var",
    "PInf",
    "PN",
    "Theta",
    "Poly",
    "Mul",
    "Div",
    "Pow",
    "Add",
    "Neg",
    "parse",
    "to_source",
    "lower",
    "parse_complex",
    "main",
]


# --- AST -------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class PInf:
    a: complex
    base: complex = None  # None means the global q


@dataclass(frozen=True)
class PN:
    a: complex
    n: int


@dataclass(frozen=True)
class Theta:
    j: int


@dataclass(frozen=True)
class Poly:
    coeffs: tuple


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


# --- tokenizer --------------------------------------------------------------------

_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(
    rf"(?:{_REAL}[+-](?:{_REAL})?i)"  # full complex: 0.3+0.1i, 1-2e-3i, 2+i
    rf"|(?:{_REAL}i)"  # pure imaginary with digits: 2i
    rf"|(?:{_REAL})"  # real
    rf"|(?:i)"  # bare i
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SYMBOLS = set("+-*/^(),;")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | symbol itself | 'end'
    text: str
    offset: int


def _number_value(text: str) -> complex:
    """Value of a token _NUMBER_RE matched: a trailing i is Python's j."""
    return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))


def _tokenize(src: str):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(src, pos)
            if m is None:  # a lone '.' is not a number
                raise ExprSyntaxError(f"malformed number starting at {ch!r}", pos)
            tokens.append(_Token("number", m.group(0), pos))
            pos = m.end()
            continue
        im = _IDENT_RE.match(src, pos)
        if im:
            word = im.group(0)
            if word == "i":
                tokens.append(_Token("number", "i", pos))
            else:
                tokens.append(_Token("ident", word, pos))
            pos = im.end()
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", n))
    return tokens


# --- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.offset)
        return tok

    # grammar -----------------------------------------------------------------

    def parse_expr(self):
        node = self.parse_mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_mul()
            node = Add(node, rhs if op == "+" else Neg(rhs))
        return node

    def parse_mul(self):
        node = self.parse_pow()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_pow()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_pow(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.parse_pow())
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            node = Pow(node, self.parse_int())
        return node

    def parse_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("number")
        value = _number_value(tok.text)
        if (
            value.imag != 0
            or not math.isfinite(value.real)
            or value.real != int(value.real)
        ):
            raise ExprSyntaxError("exponent must be an integer", tok.offset)
        return sign * int(value.real)

    def parse_cplx(self) -> complex:
        sign = 1.0
        if self.peek().kind in ("+", "-"):
            sign = -1.0 if self.next().kind == "-" else 1.0
        tok = self.expect("number")
        return sign * _number_value(tok.text)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "number":
            return Const(_number_value(tok.text))
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            word = tok.text
            if word == "x":
                return Var()
            if word == "pinf":
                self.expect("(")
                a = self.parse_cplx()
                base = None
                if self.peek().kind == ";":
                    self.next()
                    base = self.parse_cplx()
                self.expect(")")
                if a == 0:
                    raise SemanticError("pinf generator must be nonzero")
                if base is not None and (abs(base) >= 1.0 or base == 0):
                    raise SemanticError("pinf base must satisfy 0 < |base| < 1")
                return PInf(a, base)
            if word == "pn":
                self.expect("(")
                a = self.parse_cplx()
                self.expect(",")
                n = self.parse_int()
                self.expect(")")
                if n < 0:
                    raise SemanticError("pn degree must be nonnegative")
                return PN(a, n)
            if word.startswith("theta") and len(word) == 6 and word[5] in "1234":
                return Theta(int(word[5]))
            if word == "poly":
                self.expect("(")
                coeffs = [self.parse_cplx()]
                while self.peek().kind == ",":
                    self.next()
                    coeffs.append(self.parse_cplx())
                self.expect(")")
                return Poly(tuple(coeffs))
            raise ExprSyntaxError(f"unknown name {word!r}", tok.offset)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.offset)


def parse(src: str):
    """Parse an expression string into an AST (the global q enters at lowering)."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(src)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
    return node


# --- printing ---------------------------------------------------------------------


def format_complex(v: complex) -> str:
    v = complex(v)

    def fmt_real(t: float) -> str:
        if t == int(t) and abs(t) < 1e15:
            return str(int(t))
        return repr(t)

    if v.imag == 0:
        return fmt_real(v.real)
    if v.real == 0:
        return fmt_real(v.imag) + "i"
    sign = "+" if v.imag >= 0 else "-"
    return f"{fmt_real(v.real)}{sign}{fmt_real(abs(v.imag))}i"


def to_source(node) -> str:
    """Canonical string form; parse(to_source(ast)) reproduces the AST."""
    if isinstance(node, Const):
        s = format_complex(node.value)
        return f"({s})" if s.startswith("-") else s
    if isinstance(node, Var):
        return "x"
    if isinstance(node, PInf):
        if node.base is None:
            return f"pinf({format_complex(node.a)})"
        return f"pinf({format_complex(node.a)};{format_complex(node.base)})"
    if isinstance(node, PN):
        return f"pn({format_complex(node.a)},{node.n})"
    if isinstance(node, Theta):
        return f"theta{node.j}"
    if isinstance(node, Poly):
        return "poly(" + ",".join(format_complex(c) for c in node.coeffs) + ")"
    if isinstance(node, Add):
        right = node.right
        if isinstance(right, Neg):
            return f"{to_source(node.left)}-{_wrap_add(right.operand)}"
        return f"{to_source(node.left)}+{_wrap_add(right)}"
    if isinstance(node, Neg):
        return f"-{_wrap_add(node.operand)}"
    if isinstance(node, Mul):
        return f"{_wrap_add(node.left)}*{_wrap_add(node.right)}"
    if isinstance(node, Div):
        return f"{_wrap_add(node.left)}/{_wrap_mul(node.right)}"
    if isinstance(node, Pow):
        return f"{_wrap_mul(node.base)}^{node.exponent}"
    raise SemanticError(f"unknown AST node {type(node).__name__}")


def _wrap_add(node) -> str:
    s = to_source(node)
    return f"({s})" if isinstance(node, (Add, Neg)) else s


def _wrap_mul(node) -> str:
    s = to_source(node)
    return f"({s})" if isinstance(node, (Add, Neg, Mul, Div)) else s


# --- lowering ---------------------------------------------------------------------


def _lower_terms(node, q: QParam):
    """Lower to a list of ProductForm terms (an implicit sum).

    Products and reciprocals are studied under the lowering q, also where a
    factor (a theta function) carries its own.
    """

    def mul(a, b):
        return replace(a * b, q=q)

    if isinstance(node, Const):
        return [ProductForm(node.value, (), (), q)]
    if isinstance(node, Var):
        return [ProductForm(1.0, (0.0, 1.0), (), q)]
    if isinstance(node, PInf):
        base = q.q if node.base is None else node.base
        if abs(base) >= 1.0 or base == 0:
            raise SemanticError("pinf base must satisfy 0 < |base| < 1")
        return [ProductForm(1.0, (), (ProductFactor(node.a, base, 1),), q)]
    if isinstance(node, PN):
        # finite product: polynomial prod_{j<n} (1 - 2 a x q^j + a^2 q^(2j))
        poly = np.asarray([1.0 + 0.0j])
        for j in range(node.n):
            w = node.a * q.q**j
            poly = np.polynomial.polynomial.polymul(poly, [1.0 + w * w, -2.0 * w])
        coeffs = tuple(poly) if node.n else ()
        return [ProductForm(1.0, coeffs, (), q)]
    if isinstance(node, Theta):
        built = build_named(f"theta{node.j}", q)
        return [ProductForm(c, (), (), built.q) * pf for c, pf in built.terms]
    if isinstance(node, Poly):
        return [ProductForm(1.0, node.coeffs, (), q)]
    if isinstance(node, Add):
        return _lower_terms(node.left, q) + _lower_terms(node.right, q)
    if isinstance(node, Neg):
        return [
            ProductForm(-t.constant, t.poly, t.factors, t.q) for t in _lower_terms(node.operand, q)
        ]
    if isinstance(node, Mul):
        left = _lower_terms(node.left, q)
        right = _lower_terms(node.right, q)
        return [mul(a, b) for a in left for b in right]
    if isinstance(node, Div):
        denom = _lower_terms(node.right, q)
        if len(denom) != 1:
            raise UnsupportedShape("cannot divide by a sum; no common-form normalization")
        inv = denom[0].inverse()
        return [mul(a, inv) for a in _lower_terms(node.left, q)]
    if isinstance(node, Pow):
        k = node.exponent
        base = _lower_terms(node.base, q)
        if k == 0:
            return [ProductForm(1.0, (), (), q)]
        if k < 0:
            if len(base) != 1:
                raise UnsupportedShape("cannot invert a sum")
            base = [replace(base[0].inverse(), q=q)]
            k = -k
        out = base
        for _ in range(k - 1):
            out = [mul(a, b) for a in out for b in base]
        return out
    raise SemanticError(f"unknown AST node {type(node).__name__}")


def lower(node, q: QParam) -> FunctionExpr:
    """Lower an AST to a FunctionExpr usable by every numeric module."""
    terms = _lower_terms(node, q)
    return FunctionExpr(tuple((1.0 + 0.0j, t) for t in terms))


# --- CLI --------------------------------------------------------------------------

_CHAR_COLUMNS = ["r", "m", "n", "N", "T", "n_aw", "N_aw"]
_RMIN_HELP = (
    "smallest grid radius; a radius nudged off an event modulus can fall below it, "
    "down to 0.3*rmin"
)


def parse_complex(text: str) -> complex:
    """Parse a CLI complex literal ('0.5', '0.3+0.1i', '-2i', 'inf')."""
    text = text.strip().replace(" ", "")
    if text in ("inf", "oo", "infinity"):
        return math.inf
    node = parse(text)

    def const_eval(n):
        if isinstance(n, Const):
            return n.value
        if isinstance(n, Neg):
            return -const_eval(n.operand)
        if isinstance(n, Add):
            return const_eval(n.left) + const_eval(n.right)
        if isinstance(n, Mul):
            return const_eval(n.left) * const_eval(n.right)
        if isinstance(n, Div):
            return const_eval(n.left) / const_eval(n.right)
        raise SemanticError(f"not a constant: {text!r}")

    return const_eval(node)


def _load_expr(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read().strip()
    return text


def _emit(rows, columns, fmt, meta):
    out = sys.stdout
    if fmt == "json":
        json.dump(
            {"metadata": meta, "columns": columns, "rows": rows},
            out,
            indent=2,
            default=str,
        )
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [format_complex(v) if isinstance(v, complex) else v for v in row]
            )
    out.flush()  # a reader that closed the pipe early shows here, not at exit


def _fmt_value(v) -> str:
    if isinstance(v, complex):
        return format_complex(v)
    return str(v)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="awnev",
        description="Divided-difference calculus and slow-growth value distribution.",
    )
    ap.add_argument("--version", action="version", version=f"awnev {__version__}")

    def common(sub, expr=True):
        sub.add_argument("--q", required=True, help="base q (complex literal, 0<|q|<1)")
        if expr:
            sub.add_argument("--expr", required=True, help="expression string or @file")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        return sub

    subs = ap.add_subparsers(dest="command", required=True)

    p = common(subs.add_parser("eval", help="evaluate the expression at a point"))
    p.add_argument("--x", required=True)

    p = common(subs.add_parser("dq", help="apply the divided-difference operator"))
    p.add_argument("--x", required=True)
    p.add_argument("--order", type=int, default=1)

    p = common(subs.add_parser("char", help="characteristic table over a radius grid"))
    p.add_argument("--rmin", type=float, required=True, help=_RMIN_HELP)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--points", type=int, default=12)

    p = common(subs.add_parser("deficiency", help="deficiency report per value"))
    p.add_argument("--value", action="append", required=True, help="target (repeatable)")
    p.add_argument("--rmin", type=float, required=True, help=_RMIN_HELP)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--points", type=int, default=12)

    p = common(subs.add_parser("kernel-check", help="is the expression annihilated by D_q"))
    p.add_argument("--tol", type=float, default=KERNEL_RTOL, help="residual tolerance")

    p = common(subs.add_parser("kernel-solve", help="solve a kernel combination"), expr=False)
    p.add_argument(
        "--terms",
        required=True,
        help="terms as 'C1:a1,a2;C2:a3,a4' (complex literals)",
    )

    p = common(subs.add_parser("theta-verify", help="verify a classical identity"), expr=False)
    p.add_argument("--identity", choices=("triple", "square", "addition"), required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")

    p = common(subs.add_parser("awpoly", help="polynomial residual tables"), expr=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--mode", choices=("eigen", "rodrigues", "ortho"), default="eigen")
    p.add_argument("--tol", type=float, default=None,
                   help="residual tolerance of the eigen and rodrigues modes (none: no check)")

    p = common(subs.add_parser("asym-check", help="asymptotic error vs bound"), expr=False)
    p.add_argument("--a", required=True)
    p.add_argument("--samples", type=int, default=100)

    p = common(subs.add_parser("share", help="compare reduced counts of two expressions"))
    p.add_argument("--expr2", required=True)
    p.add_argument("--value", required=True)
    p.add_argument("--rmin", type=float, default=10.0, help=_RMIN_HELP)
    p.add_argument("--rmax", type=float, default=1e5)
    p.add_argument("--points", type=int, default=10)
    return ap


def _char_rows(f, rs):
    rows = []
    for r in rs:
        rec = characteristic(f, r)
        red = aw_counting(f, r, "Pole")
        rows.append([rec.r, rec.m, rec.n_count, rec.N, rec.T, red.n_aw, red.N_aw])
    return rows


def _run(args) -> int:
    fmt = args.format
    q = QParam(parse_complex(args.q))
    meta = {"q": format_complex(q.q), "tool": "awnev", "version": __version__}
    if getattr(args, "expr", None) is not None:
        src = _load_expr(args.expr)
        meta["expression"] = src
        f = lower(parse(src), q)

    if args.command == "eval":
        v = evaluate(f, parse_complex(args.x))
        _emit([[_fmt_value(v)]], ["value"], fmt, meta)
        return 0

    if args.command == "dq":
        x = parse_complex(args.x)
        if args.order < 1:
            raise SemanticError("--order must be >= 1")
        v = aw_diff_iterate(f, args.order, x, q)
        _emit([[_fmt_value(v)]], ["value"], fmt, meta)
        return 0

    if args.command == "char":
        rs = radius_grid(f, args.rmin, args.rmax, args.points)
        _emit(_char_rows(f, rs), _CHAR_COLUMNS, fmt, meta)
        return 0

    if args.command == "deficiency":
        values = [parse_complex(v) for v in args.value]
        rs = radius_grid(f, args.rmin, args.rmax, args.points)
        reports, total = deficiencies(f, rs, values)
        rows = [
            [_fmt_value(rep.value), rep.delta, rep.vartheta_aw, rep.theta_aw]
            for rep in reports
        ]
        rows.append(["defect_sum", "", "", total])
        _emit(rows, ["value", "delta", "vartheta_aw", "theta_aw"], fmt, meta)
        return 0

    if args.command == "kernel-check":
        residual = kernel_residual(f)
        ok = residual < args.tol
        _emit([[ok, residual]], ["member", "max_residual"], fmt, meta)
        return 0 if ok else 3

    if args.command == "kernel-solve":
        terms = _parse_terms(args.terms)
        sol = kernel_solve(terms, q)
        rows = [[_fmt_value(c) for c in sol.c_generators] + [_fmt_value(sol.C), sol.residual]]
        cols = [f"c{i + 1}" for i in range(len(sol.c_generators))] + ["C", "residual"]
        _emit(rows, cols, fmt, meta)
        return 0

    if args.command == "theta-verify":
        residual = _theta_verify(args.identity, q)
        _emit([[args.identity, residual]], ["identity", "max_residual"], fmt, meta)
        return 0 if residual <= args.tol else 3

    if args.command == "awpoly":
        if args.mode == "ortho" and args.tol is not None:
            raise SemanticError("--tol is read by --mode eigen and rodrigues only")
        p = AWParams(
            parse_complex(args.a),
            parse_complex(args.b),
            parse_complex(args.c),
            parse_complex(args.d),
            q,
        )
        if args.mode == "eigen":
            rows = [[n, eigen_residual(n, p)] for n in range(args.n + 1)]
            cols = ["n", "residual"]
        elif args.mode == "rodrigues":
            rows = [
                [n, rodrigues_residual(n, p)]
                for n in range(1, max(args.n, 1) + 1)
            ]
            cols = ["n", "residual"]
        else:
            rows = [
                [m, n, _fmt_value(orthogonality_check(m, n, p))]
                for m in range(args.n + 1)
                for n in range(m, args.n + 1)
            ]
            cols = ["m", "n", "integral"]
        _emit(rows, cols, fmt, meta)
        if args.tol is not None and any(row[-1] > args.tol for row in rows):
            return 3
        return 0

    if args.command == "asym-check":
        a = parse_complex(args.a)
        worst, bound = _asym_battery(a, q, args.samples)
        _emit([[worst, bound, worst <= bound]], ["max_error", "bound", "ok"], fmt, meta)
        return 0 if worst <= bound else 3

    if args.command == "share":
        g = lower(parse(_load_expr(args.expr2)), q)
        meta["expression2"] = _load_expr(args.expr2)
        a = parse_complex(args.value)
        rs = radius_grid(f, args.rmin, args.rmax, args.points)
        rows, verdict = share_check(f, g, a, rs)
        out_rows = [list(row) for row in rows]
        out_rows.append(["verdict", "", "", verdict])
        _emit(out_rows, ["r", "N_aw_f", "N_aw_g", "diff"], fmt, meta)
        return 0 if verdict else 3

    raise SemanticError(f"unknown command {args.command!r}")


def _parse_terms(text: str):
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise SemanticError("each term must look like 'C:a1,a2'")
        coeff_txt, gens_txt = chunk.split(":", 1)
        gens = tuple(parse_complex(g) for g in gens_txt.split(",") if g.strip())
        terms.append(KernelTermSpec(parse_complex(coeff_txt), gens))
    if not terms:
        raise SemanticError("no terms given")
    return terms


def _theta_verify(identity: str, q: QParam) -> float:
    rng = np.random.default_rng(7)
    if identity == "triple":
        samples = [
            rng.uniform(0.5, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(25)
        ]
        return verify_identity("TripleProduct", q, samples)
    if identity == "square":
        samples = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3)) for _ in range(25)]
        return verify_identity("SquareSum", q, samples)
    samples = [
        (
            complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.25, 0.25)),
            complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.25, 0.25)),
        )
        for _ in range(25)
    ]
    return verify_identity("Addition", q, samples)


def _asym_battery(a: complex, q: QParam, samples: int):
    form = ProductForm(1.0, (), (ProductFactor(a, q.q, 1),), q)
    bound = asym_error_bound(q)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(samples):
        x = math.exp(rng.uniform(math.log(10.0), math.log(1e6))) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        z = lift_to_z(x)
        exact = form.breve_log(z).real
        approx = asym_log_modulus(a, x, q)
        worst = max(worst, abs(exact - approx))
    return worst, bound


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        return _run(ap.parse_args(argv))
    except BrokenPipeError:
        # SIGPIPE note of the Python signal docs: no flush at exit may raise again
        with contextlib.suppress(AttributeError, OSError, ValueError):  # not a file
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except AwnevError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
