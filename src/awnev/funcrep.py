"""Structured meromorphic functions: products of q-infinite-product factors.

A :class:`ProductForm` is constant * poly(x) * prod_j phi_j(x)^{m_j} where
phi_j(x) = (a_j z; base_j)_inf (a_j / z; base_j)_inf under the |z| >= 1
branch lift.  Zeros and poles live on explicit lattices and are enumerated
exactly; evaluation happens in log space so radii up to 1e8 never overflow.
A :class:`FunctionExpr` is a finite linear combination of such forms; a
form is the one-term sum ``((1, form),)`` and is accepted wherever a
:class:`FunctionExpr` is.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams, NumericFailure, PoleHit, SemanticError, UnsupportedShape
from .qcore import QParam, lift_to_z, log_qpoch_infinite, qpoch_infinite

__all__ = [
    "ProductFactor",
    "ProductForm",
    "FunctionExpr",
    "LatticeEvent",
    "breve_value",
    "evaluate",
    "zero_pole_ledger",
    "merged_ledger",
    "build_named",
    "expr_to_json",
    "expr_from_json",
]

MERGE_RTOL = 1e-10  # relative tolerance for deciding two lattice points coincide
POLE_RTOL = 1e-13  # relative distance below which evaluation reports PoleHit


@dataclass(frozen=True)
class ProductFactor:
    """One factor (a z; base)_inf (a / z; base)_inf raised to the power m."""

    a: complex
    base: complex
    m: int

    def __post_init__(self):
        if self.a == 0:
            raise SemanticError("factor generator a must be nonzero")
        if not 0.0 < abs(self.base) < 1.0:
            raise SemanticError(f"factor base must satisfy 0 < |base| < 1, got {self.base}")
        if self.m == 0:
            raise SemanticError("factor exponent m must be nonzero")


@dataclass(frozen=True)
class ProductForm:
    """constant * poly(x) * product of lattice factors, tied to an operator q.

    ``poly`` holds ascending-order coefficients in x (empty tuple = 1).
    ``q`` is the divided-difference parameter this form is studied under;
    the factor bases need not equal q (they are powers of it in practice).
    """

    constant: complex
    poly: tuple = ()
    factors: tuple = ()
    q: QParam = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "constant", complex(self.constant))
        object.__setattr__(self, "poly", tuple(complex(c) for c in self.poly))
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.q is None:
            raise InvalidParams("ProductForm requires an operator QParam")
        if self.poly and self.poly[-1] == 0:
            raise InvalidParams("polynomial coefficients must have nonzero leading term")

    def breve_log(self, z):
        """log of the z-symmetric evaluator at z (array-safe, complex log).

        Real part is exact to the qcore tail bound ABS_TOL; a zero of the form gives
        real part -inf.  The function of z is invariant under z <-> 1/z.
        """
        za = np.asarray(z, dtype=complex)
        if self.constant == 0:
            out = np.full(za.shape, complex(-math.inf, 0.0))
            return out if za.ndim else complex(out)
        out = np.full(za.shape, cmath.log(self.constant), dtype=complex)
        if self.poly:
            x = (za + 1.0 / za) / 2.0
            pv = np.polynomial.polynomial.polyval(x, np.asarray(self.poly))
            with np.errstate(divide="ignore", invalid="ignore"):
                out = out + np.log(pv)
        for f in self.factors:
            lg = log_qpoch_infinite(f.a * za, f.base) + log_qpoch_infinite(f.a / za, f.base)
            out = out + f.m * lg
        if za.ndim == 0:
            return complex(out)
        return out

    def __mul__(self, other: "ProductForm") -> "ProductForm":
        """Product under this form's q: factors with equal (a, base) add exponents.

        A factor whose exponent sums to 0 is dropped, and a polynomial part
        that multiplies out to 1 is stored as ().
        """
        poly = tuple(np.polynomial.polynomial.polymul(self.poly or (1.0,), other.poly or (1.0,)))
        acc = {}
        for f in self.factors + other.factors:
            acc[f.a, f.base] = acc.get((f.a, f.base), 0) + f.m
        factors = tuple(ProductFactor(a, base, m) for (a, base), m in acc.items() if m != 0)
        return ProductForm(
            self.constant * other.constant, () if poly == (1.0,) else poly, factors, self.q
        )

    def inverse(self) -> "ProductForm":
        """Reciprocal form; refuses a zero constant or a polynomial part other than 1."""
        if self.constant == 0:
            raise UnsupportedShape("division by the zero expression")
        if self.poly not in ((), (1.0,)):
            raise UnsupportedShape("cannot divide by a polynomial part")
        inv = tuple(ProductFactor(f.a, f.base, -f.m) for f in self.factors)
        return ProductForm(1.0 / self.constant, (), inv, self.q)

    @property
    def terms(self) -> tuple:
        """The form as a one-term sum, as in :class:`FunctionExpr`."""
        return ((1.0 + 0.0j, self),)

    def as_expr(self) -> "FunctionExpr":
        return FunctionExpr(self.terms)


@dataclass(frozen=True)
class FunctionExpr:
    """Finite linear combination sum_t coeff_t * form_t of product forms."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(c), f) for c, f in self.terms)
        if not terms:
            raise InvalidParams("FunctionExpr needs at least one term")
        object.__setattr__(self, "terms", terms)

    @property
    def q(self) -> QParam:
        return self.terms[0][1].q

    def breve_log(self, z):
        """Complex log of the sum of terms via a log-sum-exp in the modulus.

        Stable for |values| up to exp(+-1e4); the dominant term's log sets
        the scale and the rest are folded in relative to it.
        """
        za = np.asarray(z, dtype=complex)
        logs = []
        for c, form in self.terms:
            lg = np.asarray(form.breve_log(za), dtype=complex)
            if c == 0:
                lg = np.full(za.shape, complex(-math.inf, 0.0))
            else:
                lg = lg + cmath.log(c)
            logs.append(lg)
        if len(logs) == 1:
            out = logs[0]
            return out if za.ndim else complex(out)
        stack = np.stack(logs)
        mx = np.max(stack.real, axis=0)
        mx = np.where(np.isfinite(mx), mx, 0.0)
        total = np.sum(np.exp(stack - mx), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(total) + mx
        if za.ndim == 0:
            return complex(out)
        return out


def _pole_guard(f, x: complex):
    """Raise PoleHit if x is within relative POLE_RTOL of a pole lattice point."""
    ax = abs(x)
    tol = POLE_RTOL * max(1.0, ax)
    for _, form in f.terms:
        for fac in form.factors:
            if fac.m >= 0:
                continue
            for ev in _factor_events(fac, 0, ax + 1.0):
                if abs(ev.x - x) <= tol:
                    raise PoleHit(f"x = {x} is a pole (lattice exponent {ev.exponent})")


def breve_value(f, z):
    """Value of a FunctionExpr or ProductForm at the z-plane point or array z.

    The exp of ``f.breve_log(z)``, and exactly 0 where that log is -inf (a
    zero of f).  A NaN log gives NaN.  A point (a number or a 0-d array)
    goes through cmath.exp, which raises OverflowError where the value
    overflows; an array of points gives inf there, under the caller's numpy
    error state.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        lg = f.breve_log(z)
        return np.where(lg.real == -math.inf, 0j, np.exp(lg))
    lg = f.breve_log(complex(z))
    return 0j if lg.real == -math.inf else cmath.exp(lg)


def evaluate(f, x: complex) -> complex:
    """Numeric value of a FunctionExpr or ProductForm at the point x.

    A zero of f evaluates to 0; a NaN log raises NumericFailure.
    """
    _pole_guard(f, x)
    v = breve_value(f, lift_to_z(x))
    if cmath.isnan(v):
        raise NumericFailure(f"log of the function is NaN at x = {x}")
    return v


@dataclass(frozen=True)
class LatticeEvent:
    """One zero (multiplicity > 0) or pole (< 0) of a product form.

    ``z`` is the |z| >= 1 branch representative of x.
    """

    x: complex
    modulus: float
    generator_index: int
    exponent: int
    multiplicity: int
    z: complex


def _factor_events(fac: ProductFactor, gen_index: int, r: float):
    """Events of one factor with modulus < r, in lattice-exponent order."""
    out = []
    n = 0
    while True:
        w = fac.a * fac.base**n
        x = (w + 1.0 / w) / 2.0
        ax = abs(x)
        if ax < r:
            z = w if abs(w) >= 1.0 else 1.0 / w
            out.append(
                LatticeEvent(
                    x=x,
                    modulus=ax,
                    generator_index=gen_index,
                    exponent=n,
                    multiplicity=fac.m,
                    z=z,
                )
            )
        elif abs(w) < 1.0 and (1.0 / abs(w) - abs(w)) / 2.0 >= r:
            # |x| >= (1/|w| - |w|) / 2, which grows as |w| shrinks with n:
            # nothing more below r (|x| itself need not grow for a complex base)
            break
        n += 1
        if n > 10**6:
            raise InvalidParams("lattice enumeration runaway (is r astronomically large?)")
    return out


def _merge_events(events):
    """Merge coincident lattice points (relative tolerance on x), drop nets of 0."""
    events = sorted(events, key=lambda e: (e.modulus, e.x.real, e.x.imag))
    merged = []
    for ev in events:
        tol = MERGE_RTOL * max(1.0, ev.modulus)
        hit_idx = None
        for idx in range(len(merged) - 1, -1, -1):
            prev = merged[idx]
            if ev.modulus - prev.modulus > tol:
                break
            if abs(prev.x - ev.x) <= tol:
                hit_idx = idx
                break
        if hit_idx is None:
            merged.append(ev)
        else:
            hit = merged[hit_idx]
            merged[hit_idx] = replace(hit, multiplicity=hit.multiplicity + ev.multiplicity)
    merged = [e for e in merged if e.multiplicity != 0]
    merged.sort(key=lambda e: e.modulus)
    return merged


def zero_pole_ledger(f: ProductForm, r: float):
    """All zero/pole events of the form with |x| < r, merged and sorted."""
    if r <= 0:
        raise InvalidParams("r must be positive")
    events = []
    for j, fac in enumerate(f.factors):
        events.extend(_factor_events(fac, j, r))
    if f.poly and len(f.poly) > 1:
        roots = np.polynomial.polynomial.polyroots(np.asarray(f.poly))
        for root in roots:
            x = complex(root)
            if abs(x) < r:
                events.append(
                    LatticeEvent(
                        x=x,
                        modulus=abs(x),
                        generator_index=-1,
                        exponent=0,
                        multiplicity=1,
                        z=lift_to_z(x),
                    )
                )
    return _merge_events(events)


def merged_ledger(f, r: float, target: str):
    """Zero or pole events of a FunctionExpr or ProductForm.

    Pole events of a sum are the union of the term poles (no cancellation
    assumed); zero events are only available for single-term expressions.
    """
    if target not in ("Zero", "Pole"):
        raise InvalidParams("target must be 'Zero' or 'Pole'")
    if len(f.terms) == 1:
        events = zero_pole_ledger(f.terms[0][1], r)
        if target == "Zero":
            return [e for e in events if e.multiplicity > 0]
        return [e for e in events if e.multiplicity < 0]
    if target == "Zero":
        raise InvalidParams("zero ledger of a multi-term sum is not enumerable")
    events = []
    for _, form in f.terms:
        events.extend(e for e in zero_pole_ledger(form, r) if e.multiplicity < 0)
    return _merge_events(events)


# --- named constructions ------------------------------------------------------


def _form(q, constant=1.0, poly=(), factors=(), opq=None):
    return ProductForm(constant, poly, factors, opq if opq is not None else q)


def build_named(name: str, q: QParam, **params) -> FunctionExpr:
    """Construct one of the catalogued example functions as a FunctionExpr.

    Names: triple_product, qhermite_gen(t), qultra_gen(beta, t),
    theta3 / theta4 (viewed in x = cos 2w, nome = q.q, operator parameter
    q^2), f_fraction(n), f_one_over(n), f_rational(m, n),
    kernel_example(phi).  theta1/theta2 are odd half-period shifts and are
    not single-valued in x; request them through the kernel module instead.
    """
    qq = q.q
    if name == "triple_product":
        c = qpoch_infinite(qq, q)
        return _form(q, c, factors=(ProductFactor(q.sqrt_q, qq, 1),)).as_expr()
    if name == "qhermite_gen":
        t = complex(params["t"])
        if not 0 < abs(t) < 1:
            raise InvalidParams("qhermite_gen needs 0 < |t| < 1")
        return _form(q, 1.0, factors=(ProductFactor(t, qq, -1),)).as_expr()
    if name == "qultra_gen":
        beta = complex(params["beta"])
        t = complex(params["t"])
        if not 0 < abs(t) < 1:
            raise InvalidParams("qultra_gen needs 0 < |t| < 1")
        factors = [ProductFactor(t, qq, -1)]
        if beta != 0:
            factors.insert(0, ProductFactor(beta * t, qq, 1))
        return _form(q, 1.0, factors=tuple(factors)).as_expr()
    if name in ("theta3", "theta4"):
        # x-viewed theta: zeros form a single lattice with base (nome)^2, and
        # the natural divided-difference parameter for that lattice is q^2.
        a = qq if name == "theta4" else -qq
        opq = QParam(qq * qq)
        c = qpoch_infinite(qq * qq, opq)
        return _form(q, c, factors=(ProductFactor(a, qq * qq, 1),), opq=opq).as_expr()
    if name in ("theta1", "theta2"):
        raise InvalidParams(
            f"{name} is odd under the half-period shift and is not single-valued "
            "in x; evaluate it via the kernel module's theta() instead"
        )
    if name == "f_fraction":
        n = int(params["n"])
        if n < 1:
            raise InvalidParams("n must be >= 1")
        base = qq ** (n + 1)
        factors = tuple(ProductFactor(qq**k, base, 1) for k in range(n))
        return _form(q, 1.0, factors=factors).as_expr()
    if name == "f_one_over":
        n = int(params["n"])
        if n < 1:
            raise InvalidParams("n must be >= 1")
        base = qq ** (2 * n - 1)
        factors = tuple(ProductFactor(qq ** (2 * k), base, 1) for k in range(n))
        return _form(q, 1.0, factors=factors).as_expr()
    if name == "f_rational":
        m = int(params["m"])
        n = int(params["n"])
        if not 1 <= m < n:
            raise InvalidParams("need 1 <= m < n")
        base = qq ** (2 * n - m)
        factors = [ProductFactor(qq**k, base, 1) for k in range(m)]
        factors += [
            ProductFactor(qq ** (m + 2 * kp - 1), base, 1) for kp in range(1, n - m + 1)
        ]
        return _form(q, 1.0, factors=tuple(factors)).as_expr()
    if name == "kernel_example":
        phi = float(params.get("phi", math.pi / 3))
        ep = cmath.exp(1j * phi)
        em = cmath.exp(-1j * phi)
        factors = (
            ProductFactor(qq * ep, qq, 1),
            ProductFactor(qq * em, qq, 1),
            ProductFactor(q.sqrt_q * ep, qq, -1),
            ProductFactor(q.sqrt_q * em, qq, -1),
        )
        return _form(q, 1.0, poly=(-math.cos(phi), 1.0), factors=factors).as_expr()
    raise InvalidParams(f"unknown named function {name!r}")


# --- JSON serialization -------------------------------------------------------


def _c2j(c: complex):
    return [c.real, c.imag]


def _j2c(v) -> complex:
    return complex(v[0], v[1])


def expr_to_json(f) -> str:
    """JSON of a FunctionExpr or ProductForm; expr_from_json reads it as a FunctionExpr."""
    obj = {
        "q": _c2j(f.q.q),
        "terms": [
            {
                "coeff": _c2j(c),
                "form": {
                    "constant": _c2j(form.constant),
                    "poly": [_c2j(p) for p in form.poly],
                    "factors": [
                        {"a": _c2j(fa.a), "base": _c2j(fa.base), "m": fa.m}
                        for fa in form.factors
                    ],
                    "q": _c2j(form.q.q),
                },
            }
            for c, form in f.terms
        ],
    }
    return json.dumps(obj, indent=2)


def expr_from_json(src: str) -> FunctionExpr:
    obj = json.loads(src)
    terms = []
    for t in obj["terms"]:
        fm = t["form"]
        form = ProductForm(
            _j2c(fm["constant"]),
            tuple(_j2c(p) for p in fm["poly"]),
            tuple(
                ProductFactor(_j2c(fa["a"]), _j2c(fa["base"]), int(fa["m"]))
                for fa in fm["factors"]
            ),
            QParam(_j2c(fm["q"])),
        )
        terms.append((_j2c(t["coeff"]), form))
    return FunctionExpr(tuple(terms))
