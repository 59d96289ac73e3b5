"""The divided-difference operator D_q and averaging operator A_q.

Operators act on "breve" callables g(z) that are symmetric under z <-> 1/z
(so g(z) = f((z + 1/z)/2)); applying D_q or A_q preserves that symmetry,
which is what makes iteration well-defined without branch bookkeeping.
FunctionExpr/ProductForm inputs are adapted automatically, and plain
callables in x are accepted for tests and black-box residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateGenerator, InvalidParams, SelfCheckFailed
from .funcrep import FunctionExpr, ProductForm, breve_value, evaluate
from .qcore import QParam, lift_to_z, qpoch_finite

__all__ = [
    "ChebKind",
    "ChebExpansion",
    "as_breve",
    "dq_breve",
    "avg_breve",
    "aw_diff",
    "aw_avg",
    "aw_diff_basis",
    "aw_diff_iterate",
    "aw_taylor",
    "cheb_expand_operator",
    "phi_basis",
]

# a z within d = BRANCH_POINT_NUDGE of a branch point z = +-1, where D_q is
# 0/0, moves to z (1 + d): x moves by less than 2 d^2 (2e-12), and the nudged
# z, about d or more from +-1, leaves a cancellation of at most ~1e-16 / d (1e-10)
BRANCH_POINT_NUDGE = 1e-6


def as_breve(f):
    """Adapt f (FunctionExpr, ProductForm, or callable in x) to a breve callable."""
    if isinstance(f, (FunctionExpr, ProductForm)):
        return lambda z: breve_value(f, z)
    if callable(f):
        return lambda z: f((z + 1.0 / z) / 2.0)
    raise InvalidParams(f"cannot interpret {type(f).__name__} as a function")


def _operator_q(f, q) -> QParam:
    if q is not None:
        return q
    if isinstance(f, (FunctionExpr, ProductForm)):
        return f.q
    raise InvalidParams("plain callables need an explicit QParam")


def dq_breve(g, q: QParam):
    """Breve form of D_q g: (g(sz) - g(z/s)) / ((s - 1/s)(z - 1/z)/2)."""
    s = q.sqrt_q

    def dg(z):
        return (g(s * z) - g(z / s)) / ((s - 1.0 / s) * (z - 1.0 / z) / 2.0)

    return dg


def avg_breve(g, q: QParam):
    """Breve form of A_q g: (g(sz) + g(z/s)) / 2."""
    s = q.sqrt_q

    def ag(z):
        return (g(s * z) + g(z / s)) / 2.0

    return ag


def _x_eval(f, x):
    """Evaluate f (FunctionExpr, ProductForm, or callable in x) at an x-point."""
    if isinstance(f, (FunctionExpr, ProductForm)):
        return evaluate(f, x)
    return f(x)


def aw_diff(f, x: complex, q: QParam = None) -> complex:
    """(D_q f)(x), with the branch-point limit of aw_diff_iterate near x = +-1.

    At x = +-1 the divided difference degenerates to the ordinary derivative
    at the image point +-(q^(1/2) + q^(-1/2))/2.
    """
    return aw_diff_iterate(f, 1, x, q)


def aw_avg(f, x: complex, q: QParam = None) -> complex:
    """(A_q f)(x) = (f-breve(q^(1/2) z) + f-breve(q^(-1/2) z))/2."""
    q = _operator_q(f, q)
    g = as_breve(f)
    return avg_breve(g, q)(lift_to_z(x))


def aw_diff_basis(n: int, a: complex, q: QParam) -> tuple[complex, complex]:
    """Action of D_q on the basis polynomial phi_n(x; a).

    Returns (scalar, shifted_a) with
    D_q phi_n(x; a) = scalar * phi_{n-1}(x; shifted_a),
    scalar = -2a(1 - q^n)/(1 - q), shifted_a = a q^(1/2).
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    scalar = -2.0 * a * (1.0 - q.q**n) / (1.0 - q.q)
    return scalar, a * q.sqrt_q


def phi_basis(n: int, a: complex, q: QParam, x: complex) -> complex:
    """Basis polynomial phi_n(x; a) = prod_{j<n} (1 - 2 a x q^j + a^2 q^(2j))."""
    if n < 0:
        raise InvalidParams("n must be >= 0")
    out = 1.0 + 0.0j
    qj = 1.0 + 0.0j
    for _ in range(n):
        out *= 1.0 - 2.0 * a * x * qj + a * a * qj * qj
        qj *= q.q
    return out


def aw_diff_iterate(f, k: int, x: complex, q: QParam = None) -> complex:
    """(D_q^k f)(x) by iterated operator application in the z-domain.

    A point z within BRANCH_POINT_NUDGE of a branch point +-1 is nudged off it.
    """
    if k < 1:
        raise InvalidParams("k must be >= 1")
    q = _operator_q(f, q)
    g = as_breve(f)
    for _ in range(k):
        g = dq_breve(g, q)
    z = lift_to_z(x)
    if min(abs(z - 1.0), abs(z + 1.0)) < BRANCH_POINT_NUDGE:
        # degenerate denominator; evaluate the symmetric limit a hair off
        z = z * (1.0 + BRANCH_POINT_NUDGE)
    return g(z)


def aw_taylor(f, a: complex, K: int, q: QParam = None):
    """Interpolation-series coefficients of f in the basis phi_k(x; a).

    coefficient_k = (q-1)^k / ((2a)^k (q;q)_k) * q^(-k(k-1)/4) * (D_q^k f)(x_k)
    with interpolation points x_k = (a q^(k/2) + q^(-k/2)/a)/2.
    """
    if a == 0:
        raise DegenerateGenerator("interpolation basis needs a != 0")
    q = _operator_q(f, q)
    s = q.sqrt_q
    coeffs = []
    for k in range(K + 1):
        w = a * s**k
        xk = (w + 1.0 / w) / 2.0
        if k == 0:
            val = _x_eval(f, xk)
        else:
            val = aw_diff_iterate(f, k, xk, q)
        pref = (q.q - 1.0) ** k / ((2.0 * a) ** k * qpoch_finite(q.q, q, k))
        pref *= s ** (-k * (k - 1) / 2.0) if k else 1.0
        coeffs.append(pref * val)
    return coeffs


class ChebKind(Enum):
    FirstKind = "FirstKind"
    SecondKind = "SecondKind"


@dataclass(frozen=True)
class ChebExpansion:
    """Finite Chebyshev expansion; coeffs[m] multiplies T_m or U_m."""

    kind: ChebKind
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x: complex) -> complex:
        x = complex(x)
        if not self.coeffs:
            return 0.0 + 0.0j
        # three-term recurrence works for complex x for both kinds
        p_prev = 1.0 + 0.0j
        p_curr = x if self.kind is ChebKind.FirstKind else 2.0 * x
        total = self.coeffs[0] * p_prev
        if len(self.coeffs) > 1:
            total += self.coeffs[1] * p_curr
        for m in range(2, len(self.coeffs)):
            p_prev, p_curr = p_curr, 2.0 * x * p_curr - p_prev
            total += self.coeffs[m] * p_curr
        return total


class OpKind(Enum):
    Diff = "Diff"
    Avg = "Avg"


def cheb_expand_operator(op, k: int, q: QParam) -> ChebExpansion:
    """Expansion of D_q x^k (second kind) or A_q x^k (first kind).

    Coefficients come from the binomial expansion of ((z + 1/z)/2)^k in the
    z-domain, where z^m +- z^(-m) map onto 2 T_m and (z - 1/z) U_{m-1};
    the result is verified against the numeric operators at sample points
    before being returned.
    """
    if k < 0:
        raise InvalidParams("k must be >= 0")
    op = OpKind(op) if not isinstance(op, OpKind) else op
    s = q.sqrt_q
    if op is OpKind.Diff:
        coeffs = [0.0 + 0.0j] * max(k, 1)
        for j in range(0, (k - 1) // 2 + 1):
            m = k - 2 * j
            gamma = (s**m - s**-m) / (s - 1.0 / s)
            coeffs[m - 1] += 2.0 ** (1 - k) * math.comb(k, j) * gamma
        expansion = ChebExpansion(ChebKind.SecondKind, tuple(coeffs))
        numeric = lambda x: aw_diff(lambda t: t**k, x, q)
    else:
        coeffs = [0.0 + 0.0j] * (k + 1)
        for j in range(0, k // 2 + 1):
            m = k - 2 * j
            if m == 0:
                coeffs[0] += 2.0**-k * math.comb(k, j)
            else:
                coeffs[m] += 2.0**-k * math.comb(k, j) * (s**m + s**-m)
        expansion = ChebExpansion(ChebKind.FirstKind, tuple(coeffs))
        numeric = lambda x: aw_avg(lambda t: t**k, x, q)
    for x in (0.37, 1.9, -0.52 + 0.4j, 3.1 - 0.7j):
        want = numeric(x)
        got = expansion(x)
        if abs(want - got) > 1e-10 * max(1.0, abs(want)):
            raise SelfCheckFailed(
                f"Chebyshev expansion of {op.value} x^{k} disagrees with the "
                f"numeric operator at x = {x}: {got} vs {want}"
            )
    return expansion
