"""Askey-Wilson polynomials, weights, and their structural identities.

Provides the terminating basic-hypergeometric evaluation of the polynomials,
the orthogonality weight and its shifted family, numeric residual checks of
the self-adjoint second-order divided-difference equation and the
Rodrigues-type formula, Gauss-Legendre orthogonality integrals, and the two
Rogers generating-function checks (continuous q-Hermite and continuous
q-ultraspherical).

All divided differences inside the residuals are applied numerically via
the operator module; nothing is simplified symbolically, so the checks are
independent of the closed forms they validate.  The weight is handled as a
z-antisymmetric breve function (the sin(theta) factor flips sign under
z <-> 1/z); the divided-difference quotient of an antisymmetric breve is
again well-defined and the equation pairs antisymmetric sides consistently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .awops import dq_breve
from .errors import (
    BranchDegenerate,
    InvalidParams,
    OutOfRange,
    PoleHit,
    QuadratureNonconvergent,
)
from .funcrep import ProductFactor, ProductForm, evaluate
from .qcore import DEFAULT_POLICY, QParam, lift_to_z, qpoch_finite, qpoch_infinite

__all__ = [
    "AWParams",
    "GenKind",
    "aw_polynomial",
    "aw_weight",
    "eigenvalue",
    "eigen_residual",
    "rodrigues_residual",
    "orthogonality_check",
    "generating_residual",
]

BRANCH_TOL = 1e-12
# Smallest share of its summed term moduli that a terminating series value is
# measured against: the roundoff of a sum of moduli M is ~1e-16 M, so a value
# cancelled below 1e-6 M reads as at most ~1e-10 relative error, under the
# 1e-9 Rodrigues bound, while any error not caused by cancellation keeps its
# full relative size.
CANCEL_FLOOR = 1e-6
# truncation tail left by the default number of terms of generating_residual:
# four orders below the 1e-9 the residual is checked against
GEN_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class AWParams:
    """The four parameters and base of the Askey-Wilson family."""

    a: complex
    b: complex
    c: complex
    d: complex
    q: QParam

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    @property
    def abcd(self) -> complex:
        return self.a * self.b * self.c * self.d

    def params(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def shifted(self, k: int) -> "AWParams":
        """The k-shifted family: every parameter multiplied by q^(k/2)."""
        s = self.q.sqrt_q**k
        return AWParams(self.a * s, self.b * s, self.c * s, self.d * s, self.q)

    def admissible(self) -> bool:
        """Real or conjugate-paired parameters with max modulus < 1."""
        ps = list(self.params())
        if max(abs(p) for p in ps) >= 1.0:
            return False
        complexes = [p for p in ps if abs(p.imag) > 1e-14]
        while complexes:
            p = complexes.pop()
            mate = next((w for w in complexes if abs(w - p.conjugate()) < 1e-12), None)
            if mate is None:
                return False
            complexes.remove(mate)
        return True


def polynomial_breve(n: int, p: AWParams):
    """The n-th polynomial as a z-symmetric breve callable.

    p_n = a^(-n) (ab, ac, ad; q)_n * sum of n+1 terms with the term ratio
    updated multiplicatively; the (a e^(i theta), a e^(-i theta); q)_k pair
    collapses to the real-polynomial factor (1 - 2 a x q^k + a^2 q^(2k)).
    """
    pref, ratios = _series_ratios(n, p)

    def g(z: complex) -> complex:
        x = (z + 1.0 / z) / 2.0
        total = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for c, aq, aaqq in ratios:
            term *= c * (1.0 - 2.0 * x * aq + aaqq)
            total += term
        return pref * total

    return g


def _series_ratios(n: int, p: AWParams):
    """The prefactor of p_n and, per term k < n, (c_k, a q^k, a^2 q^(2k)).

    The k-th term ratio of the series is c_k (1 - 2 a x q^k + a^2 q^(2k));
    only its last factor depends on x.
    """
    if n < 0:
        raise InvalidParams("n must be >= 0")
    a, b, c, d = p.params()
    q = p.q.q
    abcd = p.abcd
    if a == 0:
        raise InvalidParams("leading parameter a must be nonzero")
    pref = (
        qpoch_finite(a * b, p.q, n)
        * qpoch_finite(a * c, p.q, n)
        * qpoch_finite(a * d, p.q, n)
        / a**n
    )
    ratios = []
    for k in range(n):
        num = (1.0 - q ** (k - n)) * (1.0 - abcd * q ** (n - 1 + k)) * q
        den = (
            (1.0 - a * b * q**k)
            * (1.0 - a * c * q**k)
            * (1.0 - a * d * q**k)
            * (1.0 - q ** (k + 1))
        )
        ratios.append((num / den, a * q**k, a * a * q ** (2 * k)))
    return pref, ratios


def aw_polynomial(n: int, p: AWParams, x: complex) -> complex:
    """p_n(x; a, b, c, d | q) evaluated at a complex point."""
    z = lift_to_z(x)
    return polynomial_breve(n, p)(z)


def weight_breve(p: AWParams, shift: int = 0, policy=DEFAULT_POLICY):
    """The orthogonality weight of the shift-k family as a breve callable.

    omega(x) = (z^2, z^-2; q)_inf / (prod_p (p z, p/z; q)_inf * sin(theta))
    with sin(theta) = (z - 1/z)/(2i); antisymmetric under z <-> 1/z.
    """
    ps = p.shifted(shift).params()
    q = p.q

    def g(z: complex) -> complex:
        z = complex(z)
        sin_t = (z - 1.0 / z) / 2.0j
        if abs(sin_t) < BRANCH_TOL:
            raise BranchDegenerate("weight is singular at x = +-1")
        num = qpoch_infinite(z * z, q, policy) * qpoch_infinite(1.0 / (z * z), q, policy)
        den = sin_t
        for w in ps:
            den *= qpoch_infinite(w * z, q, policy) * qpoch_infinite(w / z, q, policy)
        if den == 0:
            raise PoleHit("x is a pole of the weight")
        return num / den

    return g


def aw_weight(x: complex, p: AWParams, shift: int = 0, policy=DEFAULT_POLICY) -> complex:
    """omega(x; a q^(shift/2), ..., d q^(shift/2) | q) at a point off the poles."""
    x = complex(x)
    if min(abs(x - 1.0), abs(x + 1.0)) < 1e-9:
        raise BranchDegenerate("weight is singular at x = +-1")
    z = lift_to_z(x)
    return weight_breve(p, shift, policy)(z)


def eigenvalue(n: int, p: AWParams) -> complex:
    """lambda_n = 4 q^(-n+1) (1 - q^n)(1 - abcd q^(n-1))."""
    if n < 0:
        raise InvalidParams("n must be >= 0")
    q = p.q.q
    return 4.0 * q ** (-n + 1) * (1.0 - q**n) * (1.0 - p.abcd * q ** (n - 1))


def _default_x_grid():
    return np.linspace(-0.87, 0.91, 13)


def eigen_residual(n: int, p: AWParams, grid=None, policy=DEFAULT_POLICY) -> float:
    """Max relative residual of the self-adjoint difference equation on the grid.

    (1 - q)^2 D_q[omega-tilde * D_q p_n] + lambda_n * omega * p_n = 0,
    with omega-tilde the shift-1 weight and every D_q applied numerically.
    """
    if grid is None:
        grid = _default_x_grid()
    q = p.q
    lam = eigenvalue(n, p)
    pn = polynomial_breve(n, p)
    flux = dq_breve(pn, q)
    wt = weight_breve(p, 1, policy)
    w0 = weight_breve(p, 0, policy)
    outer = dq_breve(lambda z: wt(z) * flux(z), q)
    worst = 0.0
    for x in grid:
        z = lift_to_z(x)
        lhs = (1.0 - q.q) ** 2 * outer(z)
        rhs = lam * w0(z) * pn(z)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs + rhs) / scale)
    return worst


def rodrigues_residual(n: int, p: AWParams, grid=None, policy=DEFAULT_POLICY) -> float:
    """Max relative residual of the Rodrigues-type formula on the grid.

    (D_q)^n [shift-n weight] = ((q-1)/2)^(-n) q^(-n(n-1)/4) * omega * p_n.
    The q-exponent -n(n-1)/4 and the unshifted weight on the right-hand
    side are fixed by direct numeric comparison of the two sides (the
    alternative normalizations fail already at n = 2).  Each point's
    residual is relative to max(|lhs|, |rhs|, 1), with the scale floored at
    CANCEL_FLOOR times the summed term moduli of the right-hand side: near
    a zero of p_n its terminating series cancels, and its roundoff scales
    with those moduli, not with |p_n|.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if grid is None:
        grid = _default_x_grid()
    q = p.q
    g = weight_breve(p, n, policy)
    for _ in range(n):
        g = dq_breve(g, q)
    const = ((q.q - 1.0) / 2.0) ** (-n) * q.q ** (-n * (n - 1) / 4.0)
    w0 = weight_breve(p, 0, policy)
    pn = polynomial_breve(n, p)
    pref, ratios = _series_ratios(n, p)
    worst = 0.0
    for x in grid:
        z = lift_to_z(x)
        lhs = g(z)
        w = const * w0(z)
        rhs = w * pn(z)
        term = mass = 1.0
        for c, aq, aaqq in ratios:
            term *= abs(c * (1.0 - 2.0 * x * aq + aaqq))
            mass += term
        floor = CANCEL_FLOOR * abs(w * pref) * mass
        scale = max(abs(lhs), abs(rhs), floor, 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def orthogonality_check(
    m: int, n: int, p: AWParams, quad_nodes: int = 256, policy=DEFAULT_POLICY
) -> complex:
    """integral over [-1, 1] of p_m p_n omega dx by Gauss-Legendre in theta.

    The substitution x = cos(t) turns omega dx into a smooth integrand
    (the sin factors cancel exactly), so plain Gauss-Legendre converges
    geometrically; convergence is verified by comparing two node counts.
    """
    if not p.admissible():
        raise OutOfRange("orthogonality requires admissible parameters")
    pm = polynomial_breve(m, p)
    pn = polynomial_breve(n, p)
    ps = p.params()
    q = p.q

    def integrand(t: float) -> complex:
        z = cmath.exp(1j * t)
        num = qpoch_infinite(z * z, q, policy) * qpoch_infinite(1.0 / (z * z), q, policy)
        den = 1.0 + 0.0j
        for w in ps:
            den *= qpoch_infinite(w * z, q, policy) * qpoch_infinite(w / z, q, policy)
        return pm(z) * pn(z) * num / den

    def gauss(k: int) -> tuple[complex, float]:
        """The integral and the integral of |integrand| on k nodes."""
        nodes, weights = np.polynomial.legendre.leggauss(k)
        ts = 0.5 * math.pi * (nodes + 1.0)
        vals = [integrand(t) for t in ts]
        total = sum(w * v for w, v in zip(weights, vals))
        mass = sum(w * abs(v) for w, v in zip(weights, vals))
        return complex(total * 0.5 * math.pi), float(mass * 0.5 * math.pi)

    coarse, _ = gauss(quad_nodes // 2)
    fine, mass = gauss(quad_nodes)
    # the roundoff of a quadrature sum scales with the integral of |integrand|,
    # not with the integral: an off-diagonal entry is ~0 next to a large norm
    if abs(fine - coarse) > 1e-9 * max(mass, 1.0):
        raise QuadratureNonconvergent(
            f"orthogonality quadrature has not settled at {quad_nodes} nodes"
        )
    return fine


class GenKind(Enum):
    qHermite = "qHermite"
    qUltraspherical = "qUltraspherical"


def _qpoch_table(a: complex, q: QParam, n: int) -> list:
    """[(a; q)_0, ..., (a; q)_n], each by the sequential product of qpoch_finite.

    Entry j is bit for bit ``qpoch_finite(a, q, j)``.
    """
    table = [1.0 + 0.0j]
    f = complex(a)
    for _ in range(n):
        table.append(table[-1] * (1.0 - f))
        f *= q.q
    return table


def _hermite_coeff(k: int, z: complex, qq: list) -> complex:
    """H_k(x | q) = sum_j [k choose j]_q z^(k - 2j), z = e^(i theta).

    ``qq`` is the table of (q; q)_j for j <= k.
    """
    total = 0.0 + 0.0j
    for j in range(k + 1):
        total += qq[k] / (qq[j] * qq[k - j]) * z ** (k - 2 * j)
    return total


def _ultra_coeff(n: int, z: complex, bb: list, qq: list) -> complex:
    """C_n(x; beta | q) with T_m(x) = (z^m + z^(-m))/2.

    ``bb`` and ``qq`` are the tables of (beta; q)_j and (q; q)_j for j <= n.
    """
    total = 0.0 + 0.0j
    for k in range(n + 1):
        m = n - 2 * k
        cheb = 1.0 if m == 0 else (z**m + z**-m) / 2.0
        total += bb[k] * bb[n - k] / (qq[k] * qq[n - k]) * cheb
    return total


def _series_terms(ratio: float, abs_q: float, abs_beta: float) -> int:
    """Smallest K >= 10 whose generating-series tail is at most GEN_TAIL_TOL.

    With ratio = |t| max(|z|, 1/|z|), the k-th term of either series is at
    most ratio^k m_k, where m_k = sum_j s_j s_(k-j) and
    s_j = (-|beta|; |q|)_j / (|q|; |q|)_j (|beta| = 0 for q-Hermite):
    |z^(k-2j)| and |T_(k-2j)| are at most max(|z|, 1/|z|)^k,
    |(q; q)_j| >= (|q|; |q|)_j and |(beta; q)_j| <= (-|beta|; |q|)_j.
    s_j increases to a limit S, so m_k <= (k + 1) S^2 and the tail after
    K is at most S^2 ratio^(K+1) ((K + 2) - (K + 1) ratio) / (1 - ratio)^2.
    """
    # S: the factors of s_j (1 + |beta| p) / (1 - |q| p), p = |q|^j, taken
    # until p is below roundoff; the rest of the product is at most
    # exp(2 (|beta| + |q|) p / (1 - |q|)) for |q| p <= 1/2
    log_s = 0.0
    p = 1.0
    while p > 1e-17:
        log_s += math.log1p(abs_beta * p) - math.log1p(-abs_q * p)
        p *= abs_q
    log_s += 2.0 * (abs_beta + abs_q) * p / (1.0 - abs_q)
    log_tol = math.log(GEN_TAIL_TOL) + 2.0 * math.log(1.0 - ratio) - 2.0 * log_s
    K = 10
    while (K + 1) * math.log(ratio) + math.log((K + 2) - (K + 1) * ratio) > log_tol:
        K += 1
    return K


def generating_residual(
    kind,
    t: complex,
    beta: complex,
    x: complex,
    q: QParam,
    K: int = None,
    policy=DEFAULT_POLICY,
) -> float:
    """|product-form generating function - truncated coefficient series|.

    qHermite: 1/(t e^(i theta), t e^(-i theta); q)_inf = sum H_k t^k/(q; q)_k.
    qUltraspherical: (beta t e^(+-i theta); q)_inf / (t e^(+-i theta); q)_inf
    = sum C_n(x; beta) t^n.  K defaults to the smallest number of terms
    whose tail bound, which includes the growth of the coefficients
    H_k/(q; q)_k and C_n(x; beta | q), is at most GEN_TAIL_TOL.
    """
    kind = GenKind(kind) if not isinstance(kind, GenKind) else kind
    t = complex(t)
    if not 0.0 < abs(t) < 1.0:
        raise OutOfRange("the series requires 0 < |t| < 1")
    z = lift_to_z(x)
    growth = max(abs(z), 1.0 / abs(z))
    if abs(t) * growth >= 1.0:
        raise OutOfRange("|t| max(|z|, 1/|z|) must be < 1 for convergence")
    if K is None:
        abs_beta = 0.0 if kind is GenKind.qHermite else abs(complex(beta))
        K = _series_terms(abs(t) * growth, q.abs_q, abs_beta)
    qq = _qpoch_table(q.q, q, K)
    if kind is GenKind.qHermite:
        lhs = evaluate(
            ProductForm(1.0, (), (ProductFactor(t, q.q, -1),), q), x, policy
        )
        series = sum(_hermite_coeff(k, z, qq) / qq[k] * t**k for k in range(K + 1))
    else:
        beta = complex(beta)
        bb = _qpoch_table(beta, q, K)
        lhs = evaluate(
            ProductForm(
                1.0,
                (),
                (ProductFactor(beta * t, q.q, 1), ProductFactor(t, q.q, -1)),
                q,
            ),
            x,
            policy,
        )
        series = sum(_ultra_coeff(n, z, bb, qq) * t**n for n in range(K + 1))
    return abs(lhs - series)
