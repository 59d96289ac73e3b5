"""Askey-Wilson polynomials, weights, and their structural identities.

Provides the terminating basic-hypergeometric evaluation of the polynomials,
the orthogonality weight and its shifted family, numeric residual checks of
the self-adjoint second-order divided-difference equation and the
Rodrigues-type formula, Gauss-Legendre orthogonality integrals, and the two
Rogers generating-function checks (continuous q-Hermite and continuous
q-ultraspherical), whose series are summed by the three-term recurrences of
the polynomials (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal
Polynomials and Their q-Analogues, 2010, sections 14.26 and 14.10.1).

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
from .qcore import QParam, lift_to_z, qpoch_finite, qpoch_infinite

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
# residuals' bounds (1e-9, 1e-7 for the eigen equation), while any error not
# caused by cancellation keeps its full relative size.
CANCEL_FLOOR = 1e-6
# truncation tail left by the default number of terms of generating_residual:
# four orders below the 1e-9 the residual is checked against
GEN_TAIL_TOL = 1e-12
# points x of eigen_residual and rodrigues_residual: 13 points of (-1, 1),
# where the weight lives, kept 0.09 or more from its singular branch points +-1
RESIDUAL_X_GRID = np.linspace(-0.87, 0.91, 13)
# nodes of the finer Gauss-Legendre rule of orthogonality_check (the coarser
# has half): the integrand is analytic in a strip of width log(1 / max |p|)
# around [0, pi], so the rule converges geometrically; at 256 the two rules
# agree for a parameter of modulus 0.99 at q = 0.5 and 0.9 (not at 0.995)
ORTHO_NODES = 256


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


def weight_breve(p: AWParams, shift: int = 0):
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
        num, den = _weight_parts(ps, q, z, sin_t)
        if den == 0:
            raise PoleHit("x is a pole of the weight")
        return num / den

    return g


def _weight_parts(ps, q: QParam, z: complex, den: complex) -> tuple:
    """(z^2, z^-2; q)_inf and den * prod_p (p z, p/z; q)_inf, multiplied in that order."""
    num = qpoch_infinite(z * z, q) * qpoch_infinite(1.0 / (z * z), q)
    for w in ps:
        den *= qpoch_infinite(w * z, q) * qpoch_infinite(w / z, q)
    return num, den


def aw_weight(x: complex, p: AWParams, shift: int = 0) -> complex:
    """omega(x; a q^(shift/2), ..., d q^(shift/2) | q) at a point off the poles."""
    x = complex(x)
    if min(abs(x - 1.0), abs(x + 1.0)) < 1e-9:
        raise BranchDegenerate("weight is singular at x = +-1")
    z = lift_to_z(x)
    return weight_breve(p, shift)(z)


def eigenvalue(n: int, p: AWParams) -> complex:
    """lambda_n = 4 q^(-n+1) (1 - q^n)(1 - abcd q^(n-1))."""
    if n < 0:
        raise InvalidParams("n must be >= 0")
    q = p.q.q
    return 4.0 * q ** (-n + 1) * (1.0 - q**n) * (1.0 - p.abcd * q ** (n - 1))


def eigen_residual(n: int, p: AWParams) -> float:
    """Max relative residual of the self-adjoint difference equation on RESIDUAL_X_GRID.

    (1 - q)^2 D_q[omega-tilde * D_q p_n] = -lambda_n * omega * p_n,
    with omega-tilde the shift-1 weight and every D_q applied numerically.
    The residual is _grid_residual's: for a small leading parameter a the
    terms of p_n are large (its prefactor has a^(-n)) and cancel.
    """
    q = p.q
    flux = dq_breve(polynomial_breve(n, p), q)
    wt = weight_breve(p, 1)
    outer = dq_breve(lambda z: wt(z) * flux(z), q)
    return _grid_residual(lambda z: (1.0 - q.q) ** 2 * outer(z), -eigenvalue(n, p), n, p)


def rodrigues_residual(n: int, p: AWParams) -> float:
    """Max relative residual of the Rodrigues-type formula on RESIDUAL_X_GRID.

    (D_q)^n [shift-n weight] = ((q-1)/2)^(-n) q^(-n(n-1)/4) * omega * p_n.
    The q-exponent -n(n-1)/4 and the unshifted weight on the right-hand
    side are fixed by direct numeric comparison of the two sides (the
    alternative normalizations fail already at n = 2).  The residual is
    _grid_residual's.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    q = p.q
    g = weight_breve(p, n)
    for _ in range(n):
        g = dq_breve(g, q)
    const = ((q.q - 1.0) / 2.0) ** (-n) * q.q ** (-n * (n - 1) / 4.0)
    return _grid_residual(g, const, n, p)


def _grid_residual(lhs, const: complex, n: int, p: AWParams) -> float:
    """Max over RESIDUAL_X_GRID of the _residual of lhs(z) against const * omega * p_n.

    The mass of p_n at x is the summed term moduli of its series there.
    """
    w0 = weight_breve(p, 0)
    pn = polynomial_breve(n, p)
    pref, ratios = _series_ratios(n, p)
    worst = 0.0
    for x in RESIDUAL_X_GRID:
        z = lift_to_z(x)
        term = mass = 1.0
        for c, aq, aaqq in ratios:
            term *= abs(c * (1.0 - 2.0 * x * aq + aaqq))
            mass += term
        w = const * w0(z)
        worst = max(worst, _residual(lhs(z), w * pn(z), w * pref, mass))
    return worst


def _residual(lhs, rhs, scale, mass: float) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|, CANCEL_FLOOR |scale| mass, 1).

    rhs is ``scale`` times a series whose summed term moduli are ``mass``:
    where the series cancels, its roundoff scales with those moduli, not
    with |rhs|.
    """
    floor = CANCEL_FLOOR * abs(scale) * mass
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor, 1.0)


def orthogonality_check(m: int, n: int, p: AWParams) -> complex:
    """integral over [-1, 1] of p_m p_n omega dx by Gauss-Legendre in theta.

    The substitution x = cos(t) turns omega dx into a smooth integrand
    (the sin factors cancel exactly), so plain Gauss-Legendre converges
    geometrically; convergence is verified by comparing ORTHO_NODES with
    half as many.
    """
    if not p.admissible():
        raise OutOfRange("orthogonality requires admissible parameters")
    pm = polynomial_breve(m, p)
    pn = polynomial_breve(n, p)
    ps = p.params()
    q = p.q

    def integrand(t: float) -> complex:
        z = cmath.exp(1j * t)
        num, den = _weight_parts(ps, q, z, 1.0 + 0.0j)
        return pm(z) * pn(z) * num / den

    def gauss(k: int) -> tuple[complex, float]:
        """The integral and the integral of |integrand| on k nodes."""
        nodes, weights = np.polynomial.legendre.leggauss(k)
        ts = 0.5 * math.pi * (nodes + 1.0)
        vals = [integrand(t) for t in ts]
        total = sum(w * v for w, v in zip(weights, vals))
        mass = sum(w * abs(v) for w, v in zip(weights, vals))
        return complex(total * 0.5 * math.pi), float(mass * 0.5 * math.pi)

    nodes = ORTHO_NODES
    coarse, _ = gauss(nodes // 2)
    fine, mass = gauss(nodes)
    # the roundoff of a quadrature sum scales with the integral of |integrand|,
    # not with the integral: an off-diagonal entry is ~0 next to a large norm
    if abs(fine - coarse) > 1e-9 * max(mass, 1.0):
        raise QuadratureNonconvergent(
            f"orthogonality quadrature has not settled at {nodes} nodes"
        )
    return fine


class GenKind(Enum):
    qHermite = "qHermite"
    qUltraspherical = "qUltraspherical"


def _series_terms(ratio: float, abs_q: float, abs_beta: float) -> int:
    """Smallest K >= 10 whose generating-series tail is at most GEN_TAIL_TOL.

    With ratio = |t| max(|z|, 1/|z|), the k-th term of either series is at
    most ratio^k m_k, where m_k = sum_j s_j s_(k-j) and
    s_j = (-|beta|; |q|)_j / (|q|; |q|)_j (|beta| = 0 for q-Hermite): by
    H_k(x | q) / (q; q)_k = sum_j z^(k-2j) / ((q; q)_j (q; q)_(k-j)) and
    C_k(x; beta | q) = sum_j (beta; q)_j (beta; q)_(k-j) T_(k-2j)(x)
    / ((q; q)_j (q; q)_(k-j)), where |z^(k-2j)| and |T_(k-2j)| are at most
    max(|z|, 1/|z|)^k, |(q; q)_j| >= (|q|; |q|)_j and
    |(beta; q)_j| <= (-|beta|; |q|)_j.
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


def generating_residual(kind, t: complex, beta: complex, x: complex, q: QParam) -> float:
    """Relative residual of a Rogers generating function against its series.

    qHermite: 1/(t e^(i theta), t e^(-i theta); q)_inf = sum H_k t^k/(q; q)_k.
    qUltraspherical: (beta t e^(+-i theta); q)_inf / (t e^(+-i theta); q)_inf
    = sum C_k(x; beta | q) t^k.  The terms u_k = C_k t^k come from the
    three-term recurrence
    (1 - q^(k+1)) u_(k+1) = 2 x t (1 - beta q^k) u_k - t^2 (1 - beta^2 q^(k-1)) u_(k-1),
    which at beta = 0 is that of u_k = H_k t^k / (q; q)_k, since
    C_k(x; 0 | q) = H_k(x | q) / (q; q)_k.  The series stops at the K of
    _series_terms, and the residual is _residual's with mass the summed
    |u_k|: where x t < 0 and |q| is near 1 the terms alternate and the
    product is many orders below them (1e-46 against 1e63 at q = 0.99,
    t = 0.6, x = -1), below what any double sum of the terms can resolve.
    """
    kind = GenKind(kind)
    t = complex(t)
    if not 0.0 < abs(t) < 1.0:
        raise OutOfRange("the series requires 0 < |t| < 1")
    z = lift_to_z(x)
    growth = max(abs(z), 1.0 / abs(z))
    if abs(t) * growth >= 1.0:
        raise OutOfRange("|t| max(|z|, 1/|z|) must be < 1 for convergence")
    beta = 0.0 if kind is GenKind.qHermite else complex(beta)
    # (0; q)_inf = 1: at beta = 0 both sides are those of q-Hermite, and a
    # beta t that underflows to 0 (beta = 5e-324) leaves that factor 1 too
    lead = (ProductFactor(beta * t, q.q, 1),) if beta * t else ()
    factors = lead + (ProductFactor(t, q.q, -1),)
    lhs = evaluate(ProductForm(1.0, (), factors, q), x)
    K = _series_terms(abs(t) * growth, q.abs_q, abs(beta))
    two_xt = 2.0 * complex(x) * t
    prev, term = 0.0, 1.0 + 0.0j
    series, mass = term, 1.0
    qk = 1.0  # q^k
    for _ in range(K):
        nxt = two_xt * (1.0 - beta * qk) * term - t * t * (1.0 - beta * beta * qk / q.q) * prev
        prev, term = term, nxt / (1.0 - qk * q.q)
        qk *= q.q
        series += term
        mass += abs(term)
    return _residual(lhs, series, 1.0, mass)
