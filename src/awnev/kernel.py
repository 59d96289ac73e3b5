"""Functions annihilated by the divided-difference operator.

The kernel of D_q consists of C * prod_j phi(x; a_j) phi(x; q/a_j) /
(phi(x; b_j) phi(x; q/b_j)).  This module builds such quotients, tests
membership numerically, solves for the single-product representation of a
linear combination of kernel products (by locating the zero classes of the
combination inside a fundamental z-annulus), and evaluates the four Jacobi
theta functions whose classical identities instantiate that solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .awops import aw_diff
from .errors import (
    DegenerateGenerator,
    InvalidParams,
    PhaseJumpTooLarge,
    RootNotFound,
    VerificationFailed,
)
from .funcrep import FunctionExpr, ProductFactor, ProductForm, evaluate, zero_pole_ledger
from .nevanlinna import _newton_polish
from .qcore import DEFAULT_POLICY, QParam, qpoch_infinite

__all__ = [
    "KernelTermSpec",
    "KernelSolution",
    "make_fab",
    "kernel_member",
    "kernel_pair_form",
    "kernel_sum_expr",
    "kernel_solve",
    "theta",
    "verify_identity",
]


@dataclass(frozen=True)
class KernelTermSpec:
    """coefficient * prod_i phi(x; a_i) phi(x; q/a_i) for generators a_i."""

    coefficient: complex
    generators: tuple

    def __post_init__(self):
        gens = tuple(complex(a) for a in self.generators)
        if not gens or any(a == 0 for a in gens):
            raise DegenerateGenerator("generators must be nonzero and nonempty")
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class KernelSolution:
    c_generators: tuple
    C: complex
    residual: float


def _cancel(factors):
    """Cancel repeated (a, base) factors with opposite exponents."""
    acc = {}
    for f in factors:
        key = (f.a, f.base)
        acc[key] = acc.get(key, 0) + f.m
    return tuple(ProductFactor(a, base, m) for (a, base), m in acc.items() if m != 0)


def kernel_pair_form(generators, q: QParam, constant=1.0, m_sign=1) -> ProductForm:
    """Product over generators of [phi(x; a) phi(x; q/a)]^(m_sign)."""
    factors = []
    for a in generators:
        a = complex(a)
        if a == 0:
            raise DegenerateGenerator("generator a = 0")
        factors.append(ProductFactor(a, q.q, m_sign))
        factors.append(ProductFactor(q.q / a, q.q, m_sign))
    return ProductForm(constant, (), _cancel(factors), q)


def make_fab(a: complex, b: complex, q: QParam) -> ProductForm:
    """phi(x; a) phi(x; q/a) / (phi(x; b) phi(x; q/b)) as one ProductForm."""
    a, b = complex(a), complex(b)
    if a == 0 or b == 0:
        raise DegenerateGenerator("a and b must be nonzero")
    factors = _cancel(
        [
            ProductFactor(a, q.q, 1),
            ProductFactor(q.q / a, q.q, 1),
            ProductFactor(b, q.q, -1),
            ProductFactor(q.q / b, q.q, -1),
        ]
    )
    return ProductForm(1.0, (), factors, q)


def kernel_sum_expr(terms, q: QParam) -> FunctionExpr:
    """FunctionExpr for sum_j C_j prod_i phi(x; a_ij) phi(x; q/a_ij)."""
    terms = list(terms)
    if not terms:
        raise InvalidParams("need at least one term")
    m = len(terms[0].generators)
    if any(len(t.generators) != m for t in terms):
        raise InvalidParams("all terms must share the same number of generators")
    return FunctionExpr(
        tuple((t.coefficient, kernel_pair_form(t.generators, q)) for t in terms)
    )


def _default_grid(f: FunctionExpr, npts: int, rmin=2.0, rmax=50.0, seed=5):
    """Sample points staying clear of the zero/pole lattices of f."""
    events = []
    for _, form in f.terms:
        events.extend(e.x for e in zero_pole_ledger(form, 4.0 * rmax))
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < npts:
        r = math.exp(rng.uniform(math.log(rmin), math.log(rmax)))
        x = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if all(abs(x - e) > 1e-3 * max(1.0, abs(e)) for e in events):
            pts.append(x)
    return pts


def kernel_member(f: FunctionExpr, grid=None, tol: float = 1e-8, policy=DEFAULT_POLICY) -> bool:
    """True iff the divided difference of f vanishes (relatively) on the grid."""
    if isinstance(f, ProductForm):
        f = f.as_expr()
    if grid is None:
        grid = _default_grid(f, 40)
    worst = 0.0
    for x in grid:
        fx = evaluate(f, x, policy)
        d = aw_diff(f, x, policy=policy)
        worst = max(worst, abs(d) / max(1.0, abs(fx)))
    return worst < tol


# --- solver ---------------------------------------------------------------------


def _z_phases(f: FunctionExpr, pts, policy):
    lg = f.breve_log(np.asarray(pts, dtype=complex), policy)
    return np.asarray(lg).imag


def _path_winding(f: FunctionExpr, pts, policy, depth=0) -> float:
    phases = _z_phases(f, pts, policy)
    total = 0.0
    for i in range(len(pts) - 1):
        d = phases[i + 1] - phases[i]
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if abs(d) > 0.5 * math.pi:
            if depth >= 28:
                raise PhaseJumpTooLarge("z-plane phase refinement exhausted")
            mid = cmath.sqrt(pts[i] * pts[i + 1])
            if abs(mid - pts[i]) > abs(-mid - pts[i]):
                mid = -mid
            d = _path_winding(f, [pts[i], mid], policy, depth + 1) + _path_winding(
                f, [mid, pts[i + 1]], policy, depth + 1
            )
        total += d
    return total


def _cell_count(f, u0, u1, t0, t1, policy, per_edge=12):
    """Zero count of f-breve inside the log-annulus cell exp([u0,u1] x i[t0,t1])."""
    edges = []
    us = np.linspace(u0, u1, per_edge)
    ts = np.linspace(t0, t1, per_edge)
    edges.append(np.exp(us + 1j * t0))
    edges.append(np.exp(u1 + 1j * ts))
    edges.append(np.exp(us[::-1] + 1j * t1))
    edges.append(np.exp(u0 + 1j * ts[::-1]))
    total = sum(_path_winding(f, list(e), policy) for e in edges)
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.25:
        raise PhaseJumpTooLarge("cell winding did not settle")
    return int(round(w))


def _annulus_roots(f: FunctionExpr, q: QParam, policy, sectors=64):
    """Zeros of f-breve in the annulus rho <= |z| < rho/|q|, with multiplicity.

    Works on the logarithmic rectangle and subdivides winding-positive cells
    until they isolate a point; the annulus inner radius rho is chosen
    irrationally so lattice zeros never sit on cell boundaries (with a few
    retries if they do anyway).
    """
    L = -math.log(q.abs_q)
    for attempt in range(6):
        # irrational offsets keep lattice zeros off the window seams
        rho = q.abs_q ** (0.137 + 0.1 * attempt)
        t0 = 0.2377 + 0.41 * attempt
        u0 = math.log(rho)
        try:
            total = _cell_count(f, u0, u0 + L, t0, t0 + 2.0 * math.pi, policy, per_edge=16 * sectors)
            roots = []
            stack = []
            for k in range(sectors):
                stack.append(
                    (
                        u0,
                        u0 + L,
                        t0 + 2.0 * math.pi * k / sectors,
                        t0 + 2.0 * math.pi * (k + 1) / sectors,
                    )
                )
            while stack:
                a0, a1, b0, b1 = stack.pop()
                # stop well above the noise floor of a multiple zero: near a
                # double zero at distance d the function is ~d^2, so cells much
                # below ~3e-7 probe values at roundoff level; class matching
                # only needs the root to ~1e-6 anyway
                small = max(a1 - a0, b1 - b0) < 3e-7
                try:
                    cnt = _cell_count(f, a0, a1, b0, b1, policy)
                except PhaseJumpTooLarge:
                    if small:
                        raise
                    # a zero sits (numerically) on the boundary; splitting
                    # moves the edges, and the final count-conservation check
                    # still guards against anything getting lost
                    cnt = None
                if cnt is not None:
                    if cnt <= 0:
                        continue
                    if small:
                        roots.append(
                            (cmath.exp(complex(0.5 * (a0 + a1), 0.5 * (b0 + b1))), cnt)
                        )
                        continue
                # split off-center so repeated subdivision never drives a cell
                # boundary straight into a zero
                am = a0 + 0.531 * (a1 - a0)
                bm = b0 + 0.531 * (b1 - b0)
                stack.extend(
                    [(a0, am, b0, bm), (am, a1, b0, bm), (a0, am, bm, b1), (am, a1, bm, b1)]
                )
            if sum(c for _, c in roots) != total:
                raise PhaseJumpTooLarge("lost roots during subdivision")
            return roots, total
        except PhaseJumpTooLarge:
            continue
    raise RootNotFound("annulus root search failed for every boundary offset")


def _refine_root(f: FunctionExpr, z: complex, mult: int, policy) -> complex:
    """Polish an annulus zero of multiplicity mult by modified Newton steps."""

    def val(w):
        lg = f.breve_log(complex(w), policy)
        return cmath.exp(lg) if lg.real != -math.inf else 0.0 + 0.0j

    return _newton_polish(val, z, mult)[0]


def _same_class(z1: complex, z2: complex, q: QParam) -> bool:
    """True if z1, z2 generate the same zero lattice {c q^n} u {q^n / c}."""
    for w in (z1 / z2, z1 * z2):
        t = math.log(abs(w)) / math.log(q.abs_q)
        n = round(t)
        if abs(t - n) < 1e-6 and abs(w - q.q**n) < 1e-6 * max(1.0, abs(w)):
            return True
    return False


def kernel_solve(terms, q: QParam, policy=DEFAULT_POLICY) -> KernelSolution:
    """Represent a sum of kernel products as C * prod_i phi(x; c_i) phi(x; q/c_i).

    Locates the 2m zeros (with multiplicity) of the combination inside a
    fundamental z-annulus, groups them into m lattice classes, reads the
    generators c_i off the class representatives, fixes C at a probe point
    far from every lattice, and verifies on a 60-point grid.
    """
    terms = [t if isinstance(t, KernelTermSpec) else KernelTermSpec(*t) for t in terms]
    f = kernel_sum_expr(terms, q)
    m = len(terms[0].generators)
    if len(terms) == 1:
        c_gens = terms[0].generators
        C = terms[0].coefficient
    else:
        roots, total = _annulus_roots(f, q, policy)
        if total != 2 * m:
            raise RootNotFound(
                f"expected {2 * m} annulus zeros (two per class), found {total}"
            )
        classes = []  # [representative, representative multiplicity, class total]
        for z, cnt in roots:
            placed = False
            for cls in classes:
                if _same_class(z, cls[0], q):
                    cls[2] += cnt
                    placed = True
                    break
            if not placed:
                classes.append([z, cnt, cnt])
        c_gens = []
        for z, mult, cnt in classes:
            if cnt % 2 != 0:
                raise RootNotFound(f"class of {z} has odd zero count {cnt}")
            z = _refine_root(f, z, mult, policy)
            c_gens.extend([z] * (cnt // 2))
        if len(c_gens) != m:
            raise RootNotFound(f"recovered {len(c_gens)} generators, expected {m}")
        probe = 3.0 * (q.abs_q + 1.0 / q.abs_q) / 2.0
        rhs_form = kernel_pair_form(c_gens, q)
        C = evaluate(f, probe, policy) / evaluate(rhs_form, probe, policy)
    rhs = kernel_pair_form(c_gens, q, constant=C)
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 60:
        r = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        x = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        lhs_v = evaluate(f, x, policy)
        rhs_v = evaluate(rhs, x, policy)
        scale = max(abs(lhs_v), abs(rhs_v))
        if scale < 1e-12:
            continue
        worst = max(worst, abs(lhs_v - rhs_v) / scale)
        checked += 1
    if worst > 1e-7:
        raise VerificationFailed(f"kernel identity residual {worst} exceeds 1e-7")
    return KernelSolution(c_generators=tuple(c_gens), C=complex(C), residual=worst)


# --- theta functions -------------------------------------------------------------


def theta(j: int, w: complex, q: QParam, policy=DEFAULT_POLICY) -> complex:
    """Jacobi theta_j(w, q) from its q-infinite-product representation.

    theta4 = (q^2;q^2) (q e^(2iw), q e^(-2iw); q^2);
    theta3(w) = theta4(w + pi/2);
    theta1(w) = -i q^(1/4) e^(iw) (q^2;q^2) (q^2 e^(2iw), e^(-2iw); q^2);
    theta2(w) = theta1(w + pi/2).
    """
    w = complex(w)
    qq = q.q
    q2 = qq * qq
    c = qpoch_infinite(q2, q2, policy)
    e2 = cmath.exp(2j * w)
    if j == 4:
        return c * qpoch_infinite(qq * e2, q2, policy) * qpoch_infinite(qq / e2, q2, policy)
    if j == 3:
        return c * qpoch_infinite(-qq * e2, q2, policy) * qpoch_infinite(-qq / e2, q2, policy)
    q14 = cmath.exp(cmath.log(qq) / 4.0)
    if j == 1:
        return (
            -1j
            * q14
            * cmath.exp(1j * w)
            * c
            * qpoch_infinite(q2 * e2, q2, policy)
            * qpoch_infinite(1.0 / e2, q2, policy)
        )
    if j == 2:
        return (
            q14
            * cmath.exp(1j * w)
            * c
            * qpoch_infinite(-q2 * e2, q2, policy)
            * qpoch_infinite(-1.0 / e2, q2, policy)
        )
    raise InvalidParams("theta index j must be 1..4")


def _triple_product_series(z: complex, q: QParam) -> complex:
    s = 1.0 + 0.0j
    k = 1
    while True:
        t = (-1) ** k * q.q ** (k * k / 2.0) * (z**k + z**-k)
        s += t
        if abs(t) < 1e-18 and k > 3:
            return s
        k += 1
        if k > 4000:
            raise VerificationFailed("triple-product series did not converge")


def verify_identity(identity: str, q: QParam, samples, policy=DEFAULT_POLICY) -> float:
    """Max relative residual of a classical identity over the samples.

    identity = 'TripleProduct' (samples are z values), 'SquareSum'
    (samples are theta arguments) or 'Addition' (samples are (z, y) pairs).
    """
    worst = 0.0
    if identity == "TripleProduct":
        s = q.sqrt_q
        c = qpoch_infinite(q.q, q, policy)
        for z in samples:
            z = complex(z)
            lhs = c * qpoch_infinite(s * z, q, policy) * qpoch_infinite(s / z, q, policy)
            rhs = _triple_product_series(z, q)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    if identity == "SquareSum":
        t20, t30, t40 = (theta(j, 0.0, q, policy) for j in (2, 3, 4))
        for z in samples:
            z = complex(z)
            lhs = theta(4, z, q, policy) ** 2 * t40**2 + theta(2, z, q, policy) ** 2 * t20**2
            rhs = theta(3, z, q, policy) ** 2 * t30**2
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    if identity == "Addition":
        # addition formula: theta3(z+y) theta3(z-y) theta3(0)^2
        #                   = theta3(y)^2 theta3(z)^2 + theta1(y)^2 theta1(z)^2
        # (the theta3(0)^2 normalization is forced: the two sides agree at
        # z = y = 0 only with it, and the residual check below confirms it)
        t30 = theta(3, 0.0, q, policy)
        for z, y in samples:
            z, y = complex(z), complex(y)
            lhs = theta(3, z + y, q, policy) * theta(3, z - y, q, policy) * t30**2
            rhs = (
                theta(3, y, q, policy) ** 2 * theta(3, z, q, policy) ** 2
                + theta(1, y, q, policy) ** 2 * theta(1, z, q, policy) ** 2
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    raise InvalidParams("identity must be TripleProduct, SquareSum or Addition")
