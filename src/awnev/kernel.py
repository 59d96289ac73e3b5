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
    ContourTooClose,
    DegenerateGenerator,
    InvalidParams,
    PhaseJumpTooLarge,
    RootNotFound,
    VerificationFailed,
)
from .funcrep import FunctionExpr, ProductFactor, ProductForm, evaluate, zero_pole_ledger
from .nevanlinna import (
    KERNEL_EDGE_SAMPLES,
    KERNEL_MIN_SIZE,
    SMALL_BOX_RTOL,
    _newton_polish,
    _rect_winding,
    _root_quadtree,
    _value,
)
from .qcore import QParam, qpoch_infinite

__all__ = [
    "KernelTermSpec",
    "KernelSolution",
    "make_fab",
    "kernel_member",
    "kernel_residual",
    "kernel_pair_form",
    "kernel_sum_expr",
    "kernel_solve",
    "theta",
    "verify_identity",
]

# kernel_member's bound on kernel_residual: make_fab quotients read the
# roundoff of D_q f, up to 4e-13 (at q = 0.9), and a non-member reads O(1)
KERNEL_RTOL = 1e-8
# the points of kernel_residual: KERNEL_GRID_POINTS points of
# KERNEL_GRID_RMIN <= |x| <= KERNEL_GRID_RMAX, log-uniform in modulus with
# uniform argument from a generator seeded with KERNEL_GRID_SEED, each kept
# 1e-3 relatively clear of every zero and pole of f
KERNEL_GRID_POINTS = 40
KERNEL_GRID_RMIN = 2.0
KERNEL_GRID_RMAX = 50.0
KERNEL_GRID_SEED = 5


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


def kernel_pair_form(generators, q: QParam, constant=1.0) -> ProductForm:
    """constant * product over generators of phi(x; a) phi(x; q/a)."""
    factors = []
    for a in generators:
        a = complex(a)
        if a == 0:
            raise DegenerateGenerator("generator a = 0")
        factors.append(ProductFactor(a, q.q, 1))
        factors.append(ProductFactor(q.q / a, q.q, 1))
    # the product merges repeated generators into one factor each
    return ProductForm(constant, (), (), q) * ProductForm(1.0, (), tuple(factors), q)


def make_fab(a: complex, b: complex, q: QParam) -> ProductForm:
    """phi(x; a) phi(x; q/a) / (phi(x; b) phi(x; q/b)) as one ProductForm."""
    return kernel_pair_form((a,), q) * kernel_pair_form((b,), q).inverse()


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


def _default_grid(f):
    """The points of kernel_residual, clear of the zero/pole lattices of f."""
    events = []
    for _, form in f.terms:
        events.extend(e.x for e in zero_pole_ledger(form, 4.0 * KERNEL_GRID_RMAX))
    rng = np.random.default_rng(KERNEL_GRID_SEED)
    lo, hi = math.log(KERNEL_GRID_RMIN), math.log(KERNEL_GRID_RMAX)
    pts = []
    while len(pts) < KERNEL_GRID_POINTS:
        r = math.exp(rng.uniform(lo, hi))
        x = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if all(abs(x - e) > 1e-3 * max(1.0, abs(e)) for e in events):
            pts.append(x)
    return pts


def kernel_residual(f) -> float:
    """Max of |D_q f| / max(1, |f|) over the KERNEL_GRID_POINTS points clear of the lattices."""
    worst = 0.0
    for x in _default_grid(f):
        fx = evaluate(f, x)
        d = aw_diff(f, x)
        worst = max(worst, abs(d) / max(1.0, abs(fx)))
    return worst


def kernel_member(f) -> bool:
    """True iff the divided difference of f vanishes on the grid, within KERNEL_RTOL."""
    return kernel_residual(f) < KERNEL_RTOL


# --- solver ---------------------------------------------------------------------


def _annulus_roots(f: FunctionExpr, q: QParam):
    """Zeros of f-breve in the annulus rho <= |z| < rho/|q|, with multiplicity.

    Searches the logarithmic rectangle in 64 sectors by nevanlinna._root_quadtree
    and checks the total against a fine winding of the whole rectangle; rho is
    irrational so lattice zeros miss the cell edges (with retries if they do not).
    """
    L = -math.log(q.abs_q)
    small = SMALL_BOX_RTOL * L
    sectors = 64
    for attempt in range(6):
        # irrational offsets keep lattice zeros off the window seams
        u0 = math.log(q.abs_q ** (0.137 + 0.1 * attempt))  # log rho
        t0 = 0.2377 + 0.41 * attempt
        ts = [t0 + 2.0 * math.pi * k / sectors for k in range(sectors + 1)]
        cells = [(complex(u0, lo), complex(u0 + L, hi)) for lo, hi in zip(ts, ts[1:])]
        try:
            total = _rect_winding(f, 0, cells[0][0], cells[-1][1], 16 * sectors, np.exp)
            roots = _root_quadtree(f, 0, cells, KERNEL_EDGE_SAMPLES, np.exp, small, small,
                                   KERNEL_MIN_SIZE)
        except (PhaseJumpTooLarge, ContourTooClose):  # a zero on or near a cell edge
            continue
        if sum(c for _, c in roots) == total:  # else roots were lost in the search
            return [(cmath.exp(p), c) for p, c in roots], total
    raise RootNotFound("annulus root search failed for every boundary offset")


def _same_class(z1: complex, z2: complex, q: QParam) -> bool:
    """True if z1, z2 generate the same zero lattice {c q^n} u {q^n / c}."""
    for w in (z1 / z2, z1 * z2):
        t = math.log(abs(w)) / math.log(q.abs_q)
        n = round(t)
        if abs(t - n) < 1e-6 and abs(w - q.q**n) < 1e-6 * max(1.0, abs(w)):
            return True
    return False


def kernel_solve(terms, q: QParam) -> KernelSolution:
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
        roots, total = _annulus_roots(f, q)
        if total != 2 * m:
            raise RootNotFound(
                f"expected {2 * m} annulus zeros (two per class), found {total}"
            )
        classes = []  # [representative, representative multiplicity, class total]
        for z, cnt in roots:
            for cls in classes:
                if _same_class(z, cls[0], q):
                    cls[2] += cnt
                    break
            else:
                classes.append([z, cnt, cnt])
        c_gens = []
        for z, mult, cnt in classes:
            if cnt % 2 != 0:
                raise RootNotFound(f"class of {z} has odd zero count {cnt}")
            z = _newton_polish(_value(f, 0, complex), z, mult)[0]
            c_gens.extend([z] * (cnt // 2))
        if len(c_gens) != m:
            raise RootNotFound(f"recovered {len(c_gens)} generators, expected {m}")
        probe = 3.0 * (q.abs_q + 1.0 / q.abs_q) / 2.0
        rhs_form = kernel_pair_form(c_gens, q)
        C = evaluate(f, probe) / evaluate(rhs_form, probe)
    rhs = kernel_pair_form(c_gens, q, constant=C)
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 60:
        r = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        x = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        lhs_v = evaluate(f, x)
        rhs_v = evaluate(rhs, x)
        scale = max(abs(lhs_v), abs(rhs_v))
        if scale < 1e-12:
            continue
        worst = max(worst, abs(lhs_v - rhs_v) / scale)
        checked += 1
    if worst > 1e-7:
        raise VerificationFailed(f"kernel identity residual {worst} exceeds 1e-7")
    return KernelSolution(c_generators=tuple(c_gens), C=complex(C), residual=worst)


# --- theta functions -------------------------------------------------------------


def theta(j: int, w: complex, q: QParam) -> complex:
    """Jacobi theta_j(w, q) from its q-infinite-product representation.

    theta_j(w) = head (u e^(2iw), v e^(-2iw); q^2)_inf with c = (q^2; q^2)_inf and

        j   u      v    head
        4   q      q    c
        3   -q     -q   c                   (theta4(w + pi/2))
        1   q^2    1    -i q^(1/4) e^(iw) c
        2   -q^2   -1   q^(1/4) e^(iw) c    (theta1(w + pi/2))
    """
    if j not in (1, 2, 3, 4):
        raise InvalidParams("theta index j must be 1..4")
    w = complex(w)
    qq = q.q
    q2 = qq * qq
    c = qpoch_infinite(q2, q2)
    e2 = cmath.exp(2j * w)
    u, v = {4: (qq, qq), 3: (-qq, -qq), 1: (q2, 1.0), 2: (-q2, -1.0)}[j]
    head = c
    if j < 3:
        q14 = cmath.exp(cmath.log(qq) / 4.0)
        head = (-1j * q14 if j == 1 else q14) * cmath.exp(1j * w) * c
    return head * qpoch_infinite(u * e2, q2) * qpoch_infinite(v / e2, q2)


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


def verify_identity(identity: str, q: QParam, samples) -> float:
    """Max relative residual of a classical identity over the samples.

    identity = 'TripleProduct' (samples are z values), 'SquareSum'
    (samples are theta arguments) or 'Addition' (samples are (z, y) pairs).
    """
    worst = 0.0
    if identity == "TripleProduct":
        s = q.sqrt_q
        c = qpoch_infinite(q.q, q)
        for z in samples:
            z = complex(z)
            lhs = c * qpoch_infinite(s * z, q) * qpoch_infinite(s / z, q)
            rhs = _triple_product_series(z, q)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    if identity == "SquareSum":
        t20, t30, t40 = (theta(j, 0.0, q) for j in (2, 3, 4))
        for z in samples:
            z = complex(z)
            lhs = theta(4, z, q) ** 2 * t40**2 + theta(2, z, q) ** 2 * t20**2
            rhs = theta(3, z, q) ** 2 * t30**2
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    if identity == "Addition":
        # addition formula: theta3(z+y) theta3(z-y) theta3(0)^2
        #                   = theta3(y)^2 theta3(z)^2 + theta1(y)^2 theta1(z)^2
        # (the theta3(0)^2 normalization is forced: the two sides agree at
        # z = y = 0 only with it, and the residual check below confirms it)
        t30 = theta(3, 0.0, q)
        for z, y in samples:
            z, y = complex(z), complex(y)
            lhs = theta(3, z + y, q) * theta(3, z - y, q) * t30**2
            rhs = (
                theta(3, y, q) ** 2 * theta(3, z, q) ** 2
                + theta(1, y, q) ** 2 * theta(1, z, q) ** 2
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
        return worst
    raise InvalidParams("identity must be TripleProduct, SquareSum or Addition")
