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
from .nevanlinna import _newton_polish, _root_quadtree, _value
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
# kernel_solve's bound on _worst_gap between the sum and its solved product:
# ~1e-14 when the generators are right, O(1) for a wrong class
KERNEL_SOLVE_RTOL = 1e-7
# a sum whose value at kernel_solve's probe point is below this share of its
# largest term vanishes identically: its terms carry ~1e-14 roundoff, and a
# sum that does not vanish is this small only within ~1e-10 |x| of a zero
KERNEL_CANCEL_RTOL = 1e-10
# the annulus search: samples per edge of its log-z cells (sectors 2 pi / 64
# wide hold few zeros, so no walk step turns by 2 pi); the share of the width
# L = -log|q| below which a cell is small (Newton from one zero, a centre
# report for several that do not count); and the floor, where a double zero
# f ~ d^2 probes roundoff (zero classes are matched to ~1e-6)
KERNEL_EDGE_SAMPLES = 12
KERNEL_SMALL_RTOL = 0.05
KERNEL_MIN_SIZE = 3e-7


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


def _worst_gap(pairs) -> float:
    """Max of |lhs - rhs| / max(|lhs|, |rhs|) over (lhs, rhs) pairs, NaN if any is NaN.

    The one residual rule of kernel_solve and verify_identity (0 for no pairs).
    """
    gaps = [abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300) for lhs, rhs in pairs]
    return float(np.max(gaps, initial=0.0))


def kernel_residual(f) -> float:
    """Max of |D_q f| / max(1, |f|) over the KERNEL_GRID_POINTS points clear of the lattices."""
    grid = _default_grid(f)
    return float(np.max([abs(aw_diff(f, x)) / max(1.0, abs(evaluate(f, x))) for x in grid]))


def kernel_member(f) -> bool:
    """True iff the divided difference of f vanishes on the grid, within KERNEL_RTOL."""
    return kernel_residual(f) < KERNEL_RTOL


# --- solver ---------------------------------------------------------------------


def _annulus_roots(f: FunctionExpr, q: QParam, count: int):
    """The ``count`` zeros of f-breve in the annulus rho <= |z| < rho/|q|, with multiplicity.

    Searches the logarithmic rectangle in 64 sectors by nevanlinna._root_quadtree;
    rho is irrational so lattice zeros miss the cell edges, and an offset whose
    search fails or whose roots do not add up to ``count`` is retried.
    """
    L = -math.log(q.abs_q)
    small = KERNEL_SMALL_RTOL * L
    sectors = 64
    for attempt in range(6):
        # irrational offsets keep lattice zeros off the window seams
        u0 = math.log(q.abs_q ** (0.137 + 0.1 * attempt))  # log rho
        t0 = 0.2377 + 0.41 * attempt
        ts = [t0 + 2.0 * math.pi * k / sectors for k in range(sectors + 1)]
        cells = [(complex(u0, lo), complex(u0 + L, hi)) for lo, hi in zip(ts, ts[1:])]
        try:
            roots = _root_quadtree(f, 0, cells, KERNEL_EDGE_SAMPLES, np.exp, small, small,
                                   KERNEL_MIN_SIZE)
        except (PhaseJumpTooLarge, ContourTooClose):  # a zero on or near a cell edge
            continue
        if sum(c for _, c in roots) == count:  # else roots were lost in the search
            return [(cmath.exp(p), c) for p, c in roots]
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

    Every such sum of m-generator products obeys f-breve(qz) = (q z^2)^(-m)
    f-breve(z), so by the argument principle it has exactly 2m zeros (with
    multiplicity) in a fundamental z-annulus unless it vanishes identically
    (Whittaker & Watson, A Course of Modern Analysis, ch. 21); a value at the
    probe point below KERNEL_CANCEL_RTOL of its terms there reveals that, and
    raises RootNotFound.  Locates the zeros, groups them into m lattice
    classes, reads the generators c_i off the class representatives, fixes C
    at the probe point, and verifies on the grid of kernel_residual.
    """
    terms = [t if isinstance(t, KernelTermSpec) else KernelTermSpec(*t) for t in terms]
    f = kernel_sum_expr(terms, q)
    m = len(terms[0].generators)
    if len(terms) == 1:
        c_gens = terms[0].generators
        C = terms[0].coefficient
    else:
        probe = 3.0 * (q.abs_q + 1.0 / q.abs_q) / 2.0
        f_probe = evaluate(f, probe)
        terms_at_probe = [abs(c * evaluate(g, probe)) for c, g in f.terms]
        if abs(f_probe) <= KERNEL_CANCEL_RTOL * max(terms_at_probe):
            raise RootNotFound("the terms cancel: the sum vanishes identically")
        classes = []  # [representative, representative multiplicity, class total]
        for z, cnt in _annulus_roots(f, q, 2 * m):
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
        C = f_probe / evaluate(kernel_pair_form(c_gens, q), probe)
    rhs = kernel_pair_form(c_gens, q, constant=C)
    worst = _worst_gap((evaluate(f, x), evaluate(rhs, x)) for x in _default_grid(f))
    if not worst <= KERNEL_SOLVE_RTOL:  # a NaN fails too
        raise VerificationFailed(f"kernel identity residual {worst} exceeds {KERNEL_SOLVE_RTOL}")
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
    for k in range(1, 4001):
        t = (-1) ** k * q.q ** (k * k / 2.0) * (z**k + z**-k)
        s += t
        if abs(t) < 1e-18 and k > 3:
            return s
    raise VerificationFailed("triple-product series did not converge")


def verify_identity(identity: str, q: QParam, samples) -> float:
    """Max relative residual (_worst_gap) of a classical identity over the samples.

    identity = 'TripleProduct' (samples are z values), 'SquareSum'
    (samples are theta arguments) or 'Addition' (samples are (z, y) pairs).
    """
    if identity == "TripleProduct":
        s, c = q.sqrt_q, qpoch_infinite(q.q, q)

        def sides(z):
            return (c * qpoch_infinite(s * z, q) * qpoch_infinite(s / z, q),
                    _triple_product_series(z, q))

    elif identity == "SquareSum":
        t20, t30, t40 = (theta(j, 0.0, q) for j in (2, 3, 4))

        def sides(z):
            return (theta(4, z, q) ** 2 * t40**2 + theta(2, z, q) ** 2 * t20**2,
                    theta(3, z, q) ** 2 * t30**2)

    elif identity == "Addition":
        # addition formula: theta3(z+y) theta3(z-y) theta3(0)^2
        #                   = theta3(y)^2 theta3(z)^2 + theta1(y)^2 theta1(z)^2
        # (the theta3(0)^2 normalization is forced: the two sides agree at
        # z = y = 0 only with it, and the residual check confirms it)
        t30 = theta(3, 0.0, q)

        def sides(z, y):
            return (theta(3, z + y, q) * theta(3, z - y, q) * t30**2,
                    theta(3, y, q) ** 2 * theta(3, z, q) ** 2
                    + theta(1, y, q) ** 2 * theta(1, z, q) ** 2)

    else:
        raise InvalidParams("identity must be TripleProduct, SquareSum or Addition")
    arguments = samples if identity == "Addition" else ((z,) for z in samples)
    return _worst_gap(sides(*map(complex, args)) for args in arguments)
