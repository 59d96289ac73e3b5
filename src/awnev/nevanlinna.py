"""Value-distribution functionals: classical and lattice-aware counting.

Classical side: proximity m(r), counting n/N, characteristic T = m + N and
the logarithmic order (slope of log T against log log r).  Lattice side:
the reduced counting function that discounts an a-point when the
q-shifted neighbour of its z-representative carries at least the same
multiplicity, its integrated form, deficiencies built from both, plus the
defect-relation / second-main / shared-value numeric checkers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .awops import as_breve, dq_breve
from .errors import (
    AmbiguousOrder,
    ContourTooClose,
    GridTooSmall,
    InvalidParams,
    PhaseJumpTooLarge,
)
from .funcrep import (
    FunctionExpr,
    ProductForm,
    log_abs_many,
    merged_ledger,
    zero_pole_ledger,
)
from .qcore import DEFAULT_POLICY, lift_to_z, lift_to_z_array

__all__ = [
    "CharRecord",
    "AWCountRecord",
    "DeficiencyReport",
    "proximity",
    "counting",
    "characteristic",
    "log_order",
    "aw_counting",
    "aw_counting_at",
    "deficiencies",
    "argument_principle_count",
    "apoint_events",
    "second_main_check",
    "share_check",
    "radius_grid",
]

CONTOUR_RTOL = 1e-8
ORDER_RADIUS = 1e-5
ORDER_RESIDUE_TOL = 0.2
# argument_principle_count refuses a circle with an event modulus within this
# share of r: the phase of f - a turns by about pi over an arc that short,
# some 14 bisections below the spacing of 512 nodes
WINDING_CONTOUR_RTOL = 1e-6
# samples per box edge, both corners included: the phase path bisects any
# step above pi/2, while a step that turns by a multiple of 2 pi goes unseen;
# 24 makes that rare away from multiple a-points
BOX_EDGE_SAMPLES = 24
# edge below which a box with two or more a-points (a cluster or a multiple
# point) stops splitting and reports its centre: on the edges of such a box
# a double a-point still leaves |f - a| ~ 1e-14 |f''|, above roundoff
APOINT_MIN_SIZE = 1e-7
# boxes with an edge below this share of r are small: a small box with one
# a-point is handed to Newton (from a larger box the start is too far from
# the point for Newton to be worth the evaluations), and a small box with
# several whose quarters cannot be counted is reported as a cluster
SMALL_BOX_RTOL = 0.05
# a Newton point is kept when its last step is below NEWTON_STEP_RTOL and
# |f - a| below NEWTON_RESIDUAL_RTOL, each relative to max(1, |.|); steps
# shrink quadratically at a simple a-point, so a converged iteration ends far
# below the first and a wandering one far above it
NEWTON_STEP_RTOL = 1e-9
NEWTON_RESIDUAL_RTOL = 1e-9
# relative roundoff of a value of f (a sum of up to a few thousand factor
# logs); a Newton point is kept only if f - a changed by this much moves it
# by less than the step tolerance, which a multiple a-point fails: there
# f - a reads exactly 0 well before the point, and the iteration stops
F_ROUNDOFF_RTOL = 1e-13


@dataclass(frozen=True)
class CharRecord:
    r: float
    m: float
    n_count: int
    N: float
    T: float


@dataclass(frozen=True)
class AWCountRecord:
    r: float
    n_aw: int
    N_aw: float
    classical_n: int


@dataclass(frozen=True)
class DeficiencyReport:
    value: complex  # math.inf stands for the point at infinity
    delta: float
    vartheta_aw: float
    theta_aw: float
    r_used: tuple


def _as_expr(f) -> FunctionExpr:
    return f.as_expr() if isinstance(f, ProductForm) else f


def _all_events(f: FunctionExpr, r: float):
    """Zero and pole events when enumerable (zeros need a single term)."""
    events = list(merged_ledger(f, r, "Pole"))
    try:
        events += list(merged_ledger(f, r, "Zero"))
    except InvalidParams:
        pass
    return events


# --- proximity / characteristic ------------------------------------------------


def proximity(f, r: float, quad: int = 512, policy=DEFAULT_POLICY) -> float:
    """m(r, f) = (1/2pi) integral of log+ |f(r e^(i theta))| d theta.

    Trapezoid on the uniform grid plus geometric node clusters around the
    arguments of zero/pole moduli close to the circle (the integrand has
    integrable log spikes there).
    """
    if r <= 0:
        raise InvalidParams("r must be positive")
    f = _as_expr(f)
    events = _all_events(f, 4.0 * r)
    near = []
    for ev in events:
        if abs(ev.modulus - r) <= CONTOUR_RTOL * r:
            raise ContourTooClose(
                f"event at |x| = {ev.modulus} within relative {CONTOUR_RTOL} of r = {r}"
            )
        if abs(ev.modulus - r) < 0.1 * r:
            near.append(ev)
    thetas = np.linspace(0.0, 2.0 * math.pi, quad, endpoint=False)
    if near:
        h = 2.0 * math.pi / quad
        offsets = np.array(
            [s * h * 2.0 ** (-k) for k in range(0, 18) for s in (-4.0, 4.0)]
        )
        extra = np.concatenate(
            [np.mod(cmath.phase(ev.x) + offsets, 2.0 * math.pi) for ev in near]
        )
        thetas = np.unique(np.concatenate([thetas, extra]))
    x = r * np.exp(1j * thetas)
    z = lift_to_z_array(x)
    y = np.maximum(log_abs_many(f, z, policy), 0.0)
    y = np.where(np.isfinite(y), y, 0.0)
    # periodic trapezoid on a nonuniform grid
    th = np.concatenate([thetas, [thetas[0] + 2.0 * math.pi]])
    yy = np.concatenate([y, [y[0]]])
    integral = float(np.sum(0.5 * (yy[1:] + yy[:-1]) * np.diff(th)))
    return integral / (2.0 * math.pi)


def counting(f, r: float, target: str = "Pole"):
    """(n(r), N(r)) of zeros or poles from the exact event ledger.

    N(r) = sum over events of h * log(r / |x|), with events at the origin
    contributing h * log r (the n(0) term).
    """
    if r <= 0:
        raise InvalidParams("r must be positive")
    f = _as_expr(f)
    events = merged_ledger(f, r, target)
    n = 0
    N = 0.0
    for ev in events:
        h = abs(ev.multiplicity)
        n += h
        if ev.modulus < 1e-12:
            N += h * math.log(r)
        else:
            N += h * math.log(r / ev.modulus)
    return n, N


def characteristic(f, r: float, quad: int = 512, policy=DEFAULT_POLICY) -> CharRecord:
    """T(r, f) = m(r, f) + N(r, f) assembled from quadrature and the ledger."""
    f = _as_expr(f)
    m = proximity(f, r, quad, policy)
    n, N = counting(f, r, "Pole")
    return CharRecord(r=float(r), m=m, n_count=n, N=N, T=m + N)


def log_order(f, r_grid, quad: int = 512, policy=DEFAULT_POLICY) -> float:
    """Logarithmic order: the log log r exponent of T(r) fitted over the grid.

    The model log T = sigma * log(log r) + c + d / log r includes the leading
    finite-radius correction (T has a subdominant log r term), which a plain
    two-parameter slope fit absorbs into a ~0.2 downward bias at desk-scale
    radii; with the correction column the fitted sigma is stable across the
    battery.  Falls back to the plain fit when the grid is too short.
    """
    r_grid = sorted(float(r) for r in r_grid)
    if len(r_grid) < 3 or r_grid[-1] / r_grid[0] < 1e3 or r_grid[0] <= math.e:
        raise GridTooSmall("need >= 3 radii spanning >= 3 decades with r > e")
    f = _as_expr(f)
    us, ls = [], []
    for r in r_grid:
        T = characteristic(f, r, quad, policy).T
        if T > 0:
            us.append(math.log(r))
            ls.append(math.log(T))
    if len(us) < 3:
        raise GridTooSmall("too few radii with positive characteristic")
    if len(us) < 5:
        return float(np.polyfit(np.log(us), ls, 1)[0])
    design = np.column_stack([np.log(us), np.ones(len(us)), 1.0 / np.asarray(us)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(ls), rcond=None)
    return float(coef[0])


# --- reduced (lattice-aware) counting ------------------------------------------


def _vanishing_order(G, x0: complex, max_order: int = 64) -> int:
    """Numeric vanishing order of G at x0 by two-radius log-modulus regression."""
    scale = max(1.0, abs(x0))
    rho1 = ORDER_RADIUS * scale
    rho2 = 2.0 * rho1
    ks = np.arange(16)
    angles = np.exp(2j * math.pi * (ks + 0.31) / 16.0)

    def mean_log(rho):
        vals = []
        for w in angles:
            v = G(x0 + rho * w)
            av = abs(v)
            if av == 0 or not math.isfinite(av):
                raise AmbiguousOrder(f"G not evaluable on order-probe circle at {x0}")
            vals.append(math.log(av))
        return float(np.mean(vals))

    k = (mean_log(rho2) - mean_log(rho1)) / math.log(2.0)
    kr = round(k)
    if abs(k - kr) > ORDER_RESIDUE_TOL or kr > max_order:
        raise AmbiguousOrder(f"non-integer vanishing order {k:.3f} at {x0}")
    return max(int(kr), 0)


def _reduced_contribution(ev, events_by_kind, q, G_slow=None) -> int:
    """h - min(h, k') for one event.

    Fast path (lattice events): the divided difference of g at the hatted
    point compares g at the event with g at the point whose z-coordinate is
    q * z_event; k' is the matching multiplicity of g there (0 when that
    point is not an event of the same kind, including when it falls inside
    the unit z-disk, i.e. off the enumerated branch).
    """
    h = abs(ev.multiplicity)
    if ev.generator_index < 0 and G_slow is not None:
        kprime = _vanishing_order(G_slow, ev.x)
        return h - min(h, kprime)
    zm = q.q * ev.z
    if abs(zm) < 1.0 - 1e-12:
        return h
    hprime = 0
    for other in events_by_kind:
        if abs(other.z - zm) <= 1e-10 * max(1.0, abs(zm)):
            hprime = abs(other.multiplicity)
            break
    return max(h - min(h, hprime), 0)


def aw_counting(f, r: float, target: str = "Zero", policy=DEFAULT_POLICY) -> AWCountRecord:
    """Reduced counting of zeros or poles with the q-shifted-neighbour discount."""
    if r <= 0:
        raise InvalidParams("r must be positive")
    f = _as_expr(f)
    q = f.q
    # the neighbour may sit just outside |x| = r; enumerate a wider window
    window = 2.0 * r / q.abs_q + 2.0
    events_all = merged_ledger(f, window, target)
    events_in = [e for e in events_all if e.modulus < r]
    G_slow = None
    if any(e.generator_index < 0 for e in events_in):
        if target == "Zero":
            g = as_breve(f, policy)
        else:
            g = as_breve(f.terms[0][1].inverse(), policy)
        dg = dq_breve(g, q)
        s = q.sqrt_q

        def G_slow(x):
            z = lift_to_z(x)
            return dg(s * z)

    n_aw = 0
    N_aw = 0.0
    classical = 0
    for ev in events_in:
        h = abs(ev.multiplicity)
        classical += h
        contrib = _reduced_contribution(ev, events_all, q, G_slow)
        n_aw += contrib
        if contrib:
            if ev.modulus < 1e-12:
                N_aw += contrib * math.log(r)
            else:
                N_aw += contrib * math.log(r / ev.modulus)
    return AWCountRecord(r=float(r), n_aw=n_aw, N_aw=N_aw, classical_n=classical)


def aw_counting_at(f, a, r: float, policy=DEFAULT_POLICY) -> AWCountRecord:
    """Reduced counting at a general target value a (or math.inf for poles).

    Values 0 and infinity use the exact ledger; other targets are located
    by argument-principle subdivision and discounted by numeric
    vanishing-order detection of the divided difference at the hatted point.
    """
    f = _as_expr(f)
    if a == math.inf:
        return aw_counting(f, r, "Pole", policy)
    if a == 0:
        return aw_counting(f, r, "Zero", policy)
    pts = apoint_events(f, complex(a), r, policy)
    q = f.q
    g = as_breve(f, policy)
    dg = dq_breve(g, q)
    s = q.sqrt_q

    def G(x):
        z = lift_to_z(x)
        return dg(s * z)

    n_aw = 0
    N_aw = 0.0
    classical = 0
    for x0, h in pts:
        classical += h
        kprime = _vanishing_order(G, x0)
        contrib = h - min(h, kprime)
        n_aw += contrib
        if contrib:
            N_aw += contrib * math.log(r / max(abs(x0), 1e-12))
    return AWCountRecord(r=float(r), n_aw=n_aw, N_aw=N_aw, classical_n=classical)


# --- deficiencies ---------------------------------------------------------------


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _limit_estimate(rs, ys) -> float:
    """Estimate lim y(r) from samples converging like L + c / log r.

    Least-squares fit of y against 1/log r over the upper half of the grid
    (by radius); falls back to the last sample when the grid is too short
    to fit.
    """
    pairs = [(r, y) for r, y in zip(rs, ys) if r > math.e]
    if len(pairs) < 4:
        return pairs[-1][1] if pairs else ys[-1]
    cut = math.sqrt(pairs[0][0] * pairs[-1][0])
    upper = [(r, y) for r, y in pairs if r >= cut]
    if len(upper) < 4:
        upper = pairs[-4:]
    xs = [1.0 / math.log(r) for r, _ in upper]
    vals = [y for _, y in upper]
    slope, intercept = np.polyfit(xs, vals, 1)
    return float(intercept)


def deficiencies(f, r_grid, values, quad: int = 512, policy=DEFAULT_POLICY):
    """Deficiency estimates per value plus the defect sum.

    delta = 1 - lim N/T, vartheta = lim (N - N_red)/T and
    theta = 1 - lim N_red/T; the limits are extrapolated from the grid by
    fitting the leading L + c/log r finite-radius correction, which removes
    the dominant bias at desk-scale radii.  Returns
    (list of DeficiencyReport, sum of theta over the values).
    """
    f = _as_expr(f)
    r_grid = sorted(float(r) for r in r_grid)
    if len(r_grid) < 3 or r_grid[-1] / r_grid[0] < 1e3:
        raise GridTooSmall("need >= 3 radii spanning >= 3 decades")
    T = {r: characteristic(f, r, quad, policy).T for r in r_grid}
    reports = []
    for a in values:
        rs, ratios_N, ratios_red, ratios_diff = [], [], [], []
        for r in r_grid:
            if a == math.inf:
                _, N = counting(f, r, "Pole")
                rec = aw_counting(f, r, "Pole", policy)
            elif a == 0:
                _, N = counting(f, r, "Zero")
                rec = aw_counting(f, r, "Zero", policy)
            else:
                rec = aw_counting_at(f, a, r, policy)
                N = sum(
                    h * math.log(r / max(abs(x0), 1e-12))
                    for x0, h in apoint_events(f, complex(a), r, policy)
                )
            t = T[r]
            if t <= 0:
                continue
            rs.append(r)
            ratios_N.append(N / t)
            ratios_red.append(rec.N_aw / t)
            ratios_diff.append((N - rec.N_aw) / t)
        if not ratios_N:
            raise GridTooSmall("characteristic vanished on the whole grid")
        theta = _clip01(1.0 - _limit_estimate(rs, ratios_red))
        vartheta = min(_clip01(_limit_estimate(rs, ratios_diff)), theta)
        reports.append(
            DeficiencyReport(
                value=a,
                delta=_clip01(1.0 - _limit_estimate(rs, ratios_N)),
                vartheta_aw=vartheta,
                theta_aw=theta,
                r_used=tuple(rs),
            )
        )
    return reports, sum(rep.theta_aw for rep in reports)


# --- argument principle ---------------------------------------------------------


def _phase_path(f, a, pts, policy, depth=0):
    """Total phase change of f - a along the polyline of sample points.

    Between consecutive samples the phase step must stay below pi/2;
    otherwise the segment is bisected (up to a refinement cap).
    """
    f = _as_expr(f)
    z = lift_to_z_array(np.asarray(pts, dtype=complex))
    lg = f.breve_log(z, policy)
    phases = np.empty(len(pts))
    for i, L in enumerate(np.atleast_1d(lg)):
        if L.real > 40.0 and a != 0:
            # |f| astronomically dominates |a|; arg(f - a) = arg f
            phases[i] = L.imag
        else:
            w = cmath.exp(L) - a if L.real != -math.inf else -a
            if w == 0:
                raise ContourTooClose("contour passes through an a-point")
            phases[i] = cmath.phase(w)
    total = 0.0
    for i in range(len(pts) - 1):
        d = phases[i + 1] - phases[i]
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if abs(d) > 0.5 * math.pi:
            if depth >= 24:
                raise PhaseJumpTooLarge("phase refinement exhausted")
            mid = 0.5 * (pts[i] + pts[i + 1])
            d = _phase_path(f, a, [pts[i], mid], policy, depth + 1) + _phase_path(
                f, a, [mid, pts[i + 1]], policy, depth + 1
            )
        total += d
    return total


def argument_principle_count(
    f, a: complex, r: float, nodes: int = 512, policy=DEFAULT_POLICY
) -> int:
    """Winding number of f - a along |x| = r: zeros minus poles inside."""
    f = _as_expr(f)
    for ev in _all_events(f, 4.0 * r):
        if abs(ev.modulus - r) <= WINDING_CONTOUR_RTOL * r:
            raise ContourTooClose(f"event modulus {ev.modulus} too close to r = {r}")
    thetas = np.linspace(0.0, 2.0 * math.pi, nodes + 1)
    pts = r * np.exp(1j * thetas)
    total = _phase_path(f, complex(a), list(pts), policy)
    winding = total / (2.0 * math.pi)
    if abs(winding - round(winding)) > 0.25:
        raise PhaseJumpTooLarge(f"winding {winding} did not settle to an integer")
    return int(round(winding))


def _box_winding(f, a, x0, x1, policy):
    """Winding of f - a around the closed rectangle with corners x0, x1.

    The whole perimeter is one phase path: one ``breve_log`` call on
    BOX_EDGE_SAMPLES per edge (corners shared), plus one per refined step.
    """
    corners = np.array([x0, complex(x1.real, x0.imag), x1, complex(x0.real, x1.imag), x0])
    t = np.linspace(0.0, 1.0, BOX_EDGE_SAMPLES)[:-1]
    edges = corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * t
    total = _phase_path(f, a, np.append(edges.ravel(), x0), policy)
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.25:
        raise PhaseJumpTooLarge("box winding did not settle to an integer")
    return int(round(w))


def _newton_polish(val, z: complex, mult: int, floor: float = 0.0):
    """Polish a zero of multiplicity mult of val by modified Newton steps.

    For a zero of multiplicity m the step is m * F / F' (quadratically
    convergent); the derivative is taken by central difference with step
    1e-6 * max(|z|, floor).  Iteration stops once the step stagnates at the
    roundoff floor of F or drops below 1e-13 * max(|z|, floor).  Returns
    the last iterate before stagnation and the size of the step that
    produced it (inf when no step was taken).
    """
    best = z
    last = math.inf
    for _ in range(60):
        h = 1e-6 * max(abs(z), floor)
        d = (val(z + h) - val(z - h)) / (2.0 * h)
        if d == 0:
            break
        step = mult * val(z) / d
        z = z - step
        if abs(step) >= last:
            break  # hit the roundoff floor
        best, last = z, abs(step)
        if last < 1e-13 * max(abs(z), floor):
            break
    return best, last


def _polish_apoint(f, a, x0, x1, policy):
    """The single a-point in the box [x0, x1] by Newton from its centre, or None."""

    def val(x):
        lg = f.breve_log(lift_to_z(x), policy)
        return cmath.exp(lg) - a if lg.real != -math.inf else -a

    try:
        x, step = _newton_polish(val, 0.5 * (x0 + x1), 1, floor=1.0)
        h = 1e-6 * max(abs(x), 1.0)
        slope = abs(val(x + h) - val(x - h)) / (2.0 * h)
        residual = abs(val(x))
    except OverflowError:  # an iterate went where |f| overflows
        return None
    tol_x = NEWTON_STEP_RTOL * max(1.0, abs(x))
    tol_f = max(1.0, abs(a))
    # written so that a NaN fails every test
    if not (
        step <= tol_x
        and residual <= NEWTON_RESIDUAL_RTOL * tol_f
        and F_ROUNDOFF_RTOL * tol_f <= slope * tol_x
        and x0.real <= x.real <= x1.real
        and x0.imag <= x.imag <= x1.imag
    ):
        return None
    return x


def apoint_events(f, a: complex, r: float, policy=DEFAULT_POLICY, min_size=APOINT_MIN_SIZE):
    """Locate a-points of f in |x| < r by quadtree subdivision.

    Returns a list of (location, multiplicity), sorted by modulus.  The
    count in each box is the winding of f - a around it, corrected by the
    exact pole ledger; counts come from windings only.  A box whose count
    is exactly 1 and whose edge is below SMALL_BOX_RTOL * r is handed to
    Newton on f - a from its centre: the point is kept when the iteration
    converged (NEWTON_STEP_RTOL, NEWTON_RESIDUAL_RTOL), the point is simple
    enough for roundoff in f to move it less than that (F_ROUNDOFF_RTOL) and
    it lies in the box, so it is accurate to the roundoff of f - a over
    |f'| (about 1e-13 relative at a well-separated point); otherwise the box
    is split.  A box holding two or more a-points (a cluster or a multiple
    point) is bisected down to ``min_size`` and reported at its centre,
    within ``min_size`` of its points.  A small such box is reported early,
    within its own size of its points, when its quarters cannot be counted:
    an edge through the roundoff floor of f - a at a multiple point (about
    sqrt(1e-16 |a|) away at a double one) gives no winding, or windings
    that do not add up.  Any other box whose quarters' counts do not add up
    raises PhaseJumpTooLarge.  Intended for modest radii; cost grows with
    the number of a-points.
    """
    f = _as_expr(f)
    poles = merged_ledger(f, 2.0 * r * math.sqrt(2.0), "Pole")

    def count(x0, x1):
        poles_in = sum(
            -e.multiplicity
            for e in poles
            if x0.real < e.x.real <= x1.real and x0.imag < e.x.imag <= x1.imag
        )
        return _box_winding(f, a, x0, x1, policy) + poles_in

    # slightly irrational offset so lattice points never sit on box edges
    eps = r * 1e-4 * (1.0 + math.pi / 1e3)
    x0, x1 = complex(-r - eps, -r - eps), complex(r + eps * 1.3, r + eps * 1.3)
    found = []
    stack = [(x0, x1, count(x0, x1))]
    while stack:
        x0, x1, nz = stack.pop()
        if nz <= 0:
            continue
        center = 0.5 * (x0 + x1)
        size = max(x1.real - x0.real, x1.imag - x0.imag)
        small = size < SMALL_BOX_RTOL * r
        if size < min_size:
            if abs(center) < r:
                found.append((center, nz))
            continue
        if nz == 1 and small:
            x = _polish_apoint(f, a, x0, x1, policy)
            if x is not None:
                if abs(x) < r:
                    found.append((x, 1))
                continue
        mx = 0.5 * (x0.real + x1.real)
        my = 0.5 * (x0.imag + x1.imag)
        quarters = [
            (x0, complex(mx, my)),
            (complex(mx, x0.imag), complex(x1.real, my)),
            (complex(x0.real, my), complex(mx, x1.imag)),
            (complex(mx, my), x1),
        ]
        cluster = nz > 1 and small
        try:
            counts = [count(*box) for box in quarters]
        except (ContourTooClose, PhaseJumpTooLarge):
            if not cluster:
                raise
            counts = None
        if counts is None or min(counts) < 0 or sum(counts) != nz:
            if not cluster:
                raise PhaseJumpTooLarge(f"quarter counts {counts} do not add up to {nz}")
            if abs(center) < r:
                found.append((center, nz))
            continue
        stack.extend((*box, n) for box, n in zip(quarters, counts))
    found.sort(key=lambda p: abs(p[0]))
    return found


# --- checkers -------------------------------------------------------------------


def second_main_check(f, values, r_grid, quad: int = 512, policy=DEFAULT_POLICY):
    """Rows (r, LHS, RHS_counting, LHS - RHS_counting) of the main inequality.

    LHS = (p - 1) T(r, f); RHS_counting = reduced N at infinity plus the
    reduced N at each listed value.  The theory predicts LHS <= RHS + an
    O((log r)^(sigma-1+eps)) slack, so LHS - RHS should grow no faster
    than that; the caller judges the slack.
    """
    f = _as_expr(f)
    values = list(values)
    if len(values) < 2:
        raise InvalidParams("need at least two distinct target values")
    # refuse functions annihilated by the divided difference
    from .awops import aw_diff

    probe = [2.7, 3.9 + 1.1j, -4.3 + 0.6j, 6.1]
    if all(abs(aw_diff(f, x, policy=policy)) < 1e-12 for x in probe):
        raise InvalidParams("divided difference of f vanishes identically")
    rows = []
    p = len(values)
    for r in sorted(float(r) for r in r_grid):
        T = characteristic(f, r, quad, policy).T
        rhs = aw_counting(f, r, "Pole", policy).N_aw
        for a in values:
            rhs += aw_counting_at(f, a, r, policy).N_aw
        lhs = (p - 1) * T
        rows.append((r, lhs, rhs, lhs - rhs))
    return rows


def share_check(f, g, a, r_grid, policy=DEFAULT_POLICY):
    """Compare reduced integrated counts of f and g at the value a.

    Returns (rows, verdict) where rows are (r, N_red_f, N_red_g, diff) and
    the verdict is True when |diff|/log r does not blow up across the grid
    (|diff| staying O(log r)), judged by comparing the top decade of the
    grid against the bottom decade.
    """
    r_grid = sorted(float(r) for r in r_grid)
    rows = []
    for r in r_grid:
        nf = aw_counting_at(f, a, r, policy).N_aw
        ng = aw_counting_at(g, a, r, policy).N_aw
        rows.append((r, nf, ng, nf - ng))
    lo = [abs(d) / math.log(r) for r, _, _, d in rows if r <= r_grid[0] * 10.0]
    hi = [abs(d) / math.log(r) for r, _, _, d in rows if r >= r_grid[-1] / 10.0]
    verdict = max(hi, default=0.0) <= 2.0 * max(lo, default=0.0) + 1.0
    return rows, verdict


def radius_grid(f, rmin: float, rmax: float, points: int, sigma: float = 2.0):
    """Log-spaced radii nudged off every event modulus d by d / log^sigma(d+3).

    Mirrors the construction of exceptional-set avoidance: estimates in the
    slow-growth theory hold outside shrinking neighbourhoods of the lattice
    moduli, so sample radii are pushed to the edge of those neighbourhoods.
    """
    if not 0 < rmin < rmax:
        raise InvalidParams("need 0 < rmin < rmax")
    f = _as_expr(f)
    moduli = sorted({ev.modulus for ev in _all_events(f, 2.0 * rmax) if ev.modulus > 0})
    out = []
    for r in np.geomspace(rmin, rmax, points):
        r = float(r)
        for _ in range(100):
            clash = None
            for d in moduli:
                margin = d / math.log(d + 3.0) ** sigma
                if abs(r - d) < margin:
                    clash = (d, margin)
                    break
            if clash is None:
                break
            d, margin = clash
            r = d + margin * 1.0000001 if r >= d else d - margin * 1.0000001
            if r <= 0:
                r = d + margin * 1.0000001
        out.append(r)
    return [r for r in sorted(set(out)) if rmin * 0.3 <= r]
