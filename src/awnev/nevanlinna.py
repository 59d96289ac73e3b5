"""Value-distribution functionals: classical and lattice-aware counting.

Classical side: proximity m(r), counting n/N, characteristic T = m + N and
the logarithmic order (slope of log T against log log r).  Lattice side:
the reduced counting function that discounts an a-point when the
q-shifted neighbour of its z-representative carries at least the same
multiplicity, its integrated form, deficiencies built from both, plus the
defect-relation / second-main / shared-value numeric checkers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .awops import aw_diff
from .errors import ContourTooClose, GridTooSmall, InvalidParams, PhaseJumpTooLarge
from .funcrep import MERGE_RTOL, breve_value, merged_ledger, zero_pole_ledger
from .qcore import lift_to_z, lift_to_z_array

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

# proximity and argument_principle_count refuse a circle with an event
# modulus within this share of r: the phase of f - a turns by about pi over
# an arc that short, some 14 bisections below the spacing of 512 nodes
CONTOUR_RTOL = 1e-6
# uniform trapezoid nodes of proximity on |x| = r: with the log terms of the
# events near the circle subtracted, T of phi(x; 0.8), q = 0.9 is within
# 1e-15 T of Jensen's exact value on 14 radii from 10 to 1e8; where |f| = 1
# on the circle, log+ |f| has kinks and the rule converges like h^2
PROXIMITY_NODES = 512
# least samples of argument_principle_count's circle, the first level of its
# phase walk, which bisects each step turning by more than pi/2 from there
WINDING_NODES = 512
# an event of modulus below this sits at the origin, where log(r / |x|) is
# undefined: it adds n(0) log r to N(r), as in Nevanlinna's counting function
# (Hayman, Meromorphic Functions, 1964, ch. 1)
ORIGIN_MODULUS = 1e-12
# the q-shifted neighbour q z of an event's representative is looked up on
# the enumerated |z| >= 1 branch only; one inside the unit z-disk by more than
# this roundoff margin is off that branch and is not an event
UNIT_DISK_MARGIN = 1e-12
# least nodes of argument_principle_count per zero or pole inside its circle:
# at 8 a deep event turns the phase by pi/4 per step, below the pi/2 at which
# the phase walk refines
NODES_PER_EVENT = 8
# samples per box edge, both corners included: the phase walk bisects any
# step above pi/2, while a step that turns by a multiple of 2 pi goes unseen;
# 24 makes that rare away from multiple a-points
BOX_EDGE_SAMPLES = 24
# bisection levels of the phase walk: a step 2^-28 of its sampling step that
# still turns by more than pi/2 sits in the roundoff floor of f - a at a
# point of the path, where no finer step would settle the phase
PHASE_WALK_MAX_DEPTH = 28
# edge below which a box with two or more a-points (a cluster or a multiple
# point) stops splitting and reports its centre: on the edges of such a box
# a double a-point still leaves |f - a| ~ 1e-14 |f''|, above roundoff
APOINT_MIN_SIZE = 1e-7
# boxes of apoint_events with an edge below this share of r are small: a
# small box with several a-points whose quarters cannot be counted is
# reported as a cluster (Newton runs from every box with one a-point)
SMALL_BOX_RTOL = 0.05
# a Newton point p is kept when its last step is below
# tol_p = NEWTON_STEP_RTOL max(1, |p|) and |f - a| below
# NEWTON_RESIDUAL_RTOL max(1, |a|) + |f'| tol_p, so that by the linear model a
# root lies within tol_p; steps shrink quadratically at a simple a-point, so
# a converged iteration ends far below the first and a wandering one far above
# it, and the slope term admits the roundoff of steep f (|f'| ulp(p) there)
NEWTON_STEP_RTOL = 1e-9
NEWTON_RESIDUAL_RTOL = 1e-9
# _polish_root keeps a point only within tol_p of an a-point, so two points
# it returns within twice that of each other cannot be told apart: the
# reduced count takes them for the same a-point (the ledger's MERGE_RTOL plays
# this part for zeros and poles)
APOINT_MATCH_RTOL = 2.0 * NEWTON_STEP_RTOL
# relative roundoff of a value of f (a sum of up to a few thousand factor
# logs); a Newton point is kept only if f - a changed by this much moves it
# by less than the step tolerance, which a multiple a-point fails: there
# f - a reads exactly 0 well before the point, and the iteration stops
F_ROUNDOFF_RTOL = 1e-13
# radius_grid keeps radii d / log^EXCEPTIONAL_LOG_POWER(d + 3) off each event
# modulus d: neighbourhoods that shrink relative to d, like the exceptional
# sets outside which the slow-growth estimates hold
EXCEPTIONAL_LOG_POWER = 2.0


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


def _all_events(f, r: float):
    """Zero and pole events when enumerable (zeros need a single term)."""
    if len(f.terms) == 1:
        return zero_pole_ledger(f.terms[0][1], r)
    return merged_ledger(f, r, "Pole")


def _contour_events(f, r: float):
    """Events of f in |x| < 4r; ContourTooClose if one is within CONTOUR_RTOL r of |x| = r."""
    events = _all_events(f, 4.0 * r)
    for ev in events:
        if abs(ev.modulus - r) <= CONTOUR_RTOL * r:
            raise ContourTooClose(
                f"event at |x| = {ev.modulus} within relative {CONTOUR_RTOL} of r = {r}"
            )
    return events


def _accumulate(r: float, pairs):
    """(n(r), N(r)) over (modulus, multiplicity) pairs of events in |x| < r.

    N(r) is the sum of h log(r / |x|); an event within ORIGIN_MODULUS of the
    origin adds h log r instead.
    """
    n = 0
    N = 0.0
    for modulus, h in pairs:
        n += h
        N += h * math.log(r / (modulus if modulus >= ORIGIN_MODULUS else 1.0))
    return n, N


# --- proximity / characteristic ------------------------------------------------


def proximity(f, r: float) -> float:
    """m(r, f) = (1/2pi) integral of log+ |f(r e^(i theta))| d theta.

    Periodic trapezoid on PROXIMITY_NODES uniform nodes.  A zero or pole x_e
    of multiplicity h within 0.1 r of the circle adds h log|x - x_e| to
    log|f|, whose singularity slows the rule to about exp(-nodes * eps) at
    relative distance eps.  Where log|f| > 0 at the point of the circle
    closest to x_e, log+ |f| = log|f| around it: that term is subtracted from
    the integrand and its exact mean h log max(r, |x_e|) added back (Jensen).
    Elsewhere log+ clips the singularity away.
    """
    if r <= 0:
        raise InvalidParams("r must be positive")
    near = [ev for ev in _contour_events(f, r) if abs(ev.modulus - r) < 0.1 * r]
    nodes = PROXIMITY_NODES
    x = r * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False))
    closest = np.array([ev.x * (r / ev.modulus) for ev in near], dtype=complex)
    lg = f.breve_log(lift_to_z_array(np.concatenate([x, closest]))).real
    y = np.maximum(lg[:nodes], 0.0)
    y = np.where(np.isfinite(y), y, 0.0)
    subtracted = 0.0
    for ev, at_closest in zip(near, lg[nodes:]):
        if at_closest > 0.0:
            y = y - ev.multiplicity * np.log(np.abs(x - ev.x))
            subtracted += ev.multiplicity * math.log(max(r, ev.modulus))
    return float(np.mean(y)) + subtracted


def counting(f, r: float, target: str = "Pole"):
    """(n(r), N(r)) of zeros or poles from the exact event ledger.

    N(r) = sum over events of h * log(r / |x|), with events at the origin
    contributing h * log r (the n(0) term).
    """
    if r <= 0:
        raise InvalidParams("r must be positive")
    events = merged_ledger(f, r, target)
    return _accumulate(r, ((ev.modulus, abs(ev.multiplicity)) for ev in events))


def characteristic(f, r: float) -> CharRecord:
    """T(r, f) = m(r, f) + N(r, f) assembled from quadrature and the ledger."""
    m = proximity(f, r)
    n, N = counting(f, r, "Pole")
    return CharRecord(r=float(r), m=m, n_count=n, N=N, T=m + N)


def log_order(f, r_grid) -> float:
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
    us, ls = [], []
    for r in r_grid:
        T = characteristic(f, r).T
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


def _reduced_counts(f, a, r: float):
    """((n, N), (n_aw, N_aw)) of the a-points of f in |x| < r, from one walk.

    a = 0 and a = math.inf take the zeros or poles from the exact ledger;
    any other a takes its a-points from apoint_events.  An event of
    multiplicity h counts h - min(h, k') in the reduced count, where k' is
    the multiplicity of the same-kind event at x(q z), the q-shifted
    neighbour of its |z| >= 1 representative z; there is none when q z falls
    inside the unit z-disk, off that branch.  The neighbour is looked up in x
    within MERGE_RTOL for ledger events and APOINT_MATCH_RTOL for a-points.
    Events are listed on the window |x| < R = max(r, (|q| (2r + 1) + 1) / 2):
    for |x| < r, |z| < 2r + 1, and |x(w)| <= (|w| + 1) / 2 for |w| >= 1, so
    every neighbour looked up lies in it.
    """
    q = f.q
    R = max(r, (q.abs_q * (2.0 * r + 1.0) + 1.0) / 2.0)
    if a == 0 or a == math.inf:
        ledger = merged_ledger(f, R, "Zero" if a == 0 else "Pole")
        events = [(ev.x, ev.z, abs(ev.multiplicity)) for ev in ledger]
        rtol = MERGE_RTOL
    else:
        events = [(x, lift_to_z(x), h) for x, h in apoint_events(f, complex(a), R)]
        rtol = APOINT_MATCH_RTOL
    pts = []
    for x, z, h in events:
        if abs(x) >= r:
            continue
        w = q.q * z
        kprime = 0
        if abs(w) >= 1.0 - UNIT_DISK_MARGIN:
            xn = (w + 1.0 / w) / 2.0
            tol = rtol * max(1.0, abs(xn))
            kprime = next((k for y, _, k in events if abs(y - xn) <= tol), 0)
        pts.append((abs(x), h, h - min(h, kprime)))
    return (
        _accumulate(r, ((m, h) for m, h, _ in pts)),
        _accumulate(r, ((m, c) for m, _, c in pts)),
    )


def aw_counting(f, r: float, target: str = "Zero") -> AWCountRecord:
    """Reduced counting of zeros or poles with the q-shifted-neighbour discount."""
    if r <= 0:
        raise InvalidParams("r must be positive")
    if target not in ("Zero", "Pole"):
        raise InvalidParams("target must be 'Zero' or 'Pole'")
    (n, _), (n_aw, N_aw) = _reduced_counts(f, 0 if target == "Zero" else math.inf, r)
    return AWCountRecord(r=float(r), n_aw=n_aw, N_aw=N_aw, classical_n=n)


def aw_counting_at(f, a, r: float) -> AWCountRecord:
    """Reduced counting at a general target value a (or math.inf for poles).

    Values 0 and infinity use the exact ledger; other targets are located
    by apoint_events.  Either way an event is discounted by the multiplicity
    of the same-kind event at its q-shifted neighbour, as in _reduced_counts.
    """
    if a == 0 or a == math.inf:
        return aw_counting(f, r, "Zero" if a == 0 else "Pole")
    (n, _), (n_aw, N_aw) = _reduced_counts(f, a, r)
    return AWCountRecord(r=float(r), n_aw=n_aw, N_aw=N_aw, classical_n=n)


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


def deficiencies(f, r_grid, values):
    """Deficiency estimates per value plus the defect sum.

    delta = 1 - lim N/T, vartheta = lim (N - N_red)/T and
    theta = 1 - lim N_red/T; the limits are extrapolated from the grid by
    fitting the leading L + c/log r finite-radius correction, which removes
    the dominant bias at desk-scale radii.  Returns
    (list of DeficiencyReport, sum of theta over the values).
    """
    r_grid = sorted(float(r) for r in r_grid)
    if len(r_grid) < 3 or r_grid[-1] / r_grid[0] < 1e3:
        raise GridTooSmall("need >= 3 radii spanning >= 3 decades")
    T = {r: characteristic(f, r).T for r in r_grid}
    reports = []
    for a in values:
        rs, ratios_N, ratios_red, ratios_diff = [], [], [], []
        for r in r_grid:
            (_, N), (_, N_aw) = _reduced_counts(f, a, r)
            t = T[r]
            if t <= 0:
                continue
            rs.append(r)
            ratios_N.append(N / t)
            ratios_red.append(N_aw / t)
            ratios_diff.append((N - N_aw) / t)
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


def _phases(f, a, z):
    """arg(f - a) at the z-plane points z (an array), up to multiples of 2 pi.

    Where |f| dwarfs |a| (log|f| > 40, and everywhere when a = 0) this is
    Im log f, so no value of f that could overflow is ever formed.
    """
    lg = np.asarray(f.breve_log(z))
    dominant = (lg.real > 40.0) | (a == 0)
    w = np.exp(np.where(dominant, 0.0, lg)) - a
    if np.any(np.where(dominant, lg.real == -math.inf, w == 0)):
        raise ContourTooClose("contour passes through an a-point")
    return np.where(dominant, lg.imag, np.angle(w))


def _phase_walk(f, a, params, to_z) -> float:
    """Total change of arg(f - a) along the polyline through ``params``.

    The points lie in a parameter plane that ``to_z`` maps (vectorised) to
    the z-plane.  A step whose phase change, wrapped to (-pi, pi], exceeds
    pi/2 is bisected at its midpoint in the parameter plane; the midpoints
    of one refinement level are evaluated in one ``breve_log`` call, up to
    PHASE_WALK_MAX_DEPTH levels.  A step that turns by a multiple of 2 pi
    goes unseen, so the caller's sampling has to be fine enough.
    """
    p = np.asarray(params, dtype=complex)
    ph = _phases(f, a, to_z(p))
    p0, p1, ph0, ph1 = p[:-1], p[1:], ph[:-1], ph[1:]
    total = 0.0
    for depth in itertools.count():
        d = np.mod(ph1 - ph0 + math.pi, 2.0 * math.pi) - math.pi
        big = np.abs(d) > 0.5 * math.pi
        total += float(np.sum(d[~big]))
        if not big.any():
            return total
        if depth >= PHASE_WALK_MAX_DEPTH:
            raise PhaseJumpTooLarge("phase refinement exhausted")
        p0, p1, ph0, ph1 = p0[big], p1[big], ph0[big], ph1[big]
        mid = 0.5 * (p0 + p1)
        phm = _phases(f, a, to_z(mid))
        p0, p1 = np.concatenate([p0, mid]), np.concatenate([mid, p1])
        ph0, ph1 = np.concatenate([ph0, phm]), np.concatenate([phm, ph1])


def _integer_winding(total: float) -> int:
    w = total / (2.0 * math.pi)
    if abs(w - round(w)) > 0.25:
        raise PhaseJumpTooLarge(f"winding {w} did not settle to an integer")
    return int(round(w))


def _rect_winding(f, a, p0, p1, per_edge, to_z) -> int:
    """Winding of f - a around the image under ``to_z`` of a rectangle.

    The rectangle of the parameter plane has lower left corner p0 and upper
    right corner p1; its perimeter is walked counterclockwise as one phase
    walk on ``per_edge`` samples per edge (corners shared).
    """
    corners = np.array([p0, complex(p1.real, p0.imag), p1, complex(p0.real, p1.imag), p0])
    t = np.linspace(0.0, 1.0, per_edge)[:-1]
    edges = corners[:-1, None] + (corners[1:] - corners[:-1])[:, None] * t
    return _integer_winding(_phase_walk(f, a, np.append(edges.ravel(), p0), to_z))


def argument_principle_count(f, a: complex, r: float) -> int:
    """Winding number of f - a along |x| = r: zeros minus poles inside.

    The circle gets WINDING_NODES samples, or NODES_PER_EVENT per zero and
    pole of the ledger inside it when that is more.
    """
    events = _contour_events(f, r)
    # each zero or pole inside turns the phase by 2 pi, spread over the
    # circle when it lies deep inside; a step that turns by more than pi
    # aliases, so take at least NODES_PER_EVENT nodes per known event
    inside = sum(abs(ev.multiplicity) for ev in events if ev.modulus < r)
    nodes = max(WINDING_NODES, NODES_PER_EVENT * inside)
    pts = r * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, nodes + 1))
    return _integer_winding(_phase_walk(f, complex(a), pts, lift_to_z_array))


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


def _value(f, a, to_z):
    """The scalar function p -> f(to_z(p)) - a, which reads -a at a zero of f."""
    return lambda p: breve_value(f, to_z(p)) - a


def _polish_root(f, a, p0, p1, to_z):
    """The single root of f - a in the cell [p0, p1] by Newton from its centre, or None.

    Kept when Newton converged, to within its step of a root of the linear
    model (NEWTON_STEP_RTOL, NEWTON_RESIDUAL_RTOL), the root is simple enough
    for roundoff in f to move it less (F_ROUNDOFF_RTOL) and it lies in the
    cell: then it is accurate to that roundoff over |f'|.
    """
    val = _value(f, a, to_z)
    try:
        p, step = _newton_polish(val, 0.5 * (p0 + p1), 1, floor=1.0)
        h = 1e-6 * max(abs(p), 1.0)
        slope = abs(val(p + h) - val(p - h)) / (2.0 * h)
        residual = abs(val(p))
    except OverflowError:  # an iterate went where |f| overflows
        return None
    tol_p = NEWTON_STEP_RTOL * max(1.0, abs(p))
    tol_f = max(1.0, abs(a))
    # written so that a NaN fails every test
    if not (
        step <= tol_p
        and residual <= NEWTON_RESIDUAL_RTOL * tol_f + slope * tol_p
        and F_ROUNDOFF_RTOL * tol_f <= slope * tol_p
        and p0.real <= p.real <= p1.real
        and p0.imag <= p.imag <= p1.imag
    ):
        return None
    return p


def _root_quadtree(f, a, cells, per_edge, to_z, small, polish, min_size, poles=()):
    """(location, multiplicity) of the roots of f - a in parameter-plane cells.

    ``to_z`` maps the plane to z.  A cell (p0, p1) counts the winding of f - a
    plus the orders of the ``poles`` (location, order) inside.  Cells split at
    the midpoint, and their quarters' counts are trusted (finer edges alias
    less); a count that does not settle splits its cell.  A cell of count 1
    below ``polish`` goes to _polish_root, and splits when Newton is refused.
    A cell below ``min_size``, or one below ``small`` of several roots whose
    quarters do not count or add up (a cluster, or a multiple root at the
    roundoff floor of f - a), is reported at its centre.  Raises
    PhaseJumpTooLarge unless the roots add up to the start cells' counts.
    """

    def count(p0, p1):
        try:
            w = _rect_winding(f, a, p0, p1, per_edge, to_z)
        except (ContourTooClose, PhaseJumpTooLarge):
            return None
        return w + sum(
            h for x, h in poles if p0.real < x.real <= p1.real and p0.imag < x.imag <= p1.imag
        )

    found, expected = [], 0
    # (corners, count or None, whether no enclosing cell has a count)
    stack = [(p0, p1, count(p0, p1), True) for p0, p1 in cells]
    while stack:
        p0, p1, n, top = stack.pop()
        expected += n if top and n is not None else 0
        if n is not None and n <= 0:
            continue
        c = 0.5 * (p0 + p1)
        size = max(p1.real - p0.real, p1.imag - p0.imag)
        if size < min_size:
            if n is None:
                raise PhaseJumpTooLarge(f"count of the cell at {c} did not settle")
            found.append((c, n))
            continue
        if n == 1 and size < polish:
            p = _polish_root(f, a, p0, p1, to_z)
            if p is not None:
                found.append((p, 1))
                continue
        quarters = [(p0, c), (complex(c.real, p0.imag), complex(p1.real, c.imag)),
                    (complex(p0.real, c.imag), complex(c.real, p1.imag)), (c, p1)]
        counts = [count(*cell) for cell in quarters]
        cluster = n is not None and n > 1 and size < small
        if cluster and (None in counts or min(counts) < 0 or sum(counts) != n):
            found.append((c, n))
            continue
        stack.extend((*cell, k, top and n is None) for cell, k in zip(quarters, counts))
    if sum(h for _, h in found) != expected:
        raise PhaseJumpTooLarge(f"roots found do not add up to the count {expected}")
    return found


def apoint_events(f, a: complex, r: float):
    """Locate a-points of f in |x| < r, as (location, multiplicity) sorted by modulus.

    _root_quadtree searches one box around the disc, with the exact pole
    ledger.  A box of count 1 holds exactly one a-point, so Newton runs from
    every such box, whatever its size: a converged point inside the box is
    that a-point.  A cluster or a multiple point is reported within
    APOINT_MIN_SIZE, or within its box when an edge through the roundoff
    floor of f - a (about sqrt(1e-16 |a|) from a double point) stops the
    counts.  Cost grows with the number of a-points, so radii should be
    modest.
    """
    poles = [(e.x, -e.multiplicity) for e in merged_ledger(f, 2.0 * r * math.sqrt(2.0), "Pole")]
    # slightly irrational offset so lattice points never sit on box edges
    eps = r * 1e-4 * (1.0 + math.pi / 1e3)
    box = (complex(-r - eps, -r - eps), complex(r + eps * 1.3, r + eps * 1.3))
    found = _root_quadtree(f, a, [box], BOX_EDGE_SAMPLES, lift_to_z_array, SMALL_BOX_RTOL * r,
                           math.inf, APOINT_MIN_SIZE, poles)
    return sorted(((x, h) for x, h in found if abs(x) < r), key=lambda p: abs(p[0]))


# --- checkers -------------------------------------------------------------------


def second_main_check(f, values, r_grid):
    """Rows (r, LHS, RHS_counting, LHS - RHS_counting) of the main inequality.

    LHS = (p - 1) T(r, f) for the p finite listed values; RHS_counting =
    reduced N at infinity, counted once whether or not infinity is listed,
    plus the reduced N at each finite value.  The theory predicts
    LHS <= RHS + an O((log r)^(sigma-1+eps)) slack, so LHS - RHS should grow
    no faster than that; the caller judges the slack.
    """
    values = list(values)
    if len(values) < 2:
        raise InvalidParams("need at least two distinct target values")
    # refuse functions annihilated by the divided difference
    probe = [2.7, 3.9 + 1.1j, -4.3 + 0.6j, 6.1]
    if all(abs(aw_diff(f, x)) < 1e-12 for x in probe):
        raise InvalidParams("divided difference of f vanishes identically")
    finite = [a for a in values if a != math.inf]
    rows = []
    for r in sorted(float(r) for r in r_grid):
        T = characteristic(f, r).T
        rhs = aw_counting(f, r, "Pole").N_aw
        for a in finite:
            rhs += aw_counting_at(f, a, r).N_aw
        lhs = (len(finite) - 1) * T
        rows.append((r, lhs, rhs, lhs - rhs))
    return rows


def share_check(f, g, a, r_grid):
    """Compare reduced integrated counts of f and g at the value a.

    Returns (rows, verdict) where rows are (r, N_red_f, N_red_g, diff) and
    the verdict is True when |diff|/log r does not blow up across the grid
    (|diff| staying O(log r)), judged by comparing the top decade of the
    grid against the bottom decade.  Every radius gets a row, but only radii
    r > e are judged, as in log_order: log r vanishes at r = 1 and is
    negative below it.  A grid with no radius r > e raises GridTooSmall.
    """
    r_grid = sorted(float(r) for r in r_grid)
    if not r_grid or r_grid[-1] <= math.e:
        raise GridTooSmall("need a radius r > e to judge")
    rows = []
    for r in r_grid:
        nf = aw_counting_at(f, a, r).N_aw
        ng = aw_counting_at(g, a, r).N_aw
        rows.append((r, nf, ng, nf - ng))
    judged = [(r, abs(d) / math.log(r)) for r, _, _, d in rows if r > math.e]
    lo = [v for r, v in judged if r <= judged[0][0] * 10.0]
    hi = [v for r, v in judged if r >= r_grid[-1] / 10.0]
    verdict = max(hi) <= 2.0 * max(lo) + 1.0
    return rows, verdict


def radius_grid(f, rmin: float, rmax: float, points: int):
    """Log-spaced radii nudged off every event modulus d by d / log^EXCEPTIONAL_LOG_POWER(d+3).

    Mirrors the construction of exceptional-set avoidance: estimates in the
    slow-growth theory hold outside shrinking neighbourhoods of the lattice
    moduli, so sample radii are pushed to the edge of those neighbourhoods.
    A push can take a radius below rmin; radii down to 0.3 * rmin are kept
    (1/pinf(0.4) at q = 0.5 with rmin = 10 starts at 8.50).  They are not
    clamped to rmin, which would move the radii the CLI tables report.
    """
    if not 0 < rmin < rmax:
        raise InvalidParams("need 0 < rmin < rmax")
    moduli = sorted({ev.modulus for ev in _all_events(f, 2.0 * rmax) if ev.modulus > 0})
    out = []
    for r in np.geomspace(rmin, rmax, points):
        r = float(r)
        for _ in range(100):
            clash = None
            for d in moduli:
                margin = d / math.log(d + 3.0) ** EXCEPTIONAL_LOG_POWER
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
