"""Independent checks of every benchmark task's output.

Each check is a small callable object built with the task's inputs; it
takes the task's output and returns None when the output is right, or a
one-line reason.  Checks run after the timed passes, so their cost is in
no metric.  They do not call the awnev layer that produced the output:

- point values come from mpmath (``qp``, ``jtheta``, the Askey-Wilson
  norm in closed form, divided differences at 30 digits);
- counts come from brute-force enumeration of the factor lattices;
- proximity, characteristic and log-order come from a numpy re-evaluation
  of the product form on a 512-node circle, written here from the
  definitions, not from ``funcrep``;
- the only awnev call is the one the reduced-count check prescribes:
  ``classical_n`` of ``aw_counting_at`` must equal
  ``argument_principle_count(f, a, r)`` plus the ledger poles.

The numeric bounds are the repository's own: Theta_AW targets within
0.07 and defect sums <= 2.1 (acceptance criteria 5 and 7), eigen and
orthogonality 1e-7 (criterion 10), theta identities 1e-10 (criterion 4),
Rodrigues and generating-function residuals 1e-9 (``tests/test_awpoly``),
kernel residual 1e-7 and membership 1e-8 (``kernel``), log order in
[1.9, 2.1] for a single factor (criterion 12).
"""

from __future__ import annotations

import cmath
import csv
import io
import math

import numpy as np

# proximity on 512 uniform nodes against awnev's 512 plus clusters near
# events; off the event moduli both agree to ~1e-6 of T (measured at 512 to
# 4096 nodes on the sweep inputs)
PROXIMITY_RTOL = 1e-5
COUNT_RTOL = 1e-9  # N(r) sums the same logs in another order
LOG_ORDER_ATOL = 0.02  # sigma refitted from independently computed T(r)
THETA_TARGET_ATOL = 0.07  # criterion 5
DEFECT_SUM_MAX = 2.1  # criterion 7
ORTHO_RTOL = 1e-7  # criterion 10
THETA_RTOL = 1e-10  # criterion 4
KERNEL_RESIDUAL_MAX = 1e-7  # kernel_solve's own verification bound
MEMBER_TOL = 1e-8  # kernel_member's default tolerance
CLASS_TOL = 1e-6  # recovered generator vs planted lattice class
DIFF_RTOL = 1e-7  # iterated divided differences lose digits to cancellation
NODES = 512


# --- independent numpy evaluation --------------------------------------------------


def lift(x):
    """z with x = (z + 1/z)/2 and |z| >= 1 (the larger-modulus root)."""
    x = np.asarray(x, dtype=complex)
    w = np.sqrt(x * x - 1.0)
    z1, z2 = x + w, x - w
    return np.where(np.abs(z1) >= np.abs(z2), z1, z2)


def _terms(a: complex, base: complex, z: np.ndarray) -> int:
    """Product terms until |a base^k| max(|z|, 1/|z|) drops below 1e-17."""
    big = float(np.max(np.maximum(np.abs(z), 1.0 / np.abs(z))))
    return max(1, int(math.ceil(math.log(1e-17 / (abs(a) * big)) / math.log(abs(base)))) + 1)


def _pair_log(a: complex, base: complex, z: np.ndarray) -> np.ndarray:
    """log (a z, a / z; base)_inf, summed term by term."""
    out = np.zeros(z.shape, dtype=complex)
    w = complex(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_terms(a, base, z)):
            out += np.log(1.0 - w * z) + np.log(1.0 - w / z)
            w *= base
    return out


def _pair_log_abs(a: complex, base: complex, z: np.ndarray) -> np.ndarray:
    """log |(a z, a / z; base)_inf|: the real part alone, at half the cost."""
    out = np.zeros(z.shape)
    w = complex(a)
    with np.errstate(divide="ignore"):
        for _ in range(_terms(a, base, z)):
            out += np.log(np.abs(1.0 - w * z) * np.abs(1.0 - w / z))
            w *= base
    return out


def _form_log(form, z: np.ndarray) -> np.ndarray:
    out = np.full(z.shape, cmath.log(form.constant), dtype=complex)
    if form.poly:
        x = (z + 1.0 / z) / 2.0
        out += np.log(np.polynomial.polynomial.polyval(x, np.asarray(form.poly)))
    for fac in form.factors:
        out += fac.m * _pair_log(fac.a, fac.base, z)
    return out


def expr_log(expr, z) -> np.ndarray:
    """Complex log of a FunctionExpr at branch points z (log-sum-exp over terms)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    logs = np.stack([_form_log(form, z) + cmath.log(c) for c, form in expr.terms])
    mx = np.max(logs.real, axis=0)
    return np.log(np.sum(np.exp(logs - mx), axis=0)) + mx


def _log_abs(expr, z: np.ndarray) -> np.ndarray:
    """log |f| at branch points z; sums of terms go through the complex log."""
    if len(expr.terms) > 1:
        return expr_log(expr, z).real
    c, form = expr.terms[0]
    out = np.full(z.shape, math.log(abs(c * form.constant)))
    if form.poly:
        x = (z + 1.0 / z) / 2.0
        out += np.log(np.abs(np.polynomial.polynomial.polyval(x, np.asarray(form.poly))))
    for fac in form.factors:
        out += fac.m * _pair_log_abs(fac.a, fac.base, z)
    return out


def proximity(expr, r: float, nodes: int = NODES) -> float:
    """m(r) by the uniform periodic trapezoid rule."""
    th = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    y = _log_abs(expr, lift(r * np.exp(1j * th)))
    return float(np.mean(np.maximum(y, 0.0)))


def winding(expr, a: complex, r: float) -> int:
    """Winding number of f - a along |x| = r, doubling nodes until steps are small."""
    nodes = 1024
    while True:
        th = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
        w = np.exp(expr_log(expr, lift(r * np.exp(1j * th)))) - a
        d = np.diff(np.angle(np.append(w, w[0])))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if np.max(np.abs(d)) < math.pi / 4 or nodes >= 2**17:
            return int(round(float(np.sum(d)) / (2.0 * math.pi)))
        nodes *= 4


# --- brute-force lattices -----------------------------------------------------------


def _form_events(form, r: float):
    """[x, multiplicity, z] of every factor lattice point with |x| < r, merged."""
    raw = []
    for fac in form.factors:
        n = 0
        while n < 10**6:
            w = fac.a * fac.base**n
            x = (w + 1.0 / w) / 2.0
            if abs(x) < r:
                raw.append([x, fac.m, w if abs(w) >= 1.0 else 1.0 / w])
            elif abs(w) < 1.0:
                break
            n += 1
    if len(form.poly) > 1:
        for root in np.roots(list(reversed(form.poly))):
            if abs(root) < r:
                raw.append([complex(root), 1, complex(lift(root))])
    return _merge(raw)


def _merge(raw):
    """Sum the multiplicities of coincident points (relative 1e-9), drop nets of 0."""
    raw.sort(key=lambda e: abs(e[0]))
    out = []
    for e in raw:
        tol = 1e-9 * max(1.0, abs(e[0]))
        same = None
        for prev in reversed(out):
            if abs(e[0]) - abs(prev[0]) > tol:
                break
            if abs(prev[0] - e[0]) <= tol:
                same = prev
                break
        if same is None:
            out.append(list(e))
        else:
            same[1] += e[1]
    return [e for e in out if e[1] != 0]


def lattice_events(expr, r: float, kind: str):
    """Zero (kind 'Zero') or pole events of the expression inside |x| < r."""
    if kind == "Zero":
        if len(expr.terms) != 1:
            raise ValueError("zeros of a sum are not enumerable")
        return [e for e in _form_events(expr.terms[0][1], r) if e[1] > 0]
    poles = []
    for _, form in expr.terms:
        poles += [e for e in _form_events(form, r) if e[1] < 0]
    return _merge(poles)


def count(expr, r: float, kind: str):
    """(n(r), N(r)) from the brute-force lattice."""
    ev = lattice_events(expr, r, kind)
    n = sum(abs(e[1]) for e in ev)
    N = sum(abs(e[1]) * math.log(r / max(abs(e[0]), 1e-12)) for e in ev)
    return n, N


def characteristic(expr, r: float) -> float:
    return proximity(expr, r) + count(expr, r, "Pole")[1]


def _fit_log_order(rs, Ts) -> float:
    """sigma in log T = sigma log log r + c + d / log r (the documented model)."""
    us = np.log(np.asarray(rs))
    ls = np.log(np.asarray(Ts))
    if len(us) < 5:
        return float(np.polyfit(np.log(us), ls, 1)[0])
    design = np.column_stack([np.log(us), np.ones(len(us)), 1.0 / us])
    return float(np.linalg.lstsq(design, ls, rcond=None)[0][0])


def _close(got, want, rtol, floor=1.0) -> bool:
    return abs(got - want) <= rtol * max(abs(want), floor)


# --- sweep checks -------------------------------------------------------------------


class RadiusGridCheck:
    """Radii in range, increasing, and off the event moduli.

    radius_grid promises a margin d / log^2(d + 3) around every event
    modulus d.  Where the margins of neighbouring moduli overlap (dense
    lattices, |q| near 1) no radius can keep it, so there the check asks only
    for the 1e-6 r clearance that argument_principle_count needs.
    """

    def __init__(self, f, rmin, rmax):
        self.f, self.rmin, self.rmax = f, rmin, rmax

    def __call__(self, rs):
        if len(rs) < 3 or any(b <= a for a, b in zip(rs, rs[1:])):
            return f"grid not strictly increasing or too short: {rs}"
        if rs[0] < 0.3 * self.rmin or rs[-1] > 2.0 * self.rmax:
            return f"grid leaves [{self.rmin}, {self.rmax}]"
        moduli = sorted({abs(e[0]) for kind in ("Zero", "Pole")
                         for e in lattice_events(self.f, 2.0 * self.rmax, kind) if abs(e[0]) > 0})
        blocks = []  # [lo, hi, margins merged]: overlapping margins merge into one block
        for d in moduli:
            m = d / math.log(d + 3.0) ** 2
            if blocks and d - m <= blocks[-1][1]:
                blocks[-1][1] = max(blocks[-1][1], d + m)
                blocks[-1][2] += 1
            else:
                blocks.append([d - m, d + m, 1])
        for r in rs:
            if any(abs(r - d) <= 1e-6 * r for d in moduli):
                return f"radius {r} within 1e-6 r of an event modulus"
            for lo, hi, merged in blocks:
                half = 0.5 * (hi - lo)
                if merged == 1 and abs(r - (lo + half)) < 0.999 * half:
                    return f"radius {r} inside the exceptional margin [{lo}, {hi}]"
        return None


class CharacteristicCheck:
    def __init__(self, f):
        self.f = f

    def __call__(self, rec):
        n, N = count(self.f, rec.r, "Pole")
        if rec.n_count != n:
            return f"n({rec.r}) = {rec.n_count}, lattice has {n}"
        if not _close(rec.N, N, COUNT_RTOL):
            return f"N({rec.r}) = {rec.N}, lattice gives {N}"
        m = proximity(self.f, rec.r)
        if not _close(rec.m, m, PROXIMITY_RTOL):
            return f"m({rec.r}) = {rec.m}, 512-node trapezoid gives {m}"
        if not _close(rec.T, rec.m + rec.N, 1e-12):
            return "T != m + N"
        return None


class AWCountingCheck:
    """Reduced count recomputed from the lattice: an event is discounted by
    the multiplicity of the same-kind event at q * z."""

    def __init__(self, f, kind):
        self.f, self.kind = f, kind

    def __call__(self, rec):
        q = self.f.q
        r = rec.r
        every = lattice_events(self.f, 2.0 * r / q.abs_q + 2.0, self.kind)
        classical = n_aw = 0
        N_aw = 0.0
        for x, mult, z in every:
            if abs(x) >= r:
                continue
            h = abs(mult)
            classical += h
            zm = q.q * z
            hp = 0
            if abs(zm) >= 1.0 - 1e-12:
                hp = next((abs(e[1]) for e in every
                           if abs(e[2] - zm) <= 1e-9 * max(1.0, abs(zm))), 0)
            c = h - min(h, hp)
            n_aw += c
            N_aw += c * math.log(r / max(abs(x), 1e-12))
        if (rec.classical_n, rec.n_aw) != (classical, n_aw):
            return (f"(n, n_aw) = ({rec.classical_n}, {rec.n_aw}), "
                    f"lattice gives ({classical}, {n_aw})")
        if not _close(rec.N_aw, N_aw, COUNT_RTOL):
            return f"N_aw = {rec.N_aw}, lattice gives {N_aw}"
        return None


def _check_deficiency_rows(thetas, total, target):
    if any(not 0.0 <= t <= 1.0 for t in thetas):
        return f"Theta_AW outside [0, 1]: {thetas}"
    if total > DEFECT_SUM_MAX:
        return f"defect sum {total:.3f} > {DEFECT_SUM_MAX}"
    if target is not None and abs(thetas[0] - target) > THETA_TARGET_ATOL:
        return f"Theta_AW(0) = {thetas[0]:.3f}, target {target:.3f}"
    return None


class DeficiencyCheck:
    def __init__(self, target):
        self.target = target

    def __call__(self, out):
        reports, total = out
        if not _close(total, sum(rep.theta_aw for rep in reports), 1e-12):
            return "defect sum is not the sum of Theta_AW"
        return _check_deficiency_rows([rep.theta_aw for rep in reports], total, self.target)


class LogOrderCheck:
    def __init__(self, f, single_factor):
        self.f, self.single = f, single_factor

    def __call__(self, out):
        rs, sigma = out
        want = _fit_log_order(rs, [characteristic(self.f, r) for r in rs])
        if abs(sigma - want) > LOG_ORDER_ATOL:
            return f"log order {sigma:.4f}, refit from independent T gives {want:.4f}"
        if self.single and not 1.9 <= sigma <= 2.1:
            return f"single-factor log order {sigma:.3f} outside [1.9, 2.1]"
        return None


def _cli_rows(res):
    if res.code != 0:
        return None, (f"exit code {res.code}: {res.stderr.strip()[:200]}")
    rows = list(csv.reader(io.StringIO(res.stdout)))
    if len(rows) < 2:
        return None, ("no CSV rows")
    return rows, None


def parse_literal(text: str) -> complex:
    """Parse the CLI's complex output ('1.5', '-2i', '1e-05-3.2e-07i')."""
    text = text.strip()
    if not text.endswith("i"):
        return complex(float(text))
    body = text[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos:]))
    return complex(0.0, float(body))


class CliCharCheck:
    def __init__(self, f):
        self.f = f

    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        header, body = rows[0], rows[1:]
        if header != ["r", "m", "n", "N", "T", "n_aw", "N_aw"]:
            return f"unexpected char columns {header}"
        for row in body:
            r, m, n_cnt, N, T, n_aw, N_aw = (float(v) for v in row)
            n, Nb = count(self.f, r, "Pole")
            if int(n_cnt) != n or not _close(N, Nb, COUNT_RTOL):
                return f"char row r={r}: (n, N) = ({n_cnt}, {N}), lattice ({n}, {Nb})"
            if not _close(T, m + N, 1e-12) or not 0 <= n_aw <= n_cnt or N_aw > N + 1e-9:
                return f"char row r={r} inconsistent: {row}"
        return None


class CliDeficiencyCheck:
    def __init__(self, target):
        self.target = target

    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        body = rows[1:]
        if body[-1][0] != "defect_sum":
            return "missing defect_sum row"
        thetas = [float(row[3]) for row in body[:-1]]
        return _check_deficiency_rows(thetas, float(body[-1][3]), self.target)


# --- roots checks -------------------------------------------------------------------


class WindingCheck:
    def __init__(self, f, a, r):
        self.f, self.a, self.r = f, complex(a), r

    def __call__(self, got):
        if self.a == 0:
            want = count(self.f, self.r, "Zero")[0] - count(self.f, self.r, "Pole")[0]
        else:
            want = winding(self.f, self.a, self.r)
        if got != want:
            return f"winding {got}, independent count {want}"
        return None


class AWCountingAtCheck:
    def __init__(self, f, a, r):
        self.f, self.a, self.r = f, a, r

    def __call__(self, rec):
        from awnev import nevanlinna

        signed = nevanlinna.argument_principle_count(self.f, self.a, self.r)
        poles = count(self.f, self.r, "Pole")[0]
        if rec.classical_n != signed + poles:
            return f"classical_n {rec.classical_n} != winding {signed} + poles {poles}"
        if not 0 <= rec.n_aw <= rec.classical_n or rec.N_aw < 0:
            return f"reduced count out of range: {rec}"
        return None


def _in_class(c: complex, g: complex, q: complex) -> bool:
    """c generates the zero lattice {g q^n} u {q^n / g} of pair(g)."""
    for w in (c / g, c * g):
        t = math.log(abs(w)) / math.log(abs(q))
        n = round(t)
        if abs(t - n) < CLASS_TOL and abs(w - q**n) < CLASS_TOL * max(1.0, abs(w)):
            return True
    return False


def _kernel_identity(terms, gens, C, q) -> str | None:
    """Sum of the planted terms == C * prod pair(c) at three probe points."""

    def pair_log(g, z):
        return _pair_log(g, q.q, z) + _pair_log(q.q / g, q.q, z)

    z = lift(np.array([2.3 + 1.1j, -3.7 + 0.4j, 0.9 - 4.2j]))
    lhs = 0
    for t in terms:
        lhs = lhs + t.coefficient * np.exp(sum(pair_log(g, z) for g in t.generators))
    rhs = C * np.exp(sum(pair_log(g, z) for g in gens))
    err = float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))
    return None if err <= 1e-6 else f"identity residual {err:.2e} at probe points"


def _check_kernel_solution(terms, planted, q, c_gens, C, residual):
    if len(c_gens) != len(planted):
        return f"recovered {len(c_gens)} generators, planted {len(planted)}"
    left = list(planted)
    for c in c_gens:
        match = next((g for g in left if _in_class(c, g, q.q)), None)
        if match is None:
            return f"generator {c} is in no planted class {planted}"
        left.remove(match)
    if not residual < KERNEL_RESIDUAL_MAX:
        return f"solver residual {residual}"
    return _kernel_identity(terms, c_gens, C, q)


class KernelSolveCheck:
    def __init__(self, terms, planted, q):
        self.terms, self.planted, self.q = terms, planted, q

    def __call__(self, sol):
        return _check_kernel_solution(self.terms, self.planted, self.q,
                                      sol.c_generators, sol.C, sol.residual)


class CliKernelSolveCheck(KernelSolveCheck):
    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        vals = rows[1]
        gens = [parse_literal(v) for v in vals[:-2]]
        return _check_kernel_solution(self.terms, self.planted, self.q, gens,
                                      parse_literal(vals[-2]), float(vals[-1]))


# --- identities checks --------------------------------------------------------------


class BelowCheck:
    def __init__(self, bound):
        self.bound = bound

    def __call__(self, v):
        if not (math.isfinite(v) and v < self.bound):
            return f"residual {v} not below {self.bound}"
        return None


class QPochCheck:
    def __init__(self, a, q):
        self.a, self.q = a, q

    def __call__(self, got):
        import mpmath

        want = complex(mpmath.qp(self.a, self.q.q))
        return None if _close(got, want, THETA_RTOL, 0.0) else f"(a;q) = {got}, mpmath {want}"


class ThetaCheck:
    def __init__(self, j, w, q):
        self.j, self.w, self.q = j, w, q

    def __call__(self, got):
        import mpmath

        want = complex(mpmath.jtheta(self.j, self.w, self.q.q))
        return None if _close(got, want, THETA_RTOL, 0.0) else f"theta = {got}, mpmath {want}"


def aw_norm(p, n: int) -> complex:
    """Integral over [0, pi] of w p_n^2 d theta: 2 pi h_n in closed form (mpmath)."""
    import mpmath

    a, b, c, d = (mpmath.mpc(v) for v in p.params())
    q = mpmath.mpc(p.q.q)
    abcd = a * b * c * d
    num = mpmath.qp(abcd * q ** (n - 1), q, n) * mpmath.qp(abcd * q ** (2 * n), q)
    den = mpmath.qp(q ** (n + 1), q)
    for v in (a * b, a * c, a * d, b * c, b * d, c * d):
        den *= mpmath.qp(v * q**n, q)
    return complex(2 * mpmath.pi * num / den)


def _check_ortho(p, m, n, got):
    if m == n:
        want = aw_norm(p, n)
        ok = _close(got, want, ORTHO_RTOL, 0.0)
        return None if ok else f"<p{n},p{n}> = {got}, closed form {want}"
    scale = min(abs(aw_norm(p, m)), abs(aw_norm(p, n)))
    ok = abs(got) <= ORTHO_RTOL * scale
    return None if ok else f"<p{m},p{n}> = {got} vs diagonal {scale:.3e}"


class OrthogonalityCheck:
    def __init__(self, p, m, n):
        self.p, self.m, self.n = p, m, n

    def __call__(self, got):
        return _check_ortho(self.p, self.m, self.n, got)


class KernelMemberCheck:
    """kernel_member must say True, and D_q f must vanish by direct evaluation."""

    def __init__(self, f):
        self.f = f

    def __call__(self, got):
        if got is not True:
            return f"kernel_member returned {got!r} for a make_fab quotient"
        s = cmath.sqrt(self.f.q.q)
        z = lift(np.array([2.9 + 0.7j, -4.1 + 1.9j, 1.3 - 6.2j]))
        fz = np.exp(expr_log(self.f, z))
        d = (np.exp(expr_log(self.f, s * z)) - np.exp(expr_log(self.f, z / s))) / (
            (s - 1.0 / s) * (z - 1.0 / z) / 2.0
        )
        worst = float(np.max(np.abs(d) / np.maximum(1.0, np.abs(fz))))
        return None if worst < MEMBER_TOL else f"|D_q f| / |f| = {worst:.2e}"


def phi_basis_poly(coeffs, a: float, q: complex):
    """Ascending x-coefficients of sum_k coeffs[k] phi_k(x; a)."""
    P = np.polynomial.polynomial
    total = np.zeros(1, dtype=complex)
    basis = np.ones(1, dtype=complex)
    for k, c in enumerate(coeffs):
        if k:
            qj = q ** (k - 1)
            basis = P.polymul(basis, [1.0 + a * a * qj * qj, -2.0 * a * qj])
        total = P.polyadd(total, c * basis)
    return [complex(v) for v in total]


class TaylorCheck:
    def __init__(self, planted):
        self.planted = list(planted) + [0.0, 0.0]

    def __call__(self, got):
        scale = max(1.0, max(abs(c) for c in self.planted))
        worst = max(abs(g - w) for g, w in zip(got, self.planted))
        if len(got) != len(self.planted) or worst > 1e-8 * scale:
            return f"q-Taylor coefficients {got} vs planted {self.planted}"
        return None


def _mp_divided(factors, q: complex, x: complex, order: int) -> complex:
    """D_q^order (order 0: the value) of prod (g z, g / z; q)_inf^m at x, in
    30-digit mpmath."""
    import mpmath

    with mpmath.workdps(30):
        qq = mpmath.mpc(q)
        s = mpmath.sqrt(qq)

        def f(z):
            v = mpmath.mpc(1)
            for g, m in factors:
                v *= (mpmath.qp(g * z, qq) * mpmath.qp(g / z, qq)) ** m
            return v

        def dq(g):
            return lambda z: (g(s * z) - g(z / s)) / ((s - 1 / s) * (z - 1 / z) / 2)

        for _ in range(order):
            f = dq(f)
        x = mpmath.mpc(x)
        z = x + mpmath.sqrt(x * x - 1)
        if abs(z) < 1:
            z = 1 / z
        return complex(f(z))


class DiffIterateCheck:
    def __init__(self, c, q, k, x):
        self.factors, self.q, self.k, self.x = ((c, 1),), q.q, k, x

    def __call__(self, got):
        want = _mp_divided(self.factors, self.q, self.x, self.k)
        return None if _close(got, want, DIFF_RTOL) else f"D_q^{self.k} f = {got}, mpmath {want}"


class CliAsymCheck:
    def __init__(self, q):
        self.q = abs(q)

    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        worst, bound, ok = rows[1]
        s = math.sqrt(self.q)
        want = 3.0 * s / ((1.0 - s) * (1.0 - self.q))
        if not _close(float(bound), want, 1e-12) or ok != "True" or float(worst) > float(bound):
            return f"asym-check row {rows[1]}, bound should be {want}"
        return None


class CliOrthoCheck:
    def __init__(self, p):
        self.p = p

    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        for m, n, val in rows[1:]:
            reason = _check_ortho(self.p, int(m), int(n), parse_literal(val))
            if reason:
                return reason
        return None


class CliThetaVerifyCheck:
    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        return BelowCheck(THETA_RTOL)(float(rows[1][1]))


class CliValueCheck:
    """``eval`` (order 0) and ``dq`` (order >= 1) against 30-digit mpmath."""

    def __init__(self, factors, q, x, order):
        self.factors, self.q, self.x, self.order = factors, q.q, x, order

    def __call__(self, res):
        rows, err = _cli_rows(res)
        if err:
            return err
        got = parse_literal(rows[1][0])
        want = _mp_divided(self.factors, self.q, self.x, self.order)
        if self.order == 0:
            ok = _close(got, want, THETA_RTOL, 0.0)
        else:
            ok = _close(got, want, DIFF_RTOL)
        return None if ok else f"D_q^{self.order} f = {got}, mpmath {want}"
