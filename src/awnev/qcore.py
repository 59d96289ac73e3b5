"""Complex q-arithmetic, truncated infinite products and branch geometry.

Everything downstream consumes the Joukowski variable z only through
:func:`lift_to_z`, which fixes the |z| >= 1 branch once and for all:
z ~ 2x at infinity, and for real x in [-1, 1] the value is taken from
above the real axis, z = x + i*sqrt(1 - x^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGenerator, InvalidParams, OutOfRange, TruncationExceeded

__all__ = [
    "QParam",
    "ABS_TOL",
    "MAX_TERMS",
    "qpoch_finite",
    "qpoch_infinite",
    "log_qpoch_infinite",
    "lift_to_z",
    "lift_to_z_array",
    "lattice_point",
]


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q with 0 < |q| < 1 and its fixed square root.

    ``sqrt_q`` is the principal root, computed once; every occurrence of
    q^(1/2) in the package goes through this field so that signs stay
    consistent across the divided-difference and averaging operators.
    """

    q: complex
    sqrt_q: complex
    abs_q: float

    def __init__(self, q: complex):
        q = complex(q)
        aq = abs(q)
        if not 0.0 < aq < 1.0:
            raise InvalidParams(f"need 0 < |q| < 1, got |q| = {aq}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sqrt_q", cmath.sqrt(q))
        object.__setattr__(self, "abs_q", aq)


# bound on the dropped tail of log (a; q)_inf: about the roundoff of the few
# dozen factor logs summed at |q| <= 1/2, so the tail never dominates it
ABS_TOL = 1e-14
# most factors of one truncated product: the tail bound needs about
# log(ABS_TOL (1 - |q|) / 2) / log|q| of them, 1e6 at |q| = 1 - 4e-5; a |q|
# closer to 1 raises TruncationExceeded at once rather than summing millions
# of factor logs whose roundoff, growing with their number, dwarfs ABS_TOL
MAX_TERMS = 10**6


def _as_q(q) -> complex:
    return q.q if isinstance(q, QParam) else complex(q)


def qpoch_finite(a: complex, q, n: int) -> complex:
    """Finite q-shifted factorial (a; q)_n = prod_{k=1..n} (1 - a q^(k-1))."""
    if n < 0:
        raise InvalidParams("n must be nonnegative")
    qq = _as_q(q)
    out = 1.0 + 0.0j
    f = complex(a)
    for _ in range(n):
        out *= 1.0 - f
        f *= qq
    return out


# elements (terms x points) in one block temporary of the array path of
# log_qpoch_infinite: 64 KiB of complex128, so a block stays in cache
_BLOCK_ELEMS = 4096


def _truncation_index(abs_a: float, abs_q: float) -> int:
    """Smallest N with tail bound sum_{k>N} |a||q|^{k-1}/(1-|a||q|^{k-1}) <= ABS_TOL.

    The bound requires |a||q|^N <= 1/2 so that the geometric estimate
    t/(1-t) <= 2t applies; below that the tail is <= 2|a||q|^N/(1-|q|).
    """
    if abs_a == 0.0:
        return 0
    # first index where |a||q|^N <= 1/2
    if abs_a > 0.5:
        n0 = int(math.ceil(math.log(0.5 / abs_a) / math.log(abs_q)))
    else:
        n0 = 0
    target = ABS_TOL * (1.0 - abs_q) / (2.0 * abs_a)
    if target >= 1.0:
        n1 = 0
    else:
        n1 = int(math.ceil(math.log(target) / math.log(abs_q)))
    n = max(n0, n1, 0)
    if n > MAX_TERMS:
        raise TruncationExceeded(
            f"{n} terms needed for tail bound {ABS_TOL}, cap {MAX_TERMS}"
        )
    return n


def log_qpoch_infinite(a, q):
    """log (a; q)_infinity, truncated after a tail of at most ABS_TOL.

    ``a`` may be a complex scalar or a numpy array (vectorized over a).
    Returns the sum of the principal-branch logs of the factors
    1 - a q^k, k < N, with N from the tail bound of the largest |a|.
    ``ABS_TOL`` bounds the truncation only: the summed roundoff of the N
    factor logs comes on top of it and grows with N (about 7e-13 on the
    scalar path at a = -0.8+0.3j, q = 0.99, ~3500 factors).  The
    imaginary part is the per-factor principal-value sum (not reduced
    mod 2 pi; adequate everywhere we consume it).  A factor vanishing
    exactly yields real part -inf.

    A scalar ``a`` runs a plain ``cmath`` loop and returns
    ``complex(-inf, 0)`` at the first exactly vanishing factor.  An array
    takes the powers q^k once and sums the logs of a block of factors
    ``1 - q^k a`` at a time, over at most ``_BLOCK_ELEMS`` (terms x points)
    per temporary, so extra memory stays fixed whatever the array size.
    """
    qq = _as_q(q)
    a_arr = np.asarray(a, dtype=complex)
    if a_arr.ndim == 0:
        f = complex(a_arr)
        n = _truncation_index(abs(f), abs(qq))
        log = cmath.log
        out = 0j
        try:
            for _ in range(n):
                # complex minus complex: a real factor keeps imaginary part
                # +0.0, as on the array path
                out += log((1.0 + 0.0j) - f)
                f *= qq
        except ValueError:  # cmath.log(0): a factor vanishes exactly
            return complex(-math.inf, 0.0)
        return out
    abs_a = float(np.abs(a_arr).max()) if a_arr.size else 0.0
    n = _truncation_index(abs_a, abs(qq))
    flat = a_arr.reshape(-1)
    out = np.zeros(flat.shape, dtype=complex)
    if n == 0:  # also every empty array
        return out.reshape(a_arr.shape)
    qk = np.full(n, qq)
    qk[0] = 1.0
    np.multiply.accumulate(qk, out=qk)  # q^k, k < n
    width = min(flat.size, _BLOCK_ELEMS)
    rows = _BLOCK_ELEMS // width
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(0, flat.size, width):
            aj = flat[j : j + width]
            acc = out[j : j + width]
            for k in range(0, n, rows):
                blk = qk[k : k + rows, None] * aj
                np.subtract(1.0, blk, out=blk)
                np.log(blk, out=blk)
                acc += blk.sum(axis=0)
    return out.reshape(a_arr.shape)


def qpoch_infinite(a: complex, q) -> complex:
    """Infinite q-shifted factorial (a; q)_infinity for |q| < 1."""
    lg = log_qpoch_infinite(a, q)
    if lg.real == -math.inf:
        return 0.0 + 0.0j
    return cmath.exp(lg)


# above this |x|, x^2 may overflow, and the lift is 2x to double precision:
# x + sqrt(x^2 - 1) differs from it by about 1/(2x), below 1e-300 |z|
LIFT_SQUARE_MAX = 1e150


def lift_to_z_array(x) -> np.ndarray:
    """Vectorized branch lift: z with x = (z + 1/z)/2 and |z| >= 1.

    For x off [-1, 1] this is z = x + sqrt(x^2 - 1) with the root chosen so
    |z| >= 1; on the cut the principal square root of x^2 - 1 already gives
    the limit from above the real axis, z = x + i sqrt(1 - x^2).  Above
    |x| = LIFT_SQUARE_MAX it is z = 2x, without squaring x; OutOfRange is
    raised where |2x| would overflow.
    """
    xa = np.asarray(x, dtype=complex)
    ax = np.abs(xa)
    big = ax > LIFT_SQUARE_MAX
    if big.any():
        if not np.all(ax[big] < 0.5 * np.finfo(float).max):
            raise OutOfRange(f"|x| = {np.max(ax):.3g}: its lift z = 2x overflows")
        return np.where(big, 2.0 * xa, lift_to_z_array(np.where(big, 0.0, xa)))
    w = np.sqrt(xa * xa - 1.0)
    z1 = xa + w
    z2 = xa - w
    a1, a2 = np.abs(z1), np.abs(z2)
    z = np.where(a1 < a2, z2, z1)
    # on the cut both roots have |z| = 1; keep the upper-half representative
    on_cut = np.abs(a1 - a2) <= 1e-300 + 1e-15 * a2
    if np.any(on_cut):
        zu = np.where(z1.imag >= z2.imag, z1, z2)
        z = np.where(on_cut, zu, z)
    return z


def lift_to_z(x: complex) -> complex:
    """Lift a single point to its |z| >= 1 branch representative.

    Goes through :func:`lift_to_z_array`, so scalar and array lifts agree
    bit for bit.
    """
    return complex(lift_to_z_array(complex(x)))


def lattice_point(a: complex, q, n: int) -> complex:
    """Lattice point x_n = (a q^n + q^(-n)/a)/2 for generator a != 0.

    ``q`` may be a QParam or a bare complex base (the factor bases of
    product forms are not always the operator's q).
    """
    if a == 0:
        raise DegenerateGenerator("lattice generator a = 0")
    qq = _as_q(q)
    qn = qq**n
    return (a * qn + 1.0 / (a * qn)) / 2.0
