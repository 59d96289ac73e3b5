"""Explicit log-modulus asymptotics of q-infinite products.

For f(x) = phi_infinity(x; a) = (az, a/z; q)_infinity with |z| large, the
log-modulus is a quadratic in log|az| plus one tracked near-zero factor,
with an explicit O(1) constant assembled from the geometric tail bounds.
The same machinery yields the O(log r) proximity estimate for the ratio of
the shifted to the unshifted orthogonality weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGenerator, OutOfRange
from .funcrep import ProductFactor, ProductForm
from .nevanlinna import proximity
from .qcore import QParam, lift_to_z

__all__ = [
    "NuTau",
    "nu_tau",
    "asym_log_modulus",
    "asym_error_bound",
    "weight_ratio_proximity",
]


@dataclass(frozen=True)
class NuTau:
    """Integer/fractional split of the lattice depth of z: |az| = |q|^(3/2 - tau - nu)."""

    nu: int
    tau: float

    def __post_init__(self):
        if self.nu < 1:
            raise OutOfRange("nu must be a positive integer")
        if not 0.0 <= self.tau < 1.0:
            raise OutOfRange("tau must lie in [0, 1)")


def _check_domain(a: complex, z: complex, q: QParam):
    if a == 0:
        raise DegenerateGenerator("a must be nonzero")
    lower = max(abs(a) / math.sqrt(q.abs_q), math.sqrt(q.abs_q) / abs(a))
    # the boundary itself (tau = 0) is admissible; reject only strictly inside
    if abs(z) < lower * (1.0 - 1e-12):
        raise OutOfRange(
            f"|z| = {abs(z):.6g} must exceed max(|a q^-1/2|, |a^-1 q^1/2|) = {lower:.6g}"
        )


def nu_tau(a: complex, z: complex, q: QParam) -> NuTau:
    """Solve |az| = |q|^(3/2 - tau - nu) for integer nu >= 1 and tau in [0, 1)."""
    a, z = complex(a), complex(z)
    _check_domain(a, z, q)
    t = 1.5 - math.log(abs(a * z)) / math.log(q.abs_q)
    nu = math.floor(t)
    tau = t - nu
    if tau >= 1.0:  # floating-point landed exactly on the next integer
        nu += 1
        tau = 0.0
    if nu < 1:
        raise OutOfRange("inadmissible point: the solved nu is not a positive integer")
    return NuTau(nu=nu, tau=tau)


def asym_log_modulus(a: complex, x: complex, q: QParam) -> float:
    """Asymptotic log|phi_infinity(x; a)| at x, via z = lift_to_z(x).

    (log|az|)^2 / (-2 log|q|) + (1/2) log|az| + log|1 - a q^(nu-1) z|.
    """
    a, x = complex(a), complex(x)
    z = lift_to_z(x)
    nt = nu_tau(a, z, q)
    laz = math.log(abs(a * z))
    tracked = abs(1.0 - a * q.q ** (nt.nu - 1) * z)
    if tracked == 0.0:
        return -math.inf
    return laz * laz / (-2.0 * math.log(q.abs_q)) + 0.5 * laz + math.log(tracked)


def asym_error_bound(q: QParam) -> float:
    """Explicit O(1) constant: 3 |q|^(1/2) / ((1 - |q|^(1/2))(1 - |q|))."""
    s = math.sqrt(q.abs_q)
    return 3.0 * s / ((1.0 - s) * (1.0 - q.abs_q))


def weight_ratio_proximity(a, b, c, d, q: QParam, r_grid):
    """Proximity m(r, shifted weight / weight) on r_grid, and its log r slope.

    The ratio is assembled symbolically: the common (e^(2 i theta) ...) and
    sin(theta) parts of the two weights cancel exactly, and each weight has
    1 / phi(x; p) for p in its parameters, leaving the four factor-pair
    ratios phi(x; p) / phi(x; p q^(1/2)) for p in (a, b, c, d).  Returns
    (values, slope) with slope the least-squares coefficient of m(r)
    against log r.
    """
    params = [complex(p) for p in (a, b, c, d)]
    if any(p == 0 for p in params):
        raise DegenerateGenerator("weight parameters must be nonzero")
    factors = []
    for p in params:
        factors.append(ProductFactor(p, q.q, 1))
        factors.append(ProductFactor(p * q.sqrt_q, q.q, -1))
    ratio = ProductForm(1.0, (), tuple(factors), q)
    rs = [float(r) for r in r_grid]
    values = [proximity(ratio, r) for r in rs]
    slope = float(np.polyfit(np.log(rs), values, 1)[0])
    return values, slope
