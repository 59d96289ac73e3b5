"""Oracle tests for q-arithmetic and branch geometry.

Infinite products are cross-checked against Euler's pentagonal-number series
and mpmath's arbitrary-precision q-Pochhammer; the Joukowski lift against its
defining quadratic.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from awnev.errors import InvalidParams, OutOfRange, TruncationExceeded
from awnev.qcore import (
    _BLOCK_ELEMS,
    QParam,
    lattice_point,
    lift_to_z,
    lift_to_z_array,
    _truncation_index,
    log_qpoch_infinite,
    qpoch_finite,
    qpoch_infinite,
)


def pentagonal_euler(q: complex) -> complex:
    """(q; q)_inf = sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    total = 1.0 + 0.0j
    k = 1
    while True:
        t = (-1) ** k * (q ** (k * (3 * k - 1) // 2) + q ** (k * (3 * k + 1) // 2))
        total += t
        if abs(t) < 1e-18:
            return total
        k += 1


@pytest.mark.parametrize("q", [0.5, 0.1, 0.9, 0.3 + 0.2j])
def test_euler_function_pentagonal_oracle(q):
    got = qpoch_infinite(q, QParam(q))
    want = pentagonal_euler(complex(q))
    assert abs(got - want) <= 1e-13 * abs(want) + 1e-14


@pytest.mark.parametrize(
    "a,q",
    [(0.3, 0.5), (0.9, 0.7), (-0.4 + 0.2j, 0.3 + 0.1j), (2.5, 0.25), (100.0, 0.5)],
)
def test_qpoch_infinite_mpmath_oracle(a, q):
    got = qpoch_infinite(a, QParam(q))
    mpmath.mp.dps = 40
    want = complex(mpmath.qp(a, q))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "a,q",
    [
        (0.5, 0.95),
        (0.3, 0.99),
        (-0.8 + 0.3j, 0.99),
        (0.2 - 0.5j, 0.97 * cmath.exp(0.3j)),
        (3.0 + 1.0j, 0.9j),
        (-0.7 + 0.1j, 0.5 - 0.6j),
        (0.4 + 0.3j, -0.6),
        (2.0, -0.9),
    ],
)
def test_log_qpoch_mpmath_oracle_hard_q(a, q):
    # |q| near 1 (thousands of factors), complex and negative q, on both the
    # scalar and the array path; log error budget 1e-12 max(1, |log|)
    mpmath.mp.dps = 40
    want = complex(mpmath.qp(a, q, maxterms=10**5))
    log_abs, phase = math.log(abs(want)), want / abs(want)
    tol = 1e-12 * max(1.0, abs(log_abs))
    for lg in (log_qpoch_infinite(a, q), log_qpoch_infinite(np.array([0.1, a]), q)[1]):
        assert abs(lg.real - log_abs) <= tol
        assert abs(cmath.exp(1j * lg.imag) - phase) <= tol


@pytest.mark.parametrize("q", [0.5, 0.9, -0.5, 0.3 + 0.4j])
def test_log_qpoch_vector_huge_a_real_part(q):
    # radii up to 1e30 put |a| near 1e31: no factor product may overflow
    mpmath.mp.dps = 50
    a = 10.0 ** np.linspace(0.0, 31.0, 9) * np.exp(1j * np.linspace(0.1, 3.0, 9))
    got = log_qpoch_infinite(a, q).real
    for g, x in zip(got, a):
        want = float(mpmath.log(abs(mpmath.qp(mpmath.mpc(x), mpmath.mpc(q)))))
        assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def _loop_reference(a, q):
    """One numpy pass per factor: the reference for the blocked kernel."""
    a_arr = np.asarray(a, dtype=complex)
    n = _truncation_index(float(np.max(np.abs(a_arr))), abs(q))
    out = np.zeros_like(a_arr)
    f = a_arr.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n):
            out = out + np.log(1.0 - f)
            f = f * q
    return out


# real and negative a put factors on the branch cut of the principal log
_GRID_A = np.concatenate([
    [0.0, 0.3, -0.7, 2.5, -4.0, 1e30, -1e30, 1e30j],
    np.geomspace(1e-3, 1e30, 12) * np.exp(1j * np.linspace(-3.0, 3.0, 12)),
])
_GRID_Q = [0.3, 0.9, -0.5, -0.9, 0.3 + 0.4j, 0.8j, -0.6 - 0.5j]


@pytest.mark.parametrize("q", _GRID_Q)
def test_log_qpoch_paths_match_loop_reference(q):
    # same per-factor principal logs: real and imaginary parts agree with the
    # per-term loop, and a scalar agrees with its element of the array result
    want = _loop_reference(_GRID_A, q)
    vec = log_qpoch_infinite(_GRID_A, q)
    assert vec.shape == _GRID_A.shape
    for a, v, w in zip(_GRID_A, vec, want):
        tol = 1e-12 * max(1.0, abs(w))
        s = log_qpoch_infinite(complex(a), q)
        assert isinstance(s, complex)
        for got in (v, s):
            assert abs(got.real - w.real) <= tol
            assert abs(got.imag - w.imag) <= tol
    # a 2-d input keeps its shape and elements
    grid2 = _GRID_A.reshape(4, 5)
    np.testing.assert_array_equal(log_qpoch_infinite(grid2, q), vec.reshape(4, 5))


def test_log_qpoch_empty_array():
    out = log_qpoch_infinite(np.zeros((0,), dtype=complex), 0.5)
    assert out.shape == (0,)


def test_log_qpoch_array_memory_is_output_plus_block():
    # the array path holds at most one block temporary and its column sum
    # beside the output, whatever the number of points
    a = np.exp(1j * np.linspace(0.0, 6.0, 100_000)) * 1.7
    log_qpoch_infinite(a[:10], 0.5)  # warm numpy's lazy set-up outside the trace
    tracemalloc.start()
    try:
        out = log_qpoch_infinite(a, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 2 * _BLOCK_ELEMS * out.itemsize
    assert peak <= out.nbytes + block + 16 * 1024


def test_qpoch_finite_direct_product():
    a, q, n = 0.7 - 0.2j, QParam(0.6), 9
    direct = 1.0 + 0.0j
    for k in range(n):
        direct *= 1.0 - a * q.q**k
    assert qpoch_finite(a, q, n) == pytest.approx(direct, rel=1e-14)
    assert qpoch_finite(a, q, 0) == 1.0


def test_qpoch_infinite_exact_zero():
    # a = q^-2 makes the k=3 factor vanish exactly
    q = QParam(0.5)
    assert qpoch_infinite(q.q**-2, q) == 0.0
    lg = log_qpoch_infinite(q.q**-2, q.q)
    assert np.isneginf(np.asarray(lg).real)
    # the array path: only the element on the lattice gives -inf
    lg = log_qpoch_infinite(np.array([0.3, q.q**-2, 4.0 + 1.0j]), q.q)
    assert np.isneginf(lg[1].real)
    assert np.isfinite(lg[[0, 2]]).all()


def test_term_cap_raises_on_both_paths():
    # q = 0.999999 needs ~4.7e7 factors for the tail bound, past MAX_TERMS:
    # both paths refuse before summing any
    q = 0.999999
    with pytest.raises(TruncationExceeded):
        log_qpoch_infinite(0.5, q)
    with pytest.raises(TruncationExceeded):
        log_qpoch_infinite(np.array([0.5, 0.1j]), q)


def test_qparam_validation():
    with pytest.raises(InvalidParams):
        QParam(1.5)
    with pytest.raises(InvalidParams):
        QParam(0.0)
    with pytest.raises(InvalidParams):
        QParam(1.0)


def test_lift_branch_and_quadratic():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
        z = lift_to_z(x)
        assert abs((z + 1.0 / z) / 2.0 - x) <= 1e-12 * max(1.0, abs(x))
        assert abs(z) >= 1.0 - 1e-12


def test_lift_on_cut_upper_semicircle():
    z = complex(lift_to_z_array(0.3 + 0.0j))
    assert abs(abs(z) - 1.0) < 1e-12
    assert z.imag > 0.0
    assert abs(z - cmath.exp(1j * math.acos(0.3))) < 1e-12


def test_lift_vectorized_matches_scalar():
    xs = np.array([2.0, -3.0 + 1.0j, 0.1, -0.99])
    zs = lift_to_z_array(xs)
    for x, z in zip(xs, zs):
        assert abs(lift_to_z(x) - z) < 1e-13
        # the scalar lift is the array lift of one point, bit for bit
        assert type(lift_to_z(x)) is complex
        assert lift_to_z(x) == complex(lift_to_z_array(complex(x)))


def test_lift_of_large_x_does_not_square_it():
    # x^2 overflows above |x| ~ 1.3e154; there z = 2x to double precision
    zs = lift_to_z_array(np.array([1e300, 1e300j, -1e200 + 1e200j, 1e155]))
    assert np.array_equal(zs, [2e300, 2e300j, -2e200 + 2e200j, 2e155])
    # at and below LIFT_SQUARE_MAX the square-root formula is used unchanged
    xs = np.array([1e150, -3e149 + 7e149j, 4e100j, 2.5e10 - 1e9j])
    z1, z2 = xs + np.sqrt(xs * xs - 1.0), xs - np.sqrt(xs * xs - 1.0)
    assert np.array_equal(lift_to_z_array(xs), np.where(np.abs(z1) < np.abs(z2), z2, z1))
    # where z = 2x itself would overflow, the lift refuses the point
    for x in (1e308, -9e307j, math.inf):
        with pytest.raises(OutOfRange):
            lift_to_z(x)


def test_lattice_point_formula():
    a, q = 0.4, 0.5
    for n in range(6):
        want = (a * q**n + q**-n / a) / 2.0
        assert lattice_point(a, q, n) == pytest.approx(want, rel=1e-14)
