"""Askey-Wilson polynomials: values, eigen equation, Rodrigues, orthogonality."""

import itertools
import math

import numpy as np
import pytest

from awnev import awpoly
from awnev.awpoly import (
    AWParams,
    GenKind,
    aw_polynomial,
    aw_weight,
    eigen_residual,
    eigenvalue,
    generating_residual,
    orthogonality_check,
    rodrigues_residual,
)
from awnev.errors import OutOfRange, QuadratureNonconvergent
from awnev.qcore import QParam, qpoch_finite


P = AWParams(0.3, 0.2, 0.1, 0.05, QParam(0.5))


def oracle_p1(p: AWParams, x: complex) -> complex:
    # independent two-term transcription of the terminating series at n = 1
    a, b, c, d = p.params()
    q = p.q
    pref = qpoch_finite(a * b, q, 1) * qpoch_finite(a * c, q, 1) * qpoch_finite(a * d, q, 1) / a
    t1 = (
        (1.0 - q.q ** (-1))
        * (1.0 - p.abcd)
        * (1.0 - 2.0 * a * x + a * a)
        * q.q
        / ((1.0 - a * b) * (1.0 - a * c) * (1.0 - a * d) * (1.0 - q.q))
    )
    return pref * (1.0 + t1)


def test_p0_is_one():
    for x in (0.3, -0.9, 0.2 + 0.4j):
        assert aw_polynomial(0, P, x) == pytest.approx(1.0)


def test_p1_two_term_oracle():
    for x in (0.4, -0.7, 0.15 + 0.2j):
        got = aw_polynomial(1, P, x)
        assert got == pytest.approx(oracle_p1(P, x), rel=1e-12)
    assert aw_polynomial(1, P, 0.4).real == pytest.approx(0.16126, abs=5e-6)


def test_bcd_permutation_symmetry():
    # the polynomial is symmetric in (b, c, d) although the series is not
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.2, 0.2))
        base = aw_polynomial(3, P, x)
        for perm in itertools.permutations((0.2, 0.1, 0.05)):
            p2 = AWParams(0.3, *perm, QParam(0.5))
            assert aw_polynomial(3, p2, x) == pytest.approx(base, rel=1e-12)


def test_eigenvalue_example():
    p = AWParams(0.8, 0.5, 0.5, 0.5, QParam(0.5))
    assert p.abcd == pytest.approx(0.1)
    assert eigenvalue(1, p) == pytest.approx(1.8)
    lams = [abs(eigenvalue(n, P)) for n in range(11)]
    assert all(l2 > l1 for l1, l2 in zip(lams[1:], lams[2:]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_eigen_equation_residual(n):
    assert eigen_residual(n, P) < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rodrigues_residual(n):
    assert rodrigues_residual(n, P) < 1e-9


def test_rodrigues_residual_at_a_near_zero_of_p_n():
    # the grid point x = -0.128 lies so close to a zero of p_3 that its
    # terminating series cancels to 1e-7 of its terms; taken relative to
    # |p_3| alone, that roundoff read as a 3e-9 Rodrigues residual
    p = AWParams(
        0.29787372624038294,
        -0.20057281424992485,
        0.10510739013816656 + 0.19751480753431463j,
        0.10510739013816656 - 0.19751480753431463j,
        QParam(0.9001435053688391),
    )
    assert rodrigues_residual(3, p) < 1e-9


def test_weight_positive_on_interval():
    rng = np.random.default_rng(9)
    for x in rng.uniform(-0.97, 0.97, 50):
        w = aw_weight(float(x), P)
        assert abs(w.imag) < 1e-12 * max(1.0, abs(w))
        assert w.real > 0.0


def test_orthogonality_matrix():
    mass = None
    for m in range(5):
        for n in range(m, 5):
            val = orthogonality_check(m, n, P)
            if m == n:
                assert abs(val) > 1e-6
                if m == 0:
                    mass = abs(val)
            else:
                assert abs(val) <= 1e-7 * max(1.0, mass)
    assert mass == pytest.approx(28.8740, abs=5e-4)


def test_orthogonality_off_diagonal_near_q_one(monkeypatch):
    # at q = 0.9 the diagonal is ~1e6-7e7 and an off-diagonal integral sits at
    # the roundoff of its quadrature sum; convergence is judged against that
    p = AWParams(0.3, 0.4, -0.2, 0.5, QParam(0.9))
    norm = {n: abs(orthogonality_check(n, n, p)) for n in (1, 2)}
    assert abs(orthogonality_check(0, 1, p)) <= 1e-7 * norm[1]
    assert abs(orthogonality_check(1, 2, p)) <= 1e-7 * norm[2]
    monkeypatch.setattr(awpoly, "ORTHO_NODES", 8)
    with pytest.raises(QuadratureNonconvergent):
        orthogonality_check(1, 2, p)


def test_generating_functions():
    q = QParam(0.5)
    for x in (0.3, -0.6, 0.8):
        assert generating_residual(GenKind.qHermite, 0.3, None, x, q) < 1e-9
        assert generating_residual(GenKind.qUltraspherical, 0.3, 0.2, x, q) < 1e-9
    assert generating_residual("qHermite", 0.45, None, 0.1, QParam(0.3)) < 1e-9


def test_generating_default_terms_reach_tail_bound():
    # at q = 0.9 the coefficients H_k/(q;q)_k and C_n grow for dozens of
    # terms; a K chosen from |t| alone (26 here) left a tail of ~2.6e-10
    q = QParam(0.9)
    for kind, beta in ((GenKind.qHermite, None), (GenKind.qUltraspherical, 0.2)):
        assert generating_residual(kind, 0.33, beta, 0.48, q) <= 1e-12


def test_generating_series_near_q_one():
    # the coefficient sums that the series was once built from cancelled
    # here: 2.7e14 and 4.9e8 against products of 1.3e12 and 2.6e9
    q = QParam(0.99)
    for kind in GenKind:
        assert generating_residual(kind, 0.33, 0.2, 0.48, q) < 1e-9


def test_generating_preconditions():
    q = QParam(0.5)
    with pytest.raises(OutOfRange):
        generating_residual(GenKind.qHermite, 1.1, None, 0.3, q)
    with pytest.raises(OutOfRange):
        generating_residual(GenKind.qHermite, 0.8, None, 5.0, q)  # |t| |z| >= 1


def test_admissibility():
    assert P.admissible()
    assert not AWParams(1.2, 0.2, 0.1, 0.05, QParam(0.5)).admissible()
    assert AWParams(0.3 + 0.2j, 0.3 - 0.2j, 0.1, 0.05, QParam(0.5)).admissible()
    assert not AWParams(0.3 + 0.2j, 0.4, 0.1, 0.05, QParam(0.5)).admissible()
    with pytest.raises(OutOfRange):
        orthogonality_check(0, 0, AWParams(1.2, 0.2, 0.1, 0.05, QParam(0.5)))
