"""Property tests of the factor algebra of ProductForm, of the counts, of the a-point search
and of the Askey-Wilson residual checks."""

import cmath
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots

from awnev.awpoly import AWParams, GenKind, eigen_residual, generating_residual
from awnev.errors import ContourTooClose
from awnev.funcrep import ProductFactor, ProductForm, evaluate, zero_pole_ledger
from awnev.nevanlinna import apoint_events, argument_principle_count, aw_counting, counting
from awnev.qcore import QParam, lattice_point

PROPS = settings(deadline=None, max_examples=40)


def _polar(lo, hi):
    """Complex numbers of modulus in [lo, hi]: real of either sign, or any angle."""
    mod = st.floats(lo, hi)
    real = st.tuples(mod, st.sampled_from((0.0, math.pi)))
    angled = st.tuples(mod, st.floats(-math.pi, math.pi))
    return st.one_of(real, angled).map(lambda p: cmath.rect(*p))


factors = st.builds(
    ProductFactor, _polar(0.2, 2.0), _polar(0.1, 0.9), st.sampled_from((-2, -1, 1, 2))
)
constants = _polar(0.5, 2.0)
# ascending coefficients of a monic polynomial with up to two roots in |x| <= 2
polys = st.lists(_polar(0.0, 2.0), max_size=2).map(
    lambda roots: tuple(polyfromroots(roots)) if roots else ()
)
points = _polar(0.1, 3.0)


@st.composite
def forms(draw, poly=False):
    fs = draw(st.lists(factors, min_size=1, max_size=3))
    q = QParam(draw(st.sampled_from([f.base for f in fs])))
    return ProductForm(draw(constants), draw(polys) if poly else (), tuple(fs), q)


def _off_ledger(form, x):
    events = zero_pole_ledger(form, 2.0 * abs(x) + 2.0)
    return all(abs(ev.x - x) > 1e-3 * max(1.0, abs(x)) for ev in events)


@PROPS
@given(forms(poly=True), forms(poly=True), points)
def test_product_evaluates_to_product_of_values(f, g, x):
    assume(_off_ledger(f, x) and _off_ledger(g, x))
    want = evaluate(f, x) * evaluate(g, x)
    assert abs(evaluate(f * g, x) - want) <= 1e-10 * abs(want)


@PROPS
@given(forms())
def test_form_times_inverse_is_one(f):
    one = f * f.inverse()
    assert one.factors == ()
    assert one.poly == ()
    assert abs(one.constant - 1.0) <= 1e-15


@PROPS
@given(forms(), st.floats(0.5, 50.0), st.sampled_from(("Zero", "Pole")))
# the second zero lies inside |x| = 1 although the first lies outside
@example(
    ProductForm(1, (), (ProductFactor(0.9375, cmath.rect(0.5, 1.0), 1),), QParam(0.5)), 1.0, "Zero"
)
def test_reduced_count_bounded_by_classical_count(f, r, target):
    n, N = counting(f, r, target)
    rec = aw_counting(f, r, target)
    assert rec.classical_n == n
    assert rec.n_aw <= n
    assert rec.N_aw <= N


@PROPS
@given(st.floats(0.1, 0.6), _polar(0.05, 0.95), st.integers(1, 4))
def test_polynomial_roots_count_like_lattice_zeros(qv, c, K):
    # the polynomial with the first K lattice points of phi(x; c) as roots
    # has the zeros of phi(x; c) in |x| < r, so it has the same reduced count
    q = QParam(qv)
    xs = [lattice_point(c, q, n) for n in range(K + 1)]
    r = math.sqrt(abs(xs[K - 1]) * abs(xs[K]))
    poly = ProductForm(1.0, tuple(polyfromroots(xs[:K])), (), q)
    phi = ProductForm(1.0, (), (ProductFactor(c, q.q, 1),), q)
    got, want = aw_counting(poly, r, "Zero"), aw_counting(phi, r, "Zero")
    assert (got.classical_n, got.n_aw) == (want.classical_n, want.n_aw)
    assert got.N_aw == pytest.approx(want.N_aw, rel=1e-9)


@PROPS
@given(st.floats(0.1, 0.25), _polar(0.05, 0.65), _polar(0.5, 2.5), st.floats(2.0, 30.0))
def test_apoint_search_matches_the_winding_count(qv, c, a, r):
    # phi(x; c) over the domain of the benchmark's one-a-point counts
    q = QParam(qv)
    f = ProductForm(1.0, (), (ProductFactor(c, q.q, 1),), q)
    try:
        want = argument_principle_count(f, a, r)
    except ContourTooClose:
        assume(False)
    pts = apoint_events(f, a, r)
    assert sum(h for _, h in pts) == want
    assert all(abs(x) < r for x, _ in pts)
    for x, h in pts:
        if h == 1:
            assert abs(evaluate(f, x) - a) <= 1e-9 * max(1.0, abs(a))


@PROPS
@given(
    st.sampled_from(GenKind),
    st.floats(0.1, 0.99),
    st.floats(0.05, 0.6),
    st.sampled_from((-1.0, 1.0)),
    st.floats(-1.0, 1.0),
    st.floats(-0.9, 0.9),
)
@example(GenKind.qHermite, 0.99, 0.33, 1.0, 0.48, 0.2)
@example(GenKind.qUltraspherical, 0.99, 0.33, 1.0, 0.48, 0.2)
@example(GenKind.qUltraspherical, 0.5, 0.5, -1.0, 0.0, 0.0)
@example(GenKind.qUltraspherical, 0.5, 0.5, -1.0, 0.0, 5e-324)
def test_generating_series_matches_product(kind, qv, t, sign, x, beta):
    # up to q = 0.99, where the terms reach 1e63 against a product of 1e-46;
    # at beta = 0 the factor (beta t e^(+-i theta); q)_inf is 1
    assert generating_residual(kind, sign * t, beta, x, QParam(qv)) < 1e-9


real_params = st.tuples(st.floats(1e-4, 0.9), st.sampled_from((-1.0, 1.0))).map(
    lambda p: p[0] * p[1]
)


@PROPS
@given(
    st.integers(1, 5),
    real_params,
    real_params,
    _polar(0.05, 0.9).filter(lambda c: abs(c.imag) > 1e-3),
    st.floats(0.1, 0.95),
)
@example(3, 0.0025, -0.22, -0.15 + 0.14j, 0.36)
@example(4, 0.0025, -0.22, -0.15 + 0.14j, 0.36)
@example(5, 0.0025, -0.22, -0.15 + 0.14j, 0.36)
def test_eigen_equation_holds(n, a, b, c, qv):
    # a small leading parameter a puts a^(-n) into the prefactor of p_n, whose
    # series then cancels by as much: a residual relative to |p_n| alone read
    # 3.1e-6, 0.021 and 1.03 at n = 3, 4 and 5 on the example
    assert eigen_residual(n, AWParams(a, b, c, c.conjugate(), QParam(qv))) < 1e-7
