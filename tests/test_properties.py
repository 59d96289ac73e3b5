"""Property tests of the factor algebra of ProductForm and of the counts."""

import cmath
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyfromroots

from awnev.funcrep import ProductFactor, ProductForm, evaluate, zero_pole_ledger
from awnev.nevanlinna import aw_counting, counting
from awnev.qcore import QParam

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
