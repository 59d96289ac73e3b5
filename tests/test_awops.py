"""Divided-difference operator: basis action, rules, series, expansions."""

import cmath
import math

import numpy as np
import pytest

from awnev.awops import (
    ChebKind,
    OpKind,
    aw_avg,
    aw_diff,
    aw_diff_basis,
    aw_diff_iterate,
    aw_taylor,
    cheb_expand_operator,
    phi_basis,
)
from awnev.funcrep import ProductFactor, ProductForm
from awnev.qcore import QParam


Q5 = QParam(0.5)


def rand_points(n, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return [complex(rng.normal(scale=scale), rng.normal(scale=scale)) for _ in range(n)]


def test_basis_derivative_rule():
    a = 0.4
    for q in (QParam(0.25), QParam(0.3 + 0.2j)):
        for n in range(1, 6):
            scalar, shifted = aw_diff_basis(n, a, q)
            for x in rand_points(5, seed=n):
                got = aw_diff(lambda t, n=n: phi_basis(n, a, q, t), x, q)
                want = scalar * phi_basis(n - 1, shifted, q, x)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_operator_linearity_and_constants():
    q = Q5
    assert abs(aw_diff(lambda x: 3.7 + 0.0 * x, 0.9, q)) < 1e-12
    f = lambda x: 2.0 * x**3 - x
    g = lambda x: x**2 + 1.0
    for x in rand_points(4, seed=3):
        lhs = aw_diff(lambda t: f(t) + 2.5 * g(t), x, q)
        rhs = aw_diff(f, x, q) + 2.5 * aw_diff(g, x, q)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_q_to_one_limit_is_derivative():
    f = lambda x: x**3
    x = 0.7
    prev = None
    for q in (0.9, 0.99, 0.999):
        d = aw_diff(f, x, QParam(q))
        err = abs(d - 3 * x**2)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-2


def test_quotient_rule_product_forms():
    # D_q(g/h) = (A_q g)(D_q 1/h) + (A_q 1/h)(D_q g)
    rng = np.random.default_rng(11)
    q = Q5
    for trial in range(10):
        g = ProductForm(
            1.0 + 0.2 * trial,
            (),
            (ProductFactor(complex(rng.uniform(0.1, 0.8), rng.uniform(-0.2, 0.2)), 0.5, 1),),
            q,
        )
        h = ProductForm(
            1.0,
            (),
            (ProductFactor(complex(rng.uniform(0.1, 0.8), rng.uniform(-0.2, 0.2)), 0.5, 1),),
            q,
        )
        gh = ProductForm(
            g.constant, (), g.factors + tuple(ProductFactor(f.a, f.base, -f.m) for f in h.factors), q
        )
        hinv = h.inverse()
        for x in rand_points(5, seed=trial, scale=3.0):
            lhs = aw_diff(gh, x, q)
            rhs = aw_avg(g, x, q) * aw_diff(hinv, x, q) + aw_avg(hinv, x, q) * aw_diff(g, x, q)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_branch_point_limit():
    q = Q5
    f = lambda x: x**2
    x1 = (q.sqrt_q + 1.0 / q.sqrt_q) / 2.0
    assert aw_diff(f, 1.0, q) == pytest.approx(2.0 * x1, rel=1e-6)
    assert aw_diff(f, -1.0, q) == pytest.approx(-2.0 * x1, rel=1e-6)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.3 + 0.4j])
def test_branch_point_window(q):
    # D_q x^2 = (s + 1/s) x exactly; at and next to the branch points, where
    # the divided difference is 0/0 or cancels, both entry points must agree
    # with it
    q = QParam(q)
    f = lambda x: x**2
    for x in (1.0, -1.0, 1.0 + 2.2e-16, 1.0 + 1e-14, 1.0 + 1e-10, -1.0 - 1e-13):
        want = (q.sqrt_q + 1.0 / q.sqrt_q) * x
        for got in (aw_diff(f, x, q), aw_diff_iterate(f, 1, x, q)):
            assert abs(got - want) <= 2e-9 * abs(want)


def test_iterate_degree_reduction():
    q = Q5
    # D_q reduces polynomial degree by one; degree d, k = d+1 gives 0
    f = lambda x: 0.3 * x**4 - x**2 + 2.0
    v = aw_diff_iterate(f, 5, 0.9, q)
    assert abs(v) < 1e-9


def test_aw_taylor_reconstructs_polynomial():
    q = Q5
    a = 0.6
    f = lambda x: x**3 - 2.0 * x + 1.0
    coeffs = aw_taylor(f, a, 6, q)
    for x in rand_points(5, seed=9):
        rec = sum(c * phi_basis(k, a, q, x) for k, c in enumerate(coeffs))
        assert abs(rec - f(x)) <= 1e-9 * max(1.0, abs(f(x)))
    assert all(abs(c) < 1e-9 for c in coeffs[4:])


def test_cheb_expansions():
    q = QParam(0.35)
    for k in range(0, 9):
        e = cheb_expand_operator(OpKind.Diff, k, q)
        assert e.kind is ChebKind.SecondKind
        a = cheb_expand_operator(OpKind.Avg, k, q)
        assert a.kind is ChebKind.FirstKind
        for x in (0.2, 1.5 - 0.3j):
            assert abs(e(x) - aw_diff(lambda t: t**k, x, q)) <= 1e-9 * max(
                1.0, abs(e(x))
            )
            assert abs(a(x) - aw_avg(lambda t: t**k, x, q)) <= 1e-9 * max(1.0, abs(a(x)))


def test_cheb_expansion_k1_sanity():
    # D_q x = 1 and A_q x = (q^(1/2) + q^(-1/2))/2 * T_1
    q = Q5
    e = cheb_expand_operator(OpKind.Diff, 1, q)
    assert e.coeffs == (pytest.approx(1.0),)
    a = cheb_expand_operator(OpKind.Avg, 1, q)
    assert a.coeffs[1] == pytest.approx((q.sqrt_q + 1.0 / q.sqrt_q) / 2.0)
