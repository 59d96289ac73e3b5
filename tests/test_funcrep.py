"""Product-form representation: evaluation, ledgers, named builders, JSON."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from awnev.errors import InvalidParams, NumericFailure, PoleHit
from awnev.funcrep import (
    FunctionExpr,
    ProductFactor,
    ProductForm,
    breve_value,
    build_named,
    evaluate,
    expr_from_json,
    expr_to_json,
    merged_ledger,
    zero_pole_ledger,
)
from awnev.qcore import QParam, lattice_point, qpoch_infinite


Q5 = QParam(0.5)


def form(constant=1.0, poly=(), factors=(), q=Q5):
    return ProductForm(constant, poly, factors, q)


def test_evaluate_nan_log_raises():
    # a NaN log is a numeric failure, never the value 0
    with pytest.raises(NumericFailure):
        evaluate(form(float("nan"), (), (ProductFactor(0.3, 0.5, 1),)), 1.7)
    with pytest.raises(NumericFailure):
        evaluate(form(1.0, (1.0, complex(math.nan, 0.0))), 0.4)
    assert evaluate(form(0.0), 1.7) == 0.0


def test_evaluate_matches_direct_products():
    f = form(2.0, (1.0, 0.5), ((ProductFactor(0.3, 0.5, 1)), (ProductFactor(0.2, 0.25, -1))))
    mpmath.mp.dps = 30
    for x in (1.7, -2.3 + 0.4j, 0.2):
        z = complex(x) + cmath.sqrt(complex(x) ** 2 - 1.0)
        if abs(z) < 1.0:
            z = 1.0 / z
        want = (
            2.0
            * (1.0 + 0.5 * x)
            * complex(mpmath.qp(0.3 * z, 0.5) * mpmath.qp(0.3 / z, 0.5))
            / complex(mpmath.qp(0.2 * z, 0.25) * mpmath.qp(0.2 / z, 0.25))
        )
        got = evaluate(f, x)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_large_radius_no_overflow():
    f = form(factors=(ProductFactor(1.0, 0.5, 1),))
    # |x| = 1e8 would overflow a direct product; log-space evaluation must not
    z = 2.0e8 + 0.0j
    val = f.breve_log(np.array([z])).real[0]
    assert np.isfinite(val)
    assert val > 100.0


def test_zero_ledger_brute_force():
    cases = [
        (0.4, 0.5, 300.0),
        # |x_n| is not monotone in n for a complex base: x_1 lies inside
        # |x| = 1 although x_0 lies outside
        (0.9375, cmath.rect(0.5, 1.0), 1.0),
    ]
    for a, base, r in cases:
        f = form(factors=(ProductFactor(a, base, 1),), q=Q5)
        zeros = [ev.x for ev in zero_pole_ledger(f, r) if ev.multiplicity > 0]
        brute = [lattice_point(a, base, n) for n in range(60)]
        brute = [x for x in brute if abs(x) < r]
        assert len(zeros) == len(brute)
        assert np.allclose(sorted(zeros, key=abs), sorted(brute, key=abs), rtol=1e-12)


def test_ledger_poly_roots_and_poles():
    f = form(poly=(-6.0, 1.0), factors=(ProductFactor(0.3, 0.5, -1),))
    events = zero_pole_ledger(f, 50.0)
    zeros = [ev for ev in events if ev.multiplicity > 0]
    poles = [ev for ev in events if ev.multiplicity < 0]
    assert any(abs(ev.x - 6.0) < 1e-9 for ev in zeros)
    assert all(abs(ev.x - lattice_point(0.3, 0.5, ev.exponent)) < 1e-9 for ev in poles)


def test_merge_cancels_opposite_multiplicities():
    # same lattice in numerator and denominator cancels event-by-event
    f = FunctionExpr(
        (
            (
                1.0,
                form(
                    factors=(
                        ProductFactor(0.4, 0.5, 1),
                        ProductFactor(0.4, 0.5, -1),
                    )
                ),
            ),
        )
    )
    assert merged_ledger(f, 100.0, "Zero") == []
    assert merged_ledger(f, 100.0, "Pole") == []


def test_multiterm_zero_ledger_rejected():
    f = FunctionExpr(
        (
            (1.0, form(factors=(ProductFactor(0.4, 0.5, 1),))),
            (1.0, form(factors=(ProductFactor(0.3, 0.5, 1),))),
        )
    )
    with pytest.raises(InvalidParams):
        merged_ledger(f, 10.0, "Zero")
    assert merged_ledger(f, 10.0, "Pole") == []


def test_pole_hit_guard():
    f = form(factors=(ProductFactor(0.4, 0.5, -1),))
    x0 = lattice_point(0.4, 0.5, 1)
    with pytest.raises(PoleHit):
        evaluate(f, x0)


def test_triple_product_builder_matches_series():
    q = QParam(0.3)
    f = build_named("triple_product", q)

    def series(z):
        total = 1.0 + 0.0j
        for k in range(1, 200):
            total += (-1) ** k * q.q ** (k * k / 2.0) * (z**k + z**-k)
        return total

    for z in (1.3, 0.8j + 1.1, 2.4 - 0.3j):
        x = (z + 1.0 / z) / 2.0
        assert abs(evaluate(f, x) - series(z)) < 1e-12 * max(1.0, abs(series(z)))


def test_theta_builders():
    q = QParam(0.4)
    f4 = build_named("theta4", q)
    # zeros sit on the lattice of generator q with base q^2
    events = merged_ledger(f4, 10.0, "Zero")
    assert events
    assert all(abs(ev.x - lattice_point(0.4, 0.16, ev.exponent)) < 1e-9 for ev in events)
    # operator parameter attached to the form is q^2
    assert f4.q.q == pytest.approx(0.16)
    for name in ("theta1", "theta2"):
        with pytest.raises(InvalidParams):
            build_named(name, q)


@pytest.mark.parametrize(
    "name,params",
    [
        ("qhermite_gen", {"t": 0.3}),
        ("qultra_gen", {"beta": 0.2, "t": 0.3}),
        ("f_fraction", {"n": 3}),
        ("f_one_over", {"n": 3}),
        ("f_rational", {"m": 2, "n": 3}),
        ("kernel_example", {}),
    ],
)
def test_named_builders_evaluate(name, params):
    f = build_named(name, Q5, **params)
    v = evaluate(f, 1.23 + 0.1j)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_json_round_trip():
    f = FunctionExpr(
        (
            (1.5 - 0.2j, form(poly=(1.0, 2.0j), factors=(ProductFactor(0.3, 0.5, 2),))),
            (-0.7, form(factors=(ProductFactor(0.1 + 0.1j, 0.25, -1),))),
        )
    )
    g = expr_from_json(expr_to_json(f))
    for x in (1.7, -0.4 + 2.0j):
        assert evaluate(g, x) == pytest.approx(evaluate(f, x), rel=1e-14)


def test_breve_symmetry():
    f = form(poly=(0.5, 1.0), factors=(ProductFactor(0.3, 0.5, 1),))
    for z in (1.7 + 0.4j, 3.0, 0.2 - 1.1j):
        a = f.breve_log(complex(z))
        b = f.breve_log(1.0 / complex(z))
        assert abs(a.real - b.real) < 1e-10 * max(1.0, abs(a.real))


ONE_TERM_FORMS = [
    form(factors=(ProductFactor(0.7, 0.5, 1),)),
    form(2.0 - 0.5j, (-0.5, 1.0), (ProductFactor(0.7, 0.5, 1), ProductFactor(0.3, 0.25, -1))),
    form(1.5, (0.2 + 0.1j, -0.4, 1.0), (ProductFactor(0.3 + 0.4j, 0.5, 2),)),
]


@pytest.mark.parametrize("pf", ONE_TERM_FORMS)
def test_product_form_is_a_one_term_sum(pf):
    # every entry point takes a ProductForm as the one-term sum it is
    from awnev.awops import aw_diff
    from awnev.kernel import kernel_residual
    from awnev.nevanlinna import argument_principle_count, aw_counting, characteristic

    ex = pf.as_expr()
    for r, target in ((6.3, "Zero"), (6.3, "Pole"), (40.0, "Pole")):
        assert merged_ledger(pf, r, target) == merged_ledger(ex, r, target)
    assert expr_from_json(expr_to_json(pf)) == ex
    assert pf.terms == ex.terms
    for x in (2.7, -0.4 + 1.3j):
        assert evaluate(pf, x) == evaluate(ex, x)
        assert aw_diff(pf, x) == aw_diff(ex, x)
    assert characteristic(pf, 7.9) == characteristic(ex, 7.9)
    assert aw_counting(pf, 7.9, "Zero") == aw_counting(ex, 7.9, "Zero")
    a = 0.5 + 0.5j
    assert argument_principle_count(pf, a, 7.9) == argument_principle_count(ex, a, 7.9)
    assert kernel_residual(pf) == kernel_residual(ex)


def test_breve_value_array_matches_scalar():
    # one value rule for a point and an array: exp of breve_log, exactly 0
    # at a zero (x = 1, the lift of z = 1, is a root of the polynomial part)
    pf = form(2.0 - 0.5j, (-1.0, 1.0), (ProductFactor(0.7, 0.5, 1), ProductFactor(0.3, 0.25, -1)))
    ex = FunctionExpr(((1.0, pf), (0.5j, form(factors=(ProductFactor(0.4, 0.5, 2),)))))
    z = np.array([1.0, 1.7 + 0.4j, -3.0, 0.2 - 1.1j, 25.0 + 40.0j])
    for f in (pf, ex):
        got = breve_value(f, z)
        want = [breve_value(f, w) for w in z]
        assert got.shape == z.shape
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)
    assert breve_value(pf, z)[0] == 0 and breve_value(pf, 1.0) == 0
