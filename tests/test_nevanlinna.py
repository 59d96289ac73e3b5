"""Counting, proximity, characteristic, reduced counting, deficiencies."""

import math

import numpy as np
import pytest

from awnev import nevanlinna
from awnev.errors import GridTooSmall, InvalidParams, PhaseJumpTooLarge
from awnev.funcrep import (
    FunctionExpr,
    ProductFactor,
    ProductForm,
    build_named,
    evaluate,
    merged_ledger,
)
from awnev.nevanlinna import (
    apoint_events,
    argument_principle_count,
    aw_counting,
    aw_counting_at,
    characteristic,
    counting,
    deficiencies,
    log_order,
    proximity,
    radius_grid,
    second_main_check,
    share_check,
)
from awnev.qcore import QParam, lattice_point


Q5 = QParam(0.5)


def single(a, base=0.5, m=1, q=Q5, constant=1.0):
    return ProductForm(constant, (), (ProductFactor(a, base, m),), q)


def test_counting_matches_brute_force():
    f = single(0.4)
    r = 500.0
    n, N = counting(f, r, "Zero")
    brute_n = 0
    brute_N = 0.0
    k = 0
    while True:
        x = abs(lattice_point(0.4, 0.5, k))
        if x >= r:
            break
        brute_n += 1
        brute_N += math.log(r / x)
        k += 1
    assert n == brute_n
    assert N == pytest.approx(brute_N, rel=1e-12)


def test_proximity_entire_function_positive():
    f = single(1.0)
    m = proximity(f, 100.0)
    # log M(r) ~ (log 2r)^2 / (2 log 1/q); the mean is the same order
    assert m > 1.0
    assert np.isfinite(m)


def test_characteristic_components():
    f = single(0.4, m=-1)
    rec = characteristic(f, 50.0)
    assert rec.T == pytest.approx(rec.m + rec.N)
    assert rec.n_count == counting(f, 50.0, "Pole")[0]


def test_first_main_theorem_drift():
    # T(r, 1/f) = T(r, f) + O(1) across the grid
    f = single(0.7, constant=2.0)
    finv = FunctionExpr(((1.0, f.inverse()),))
    fexp = FunctionExpr(((1.0, f),))
    rs = radius_grid(fexp, 10.0, 1e6, 10)
    drifts = [
        characteristic(fexp, r).T - characteristic(finv, r).T for r in rs
    ]
    assert max(abs(d) for d in drifts) < 2.0


def test_log_order_of_products():
    for a in (1.0, 0.4):
        f = single(a)
        rs = radius_grid(FunctionExpr(((1.0, f),)), 10.0, 1e8, 12)
        sigma = log_order(f, rs)
        assert 1.9 <= sigma <= 2.1


def test_log_order_grid_guard():
    f = single(0.4)
    with pytest.raises(GridTooSmall):
        log_order(f, [10.0, 20.0, 30.0])


def test_reduced_counting_branch_example():
    # phi_inf(x; 1): only the branch event at x = 1 survives the discount
    f = single(1.0)
    rec = aw_counting(f, 3.0, "Zero")
    assert rec.classical_n == 3
    assert rec.n_aw == 1


def test_reduced_counting_generic_lattice():
    # single factor, a = 0.4: only the n = 0 event is uncovered
    f = single(0.4)
    for r in (10.0, 1e3, 1e5):
        rec = aw_counting(f, r, "Zero")
        assert rec.n_aw == 1
        assert rec.N_aw == pytest.approx(math.log(r / abs(lattice_point(0.4, 0.5, 0))), rel=1e-9)


def test_reduced_counting_theta4_log_growth():
    f = build_named("theta4", QParam(0.4))
    for r in (50.0, 5e3):
        rec = aw_counting(f, r, "Zero")
        assert rec.n_aw == 1
        assert abs(rec.N_aw - math.log(r)) < 2.0


def test_origin_apoint_counts_log_r():
    # a = f(0): the a-point at the origin adds n(0) log r to the reduced count
    f = ProductForm(1, (), (ProductFactor(0.6, 0.3, 1),), QParam(0.3))
    a = evaluate(f, 0)
    for r in (2.0, 5.0):
        assert aw_counting_at(f, a, r).N_aw == math.log(r)


def test_fraction_families_reduced_ratios():
    q = Q5
    # f_fraction(3): reduced/classical integrated ratio tends to 1/3
    f = build_named("f_fraction", q, n=3)
    r = 1e6
    _, N = counting(f, r, "Zero")
    rec = aw_counting(f, r, "Zero")
    assert rec.N_aw / N == pytest.approx(1.0 / 3.0, abs=0.05)


def test_argument_principle_matches_ledger():
    rng = np.random.default_rng(17)
    q = Q5
    cases = [
        FunctionExpr(((1.0, single(0.6)),)),
        FunctionExpr(((1.0, single(0.4, m=-1)),)),
        FunctionExpr(((1.0, ProductForm(1.0, (0.3, 1.0), (ProductFactor(0.5, 0.5, 1),), q)),)),
    ]
    for f in cases:
        for _ in range(3):
            r = float(rng.uniform(4.0, 25.0))
            ledger_zero = sum(
                ev.multiplicity for ev in merged_ledger(f, r, "Zero") if ev.multiplicity > 0
            )
            ledger_pole = sum(
                -ev.multiplicity for ev in merged_ledger(f, r, "Pole") if ev.multiplicity < 0
            )
            signed = argument_principle_count(f, 0.0, r)
            assert signed == ledger_zero - ledger_pole


@pytest.mark.parametrize("a", [0, 1.0])
@pytest.mark.parametrize("r", [1e6, 1e8, 1e20])
def test_argument_principle_count_large_radius(a, r):
    # |f| overflows a float on the circle, where the phase is Im log f; at
    # 1e20 the 441 zeros inside would turn it by more than pi per step of
    # the default 512 nodes
    q = QParam(0.9)
    f = FunctionExpr(((1.0, single(0.7, base=q.q, q=q)),))
    assert argument_principle_count(f, a, r) == counting(f, r, "Zero")[0]


def test_phase_walk_evaluates_each_level_in_one_call(monkeypatch):
    # zeros 1e-3 inside the circle on two of the 16 sample rays: each of the
    # four steps next to them is bisected over several levels, and every
    # level's four new midpoints go to breve_log together
    f = FunctionExpr(
        ((1.0, ProductForm(1.0, tuple(np.polynomial.polynomial.polyfromroots([0.999, -0.999j])), (), Q5)),)
    )
    calls = []
    breve_log = FunctionExpr.breve_log

    def spy(self, z, policy):
        calls.append(len(z))
        return breve_log(self, z, policy)

    monkeypatch.setattr(FunctionExpr, "breve_log", spy)
    assert argument_principle_count(f, 0.0, 1.0, nodes=16) == 2
    assert calls[0] == 17 and len(calls) > 2 and set(calls[1:]) == {4}


# phi(x; c) at generic values a, from the benchmark's aw_counting_at slots:
# (q, c, a, r, a-points located by bisecting every box down to 1e-7)
APOINT_CASES = [
    (0.14, 0.6, 0.5 + 0.5j, 2.0, [0.6245703112550237 - 0.424059707432209j]),
    (0.22, 0.031 + 0.441j, -0.6 + 0.9j, 2.83, [-1.4425742721704404 - 1.224294247676855j]),
    (
        0.3,
        1.0,
        0.5 + 0.5j,
        2.6,
        [0.546879987313919 - 0.25651020776369726j, 2.461232826897871 + 0.49741951563667897j],
    ),
    (
        0.25,
        0.9 + 0.2j,
        -1.1 - 0.7j,
        10.0,
        [
            1.25292149176602 + 0.9753766589562717j,
            1.6364338504307478 - 1.5492400255663394j,
            8.84068621555799 - 1.7573609831439172j,
        ],
    ),
]


@pytest.mark.parametrize("qv, c, a, r, expected", APOINT_CASES)
def test_apoint_events_generic_value(qv, c, a, r, expected):
    q = QParam(qv)
    f = FunctionExpr(((1.0, ProductForm(1.0, (), (ProductFactor(c, q.q, 1),), q)),))
    pts = apoint_events(f, a, r)
    poles = sum(-ev.multiplicity for ev in merged_ledger(f, r, "Pole"))
    assert sum(h for _, h in pts) == argument_principle_count(f, a, r) + poles
    assert [h for _, h in pts] == [1] * len(expected)
    for (x0, _), want in zip(pts, expected):
        assert abs(evaluate(f, x0) - a) <= 1e-9 * max(1.0, abs(a))
        assert abs(x0 - want) <= 2e-7


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_apoint_events_double_point(r):
    # 1 + x^2 = 1 only at x = 0, twice: the cluster path bisects it.  At
    # r = 2 a quarter's edge passes through the roundoff floor of f - a
    # near 0 (|x| ~ 1e-8), and the box above it is reported instead.
    f = ProductForm(1.0, (1.0, 0.0, 1.0), (), Q5)
    pts = apoint_events(f, 1.0, r)
    assert len(pts) == 1
    x0, h = pts[0]
    assert h == 2
    assert abs(x0) <= 1e-6


def test_apoint_events_unresolved_triple_point_raises():
    # 1 + x^3 = 1 at x = 0, three times, 1.5e-5 from both first-level
    # edges: the quarters alias the winding into counts 1, 1, 1, 0, and
    # Newton on the quarter holding x = 0 stops where f - a reads 0.  The
    # search must fail rather than report a simple a-point.
    f = ProductForm(1.0, (1.0, 0.0, 0.0, 1.0), (), Q5)
    with pytest.raises(PhaseJumpTooLarge):
        apoint_events(f, 1.0, 1.0)


def test_apoint_events_newton_fallback(monkeypatch):
    # The first boxes handed to Newton have edge s = (first square) / 64.  p1
    # sits 6e-4 r right of the first-level edge Re x = mx, near the bottom
    # corner of its box; p2 sits just left of that edge, level with the
    # box centre, so Newton from the centre finds p2, outside the box, and
    # the box has to be split before p1 is polished.
    r = 2.0
    eps = r * 1e-4 * (1.0 + math.pi / 1e3)
    lo, hi = -r - eps, r + 1.3 * eps
    mx = 0.5 * (lo + hi)
    s = (hi - lo) / 64
    bottom = lo + 40 * s
    p1 = complex(mx + 0.02 * s, bottom + 0.05 * s)
    p2 = complex(mx - 0.02 * s, bottom + 0.5 * s)
    a = 0.5 + 0.5j
    coeffs = np.polynomial.polynomial.polyfromroots([p1, p2])
    coeffs[0] += a
    f = ProductForm(1.0, tuple(coeffs), (), Q5)
    tried = []
    polish = nevanlinna._polish_apoint

    def spy(*args):
        tried.append(polish(*args))
        return tried[-1]

    monkeypatch.setattr(nevanlinna, "_polish_apoint", spy)
    pts = apoint_events(f, a, r)
    assert None in tried
    assert sum(h for _, h in pts) == argument_principle_count(f, a, r) == 2
    got = sorted((x for x, _ in pts), key=lambda x: x.imag)
    assert abs(got[0] - p1) <= 1e-12 and abs(got[1] - p2) <= 1e-12


def test_deficiencies_one_over_three():
    q = Q5
    f = build_named("f_one_over", q, n=3)
    rs = radius_grid(f, 10.0, 1e8, 14)
    reports, total = deficiencies(f, rs, [0.0])
    assert reports[0].theta_aw == pytest.approx(1.0 / 3.0, abs=0.07)


def test_deficiencies_generic_value_one_search_per_radius(monkeypatch):
    # one a-point search per radius gives both N and the reduced N; the
    # report is the one computed with a second search for N
    q = QParam(0.2)
    f = FunctionExpr(((1.0, single(0.3 + 0.4j, base=q.q, q=q)),))
    rs = [0.4, 2.0, 10.0, 50.0, 200.0, 500.0]
    calls = []
    search = nevanlinna.apoint_events

    def spy(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(nevanlinna, "apoint_events", spy)
    reports, total = deficiencies(f, rs, [1.5 - 0.5j], quad=128)
    assert calls == rs
    (rep,) = reports
    assert rep.r_used == tuple(rs)
    assert rep.delta == pytest.approx(0.0003924311270094849, rel=1e-9)
    assert rep.theta_aw == pytest.approx(0.0003924311270094849, rel=1e-9)
    assert rep.vartheta_aw == 0.0
    assert total == rep.theta_aw


def test_second_main_check_guards():
    q = Q5
    from awnev.kernel import make_fab

    with pytest.raises(InvalidParams):
        second_main_check(make_fab(0.3, 0.7, q), [0.0, math.inf], [10.0, 100.0])


def test_second_main_rows():
    f = build_named("qultra_gen", Q5, beta=0.25, t=0.3)
    rows = second_main_check(f, [0.0, math.inf], [50.0, 500.0, 5000.0])
    assert len(rows) == 3
    for r, lhs, rhs, slack in rows:
        assert np.isfinite(lhs) and np.isfinite(rhs)


def test_share_check_same_value_lattice():
    q = Q5
    f = build_named("qhermite_gen", q, t=0.3)
    g = FunctionExpr(((1.0, ProductForm(2.0, (), f.terms[0][1].factors, q)),))
    rows, verdict = share_check(f, g, math.inf, [10.0, 100.0, 1e3, 1e4])
    assert verdict
    assert all(d == 0 for _, _, _, d in rows)


def test_radius_grid_avoids_moduli():
    f = FunctionExpr(((1.0, single(0.4)),))
    rs = radius_grid(f, 5.0, 1e5, 15)
    moduli = sorted(
        {abs(lattice_point(0.4, 0.5, n)) for n in range(40) if abs(lattice_point(0.4, 0.5, n)) < 2e5}
    )
    for r in rs:
        for d in moduli:
            assert abs(r - d) >= d / math.log(d + 3.0) ** 2 * 0.999
