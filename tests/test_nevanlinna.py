"""Counting, proximity, characteristic, reduced counting, deficiencies."""

import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots

from awnev import nevanlinna
from awnev.errors import ContourTooClose, GridTooSmall, InvalidParams, PhaseJumpTooLarge
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


def _x_of(z):
    return (z + 1.0 / z) / 2.0


def _roots_form(zs, q, shift=0.0):
    """The polynomial with roots x(z) for z in zs, plus the constant shift."""
    coeffs = polyfromroots([_x_of(z) for z in zs]).astype(complex)
    coeffs[0] += shift
    return ProductForm(1.0, tuple(coeffs), (), q)


@pytest.mark.parametrize(
    "zs, qv, r, n_aw",
    [
        # z = 4 has its neighbour q z = 2 on the branch; z = 2 has q z = 1
        ((4.0, 2.0), 0.5, 3.0, 1),
        # x(1/0.75) = x(0.75): each root is the other's mirror, and q z lies
        # inside the unit disk for both, so neither is discounted
        ((1.5, 1.0 / 0.75), 0.5, 3.0, 2),
        # |x(2.1i)| = 0.812 < r, while its neighbour x(-1.05) sits at 1.001 > r
        ((2.1j, 0.5j * 2.1j), 0.5j, 0.9, 0),
    ],
)
@pytest.mark.parametrize("branch", ["zeros", "apoints"])
def test_reduced_count_discounts_by_the_q_shifted_neighbour(zs, qv, r, n_aw, branch):
    # polynomial roots follow the ledger's rule, as zeros and as a-points
    q = QParam(qv)
    if branch == "zeros":
        rec = aw_counting(_roots_form(zs, q), r, "Zero")
    else:
        a = 0.5 + 0.5j
        rec = aw_counting_at(_roots_form(zs, q, a), a, r)
    assert rec.classical_n == sum(abs(_x_of(z)) < r for z in zs)
    assert rec.n_aw == n_aw


def test_reduced_count_of_a_root_by_the_origin():
    # roots at 1e-5 e^i and e^i: a vanishing-order probe of D_q f found no
    # integer order at the first; neither has a neighbour among the zeros
    roots = [1e-5 * cmath.exp(1j), cmath.exp(1j)]
    f = ProductForm(1, tuple(polyfromroots(roots)), (ProductFactor(1, 0.5, -4),), Q5)
    rec = aw_counting(f, 1.0, "Zero")
    assert rec.classical_n == 2
    assert rec.n_aw == 2


def test_reduced_count_of_apoints_hugging_zeros():
    # phi(x; 1), a = -2+1j: the a-point near 32.008 hugs a zero, where a
    # vanishing-order probe of D_q f read the non-integer slope 0.622
    f = single(1.0)
    r = radius_grid(f, 10.0, 1e7, 12)[1]
    assert r == pytest.approx(35.1, abs=0.05)
    rec = aw_counting_at(f, -2 + 1j, r)
    assert rec.classical_n == 7
    assert rec.n_aw == 7


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


def test_contour_guard_shared():
    # one CONTOUR_RTOL for both quadratures of the circle: phi(x; 0.7) at
    # q = 0.4 has an event of modulus d = 11.1831 (lattice exponent 3)
    q = QParam(0.4)
    f = single(0.7, base=q.q, q=q)
    d = abs(lattice_point(0.7, q, 3))
    assert d == pytest.approx(11.1831, abs=1e-4)
    for r in (d * (1.0 + 5e-7), d * (1.0 - 5e-7)):
        with pytest.raises(ContourTooClose):
            proximity(f, r)
        with pytest.raises(ContourTooClose):
            argument_principle_count(f, 0, r)
    r = d * (1.0 + 2e-6)
    assert math.isfinite(proximity(f, r))
    assert argument_principle_count(f, 0, r) == counting(f, r, "Zero")[0] == 4


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

    def spy(self, z):
        calls.append(len(z))
        return breve_log(self, z)

    monkeypatch.setattr(FunctionExpr, "breve_log", spy)
    monkeypatch.setattr(nevanlinna, "WINDING_NODES", 16)
    assert argument_principle_count(f, 0.0, 1.0) == 2
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


@pytest.mark.parametrize(
    "c, qv, a, r, count",
    [
        (0.6, 0.3, 0.5 + 0.5j, 300.0, 5),
        (0.3 + 0.4j, 0.2, 1.5 - 0.5j, 985.0, 5),
        (0.7, 0.4, 1.5 + 0.5j, 80.0, 6),
    ],
)
def test_apoint_events_quarters_trusted(c, qv, a, r, count):
    # here some box's quarters do not add up to its own count (a coarse edge
    # aliases a turn of 2 pi); the search goes on with the quarters' counts
    # and checks the total against the first box, where all three inputs
    # raised PhaseJumpTooLarge as soon as the counts disagreed
    q = QParam(qv)
    f = FunctionExpr(((1.0, ProductForm(1.0, (), (ProductFactor(c, q.q, 1),), q)),))
    pts = apoint_events(f, a, r)
    poles = sum(-ev.multiplicity for ev in merged_ledger(f, r, "Pole"))
    assert sum(h for _, h in pts) == argument_principle_count(f, a, r) + poles == count
    for x0, h in pts:
        if h == 1:
            assert abs(evaluate(f, x0) - a) <= 1e-9 * max(1.0, abs(a))


@pytest.mark.parametrize("r", [1.0, 1.5])
def test_apoint_events_triple_point(r):
    # 1 + x^3 = 1 at x = 0, three times.  At r = 1 it sits 1.5e-5 from both
    # first-level edges, and the quarters alias the winding into counts
    # 1, 1, 1, 0; their own quarters settle it, down to one small box of
    # count 3 whose quarters cannot be counted, reported at its centre.
    f = ProductForm(1.0, (1.0, 0.0, 0.0, 1.0), (), Q5)
    pts = apoint_events(f, 1.0, r)
    assert len(pts) == 1
    x0, h = pts[0]
    assert h == 3
    assert abs(x0) <= 1e-6


def test_apoint_events_unresolved_triple_point_raises():
    # the same triple point moved off the origin: quarters alias its count
    # to 1 down to boxes of edge 1e-4, Newton refuses a multiple point, and
    # edges through the roundoff floor of f - a leave boxes uncounted down
    # to the floor; the search must fail rather than report a number
    coeffs = np.polynomial.polynomial.polyfromroots([0.3 + 0.2j] * 3)
    coeffs[0] += 1.0
    f = ProductForm(1.0, tuple(coeffs), (), Q5)
    with pytest.raises((PhaseJumpTooLarge, ContourTooClose)):
        apoint_events(f, 1.0, 1.5)


def test_apoint_events_newton_fallback(monkeypatch):
    # Newton runs from every box of count 1.  With s = (first square) / 64,
    # p1 sits 6e-4 r right of the first-level edge Re x = mx, near the bottom
    # corner of each box around it; p2 sits just left of that edge, 0.45 s
    # above p1, so Newton from the centre of each of those boxes finds p2,
    # outside the box, and the box has to be split (down to edge s / 4)
    # before p1 is polished.
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
    polish = nevanlinna._polish_root

    def spy(*args):
        tried.append(polish(*args))
        return tried[-1]

    monkeypatch.setattr(nevanlinna, "_polish_root", spy)
    pts = apoint_events(f, a, r)
    assert None in tried
    assert sum(h for _, h in pts) == argument_principle_count(f, a, r) == 2
    got = sorted((x for x, _ in pts), key=lambda x: x.imag)
    assert abs(got[0] - p1) <= 1e-12 and abs(got[1] - p2) <= 1e-12


def test_apoint_events_newton_keeps_steep_points(monkeypatch):
    # phi(x; 0.6) at q = 0.6 is steep at its far a-points (|f'| ~ 5e15 at
    # |x| ~ 640), where |f - a| at a converged Newton point is a few |f'| ulp(x)
    # (~1e3), far above an absolute residual bound: Newton must keep each one
    q = QParam(0.6)
    f = FunctionExpr(((1.0, single(0.6, base=q.q, q=q)),))
    a, r = 0.5 + 0.5j, 1000.0
    accepted = []
    polish = nevanlinna._polish_root

    def spy(*args):
        p = polish(*args)
        if p is not None:
            accepted.append(p)
        return p

    monkeypatch.setattr(nevanlinna, "_polish_root", spy)
    pts = apoint_events(f, a, r)
    assert len(accepted) == 14
    assert sum(h for _, h in pts) == argument_principle_count(f, a, r) == 14


def test_apoint_search_runs_newton_from_the_first_box_of_one_point(monkeypatch):
    # phi(x; 0.6) at q = 0.14 has one 0.5+0.5j-point in |x| < 2: Newton runs
    # from the start box, and the reduced count evaluates f nowhere but in
    # its a-point search
    q = QParam(0.14)
    f = FunctionExpr(((1.0, single(0.6, base=q.q, q=q)),))
    a, r = 0.5 + 0.5j, 2.0
    windings, other_logs, searching = [], [], []
    winding, search, breve_log = (
        nevanlinna._rect_winding, nevanlinna.apoint_events, FunctionExpr.breve_log
    )

    def winding_spy(*args):
        windings.append(args[2:4])
        return winding(*args)

    def search_spy(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    def breve_log_spy(self, z):
        if not searching:
            other_logs.append(np.shape(z))
        return breve_log(self, z)

    monkeypatch.setattr(nevanlinna, "_rect_winding", winding_spy)
    monkeypatch.setattr(nevanlinna, "apoint_events", search_spy)
    monkeypatch.setattr(FunctionExpr, "breve_log", breve_log_spy)
    ((x, h),) = apoint_events(f, a, r)
    assert len(windings) <= 2
    assert type(x) is complex and h == 1
    assert abs(x - (0.6245702937474988 - 0.42405969689756046j)) <= 1e-12
    other_logs.clear()  # the direct search above went round the spy
    rec = aw_counting_at(f, a, r)
    assert other_logs == []
    assert rec.n_aw == 1 and rec.classical_n == 1
    assert rec.N_aw == pytest.approx(0.9742814887785779, rel=1e-13)


def test_deficiencies_one_over_three():
    q = Q5
    f = build_named("f_one_over", q, n=3)
    rs = radius_grid(f, 10.0, 1e8, 14)
    reports, total = deficiencies(f, rs, [0.0])
    assert reports[0].theta_aw == pytest.approx(1.0 / 3.0, abs=0.07)


def test_deficiencies_generic_value_one_search_per_radius(monkeypatch):
    # one a-point search per radius, on the window of the q-shifted
    # neighbours, gives both N and the reduced N; the report is the one
    # computed with a second search for N
    q = QParam(0.2)
    f = FunctionExpr(((1.0, single(0.3 + 0.4j, base=q.q, q=q)),))
    rs = [0.4, 2.0, 10.0, 50.0, 200.0, 500.0]
    calls = []
    search = nevanlinna.apoint_events

    def spy(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(nevanlinna, "apoint_events", spy)
    monkeypatch.setattr(nevanlinna, "PROXIMITY_NODES", 128)
    reports, total = deficiencies(f, rs, [1.5 - 0.5j])
    # each search covers the window R that holds the q-shifted neighbours
    assert calls == [max(r, (0.2 * (2.0 * r + 1.0) + 1.0) / 2.0) for r in rs]
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


def test_second_main_counts_infinity_once():
    # p counts the finite values only, and the poles enter the right side
    # once: with [0, inf] the left side (p - 1) T is 0
    f = build_named("qultra_gen", Q5, beta=0.25, t=0.3)
    for r, lhs, rhs, slack in second_main_check(f, [0.0, math.inf], [50.0, 500.0, 5000.0]):
        assert lhs == 0.0
        assert rhs == aw_counting(f, r, "Zero").N_aw + aw_counting(f, r, "Pole").N_aw
        assert slack == -rhs


def test_share_check_same_value_lattice():
    q = Q5
    f = build_named("qhermite_gen", q, t=0.3)
    g = FunctionExpr(((1.0, ProductForm(2.0, (), f.terms[0][1].factors, q)),))
    rows, verdict = share_check(f, g, math.inf, [10.0, 100.0, 1e3, 1e4])
    assert verdict
    assert all(d == 0 for _, _, _, d in rows)


def test_share_check_judges_only_radii_above_e():
    # log r is 0 at r = 1: the row is kept, but only r > e enter the verdict
    q = Q5
    f, g = single(0.6, base=q.q), single(0.7, base=q.q)
    rows, verdict = share_check(f, g, 1.5 + 0.5j, [1.0, 3.0, 10.0, 50.0])
    assert [r for r, *_ in rows] == [1.0, 3.0, 10.0, 50.0]
    assert all(math.isfinite(d) for *_, d in rows)
    assert verdict


def test_share_check_refuses_a_grid_with_no_radius_above_e():
    # no radius r > e leaves nothing to judge, so there is no verdict
    q = Q5
    f, g = single(0.6, base=q.q), single(0.7, base=q.q)
    with pytest.raises(GridTooSmall):
        share_check(f, g, 1.5 + 0.5j, [0.5, 2.0])


def test_radius_grid_avoids_moduli():
    f = FunctionExpr(((1.0, single(0.4)),))
    rs = radius_grid(f, 5.0, 1e5, 15)
    moduli = sorted(
        {abs(lattice_point(0.4, 0.5, n)) for n in range(40) if abs(lattice_point(0.4, 0.5, n)) < 2e5}
    )
    for r in rs:
        for d in moduli:
            assert abs(r - d) >= d / math.log(d + 3.0) ** 2 * 0.999
