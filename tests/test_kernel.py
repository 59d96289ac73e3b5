"""Kernel of the divided-difference operator and the theta functions."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from awnev.errors import DegenerateGenerator, RootNotFound, VerificationFailed
from awnev.funcrep import evaluate
from awnev.kernel import (
    KernelTermSpec,
    kernel_member,
    kernel_pair_form,
    kernel_solve,
    kernel_sum_expr,
    make_fab,
    theta,
    verify_identity,
)
from awnev.qcore import QParam, qpoch_infinite


def test_make_fab_is_kernel_member():
    q = QParam(0.3)
    rng = np.random.default_rng(4)
    for _ in range(4):
        a = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        b = complex(rng.uniform(0.2, 0.9), rng.uniform(-0.3, 0.3))
        assert kernel_member(make_fab(a, b, q))


def test_x_squared_not_kernel_member():
    q = QParam(0.3)
    from awnev.funcrep import FunctionExpr, ProductForm

    f = FunctionExpr(((1.0, ProductForm(1.0, (0.0, 0.0, 1.0), (), q)),))
    assert not kernel_member(f)


def test_make_fab_cancellation():
    q = QParam(0.3)
    f = make_fab(0.4, 0.4, q)
    assert f.factors == ()
    with pytest.raises(DegenerateGenerator):
        make_fab(0.0, 0.4, q)


def test_kernel_solve_single_term_identity():
    q = QParam(0.3)
    sol = kernel_solve([KernelTermSpec(2.5, (0.4,))], q)
    assert sol.c_generators == (0.4 + 0j,)
    assert sol.C == 2.5 + 0j


def test_kernel_solve_vanishing_sum_raises():
    # the terms cancel: f-breve is exactly 0 on every cell edge, so each
    # boundary offset fails and the search reports that no root was found
    q = QParam(0.3)
    with pytest.raises(RootNotFound):
        kernel_solve([KernelTermSpec(1.0, (0.5,)), KernelTermSpec(-1.0, (0.5,))], q)


def test_kernel_solve_two_terms_round_trip():
    q = QParam(0.35)
    sol = kernel_solve([KernelTermSpec(1.3, (0.8 + 0.3j,)), KernelTermSpec(0.7 - 0.2j, (-0.6,))], q)
    assert sol.residual < 1e-7
    # the solution reproduces the sum at a fresh point
    f = kernel_sum_expr(
        [KernelTermSpec(1.3, (0.8 + 0.3j,)), KernelTermSpec(0.7 - 0.2j, (-0.6,))], q
    )
    rhs = kernel_pair_form(sol.c_generators, q, constant=sol.C)
    x = 4.1 - 0.7j
    assert evaluate(f, x) == pytest.approx(evaluate(rhs, x), rel=1e-7)


def test_kernel_solve_theta_identity_instance():
    qs = 0.4
    Q = QParam(qs * qs)
    qn = QParam(qs)
    c2 = qpoch_infinite(qs * qs, Q)
    C1 = c2**2 * theta(4, 0, qn) ** 2
    C2 = qs**0.5 * c2**2 * theta(2, 0, qn) ** 2
    sol = kernel_solve([KernelTermSpec(C1, (qs,)), KernelTermSpec(C2, (-qs * qs,))], Q)
    assert len(sol.c_generators) == 1
    # single class of -q: the representative is -1/q up to lattice choice
    z = sol.c_generators[0]
    n = round(math.log(abs(z / -qs)) / math.log(qs * qs))
    assert abs(z - (-qs) * (qs * qs) ** n) < 1e-6 * abs(z) or abs(
        z * (-qs) - (qs * qs) ** round(math.log(abs(z * qs)) / math.log(qs * qs))
    ) < 1e-6
    # the recovered form matches the classical -q parameterization with
    # C = (q^2; q^2)_inf^2 theta3(0)^2 pointwise
    Ce = c2**2 * theta(3, 0, qn) ** 2
    x = 2.7 + 0.4j
    lhs = evaluate(kernel_pair_form(sol.c_generators, Q, constant=sol.C), x)
    rhs = evaluate(kernel_pair_form((-qs,), Q, constant=Ce), x)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_theta_mpmath_oracle(j):
    mpmath.mp.dps = 30
    for qv in (0.2, 0.45):
        q = QParam(qv)
        for w in (0.0, 0.7, -1.3 + 0.2j):
            got = theta(j, w, q)
            want = complex(mpmath.jtheta(j, w, qv))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_verify_identities_small():
    q = QParam(0.2)
    zs = [1.1, 0.8 - 0.3j, 2.0 + 1.0j]
    assert verify_identity("TripleProduct", q, zs) < 1e-13
    args = [0.3, -0.9 + 0.1j]
    assert verify_identity("SquareSum", q, args) < 1e-12
    pairs = [(0.4, -0.2), (0.9 + 0.1j, 0.3)]
    assert verify_identity("Addition", q, pairs) < 1e-12
