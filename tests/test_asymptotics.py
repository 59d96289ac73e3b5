"""Explicit asymptotics of q-infinite products and the weight-ratio estimate."""

import cmath
import math

import numpy as np
import pytest

from awnev import nevanlinna
from awnev.asymptotics import (
    NuTau,
    asym_error_bound,
    asym_log_modulus,
    nu_tau,
    weight_ratio_proximity,
)
from awnev.errors import OutOfRange
from awnev.funcrep import ProductFactor, ProductForm
from awnev.qcore import QParam, lift_to_z_array


def test_nu_tau_examples():
    q = QParam(0.25)
    nt = nu_tau(1.0, 16.0, q)
    assert (nt.nu, nt.tau) == (3, pytest.approx(0.5))
    nt = nu_tau(1.0, 2.0, q)  # |z| = |q|^(-1/2), boundary point
    assert (nt.nu, nt.tau) == (2, pytest.approx(0.0, abs=1e-12))


def test_nu_tau_round_trip():
    q = QParam(0.25)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = rng.uniform(3.0, 1e5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        nt = nu_tau(a, z, q)
        assert nt.nu >= 1
        rec = q.abs_q ** (1.5 - nt.tau - nt.nu)
        assert rec == pytest.approx(abs(a * z), rel=1e-12)


def test_nu_tau_domain_guard():
    q = QParam(0.25)
    with pytest.raises(OutOfRange):
        nu_tau(1.0, 1.2, q)  # inside the admissible region


def test_error_bound_values():
    assert asym_error_bound(QParam(0.25)) == pytest.approx(4.0)
    assert asym_error_bound(QParam(1e-8)) < 1e-3


@pytest.mark.parametrize("q,a", [(0.25, 1.0), (0.5, 1.0), (0.25, 0.7), (0.5, 0.7)])
def test_asym_error_battery(q, a):
    Q = QParam(q)
    f = ProductForm(1.0, (), (ProductFactor(a, q, 1),), Q)
    bound = asym_error_bound(Q)
    rng = np.random.default_rng(5)
    for _ in range(60):
        x = math.exp(rng.uniform(math.log(10.0), math.log(1e6))) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        z = complex(lift_to_z_array(complex(x)))
        exact = f.breve_log(z).real
        assert abs(exact - asym_log_modulus(a, x, Q)) <= bound


def test_leading_term_dominance():
    q = QParam(0.25)
    a = 1.0
    for r in (1e3, 1e6):
        x = r * cmath.exp(0.4j)
        z = complex(lift_to_z_array(x))
        laz = math.log(abs(a * z))
        lead = laz * laz / (-2.0 * math.log(q.abs_q))
        ratio = asym_log_modulus(a, x, q) / lead
        assert abs(ratio - 1.0) < 0.5 / math.log(r) * 10.0
    assert abs(asym_log_modulus(a, 1e6 * cmath.exp(0.4j), q) / lead - 1.0) < 0.15


def test_weight_ratio_bounded_by_log_r(monkeypatch):
    q = QParam(0.4)
    rs = np.geomspace(1e2, 1e6, 7)
    values, slope = weight_ratio_proximity(0.3, 0.2, -0.25, 0.1, q, rs)
    assert all(v / math.log(r) <= 20.0 for v, r in zip(values, rs))
    assert slope <= 20.0
    # the shifted weight over the weight is prod phi(x; p) / phi(x; p q^(1/2)),
    # for which m(r) is about 2 log r; its reciprocal would read m = 0
    assert abs(slope - 2.0) <= 0.2
    assert all(v / math.log(r) >= 1.5 for v, r in zip(values, rs))
    # quadrature convergence under density doubling
    monkeypatch.setattr(nevanlinna, "PROXIMITY_NODES", 1024)
    values2, _ = weight_ratio_proximity(0.3, 0.2, -0.25, 0.1, q, rs)
    for v1, v2 in zip(values, values2):
        assert abs(v2 - v1) <= 1e-6 * max(1.0, abs(v1))


def test_identical_weights_zero_proximity():
    # all parameters shifted by q^0: the ratio is identically 1, m = 0
    q = QParam(0.4)
    from awnev.nevanlinna import proximity

    ratio = ProductForm(1.0, (), (), q)
    assert proximity(ratio, 100.0) == 0.0


def test_nutau_invariant_validation():
    with pytest.raises(OutOfRange):
        NuTau(nu=0, tau=0.5)
    with pytest.raises(OutOfRange):
        NuTau(nu=2, tau=1.0)
