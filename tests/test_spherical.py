"""Spherical functions and the decay coefficient on hyperbolic 3-space.

H3 admits elementary closed forms, which makes it the oracle group:
phi_s(a_t) = sinh(st)/(s sinh t) on the complementary interval and
sin(lam t)/(lam sinh t) on the principal axis, with c(s) = 1/s.
"""

import math

import numpy as np
import pytest

from rankone import ballavg, spherical
from rankone.ballavg import psi_on_grid
from rankone.errors import ValidationError
from rankone.groups import complementary, make_group, principal, trivial
from rankone.spherical import (
    MAX_PRINCIPAL_LAMBDA,
    certify_decay_bound,
    hc_c_function,
    spherical_fn_many,
)


@pytest.fixture(scope="module")
def h3():
    return make_group("so", 3)


def test_trivial_is_one(h3):
    ts = np.linspace(0.0, 30.0, 7)
    assert np.all(spherical_fn_many(h3, trivial(), ts) == 1.0)


def test_complementary_closed_form(h3):
    ts = np.linspace(0.01, 25.0, 120)
    for s in (0.1, 0.5, 0.9):
        got = spherical_fn_many(h3, complementary(s), ts)
        oracle = np.sinh(s * ts) / (s * np.sinh(ts))
        np.testing.assert_allclose(got, oracle, atol=1e-11, rtol=0)


def test_principal_closed_form(h3):
    ts = np.linspace(0.01, 25.0, 120)
    for lam in (0.5, 1.0, 2.0):
        got = spherical_fn_many(h3, principal(lam), ts)
        oracle = np.sin(lam * ts) / (lam * np.sinh(ts))
        np.testing.assert_allclose(got, oracle, atol=1e-11, rtol=0)


def test_value_at_origin(h3):
    # phi_s(e) = 1 for every parameter
    for param in (trivial(), complementary(0.4), principal(1.3)):
        assert spherical_fn_many(h3, param, [0.0])[0] == pytest.approx(1.0, abs=1e-13)


def test_other_family_matches_jacobi_series():
    """su:2 at small t against the defining series, an independent route."""
    g = make_group("su", 2)  # n1 = 2, n2 = 1: rho = 2, alpha = 1, beta = 0
    s = 1.0
    t = 0.3
    a = (g.rho + s) / 2.0
    b = (g.rho - s) / 2.0
    c = g.alpha + 1.0
    x = -math.sinh(t) ** 2
    acc, term = 0.0, 1.0
    for n in range(40):
        acc += term
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
    got = spherical_fn_many(g, complementary(s), [t])[0]
    assert got == pytest.approx(acc, rel=1e-12)


def test_c_function_h3_closed_form(h3):
    for s in (0.3, 0.5, 0.9, 1.0):
        c = hc_c_function(h3, complementary(s))
        assert c.real == pytest.approx(1.0 / s, rel=1e-12)
        assert abs(c.imag) < 1e-12
    # tempered axis: c(i lam) = -i/lam for H3
    lam = 0.7
    c = hc_c_function(h3, principal(lam))
    assert c == pytest.approx(complex(0.0, -1.0 / lam), rel=1e-12)
    assert abs(c) == pytest.approx(1.0 / lam, rel=1e-12)


def test_c_function_governs_asymptotics(h3):
    t = 40.0
    for s in (0.3, 0.5, 0.9):
        phi = spherical_fn_many(h3, complementary(s), [t])[0]
        scaled = phi * math.exp((h3.rho - s) * t)
        assert scaled == pytest.approx(1.0 / s, rel=1e-8)


def test_c_function_rejects_trivial_and_zero(h3):
    with pytest.raises(ValidationError):
        hc_c_function(h3, trivial())
    with pytest.raises(ValidationError):
        hc_c_function(h3, principal(0.0))


def test_negative_radius_rejected(h3):
    with pytest.raises(ValidationError):
        spherical_fn_many(h3, trivial(), np.array([-0.5]))
    # NaN is rejected up front too, not after a 2F1 pass
    with pytest.raises(ValidationError):
        spherical_fn_many(h3, principal(1.0), np.array([0.5, np.nan]))


def test_principal_at_frequency_bound(h3):
    lam = MAX_PRINCIPAL_LAMBDA
    ts = np.linspace(0.01, 25.0, 2000)
    got = spherical_fn_many(h3, principal(lam), ts)
    oracle = np.sin(lam * ts) / (lam * np.sinh(ts))
    assert np.max(np.abs(got - oracle)) <= 1e-10


@pytest.mark.parametrize("lam", [np.nextafter(MAX_PRINCIPAL_LAMBDA, np.inf), 20.0, 50.0, 100.0, 1000.0])
def test_principal_above_frequency_bound_rejected(h3, lam, monkeypatch):
    def no_work(*args):
        raise AssertionError("2F1 or Delta evaluated for an unsupported parameter")

    monkeypatch.setattr(spherical, "gauss_2f1_neg", no_work)
    monkeypatch.setattr(ballavg, "delta", no_work)
    with pytest.raises(ValidationError):
        spherical_fn_many(h3, principal(lam), np.linspace(0.0, 5.0, 11))
    with pytest.raises(ValidationError):
        psi_on_grid(h3, principal(lam), np.linspace(0.5, 5.0, 10))


def test_phi_domain_ends_where_sinh_squared_overflows(h3, monkeypatch):
    # t = 355 is inside: the closed form sinh(st) / (s sinh t) holds there
    for s in (0.3, 0.5, 0.9):
        got = spherical_fn_many(h3, complementary(s), [355.0])[0]
        assert got == pytest.approx(math.sinh(s * 355.0) / (s * math.sinh(355.0)), rel=1e-12)
    got = spherical_fn_many(h3, principal(1.0), [355.0])[0]
    assert got == pytest.approx(math.sin(355.0) / math.sinh(355.0), rel=1e-9, abs=0.0)

    def no_work(*args):
        raise AssertionError("2F1 evaluated beyond the radius bound")

    monkeypatch.setattr(spherical, "gauss_2f1_neg", no_work)
    for t in (356.0, 400.0, np.inf):
        for param in (complementary(0.5), principal(1.0)):
            with pytest.raises(ValidationError, match="355.58"):
                spherical_fn_many(h3, param, [1.0, t])


def test_param_outside_dual_rejected(h3):
    with pytest.raises(ValidationError):
        spherical_fn_many(h3, complementary(1.5), [1.0])


def test_decay_certificates(h3):
    grid = np.concatenate([[0.0], np.linspace(0.01, 40.0, 80)])
    params = [trivial(), complementary(0.5), principal(1.0)]
    certified = certify_decay_bound(h3, params, grid)
    constants = dict((p.label(), c) for p, c in certified)
    assert constants["trivial"] == 1.0  # sup of 1/(1+t) at t = 0
    assert all(math.isfinite(c) for c in constants.values())
    # the certificate is grid-converged: a 5x finer grid moves it < 0.1%
    fine = np.linspace(0.005, 40.0, 401)
    for param in params:
        vals = np.abs(spherical_fn_many(h3, param, fine))
        decay = h3.rho - param.re_s(h3)
        ratio = vals * np.exp(decay * fine) / (1.0 + fine)
        assert np.max(ratio) <= constants[param.label()] * (1.0 + 1e-3)


def test_decay_certificate_needs_a_grid(h3, monkeypatch):
    def no_work(*args):
        raise AssertionError("2F1 evaluated for an empty grid")

    monkeypatch.setattr(spherical, "gauss_2f1_neg", no_work)
    with pytest.raises(ValidationError, match="empty t grid"):
        certify_decay_bound(h3, [complementary(0.5)], [])
