"""Ball volumes, the interpolated profile, and ball-averaged spherical functions.

All oracles are elementary antiderivatives on H3:
    m(B_t) = (sinh t cosh t - t)/2,
    int_0^t sinh(s u) sinh u du = (s cosh(st) sinh t - sinh(st) cosh t)/(s^2 - 1),
    int_0^t sin(a u) sinh u du = (cosh t sin(at) - a sinh t cos(at))/(1 + a^2).
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import rankone
from rankone.ballavg import (
    _panel_edges,
    _verify_profile,
    _volumes_at,
    ball_volume,
    build_volume_profile,
    delta,
    psi,
    psi_asymptotic_constant,
    psi_asymptotic_formula,
    psi_bound_check,
    psi_lipschitz_check,
    psi_on_grid,
    volume_regularity,
)
from rankone.errors import ConvergenceError, ValidationError
from rankone.groups import complementary, make_group, principal, trivial


@pytest.fixture(scope="module")
def h3():
    return make_group("so", 3)


def _vol_oracle(t: float) -> float:
    return (math.sinh(t) * math.cosh(t) - t) / 2.0


def _psi_comp_oracle(s: float, t: float) -> float:
    # int phi_s Delta / int Delta with phi_s = sinh(st)/(s sinh t)
    numer = (s * math.cosh(s * t) * math.sinh(t) - math.sinh(s * t) * math.cosh(t)) / (
        s * s - 1.0
    )
    return numer / (s * _vol_oracle(t))


def _psi_prin_oracle(lam: float, t: float) -> float:
    numer = (math.cosh(t) * math.sin(lam * t) - lam * math.sinh(t) * math.cos(lam * t)) / (
        1.0 + lam * lam
    )
    return numer / (lam * _vol_oracle(t))


def test_density_closed_form(h3):
    ts = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(delta(h3, ts), np.sinh(ts) ** 2, rtol=1e-14)
    g = make_group("su", 2)
    np.testing.assert_allclose(
        delta(g, ts), np.sinh(ts) ** 2 * np.sinh(2 * ts), rtol=1e-13
    )


def test_volume_frozen_value(h3):
    assert ball_volume(h3, 1.0) == pytest.approx(0.40671510196175464, rel=1e-12)


def test_volume_closed_form_grid(h3):
    for t in np.linspace(0.1, 30.0, 40):
        assert ball_volume(h3, float(t)) == pytest.approx(_vol_oracle(t), rel=1e-10)


def test_volume_quadrature_halving(h3):
    # panel refinement must not move the answer at the advertised accuracy
    coarse = ball_volume(h3, 12.0, panel_width=0.5)
    fine = ball_volume(h3, 12.0, panel_width=0.25)
    assert coarse == pytest.approx(fine, rel=1e-12)


def test_volume_growth_constant(h3):
    # e^{-2 rho t} m(B_t) -> 1/8 for H3
    assert ball_volume(h3, 30.0) * math.exp(-60.0) == pytest.approx(0.125, abs=1e-6)


def test_volume_validation(h3):
    with pytest.raises(ValidationError):
        ball_volume(h3, -1.0)
    assert ball_volume(h3, 0.0) == 0.0


def test_volume_regularity_matches_difference_quotient(h3):
    t, eps = 2.0, 0.01
    expected = (_vol_oracle(t + eps) - _vol_oracle(t)) / (eps * _vol_oracle(t))
    assert volume_regularity(h3, t, eps) == pytest.approx(expected, rel=1e-9)


def test_profile_matches_direct_volume(h3):
    profile = build_volume_profile(h3, 6.0)
    total = ball_volume(h3, 6.0)
    # budget is 1e-9 of the total mass, the scale that inverse-CDF sampling sees
    for t in [1e-4, 0.01, 0.3, 1.7, 2.123456, 4.0, 5.999, 6.0]:
        assert abs(float(profile.volume(t)) - ball_volume(h3, t)) <= 1e-9 * total


def test_panel_edges_match_linspace_loop():
    # reference: each gap split by np.linspace, as a loop
    def reference(breaks, width):
        edges = [breaks[:1]]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            n = max(1, int(math.ceil((hi - lo) / width - 1e-12)))
            edges.append(np.linspace(lo, hi, n + 1)[1:])
        return np.concatenate(edges)

    rng = np.random.default_rng(4)
    for t_max in (1e-3, 0.7, 6.0, 8.37, 40.0):
        radii = np.sort(rng.uniform(0.0, t_max, 25))
        for breaks in (
            np.array([0.0, t_max]),
            np.concatenate([[0.0], radii, [t_max]]),
            np.concatenate([[0.0], radii[:3], radii[:3], [t_max]]),  # repeated breaks
        ):
            for width in (0.25, 0.125, 0.1, 1.0):
                np.testing.assert_array_equal(_panel_edges(breaks, width), reference(breaks, width))


def _check_radii(t_max: float) -> np.ndarray:
    # the radii _verify_profile checks (up to rounding), and t_max
    mids = (np.arange(17) + 0.5) * t_max / 17
    return np.sort(np.concatenate([t_max * np.array([1e-3, 0.01, 0.03]), mids, [t_max]]))


@pytest.mark.parametrize("group", [make_group("so", 2), make_group("f4")])
def test_profile_check_shared_pass_matches_ball_volume(group):
    radii = _check_radii(6.0)
    shared = _volumes_at(group, radii, 0.125)
    direct = np.array([ball_volume(group, float(t)) for t in radii])
    np.testing.assert_allclose(shared, direct, rtol=1e-12)


@pytest.mark.parametrize("group", [make_group("so", 2), make_group("f4")])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_profile_check_rejects_shifted_table(group, sign):
    profile = build_volume_profile(group, 6.0)
    total = ball_volume(group, 6.0)

    def shifted(frac):
        coeffs = profile.coeffs.copy()
        coeffs[3] += sign * frac * total
        return dataclasses.replace(profile, coeffs=coeffs)

    with pytest.raises(ConvergenceError):
        _verify_profile(shifted(2e-9))
    _verify_profile(shifted(5e-10))  # inside the 1e-9 budget


def test_profile_cdf_normalized(h3):
    profile = build_volume_profile(h3, 5.0)
    assert float(profile.cdf(5.0, 5.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(profile.cdf(0.0, 5.0)) == 0.0
    mid = float(profile.cdf(2.5, 5.0))
    assert 0.0 < mid < 1.0


def test_profile_sample_radius_inverts_cdf(h3):
    profile = build_volume_profile(h3, 5.0)
    us = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12])
    taus = profile.sample_radius(5.0, us)
    np.testing.assert_allclose(profile.cdf(taus, 5.0), us, atol=1e-10)
    # sampling a smaller ball through the same cache
    taus3 = profile.sample_radius(3.0, us)
    assert np.max(taus3) <= 3.0
    np.testing.assert_allclose(profile.cdf(taus3, 3.0), us, atol=1e-10)


def test_profile_sampling_distribution(h3):
    # moments of the radial law against direct quadrature of tau Delta(tau)/m
    rng = np.random.default_rng(5)
    profile = build_volume_profile(h3, 4.0)
    us = rng.random(20000)
    taus = profile.sample_radius(4.0, us)
    xs = np.linspace(0.0, 4.0, 4001)
    dens = np.sinh(xs) ** 2 / _vol_oracle(4.0)
    mean = np.trapezoid(xs * dens, xs)
    se = math.sqrt(np.trapezoid((xs - mean) ** 2 * dens, xs) / taus.size)
    assert abs(np.mean(taus) - mean) < 5.0 * se


@pytest.mark.parametrize("group", [make_group("so", 2), make_group("so", 3), make_group("f4")])
@pytest.mark.parametrize("t_max", [1.3, 6.0])
def test_profile_table_matches_scipy_hermite(group, t_max):
    # The profile evaluates its own Hermite table; scipy's spline through the
    # same knots, values and slopes is the oracle, bit for bit.
    profile = build_volume_profile(group, t_max)
    knots = profile.knots
    oracle = CubicHermiteSpline(knots, profile.cumulative, delta(group, knots))
    ts = np.concatenate(
        [
            [0.0, t_max, 0.5 * (knots[5] + knots[6])],
            knots,
            np.clip(np.nextafter(knots, -np.inf), 0.0, t_max),
            np.clip(np.nextafter(knots, np.inf), 0.0, t_max),
            np.random.default_rng(11).uniform(0.0, t_max, 10000),
        ]
    )
    np.testing.assert_array_equal(profile.volume(ts), np.maximum(oracle(ts), 0.0))


def test_import_loads_no_scipy():
    # scipy is a test-only oracle and numpy.ma is never needed: neither the
    # import nor an MC call nor a psi grid may pull them in
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rankone.__file__)))
    code = (
        "import sys, numpy as np, rankone as r\n"
        "r.mc_average(6.0, 4096, r.parse_observable('cusp:2'), seed=1)\n"
        "r.psi_on_grid(r.make_group('so', 3), r.principal(1.0), np.linspace(0.5, 4.0, 8))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_psi_frozen_value(h3):
    got = psi(h3, complementary(0.5), 2.0).value
    assert got == pytest.approx(0.7433570263076945, rel=1e-12)
    assert got == pytest.approx(_psi_comp_oracle(0.5, 2.0), rel=1e-12)


def test_psi_trivial_is_exactly_one(h3):
    ts = np.linspace(0.5, 20.0, 9)
    np.testing.assert_array_equal(psi_on_grid(h3, trivial(), ts), np.ones_like(ts))


def test_psi_complementary_oracle_grid(h3):
    ts = np.linspace(0.2, 15.0, 30)
    for s in (0.3, 0.5, 0.9):
        got = psi_on_grid(h3, complementary(s), ts)
        oracle = np.array([_psi_comp_oracle(s, float(t)) for t in ts])
        np.testing.assert_allclose(got, oracle, rtol=1e-11)


def test_psi_principal_oracle_grid(h3):
    ts = np.linspace(0.2, 15.0, 30)
    for lam in (0.5, 1.0, 2.0):
        got = psi_on_grid(h3, principal(lam), ts)
        oracle = np.array([_psi_prin_oracle(lam, float(t)) for t in ts])
        np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=1e-14)


def test_psi_grid_requires_increasing_positive(h3):
    with pytest.raises(ValidationError):
        psi_on_grid(h3, trivial(), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        psi_on_grid(h3, trivial(), np.array([2.0, 1.0]))


def test_psi_asymptotic_scaling(h3):
    s = 0.5
    ts = np.array([30.0, 40.0])
    scaled = psi_on_grid(h3, complementary(s), ts) * np.exp((h3.rho - s) * ts)
    assert abs(scaled[1] - scaled[0]) / scaled[1] < 1e-3


def test_psi_asymptotic_constant_matches_formula(h3):
    # two independent routes: Aitken extrapolation of the scaled values
    # vs the gamma-factor formula c(s) 2 rho/(rho + s); for H3, s = 1/2,
    # both must give (1/s) * 2/(1.5) = 8/3
    s = 0.5
    limit = psi_asymptotic_constant(h3, complementary(s))
    formula = psi_asymptotic_formula(h3, s)
    assert limit == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert formula == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_psi_asymptotic_constant_trivial(h3):
    assert psi_asymptotic_constant(h3, trivial()) == 1.0


def test_psi_bound_check_positive_finite(h3):
    ts = np.linspace(0.5, 25.0, 50)
    sup = psi_bound_check(h3, [complementary(0.4), principal(1.0)], ts, 0.4)
    assert math.isfinite(sup) and sup > 0.0
    with pytest.raises(ValidationError):
        psi_bound_check(h3, [complementary(0.6)], ts, 0.4)  # re s > r


def test_lipschitz_shell_bound(h3):
    for t in (1.0, 2.0, 5.0, 10.0):
        for eps in (0.01, 0.1, 0.5):
            for param in (trivial(), complementary(0.5), principal(1.0)):
                jump, bound = psi_lipschitz_check(h3, param, t, eps)
                assert jump <= bound + 1e-9


def test_lipschitz_bound_is_shell_fraction(h3):
    t, eps = 2.0, 0.1
    _, bound = psi_lipschitz_check(h3, trivial(), t, eps)
    expected = (_vol_oracle(t + eps) - _vol_oracle(t)) / _vol_oracle(t + eps)
    assert bound == pytest.approx(expected, rel=1e-10)


def test_other_group_psi_sane():
    # no closed form for su:3; check range and monotone decay instead.
    # s = 1 makes the connection parameters degenerate, which must be
    # reported but still evaluated
    from rankone.hyper import DegenerateParamWarning

    g = make_group("su", 3)
    ts = np.linspace(0.5, 8.0, 16)
    with pytest.warns(DegenerateParamWarning):
        vals = psi_on_grid(g, complementary(1.0), ts)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)
