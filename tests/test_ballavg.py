"""Ball volumes, the volume profile, and ball-averaged spherical functions.

All oracles are elementary antiderivatives on H3:
    m(B_t) = (sinh t cosh t - t)/2,
    int_0^t sinh(s u) sinh u du = (s cosh(st) sinh t - sinh(st) cosh t)/(s^2 - 1),
    int_0^t sin(a u) sinh u du = (cosh t sin(at) - a sinh t cos(at))/(1 + a^2).
"""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import rankone
from rankone import ballavg, spherical
from rankone.ballavg import (
    _ball_volumes,
    ball_volume,
    build_volume_profile,
    delta,
    psi_asymptotic_constant,
    psi_asymptotic_formula,
    psi_bound_check,
    psi_lipschitz_check,
    psi_on_grid,
    volume_regularity,
)
from rankone.errors import ValidationError
from rankone.groups import complementary, make_group, principal, trivial
from rankone.hyper import DegenerateParamWarning, gauss_2f1_neg
from rankone.spherical import MAX_PRINCIPAL_LAMBDA, spherical_fn_many


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


# Every case of the antiderivative: q = n2 odd (su, sp, f4), q even with
# p = n1 + n2 odd (so:even, custom:101,100) and both even (so:odd,
# custom:40,20 and custom:100,100), from one to 301 = 2 rho.
_ORACLE_GROUPS = [
    "so:2", "so:3", "so:4", "so:5", "so:6", "so:21", "so:40", "so:50", "so:51",
    "su:2", "su:3", "su:20", "sp:2", "sp:9", "f4",
    "custom:1,0", "custom:40,20", "custom:100,100", "custom:101,100",
]


def _quadrature_volume(group, t: float):
    # mpmath Gauss-Legendre quadrature of Delta at 20 digits.  Divided by
    # Delta(t) the integrand is at most 1, as mpmath's absolute error
    # control needs; the panels double in width away from t, where the
    # integrand falls like e^{-2 rho (t - x)}.
    with mpmath.workdps(20):
        top = mpmath.mpf(t)

        def dens(x):
            return mpmath.sinh(x) ** group.n1 * mpmath.sinh(2 * x) ** group.n2

        peak = dens(top)
        cuts = [mpmath.mpf(2) ** k / (2 * group.rho) for k in range(12)]
        cuts = [0] + [y for y in cuts if y < top] + [top]
        return peak * mpmath.quad(lambda y: dens(top - y) / peak, cuts, method="gauss-legendre")


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
def test_volume_matches_quadrature_oracle(name):
    # 1e-3 up to 0.99 of the radius bound 700 / (2 rho); below the smallest
    # normal double only absolute digits remain (custom:100,100 to t = 0.021)
    group = rankone.parse_group(name)
    radii = np.geomspace(1e-3, 0.99 * 350.0 / group.rho, 10)
    assert _ball_volumes(group, np.zeros(1))[0] == 0.0
    for t, value in zip(radii, _ball_volumes(group, radii)):
        exact = _quadrature_volume(group, float(t))
        assert abs(value - exact) <= 1e-13 * exact + np.finfo(np.float64).tiny, (t, value, exact)


def _series_cut(m: int) -> float:
    # the radius where the bound tail x^N cosh^2 t on the omitted terms of
    # I_2m's tanh^2 series reaches _SERIES_TOL, with x = tanh^2 t and tail
    # the first omitted coefficient (1/2)_N / (m + 3/2)_N
    n = ballavg._SERIES_TERMS
    tail = math.prod((k + 0.5) / (k + m + 1.5) for k in range(n))
    lo, hi = 0.0, 30.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail * math.tanh(mid) ** (2 * n) * math.cosh(mid) ** 2 <= ballavg._SERIES_TOL:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("name", ["so:3", "so:5", "so:21", "so:51"])
def test_volume_series_and_exponential_sum_agree_at_the_cut(name, monkeypatch):
    # so:(2m+1) has m(B_t) = I_2m(t): the series below the cut and the
    # exponential sum above it, which agree to 1e-14 across it
    group = rankone.parse_group(name)
    radii = _series_cut((group.n1 + group.n2) // 2) * np.array([0.98, 0.999, 1.001, 1.02])
    volumes = _ball_volumes(group, radii)
    monkeypatch.setattr(ballavg, "_SERIES_TOL", math.inf)
    series = _ball_volumes(group, radii)
    # the same two series points as the default call, bit for bit
    np.testing.assert_array_equal(volumes[:2], _ball_volumes(group, radii[:2]))
    monkeypatch.setattr(ballavg, "_SERIES_TOL", 0.0)
    exponential = _ball_volumes(group, radii)
    np.testing.assert_array_equal(volumes[2:], exponential[2:])
    np.testing.assert_allclose(series, exponential, rtol=1e-14, atol=0.0)
    exact = [float(_quadrature_volume(group, float(t))) for t in radii]
    np.testing.assert_allclose(volumes, exact, rtol=1e-14, atol=0.0)


def _count_delta_calls(monkeypatch):
    # every evaluation of Delta, by the size of its argument; the closed form
    # needs none
    calls = []
    original = ballavg.delta

    def counting(group, t):
        calls.append(np.size(t))
        return original(group, t)

    monkeypatch.setattr(ballavg, "delta", counting)
    return calls


@pytest.mark.parametrize("name", ["so:2", "so:3", "so:5", "su:3", "sp:2", "f4"])
def test_volume_passes_at_first_width(name, monkeypatch):
    # a grid from near 0 to the radius bound is one closed-form pass: no
    # Delta evaluation, and each volume is the one its radius gets alone
    group = rankone.parse_group(name)
    calls = _count_delta_calls(monkeypatch)
    radii = np.linspace(1e-3, 690.0 / (2.0 * group.rho), 40)
    volumes = _ball_volumes(group, radii)
    assert calls == []
    assert np.all(np.isfinite(volumes)) and np.all(volumes > 0.0) and np.all(np.diff(volumes) > 0.0)
    alone = np.array([_ball_volumes(group, np.array([t]))[0] for t in radii])
    np.testing.assert_allclose(volumes, alone, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", ["so:21", "so:40", "sp:9", "so:50", "custom:40,20"])
def test_high_dimension_volume_passes_at_first_width(name, monkeypatch):
    # for n1 + n2 > 19, where Delta ~ t^(n1 + n2) near 0, small radii still
    # need no Delta evaluation and keep 13 digits against the quadrature
    group = rankone.parse_group(name)
    calls = _count_delta_calls(monkeypatch)
    for radii in ([1e-3], [0.01, 0.02], [5e-4, 0.3, 1.0]):
        volumes = _ball_volumes(group, np.array(radii))
        exact = [float(_quadrature_volume(group, t)) for t in radii]
        np.testing.assert_allclose(volumes, exact, rtol=1e-13, atol=0.0)
    assert calls == []


@pytest.mark.parametrize("name", ["sp:9", "so:40", "so:50"])
def test_high_dimension_profile_builds(name):
    # the profile is read at 1e-3, where Delta ~ t^(n1 + n2)
    group = rankone.parse_group(name)
    profile = build_volume_profile(group, 1.0)
    radii = np.array([1e-3, 0.3, 0.77, 1.0])
    total = ball_volume(group, 1.0)
    np.testing.assert_allclose(profile.volume(radii), ball_volume(group, radii), rtol=0.0,
                               atol=1e-9 * total)


def test_volume_growth_constant(h3):
    # e^{-2 rho t} m(B_t) -> 1/8 for H3
    assert ball_volume(h3, 30.0) * math.exp(-60.0) == pytest.approx(0.125, abs=1e-6)


def test_volume_validation(h3):
    with pytest.raises(ValidationError):
        ball_volume(h3, -1.0)
    with pytest.raises(ValidationError):
        ball_volume(h3, [1.0, math.nan])
    assert ball_volume(h3, 0.0) == 0.0
    np.testing.assert_array_equal(ball_volume(h3, np.zeros(3)), np.zeros(3))
    # an array of radii, zero included, gives each radius's volume
    want = [0.0, _vol_oracle(1.0), _vol_oracle(2.0)]
    np.testing.assert_allclose(ball_volume(h3, [0.0, 1.0, 2.0]), want, rtol=1e-12)


@pytest.mark.parametrize("name", ["so:2", "so:3", "su:3"])
@pytest.mark.parametrize("radii", [[-1.0], [1.0, math.nan], [0.0, 1000.0], [math.inf]])
def test_volume_validation_comes_first(name, radii, monkeypatch):
    # a negative, NaN or over-bound radius is rejected before any volume work,
    # on each of the three forms of the antiderivative
    def refuse(*args, **kwargs):
        raise AssertionError("volume work started before the radii were validated")

    for kernel in ("_times_power", "_even_volumes"):
        monkeypatch.setattr(ballavg, kernel, refuse)
    with pytest.raises(ValidationError):
        _ball_volumes(rankone.parse_group(name), np.array(radii))


def test_volume_needs_radius_bound_of_one():
    # 2 rho <= 700 keeps the tables in double range: so:701 (rho = 350) is
    # the largest so group, and its volumes are positive and finite
    volumes = _ball_volumes(rankone.parse_group("so:701"), np.array([0.1, 0.5, 0.999]))
    assert np.all(np.isfinite(volumes)) and np.all(np.diff(volumes) > 0.0)
    for name in ("so:702", "custom:1,350", "custom:3000,0"):
        with pytest.raises(ValidationError, match=r"2 rho max\(t, 1\) <= 700"):
            ball_volume(rankone.parse_group(name), 0.1)


def test_volume_regularity_matches_difference_quotient(h3):
    t, eps = 2.0, 0.01
    expected = (_vol_oracle(t + eps) - _vol_oracle(t)) / (eps * _vol_oracle(t))
    assert volume_regularity(h3, t, eps) == pytest.approx(expected, rel=1e-9)
    # an array of radii gives each radius's value
    many = volume_regularity(h3, np.array([[0.5, t]]), eps)
    assert many.shape == (1, 2)
    assert many[0, 1] == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValidationError):
        volume_regularity(h3, np.array([0.0, t]), eps)


def test_profile_matches_direct_volume(h3):
    profile = build_volume_profile(h3, 6.0)
    total = ball_volume(h3, 6.0)
    # 1e-9 of the total mass, the scale that inverse-CDF sampling sees
    for t in [1e-4, 0.01, 0.3, 1.7, 2.123456, 4.0, 5.999, 6.0]:
        assert abs(float(profile.volume(t)) - ball_volume(h3, t)) <= 1e-9 * total


def _check_radii(t_max: float) -> np.ndarray:
    # three radii near zero, 17 interval midpoints, and t_max
    mids = (np.arange(17) + 0.5) * t_max / 17
    return np.sort(np.concatenate([t_max * np.array([1e-3, 0.01, 0.03]), mids, [t_max]]))


@pytest.mark.parametrize("group", [make_group("so", 2), make_group("f4")])
def test_profile_check_shared_pass_matches_ball_volume(group):
    radii = _check_radii(6.0)
    shared = _ball_volumes(group, radii)
    direct = np.array([ball_volume(group, float(t)) for t in radii])
    np.testing.assert_allclose(shared, direct, rtol=1e-12)
    # any order of the radii gives the same volumes
    np.testing.assert_allclose(_ball_volumes(group, radii[::-1])[::-1], shared, rtol=1e-14)


def test_profile_sample_radius_inverts_cdf(h3):
    profile = build_volume_profile(h3, 5.0)
    us = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12])
    taus = profile.sample_radius(5.0, us)
    np.testing.assert_allclose(ball_volume(h3, taus) / ball_volume(h3, 5.0), us, atol=1e-10)
    # sampling a smaller ball through the same cache
    taus3 = profile.sample_radius(3.0, us)
    assert np.max(taus3) <= 3.0
    np.testing.assert_allclose(ball_volume(h3, taus3) / ball_volume(h3, 3.0), us, atol=1e-10)


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


@pytest.fixture
def no_kernel_work(monkeypatch):
    # any evaluation of Delta, a 2F1 or a ball volume means work started
    # before validation
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before its input was validated")

    for name in ("delta", "_jacobi_2f1", "_ball_volumes"):
        monkeypatch.setattr(rankone.ballavg, name, refuse)


@pytest.mark.parametrize("grid", [[math.nan], [math.nan, 2.0, 3.0], [1.0, math.nan, 3.0], [1.0, 2.0, math.nan]])
def test_psi_rejects_nan_in_grid(h3, grid, no_kernel_work):
    with pytest.raises(ValidationError):
        psi_on_grid(h3, principal(1.0), np.array(grid))


_REJECTED = {
    "volume-below-0": lambda g, prof: prof.volume(-0.1),
    "volume-above-t-max": lambda g, prof: prof.volume([1.0, 4.5]),
    "profile-t-max-0": lambda g, prof: build_volume_profile(g, 0.0),
    "sample-u-below-0": lambda g, prof: prof.sample_radius(2.0, [0.5, -1e-9]),
    "sample-u-above-1": lambda g, prof: prof.sample_radius(2.0, [1.0 + 1e-9]),
    "sample-u-nan": lambda g, prof: prof.sample_radius(2.0, [math.nan]),
    "bound-r-0": lambda g, prof: psi_bound_check(g, [complementary(0.4)], [1.0, 2.0], 0.0),
    "bound-r-neg": lambda g, prof: psi_bound_check(g, [complementary(0.4)], [1.0, 2.0], -0.4),
    "bound-empty-grid": lambda g, prof: psi_bound_check(g, [complementary(0.4)], [], 0.4),
    "bound-no-params-bad-grid": lambda g, prof: psi_bound_check(g, [], [-1.0, math.nan], 0.5),
    "asymptotic-principal": lambda g, prof: psi_asymptotic_constant(g, principal(1.0)),
    "asymptotic-at-rho": lambda g, prof: psi_asymptotic_constant(g, complementary(g.rho)),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_profile_and_psi_checks_reject_bad_input_first(h3, case, no_kernel_work):
    # the profile is built field by field, so no volume work precedes the call
    knots = np.linspace(0.0, 4.0, 33)
    profile = ballavg.VolumeProfile(h3, 4.0, knots, np.zeros_like(knots))
    with pytest.raises(ValidationError):
        _REJECTED[case](h3, profile)


_KERNELS = {
    "gauss_2f1_neg": lambda group, ts: gauss_2f1_neg([1.0], [1.5], 2.0, ts)[0],
    "spherical_fn_many": lambda group, ts: spherical_fn_many(group, complementary(0.5), ts),
    "psi_on_grid": lambda group, ts: psi_on_grid(group, principal(1.0), ts),
    "ball_volume": ball_volume,
    "volume_regularity": lambda group, ts: volume_regularity(group, ts, 0.1),
}


@pytest.mark.parametrize("kernel", list(_KERNELS))
def test_empty_radii_give_empty_arrays(h3, kernel, monkeypatch):
    # no radii, no 2F1, Delta or volume work (gauss_2f1_neg is called directly);
    # so:3's volumes come from _even_volumes, su:3's from _poly_rule
    def refuse(*args, **kwargs):
        raise AssertionError("a 2F1, Delta or volume kernel was evaluated")

    monkeypatch.setattr(rankone.spherical, "gauss_2f1_neg", refuse)
    for name in ("delta", "_even_volumes", "_poly_rule"):
        monkeypatch.setattr(rankone.ballavg, name, refuse)
    for group in (h3, make_group("su", 3)):
        out = _KERNELS[kernel](group, [])
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (0,)


# Every t_max builds, including those below 1 where a Hermite table with
# zero value and slope at 0 missed a 1e-9 budget (from 0.57 on f4 to 0.94
# on so:5).
_PROFILE_RADII = np.concatenate(
    [[0.01, 0.3, 0.999], np.arange(1.0, 3.0, 0.05), np.arange(3.0, 25.0 + 1e-9, 0.25)]
)


@pytest.mark.parametrize("name", ["so:3", "so:5", "su:3", "sp:2", "f4"])
def test_profile_domain_has_no_floor(name):
    group = rankone.parse_group(name)
    for t_max in _PROFILE_RADII:
        profile = build_volume_profile(group, float(t_max))
        radii = t_max * np.array([1e-3, 0.3, 1.0])
        np.testing.assert_array_equal(profile.volume(radii), ball_volume(group, radii))
    profile = build_volume_profile(group, 0.01)
    us = np.concatenate([[0.0, 1e-12, 1.0], np.random.default_rng(3).random(200)])
    taus = profile.sample_radius(0.01, us)
    np.testing.assert_allclose(ball_volume(group, taus) / ball_volume(group, 0.01), us, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["so:2", "so:3", "sp:2", "f4"])
def test_profile_is_ball_volume(name):
    # the table and every volume are ball_volume's own pass, bit for bit
    group = rankone.parse_group(name)
    profile = build_volume_profile(group, 20.0)
    assert profile.knots.size == 33
    np.testing.assert_array_equal(profile.cumulative, ball_volume(group, profile.knots))
    ts = np.concatenate([[0.0, 20.0], np.random.default_rng(11).uniform(0.0, 20.0, 1000)])
    np.testing.assert_array_equal(profile.volume(ts), ball_volume(group, ts))


def test_profile_small_radius_on_so2():
    # the mass of so:2 grows like t^2
    profile = build_volume_profile(make_group("so", 2), 0.01)
    assert float(profile.volume(0.01)) == pytest.approx(2.0 * math.sinh(0.005) ** 2, rel=1e-9)


def test_import_loads_no_scipy():
    # scipy is a test-only oracle, and numpy.ma is never needed: neither the
    # import nor an MC call nor a psi grid nor a ball volume may pull them
    # in.  numpy.polynomial comes in with the first exact cusp orbit sum,
    # whose Gauss-Legendre rule it supplies, and not before.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rankone.__file__)))
    code = (
        "import sys, numpy as np, rankone as r\n"
        "cusp = r.parse_observable('cusp:2')\n"
        "r.mc_average(6.0, 4096, cusp, seed=0)\n"
        "r.psi_on_grid(r.make_group('so', 3), r.principal(1.0), np.linspace(0.5, 4.0, 8))\n"
        "r.ball_volume(r.make_group('su', 3), np.linspace(0.0, 4.0, 8))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial'])))\n"
        "cusp.ball_mean(1.0)\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "True"]


def test_psi_frozen_value(h3):
    got = psi_on_grid(h3, complementary(0.5), [2.0])[0]
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
    # the principal bound, with radii dense about t = asinh(sqrt 3), where
    # the shifted 2F1 meets the Pfaff region's edge |x| = 3
    lam = MAX_PRINCIPAL_LAMBDA
    ts = np.unique(np.concatenate([ts, np.linspace(1.2, 1.45, 251)]))
    got = psi_on_grid(h3, principal(lam), ts)
    oracle = np.array([_psi_prin_oracle(lam, float(t)) for t in ts])
    assert np.max(np.abs(got - oracle)) <= 1e-10


@pytest.mark.parametrize(
    "name, param",
    [("so:3", principal(1.0)), ("su:3", complementary(1.0)), ("f4", principal(MAX_PRINCIPAL_LAMBDA))],
)
def test_psi_is_one_2f1_per_radius(name, param, monkeypatch):
    # psi sums one 2F1 at each radius, the degenerate su:3 c:1 included,
    # and evaluates no spherical function: one call, one triple
    sizes = []
    original = rankone.spherical.gauss_2f1_neg

    def counting(a, b, c, x):
        sizes.append((np.size(a), np.size(x)))
        return original(a, b, c, x)

    def refuse(*args, **kwargs):
        raise AssertionError("psi evaluated phi")

    monkeypatch.setattr(rankone.spherical, "gauss_2f1_neg", counting)
    monkeypatch.setattr(rankone.spherical, "spherical_fn_many", refuse)
    monkeypatch.setattr(rankone.ballavg, "spherical_fn_many", refuse)
    ts = np.linspace(0.5, 30.0, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)
        psi_on_grid(rankone.parse_group(name), param, ts)
    assert sizes == [(1, ts.size)]


def test_psi_is_one_volume_pass_per_grid(h3, monkeypatch):
    # psi divides by one _ball_volumes call over the whole grid
    calls = []
    original = ballavg._ball_volumes

    def counting(group, radii):
        calls.append(np.array(radii))
        return original(group, radii)

    monkeypatch.setattr(ballavg, "_ball_volumes", counting)
    ts = np.linspace(0.5, 30.0, 60)
    psi_on_grid(h3, principal(1.0), ts)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], ts)
    psi_on_grid(h3, trivial(), ts)  # the constant's average needs no volume
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["so:2", "so:3", "so:5", "su:3", "sp:2", "f4"])
def test_ball_volume_against_jacobi_identity(name):
    # At s = rho the psi identity gives the volume itself:
    # m(B_t) = Delta sinh t cosh t 2F1(rho+1, 1; alpha+2; -sinh^2 t) / (2 (alpha+1)),
    # here with mpmath's 2F1 at 30 digits: for integer rho, a - b = rho puts
    # gauss_2f1_neg on its degenerate path, 1.9e-11 relative off at t = 2
    group = rankone.parse_group(name)
    for t in (0.1, 1.0, 5.0, 20.0):
        with mpmath.workdps(30):
            x = mpmath.mpf(t)
            c = mpmath.mpf(group.alpha) + 1
            kernel = mpmath.hyp2f1(mpmath.mpf(group.rho) + 1, 1, c + 1, -mpmath.sinh(x) ** 2)
            dens = mpmath.sinh(x) ** group.n1 * mpmath.sinh(2 * x) ** group.n2
            exact = float(dens * mpmath.sinh(x) * mpmath.cosh(x) * kernel / (2 * c))
        assert ball_volume(group, t) == pytest.approx(exact, rel=1e-12, abs=0.0)


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
    assert psi_bound_check(h3, [], ts, 0.4) == 0.0


def test_lipschitz_shell_bound(h3):
    for t in (1.0, 2.0, 5.0, 10.0):
        for eps in (0.01, 0.1, 0.5):
            for param in (trivial(), complementary(0.5), principal(1.0)):
                jump, bound = psi_lipschitz_check(h3, param, [t, t + eps])
                assert jump.shape == bound.shape == (1,)
                assert jump[0] <= bound[0] + 1e-9


def test_lipschitz_bound_is_shell_fraction(h3):
    # every step of a grid is the shell between its ends
    ts = np.array([1.0, 2.0, 2.1, 5.0])
    jumps, bounds = psi_lipschitz_check(h3, complementary(0.5), ts)
    expected = [(_vol_oracle(b) - _vol_oracle(a)) / _vol_oracle(b)
                for a, b in zip(ts[:-1], ts[1:])]
    np.testing.assert_allclose(bounds, expected, rtol=1e-10)
    psis = [psi_on_grid(h3, complementary(0.5), [t])[0] for t in ts]
    np.testing.assert_allclose(jumps, np.abs(np.diff(psis)), rtol=1e-12)


def test_other_group_psi_sane():
    # no closed form for su:3; check range and monotone decay instead.
    # s = 1 makes the connection parameters degenerate, which must be
    # reported but still evaluated
    g = make_group("su", 3)
    ts = np.linspace(0.5, 8.0, 16)
    with pytest.warns(DegenerateParamWarning):
        vals = psi_on_grid(g, complementary(1.0), ts)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("name", ["so:3", "so:5", "su:3", "sp:2", "f4"])
def test_batched_rows_equal_single_calls(name):
    # _psi_rows and _phi_rows give each parameter the row its own call
    # gives, for both kinds, the constant and so:5's degenerate c:1
    group = rankone.parse_group(name)
    params = [
        complementary(0.3 * group.rho_prime),
        trivial(),
        complementary(0.85 * group.rho_prime),
        principal(0.7),
        principal(MAX_PRINCIPAL_LAMBDA),
    ]
    if name == "so:5":
        params.append(complementary(1.0))
    ts = np.concatenate([np.linspace(0.05, 1.3, 25), np.linspace(1.32, 25.0, 50)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)
        psi = ballavg._psi_rows(group, params, ts)
        phi = spherical._phi_rows(group, params, ts)
        assert psi.shape == phi.shape == (len(params), ts.size)
        for param, psi_row, phi_row in zip(params, psi, phi):
            np.testing.assert_allclose(psi_row, psi_on_grid(group, param, ts), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(phi_row, spherical_fn_many(group, param, ts), rtol=0.0, atol=1e-15)


def test_psi_rows_are_one_2f1_call_and_one_volume_pass(monkeypatch):
    # every parameter's kernel comes from one 2F1 call over the grid, and
    # every row divides by one _ball_volumes pass; the constant needs neither
    kernels, volumes = [], []
    kernel, volume = rankone.spherical.gauss_2f1_neg, ballavg._ball_volumes

    def counting_kernel(a, b, c, x):
        kernels.append((len(a), np.size(x)))
        return kernel(a, b, c, x)

    def counting_volume(group, radii):
        volumes.append(np.array(radii))
        return volume(group, radii)

    monkeypatch.setattr(rankone.spherical, "gauss_2f1_neg", counting_kernel)
    monkeypatch.setattr(ballavg, "_ball_volumes", counting_volume)
    ts = np.linspace(0.5, 30.0, 60)
    params = [complementary(0.4), trivial(), principal(2.0), complementary(1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)
        ballavg._psi_rows(make_group("so", 5), params, ts)
    assert kernels == [(3, ts.size)]
    assert len(volumes) == 1
    np.testing.assert_array_equal(volumes[0], ts)


def test_psi_rows_check_every_parameter_first(monkeypatch):
    # a bad parameter anywhere in the list stops the work before it starts
    def refuse(*args, **kwargs):
        raise AssertionError("a 2F1 or Delta was evaluated before every parameter was checked")

    monkeypatch.setattr(rankone.spherical, "gauss_2f1_neg", refuse)
    monkeypatch.setattr(ballavg, "delta", refuse)
    h3 = make_group("so", 3)
    for bad in (complementary(1.5), principal(MAX_PRINCIPAL_LAMBDA + 1.0)):
        with pytest.raises(ValidationError):
            ballavg._psi_rows(h3, [complementary(0.5), principal(1.0), bad], np.linspace(0.5, 4.0, 8))


def test_sample_radius_of_no_variates(h3):
    profile = build_volume_profile(h3, 4.0)
    taus = profile.sample_radius(2.0, [])
    assert isinstance(taus, np.ndarray) and taus.dtype == np.float64 and taus.shape == (0,)
