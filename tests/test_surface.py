"""Hyperbolic geometry, domain reduction, and Monte Carlo on the modular surface."""

import math
import time

import mpmath
import numpy as np
import pytest

from rankone import ballavg, surface
from rankone.ballavg import build_volume_profile
from rankone.errors import ConvergenceError, ValidationError
from rankone.groups import make_group
from rankone.surface import (
    ConstantObservable,
    CuspIndicator,
    DiskIndicator,
    HPoint,
    decay_scan,
    ks_radial_test,
    mc_average,
    parse_observable,
)


@pytest.mark.parametrize("d", [1e-9, 1e-4, 1.0, 20.0])
def test_distance_against_mpmath(d):
    # from 0.3 + 1.2i straight up and sideways, both at distance d; the
    # reference takes the float endpoints as given
    x0, y0 = 0.3, 1.2
    for x, y in ((x0, y0 * math.exp(d)), (x0 + 2.0 * y0 * math.sinh(0.5 * d), y0)):
        with mpmath.workdps(50):
            q = ((mpmath.mpf(x) - x0) ** 2 + (mpmath.mpf(y) - y0) ** 2) / (2 * mpmath.mpf(y) * y0)
            ref = float(mpmath.acosh(1 + q))
        assert float(surface._dist_xy(x0, y0, x, y)) == pytest.approx(ref, rel=1e-14)
        assert float(surface._dist_xy(x, y, x0, y0)) == pytest.approx(ref, rel=1e-14)


def test_tiny_disk_rejects_point_outside_it():
    # the point 1.4e-8 above the centre (hyperbolic distance) lies outside
    # a disk of radius 1e-8; arccosh(1 + q) rounded its distance to 0
    disk = DiskIndicator(HPoint(0.0, 1.5), 1e-8)
    ys = 1.5 * np.exp(np.array([1.4e-8, 0.6e-8, 0.0]))
    np.testing.assert_array_equal(disk.eval_batch(np.zeros(3), ys), [0.0, 1.0, 1.0])


def test_distance_closed_forms():
    # vertical geodesic: d(i, e*i) = 1
    assert surface._dist_xy(0.0, 1.0, 0.0, math.e) == pytest.approx(1.0, rel=1e-14)
    # horizontal displacement: cosh d = 1 + |z-w|^2/(2yy') = 3/2
    assert surface._dist_xy(0.0, 1.0, 1.0, 1.0) == pytest.approx(math.acosh(1.5), rel=1e-14)
    assert surface._dist_xy(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.9624236501192069)
    assert surface._dist_xy(0.0, 1.0, 0.0, 1.0) == 0.0


def test_mobius_action_is_isometry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        det = a * d - b * c
        if det <= 0.1:
            continue
        # _mobius_xy takes a matrix of determinant 1
        a, b, c, d = np.array([a, b, c, d]) / math.sqrt(det)
        z = rng.normal(), np.exp(rng.normal())
        w = rng.normal(), np.exp(rng.normal())
        gz = surface._mobius_xy(a, b, c, d, *z)
        gw = surface._mobius_xy(a, b, c, d, *w)
        assert surface._dist_xy(*gz, *gw) == pytest.approx(surface._dist_xy(*z, *w), rel=1e-10)


def test_reduction_worked_example():
    x_in, y_in = np.array([0.7]), np.array([0.4])
    x, y, word = surface._reduce_batch(x_in, y_in)
    assert x[0] == pytest.approx(0.2, abs=1e-12)
    assert y[0] == pytest.approx(1.6, abs=1e-12)
    # word applied to the input reproduces the reduced point
    back_x, back_y = surface._mobius_xy(*word, x_in, y_in)
    assert back_x[0] == pytest.approx(x[0], abs=1e-12)
    assert back_y[0] == pytest.approx(y[0], abs=1e-12)
    # integer word (up to overall sign in PSL(2, Z))
    a, b, c, d = (float(e[0]) for e in word)
    assert all(e == round(e) for e in (a, b, c, d))
    assert {abs(a), abs(d)} == {1.0} and abs(c) == 1.0


def test_reduction_lands_in_domain():
    rng = np.random.default_rng(11)
    x_in = rng.uniform(-30, 30, 300)
    y_in = np.exp(rng.uniform(-6, 3, 300))
    x, y, word = surface._reduce_batch(x_in, y_in)
    assert np.all(np.abs(x) <= 0.5 + 1e-9)
    assert np.all(x**2 + y**2 >= 1.0 - 1e-9)
    # the word is an integer matrix of determinant one that carries each
    # input to its reduced point
    for e in word:
        assert np.all(e == np.round(e))
    assert np.all(word[0] * word[3] - word[1] * word[2] == 1.0)
    back_x, back_y = surface._mobius_xy(*word, x_in, y_in)
    np.testing.assert_allclose(back_x, x, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(back_y, y, rtol=1e-9)


def test_reduction_translation_invariance():
    # points differing by the unit translation reduce to the same spot
    x, y, _ = surface._reduce_batch(np.array([0.31, 1.31]), np.array([0.9, 0.9]))
    assert x[0] == pytest.approx(x[1], abs=1e-12)
    assert y[0] == pytest.approx(y[1], abs=1e-12)


def _masked_reduce(x, y):
    # reference: the fold loop that gathers and scatters through a mask of
    # still-active points on every sweep
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    wa, wb, wc, wd = np.ones_like(x), np.zeros_like(x), np.zeros_like(x), np.ones_like(x)
    active = np.ones(x.shape, dtype=bool)
    while np.any(active):
        n = np.round(x[active])
        x[active] -= n
        wa[active] -= n * wc[active]
        wb[active] -= n * wd[active]
        r2 = x[active] ** 2 + y[active] ** 2
        inside = r2 < surface._DOMAIN_EDGE
        if not np.any(inside):
            still = active.copy()
            still[active] = np.abs(x[active]) > 0.5
            active = still
            continue
        idx = np.flatnonzero(active)[inside]
        r2i = r2[inside]
        x[idx] = -x[idx] / r2i
        y[idx] = y[idx] / r2i
        wa[idx], wb[idx], wc[idx], wd[idx] = -wc[idx], -wd[idx], wa[idx], wb[idx]
    return x, y, (wa, wb, wc, wd)


def _orbit_points(t, size, seed):
    # the MC pipeline's points before reduction, for the whole draw at once
    rng = np.random.default_rng(seed)
    return surface._orbit_xy(*surface._draw_cartan(t, rng, size), 0.1, 1.3)


def _orbit_mp(theta1, theta2, tau, x0, y0):
    # k(-theta2) a_{-tau} k(-theta1) z0 with cos and sin at 40 digits
    with mpmath.workdps(40):
        def k_inv(theta):
            c, s = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
            return mpmath.matrix([[c, s], [-s, c]])

        half = mpmath.exp(-mpmath.mpf(tau) / 2)
        g = k_inv(theta2) * mpmath.matrix([[half, 0], [0, 1 / half]]) * k_inv(theta1)
        z = mpmath.mpc(x0, y0)
        w = (g[0, 0] * z + g[0, 1]) / (g[1, 0] * z + g[1, 1])
        return float(w.real), float(w.imag)


@pytest.mark.parametrize("t", [1e-9, 2.0, 10.0, 15.0])
def test_orbit_map_matches_mpmath(t):
    # the tangent-form map against the rotation-matrix product in mpmath,
    # on the sampler's draws and on the angles where tan is 0 or huge
    theta1, theta2, tau = surface._draw_cartan(t, np.random.default_rng(17), 300)
    edges = [0.0, math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 4.0), math.nextafter(math.pi, 0.0)]
    pairs = [(a, b, r) for a in edges for b in edges for r in (0.0, t)]
    theta1 = np.concatenate([theta1, [p[0] for p in pairs]])
    theta2 = np.concatenate([theta2, [p[1] for p in pairs]])
    tau = np.concatenate([tau, [p[2] for p in pairs]])
    for x0, y0 in ((0.1, 1.3), (-0.37, 0.6)):
        x, y = surface._orbit_xy(theta1, theta2, tau, x0, y0)
        ref = np.array([_orbit_mp(a, b, r, x0, y0) for a, b, r in zip(theta1, theta2, tau)])
        assert np.all(np.abs(x - ref[:, 0]) <= 1e-13 * np.maximum(1.0, np.abs(ref[:, 0])))
        assert np.all(np.abs(y - ref[:, 1]) <= 1e-13 * ref[:, 1])


@pytest.mark.parametrize("t", [0.01, 2.0, 6.0, 10.0, 15.0])
def test_reduction_matches_masked_loop(t):
    # boundary points: the lines |x| = 1/2 (where rounding ties), the
    # corners, and the unit circle
    phi = np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, 9)
    edge_x = np.concatenate([[0.5, -0.5, 0.5, -0.5, 1.5, -2.5, 0.5, 0.5], np.cos(phi)])
    edge_y = np.concatenate([[math.sqrt(3.0) / 2.0] * 2 + [0.3, 2.0, 0.7, 1.0, 1e-3, 1.0], np.sin(phi)])
    for seed, size in enumerate((1, 1000, 8191, 8192, 8193, 65536)):
        x, y = _orbit_points(t, size, seed)
        x, y = np.concatenate([x, edge_x]), np.concatenate([y, edge_y])
        got_x, got_y, got_word = surface._reduce_batch(x, y)
        ref_x, ref_y, ref_word = _masked_reduce(x, y)
        assert np.array_equal(got_x, ref_x) and np.array_equal(got_y, ref_y)
        for got, ref in zip(got_word, ref_word):
            assert np.array_equal(got, ref)


# The reduction's range is d(i, z) <= 28, that is (x^2 + 1) / y + y <= 2 cosh 28.
# Just outside it: below y = e^-28 at x = 0, below 1.25 / (2 cosh 28) at
# x = 1/2, above e^28, and far out along the real axis.
_Y_EDGE = math.exp(-surface._REACH)
_Y_EDGE_HALF = 1.25 / surface._TWO_COSH_REACH
_OUTSIDE = [
    (0.0, _Y_EDGE * (1.0 - 1e-9)),
    (0.5, _Y_EDGE_HALF * (1.0 - 1e-9)),
    (-0.5, 1e-13),
    (0.0, math.exp(surface._REACH) * (1.0 + 1e-9)),
    (1e6, 1e-3),
    (0.3, 1e-20),
    (1e200, 1.0),
]


@pytest.mark.parametrize(
    "x, y",
    [(math.nan, 1.0), (0.2, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (0.2, math.inf), (0.2, 0.0), (0.2, -1.0)]
    + _OUTSIDE,
)
def test_reduction_rejects_bad_points_at_once(x, y, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        surface._reduce_batch(np.array([0.3, x]), np.array([0.8, y]))
    assert time.perf_counter() - start < 1.0
    # before any sweep: with no sweeps allowed, a point in range would
    # fail the iteration cap with ConvergenceError instead
    monkeypatch.setattr(surface, "_SWEEP_CAP", 0)
    with pytest.raises(ValidationError):
        surface._reduce_batch(np.array([0.3, x]), np.array([0.8, y]))
    with pytest.raises(ConvergenceError):
        surface._reduce_batch(np.array([0.3]), np.array([0.8]))


def test_reduction_flags_nan_from_underflow():
    # far below the range |z|^2 can underflow to 0, and S would make
    # x = 0/0; such a point is rejected before the first sweep, not left
    # to the domain check
    for y in (1e-300, 5e-324, 1e-150, 1e-20):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            surface._reduce_batch(np.array([0.3, 0.0]), np.array([0.8, y]))
        assert time.perf_counter() - start < 1.0
    # just inside the range S is exact at a power of two
    assert 2.0**-40 > _Y_EDGE
    x, y, _ = surface._reduce_batch(np.array([0.0]), np.array([2.0**-40]))
    assert (x[0], y[0]) == (0.0, 2.0**40)
    # and the edges of the range itself reduce
    x, y, _ = surface._reduce_batch(
        np.array([0.0, 0.5]), np.array([_Y_EDGE, _Y_EDGE_HALF]) * (1.0 + 1e-9)
    )
    assert np.all(x**2 + y**2 >= 1.0 - 1e-12)


def _reduced(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    xr, yr, word = surface._reduce_batch(x, y)
    return x, y, xr.copy(), yr.copy(), [w.copy() for w in word]


def _edge_points():
    # the edges of the range: MC orbit points at t = 20 and 27.7, and
    # points at y = 1e-12 with x uniform on [-1/2, 1/2]
    xs, ys = zip(_orbit_points(20.0, 40, 3), _orbit_points(27.7, 40, 4))
    x12 = np.random.default_rng(8).uniform(-0.5, 0.5, 40)
    return np.concatenate(xs + (x12,)), np.concatenate(ys + (np.full(40, 1e-12),))


def test_certificate_accepts_the_reduction():
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    # the residual stays far inside the tolerance: K = 8 has room to spare
    assert surface._certify_word(x_in, y_in, x, y, word) < 0.25


@pytest.mark.parametrize("row", [0, 1, 2, 3])
@pytest.mark.parametrize("step", [1.0, -1.0])
def test_certificate_rejects_a_word_entry_off_by_one(row, step):
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    for i in range(0, x.size, 7):
        broken = [w.copy() for w in word]
        broken[row][i] += step
        with pytest.raises(ConvergenceError):
            surface._certify_word(x_in, y_in, x, y, broken)


def test_certificate_rejects_a_moved_iterate():
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    for i in range(0, x.size, 7):
        for step in (1.0, -1.0):
            moved = x.copy()
            moved[i] += step
            with pytest.raises(ConvergenceError):
                surface._certify_word(x_in, y_in, moved, y, word)


def test_certificate_rejects_one_translation_too_many():
    # T gamma keeps the determinant and carries the input to x + 1, so
    # only the image test can see it; at every point of this set the
    # reduced y is below 320, where the tolerance is below 1
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    assert np.max(y) < 320.0
    wa, wb, wc, wd = word
    for i in range(0, x.size, 7):
        shifted = [wa.copy(), wb.copy(), wc, wd]
        shifted[0][i] += wc[i]
        shifted[1][i] += wd[i]
        with pytest.raises(ConvergenceError, match="reproduce"):
            surface._certify_word(x_in, y_in, x, y, shifted)


def test_certificate_rejects_determinant_two():
    # [[1, 1], [-1, 1]] has determinant 2 and fixes i, so the domain and
    # image tests both pass; only the exact ad - bc = 1 test can fail
    ident = [np.array([1.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0])]
    word = [np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0]), np.array([1.0, 1.0])]
    z = (np.array([0.3, 0.0]), np.array([1.1, 1.0]))
    assert surface._certify_word(*z, *z, ident) == 0.0
    with pytest.raises(ConvergenceError, match="determinant"):
        surface._certify_word(*z, *z, word)


@pytest.mark.parametrize("part", ["x", "y", "a", "d"])
def test_certificate_rejects_nan(part):
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    arrays = {"x": x, "y": y, "a": word[0], "d": word[3]}
    arrays[part][5] = math.nan
    with pytest.raises(ConvergenceError):
        surface._certify_word(x_in, y_in, x, y, word)


@pytest.mark.parametrize("y", [1e-8, 1e-10, 1e-12])
def test_reduction_at_small_y(y):
    xs = np.random.default_rng(int(-math.log10(y))).uniform(-0.5, 0.5, 200)
    x, yr, (a, b, c, d) = surface._reduce_batch(xs, np.full_like(xs, y))
    assert np.all(np.abs(x) <= 0.5) and np.all(x**2 + yr**2 >= 1.0 - 1e-12)
    assert np.all(a * d - b * c == 1.0)


def _image_mp(word, x, y):
    # gamma z at 50 digits from the exact integer word and the exact input
    with mpmath.workdps(50):
        a, b, c, d = (mpmath.mpf(float(v)) for v in word)
        z = mpmath.mpc(float(x), float(y))
        w = (a * z + b) / (c * z + d)
        return w.real, w.imag


@pytest.mark.parametrize(
    "source", [("t", 10.0), ("t", 16.0), ("t", 20.0), ("y", 1e-8), ("y", 1e-12)], ids=str
)
def test_reduced_point_matches_mpmath(source):
    # the returned point is the sweep's iterate; it lies within the
    # certificate's tolerance of the exact image of the input
    kind, value = source
    if kind == "t":
        x_in, y_in = _orbit_points(value, 60, 21)
    else:
        x_in = np.random.default_rng(22).uniform(-0.5, 0.5, 60)
        y_in = np.full(60, value)
    x, y, word = surface._reduce_batch(x_in, y_in)
    eps = np.finfo(np.float64).eps
    tol = surface._WORD_K * eps * (1.0 + (1.0 + np.abs(x_in)) / y_in) * y
    for i in range(x.size):
        ex, ey = _image_mp([w[i] for w in word], x_in[i], y_in[i])
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(float(x[i])) - ex) <= tol[i]
            assert abs(mpmath.mpf(float(y[i])) - ey) <= tol[i]


def test_observable_means():
    # area(F) = pi/3; cusp strip above Y has area 1/Y
    assert CuspIndicator(2.0).mean() == pytest.approx(3.0 / (2.0 * math.pi))
    assert CuspIndicator(1.0).mean() == pytest.approx(3.0 / math.pi)
    assert ConstantObservable().mean() == 1.0
    disk = DiskIndicator(HPoint(0.0, 1.5), 0.2)
    assert disk.mean() == pytest.approx(
        6.0 * (math.cosh(0.2) - 1.0), rel=1e-12
    )


def test_observable_eval():
    cusp = CuspIndicator(2.0).eval_batch(np.array([0.1, 0.1]), np.array([2.5, 1.9]))
    np.testing.assert_array_equal(cusp, [1.0, 0.0])
    disk = DiskIndicator(HPoint(0.0, 1.5), 0.2)
    np.testing.assert_array_equal(disk.eval_batch(np.array([0.0, 0.4]), np.array([1.5, 1.1])), [1.0, 0.0])


def test_disk_containment_enforced():
    with pytest.raises(ValidationError):
        DiskIndicator(HPoint(0.0, 1.02), 0.5)  # leaks below the unit circle
    with pytest.raises(ValidationError):
        DiskIndicator(HPoint(0.45, 1.5), 0.3)  # leaks across Re z = 1/2
    with pytest.raises(ValidationError):
        CuspIndicator(0.9)  # strip must sit inside the domain


def test_parse_observable():
    assert isinstance(parse_observable("cusp:2.0"), CuspIndicator)
    assert isinstance(parse_observable("disk:0.0,1.5,0.2"), DiskIndicator)
    assert isinstance(parse_observable("const"), ConstantObservable)
    with pytest.raises(ValidationError):
        parse_observable("blob:1")


def _assert_radius_law(t, rng, n):
    # g^{-1} i for g = k(theta1) a_tau k(theta2) lies at distance exactly tau from i
    theta1, theta2, tau = surface._draw_cartan(t, rng, n)
    x, y = surface._orbit_xy(theta1, theta2, tau, 0.0, 1.0)
    np.testing.assert_allclose(surface._dist_xy(0.0, 1.0, x, y), tau, rtol=0.0, atol=1e-9)
    assert np.all(tau <= t)


def test_cartan_sample_radius_law():
    _assert_radius_law(3.0, np.random.default_rng(17), 5000)


@pytest.mark.parametrize("t", [0.5, 2.0, 6.0, 10.0])
def test_sample_radius_closed_form_oracle(t):
    # On SO(2,1) m(B_tau) = 2 pi (cosh tau - 1), so the exact inverse of the
    # radial law of B_t is tau = arccosh(1 + u (cosh t - 1)), written here as
    # 2 arcsinh(sqrt(u) sinh(t/2)) to keep its digits at small u.
    profile = build_volume_profile(make_group("so", 2), t)
    edges = np.array([0.0, 1e-12, 1e-6, 1.0 - 1e-12, 1.0])
    us = np.concatenate([edges, np.random.default_rng(11).random(20000)])
    taus = profile.sample_radius(t, us)
    exact = 2.0 * np.arcsinh(np.sqrt(us) * math.sinh(t / 2.0))
    assert np.max(np.abs(taus - exact)) <= 1e-8
    # the exact CDF at the drawn radius, and the profile's own CDF to the
    # sampler's 1e-12 tolerance
    exact_cdf = (np.sinh(taus / 2.0) / math.sinh(t / 2.0)) ** 2
    np.testing.assert_allclose(exact_cdf, us, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(profile.cdf(taus, t), us, rtol=0.0, atol=1e-12)
    assert taus[0] == 0.0
    assert taus[4] <= t


def test_sample_radius_sub_ball_off_knot():
    profile = build_volume_profile(make_group("so", 2), 5.0)
    t = 3.005  # strictly between two knots of the t_max = 5 grid
    assert not np.any(profile.knots == t)
    taus = profile.sample_radius(t, np.array([0.25, 0.999999, 1.0]))
    assert np.all(taus <= t)
    exact = 2.0 * np.arcsinh(np.sqrt([0.25, 0.999999, 1.0]) * math.sinh(t / 2.0))
    assert np.max(np.abs(taus - exact)) <= 1e-8


@pytest.mark.parametrize("t", [0.01, 0.1, 0.25])
def test_mc_small_radius(t):
    run = mc_average(t, 20000, DiskIndicator(HPoint(0.1, 1.3), 0.2), 3)
    assert math.isfinite(run.estimate) and math.isfinite(run.standard_error)
    assert ks_radial_test(t, 20000, 4).ok


def test_mc_constant_is_exact():
    run = mc_average(2.0, 5000, ConstantObservable(), 1)
    assert run.estimate == 1.0
    assert run.standard_error == 0.0


def test_mc_seed_determinism():
    a = mc_average(3.0, 40000, CuspIndicator(2.0), 9)
    b = mc_average(3.0, 40000, CuspIndicator(2.0), 9)
    c = mc_average(3.0, 40000, CuspIndicator(2.0), 10)
    assert a.estimate == b.estimate and a.standard_error == b.standard_error
    assert a.estimate != c.estimate


# float.hex of (estimate, standard error), recorded before the MC pipeline
# ran in blocks.  No n is a multiple of the block or chunk size, so partial
# blocks and a partial final chunk both run.
PINNED_MC = [
    (2.0, 100000, "cusp:2", 1, "0x1.6ef34d6a161e5p-2", "0x1.8d81d1b9d16d7p-10"),
    (8.0, 100000, "disk:0,1.5,0.25", 42, "0x1.86a2b1704ff43p-3", "0x1.45b1236a18784p-10"),
    (15.0, 70001, "const", 5, "0x1.0000000000000p+0", "0x0.0p+0"),
    (15.0, 100003, "cusp:1.5", 9, "0x1.44a8e21ce6caep-1", "0x1.8f4be21ac03d3p-10"),
    (2.0, 9000, "disk:0.1,1.3,0.2", 3, "0x1.3b2a1907f6e5dp-3", "0x1.f29317a13c00ap-9"),
    (8.0, 131073, "cusp:2", 2, "0x1.e6b50ca579ad4p-2", "0x1.6998be187dcdfp-10"),
    (0.0, 30001, "disk:0.1,1.3,0.2", 7, "0x1.dd82691c2f45fp-2", "0x1.7983454b7d2fdp-9"),
    (10.0, 100001, "cusp:2", 11, "0x1.e79d1a62ba5c7p-2", "0x1.9e04014dceec4p-10"),
    (10.0, 90001, "disk:0,1.5,0.25", 13, "0x1.80d6722b465fap-3", "0x1.555893eec2c4cp-10"),
]


@pytest.mark.parametrize("t, n, obs, seed, estimate, stderr", PINNED_MC)
def test_mc_output_pinned_bitwise(t, n, obs, seed, estimate, stderr):
    run = mc_average(t, n, parse_observable(obs), seed)
    assert (run.estimate.hex(), run.standard_error.hex()) == (estimate, stderr)


def test_mc_error_scaling():
    # stderr shrinks like 1/sqrt(N)
    small = mc_average(3.0, 20000, CuspIndicator(2.0), 3)
    large = mc_average(3.0, 180000, CuspIndicator(2.0), 3)
    ratio = small.standard_error / large.standard_error
    assert ratio == pytest.approx(3.0, rel=0.15)


def test_mc_converges_to_space_mean():
    # at t = 8 the dynamical deviation has decayed well below the Monte
    # Carlo noise at this sample size, so a pure noise bound applies
    run = mc_average(8.0, 200000, CuspIndicator(2.0), 12)
    target = CuspIndicator(2.0).mean()
    assert abs(run.estimate - target) <= 4.0 * run.standard_error


def test_mc_t_zero_is_orbit_limit():
    # As t -> 0+ the ball average tends to the average over the K-orbit of
    # the base point, the circle about i through it, not to f(base).
    base = HPoint(0.1, 1.3)
    obs = DiskIndicator(base, 0.2)
    at_zero = mc_average(0.0, 20000, obs, 3, base=base)
    near_zero = mc_average(1e-9, 20000, obs, 3, base=base)
    assert at_zero.estimate == near_zero.estimate
    assert at_zero.standard_error == near_zero.standard_error
    # The disk covers the arc of the circle within 0.2 of the base point.
    # S fixes i and turns the circle by half a revolution, so the arc's
    # image is folded onto the disk too: twice the arc's share.
    r0 = float(surface._dist_xy(0.0, 1.0, base.x, base.y))
    cos_arc = (math.cosh(r0) ** 2 - math.cosh(0.2)) / math.sinh(r0) ** 2
    orbit_mean = 2.0 * math.acos(cos_arc) / math.pi
    assert abs(at_zero.estimate - orbit_mean) <= 4.0 * at_zero.standard_error
    assert at_zero.estimate != obs.eval_batch(np.array([base.x]), np.array([base.y]))[0]


def test_mc_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no draw may happen outside the range")

    monkeypatch.setattr(surface, "_draw_cartan", refuse)
    # radii outside the domain are rejected before any variate is drawn
    for t in (-1.0, math.nan, math.inf, -math.inf, 700.5):
        with pytest.raises(ValidationError):
            mc_average(t, 100, ConstantObservable(), 1)
    with pytest.raises(ValidationError):
        mc_average(1.0, 0, ConstantObservable(), 1)
    # t + d(i, base) must stay inside the reduction's range, d(i, z) <= 28;
    # just past it the call fails before any variate is drawn
    base = HPoint(0.1, 1.3)
    edge = surface._REACH - float(surface._dist_xy(0.0, 1.0, base.x, base.y))
    for t, b in ((edge + 1e-6, base), (edge + 1e-6, None), (30.0, base), (20.0, HPoint(0.0, 1e-5))):
        with pytest.raises(ValidationError):
            mc_average(t, 1000, CuspIndicator(2.0), 1, base=b)
    # the scan checks its largest radius before its first run: here t = 1
    # is in range and t = 2 is not
    far = HPoint(0.0, math.exp(-26.5))
    with pytest.raises(ValidationError):
        decay_scan(np.array([1.0, 2.0]), 1000, CuspIndicator(2.0), 1, base=far)
    # numpy takes non-negative seeds only; a negative one is refused before any draw
    with pytest.raises(ValidationError, match="seed"):
        mc_average(1.0, 100, ConstantObservable(), -1)
    with pytest.raises(ValidationError, match="seed"):
        decay_scan(np.array([1.0, 2.0]), 100, CuspIndicator(2.0), -3)
    with pytest.raises(ValidationError, match="seed"):
        ks_radial_test(1.0, 100, -1)
    monkeypatch.undo()
    # just inside the range the run completes
    run = mc_average(edge - 1e-5, 2000, CuspIndicator(2.0), 1, base=base)
    assert 0.0 <= run.estimate <= 1.0


@pytest.mark.parametrize("t", [16.0, 18.0, 20.0])
def test_mc_at_large_radius(t):
    # 10^5 samples per seed keeps the three radii near 0.7 s together; at
    # these radii the ball average is within e^-t of the space mean, far
    # below the 4-sigma band
    obs = CuspIndicator(2.0)
    for seed in range(8):
        run = mc_average(t, 100_000, obs, seed)
        assert abs(run.estimate - obs.mean()) <= 4.0 * run.standard_error


@pytest.mark.parametrize("t", [0.0, 0.01, 6.0])
def test_mc_needs_no_volume_profile(t, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the MC path must not use the volume profile")

    monkeypatch.setattr(surface, "build_volume_profile", refuse)
    monkeypatch.setattr(ballavg.VolumeProfile, "sample_radius", refuse)
    run = mc_average(t, 5000, CuspIndicator(1.2), 2)
    assert math.isfinite(run.estimate) and run.standard_error > 0.0
    _assert_radius_law(t, np.random.default_rng(1), 5000)


def test_ks_radial_sampler():
    for t in (1.0, 3.0, 6.0):
        result = ks_radial_test(t, 100000, 42)
        assert result.ok, (t, result.statistic, result.threshold)
    assert ks_radial_test(3.0, 100000, 42).threshold == pytest.approx(
        1.63 / math.sqrt(100000)
    )


@pytest.mark.parametrize("t", [0.1, 1.0, 6.0])
@pytest.mark.parametrize(
    "mutant",
    [
        lambda t, u: u * t,  # tau uniform on [0, t]
        lambda t, u: 0.99 * 2.0 * np.arcsinh(np.sqrt(u) * math.sinh(0.5 * t)),
    ],
    ids=["uniform", "shrunk"],
)
def test_ks_rejects_wrong_radial_law(t, mutant, monkeypatch):
    monkeypatch.setattr(surface, "_so21_radius", mutant)
    assert not ks_radial_test(t, 20000, 4).ok


def test_decay_scan_shapes():
    ts = np.array([2.0, 3.0, 4.0])
    report = decay_scan(ts, 30000, CuspIndicator(2.0), 42)
    assert report.ts.shape == (3,)
    assert report.deviations.shape == (3,)
    assert np.all(report.stderrs > 0.0)
    # envelope dominates every flagged signal point by construction
    assert np.all(
        report.deviations <= np.maximum(report.envelopes, 4.0 * report.stderrs) * (1 + 1e-12)
    )


def test_decay_scan_grid_validation():
    with pytest.raises(ValidationError):
        decay_scan(np.array([0.5, 2.0]), 1000, ConstantObservable(), 1)
    with pytest.raises(ValidationError):
        decay_scan(np.array([3.0, 2.0]), 1000, ConstantObservable(), 1)


@pytest.mark.parametrize("grid", [[math.nan], [math.nan, 2.0, 3.0], [1.0, math.nan, 3.0], [1.0, 2.0, math.nan]])
def test_decay_scan_rejects_nan_in_grid(grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Monte Carlo run started before the grid was validated")

    monkeypatch.setattr(surface, "mc_average", refuse)
    with pytest.raises(ValidationError, match="scan grid"):
        decay_scan(np.array(grid), 1000, CuspIndicator(2.0), 1)
