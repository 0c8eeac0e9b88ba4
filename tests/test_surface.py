"""Hyperbolic geometry, domain reduction, and Monte Carlo on the modular surface."""

import math
import time
import tracemalloc

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


def _dist_mp(x, y, cx, cy):
    with mpmath.workdps(50):
        x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        return 2 * mpmath.asinh(mpmath.sqrt(((x - cx) ** 2 + (y - cy) ** 2) / (4 * y * cy)))


@pytest.mark.parametrize("cx, cy, r", [(0.0, 1.5, 0.25), (0.1, 1.3, 0.2), (0.0, 1.5, 1e-8)])
def test_disk_predicate_against_mpmath_on_rings(cx, cy, r):
    # points on the circles of hyperbolic radius r (1 -+ 1e-9) about the
    # centre, rounded to float; the reference is the distance of the
    # rounded point itself
    disk = DiskIndicator(HPoint(cx, cy), r)
    phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for rho in (r * (1.0 - 1e-9), r * (1.0 + 1e-9)):
        with mpmath.workdps(50):
            ch, sh = mpmath.cosh(rho), mpmath.sinh(rho)
            xs = np.array([float(cx + cy * sh * mpmath.sin(p)) for p in phi])
            ys = np.array([float(cy * ch + cy * sh * mpmath.cos(p)) for p in phi])
        want = np.array([_dist_mp(x, y, cx, cy) < r for x, y in zip(xs, ys)], dtype=np.float64)
        np.testing.assert_array_equal(disk.eval_batch(xs, ys), want)
        if r > 1e-6:
            # at these radii rounding does not carry a point across the circle
            assert np.all(want == (rho < r))


def test_disk_predicate_matches_distance_on_orbit_points():
    # the squared comparison decides d < r exactly as the distance does,
    # on 2^20 reduced Monte Carlo sample points
    xs, ys = [], []
    for seed, t in enumerate((2.0, 4.5, 7.0, 10.0)):
        x, y, _ = surface._reduce_batch(*_orbit_points(t, 2**18, 30 + seed))
        xs.append(x)
        ys.append(y)
    x, y = np.concatenate(xs), np.concatenate(ys)
    for cx, cy, r in ((0.0, 1.5, 0.25), (0.1, 1.3, 0.2)):
        got = DiskIndicator(HPoint(cx, cy), r).eval_batch(x, y)
        want = surface._dist_xy(x, y, cx, cy) < r
        assert np.count_nonzero(want) > 10**4
        np.testing.assert_array_equal(got, want.astype(np.float64))


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
    return surface._ball_xy(*surface._draw_polar(t, rng, rng, size), 0.1, 1.3)


def _orbit_mp(theta, tau, x0, y0):
    # x0 + y0 k(theta) a_{-tau} i with cos and sin at 40 digits
    with mpmath.workdps(40):
        c, s = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
        w = 1j * mpmath.exp(-mpmath.mpf(tau))
        z = x0 + y0 * (c * w + s) / (-s * w + c)
        return float(z.real), float(z.imag)


def _orbit_draws(t):
    # the sampler's draws and the angles where tan is 0 or huge
    rng = np.random.default_rng(17)
    theta, tau = surface._draw_polar(t, rng, rng, 300)
    edges = [0.0, math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 4.0), math.nextafter(math.pi, 0.0)]
    pairs = [(a, r) for a in edges for r in (0.0, t)]
    theta = np.concatenate([theta, [p[0] for p in pairs]])
    tau = np.concatenate([tau, [p[1] for p in pairs]])
    return theta, tau


_ORBIT_BASES = ((0.1, 1.3), (-0.37, 0.6))


@pytest.mark.parametrize("t", [1e-9, 2.0, 10.0, 15.0])
def test_orbit_map_matches_mpmath(t):
    # the tangent-form map against the rotation matrix in mpmath
    theta, tau = _orbit_draws(t)
    for x0, y0 in _ORBIT_BASES:
        x, y = surface._ball_xy(theta, tau, x0, y0)
        ref = np.array([_orbit_mp(a, r, x0, y0) for a, r in zip(theta, tau)])
        assert np.all(np.abs(x - ref[:, 0]) <= 1e-13 * np.maximum(1.0, np.abs(ref[:, 0])))
        assert np.all(np.abs(y - ref[:, 1]) <= 1e-13 * ref[:, 1])


def _orbit_expression(theta, tau, x0, y0):
    # the map written as one expression per coordinate, each temporary
    # its own array: the in-place map must give these bits
    t1 = np.tan(theta)
    s = np.exp(-tau)
    den = 1.0 + (s * t1) * (s * t1)
    return x0 + y0 * (t1 * (1.0 - s * s) / den), y0 * (s * (1.0 + t1 * t1) / den)


@pytest.mark.parametrize("t", [1e-9, 2.0, 10.0, 15.0])
def test_orbit_map_bits(t):
    theta, tau = _orbit_draws(t)
    for x0, y0 in _ORBIT_BASES:
        got = surface._ball_xy(theta, tau, x0, y0)
        ref = _orbit_expression(theta, tau, x0, y0)
        for g, r in zip(got, ref):
            assert np.array_equal(g.view(np.uint64), r.view(np.uint64))
        # tau = 0 leaves the base point where it is, bit for bit
        at_base = tau == 0.0
        assert np.count_nonzero(at_base) == 5
        assert np.all(got[0][at_base] == x0) and np.all(got[1][at_base] == y0)


def _tie_points():
    # S^{-1} w for w on the lines Re w = k + 1/2, and the points one ulp to
    # either side in x: their S images land on a half-integer within
    # rounding, where rint ties
    wx, wy = np.meshgrid([0.5, -0.5, 1.5, -1.5, 2.5], [0.3, 0.9, 1.1, 2.0, 7.0])
    r2 = wx * wx + wy * wy
    x, y = (-wx / r2).ravel(), (wy / r2).ravel()
    x = np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
    return x, np.tile(y, 3)


_MASKED_LOOP_TS = [0.01, 1.0, 2.0, 6.0, 10.0, 15.0]


def _masked_loop_batches(t):
    # MC sample points alone, and with the boundary points added: the
    # lines |x| = 1/2 (where rounding ties), the corners, the unit circle,
    # and points whose S image ties
    phi = np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, 9)
    tie_x, tie_y = _tie_points()
    edge_x = np.concatenate([[0.5, -0.5, 0.5, -0.5, 1.5, -2.5, 0.5, 0.5], np.cos(phi), tie_x])
    edge_y = np.concatenate([[math.sqrt(3.0) / 2.0] * 2 + [0.3, 2.0, 0.7, 1.0, 1e-3, 1.0], np.sin(phi), tie_y])
    yield _orbit_points(t, 1000, 99)
    for seed, size in enumerate((1, 2, 1000, 4097, 8191, 8192, 8193, 65536)):
        x, y = _orbit_points(t, size, seed)
        yield np.concatenate([x, edge_x]), np.concatenate([y, edge_y])


def _first_sweep_case(x, y):
    # which form the reduction's first sweep takes: no point takes S,
    # fewer than half do, or more than half do
    xs = x - np.rint(x)
    count = np.count_nonzero(xs * xs + y * y < surface._DOMAIN_EDGE)
    return "none" if count == 0 else "dense" if 2 * count > x.size else "sparse"


def test_masked_loop_batches_meet_every_first_sweep_case():
    cases = {t: [_first_sweep_case(x, y) for x, y in _masked_loop_batches(t)] for t in _MASKED_LOOP_TS}
    assert {case for row in cases.values() for case in row} == {"none", "sparse", "dense"}
    # at t = 1 about 41% of the sample points take S
    x, y = _orbit_points(1.0, 1000, 99)
    xs = x - np.rint(x)
    assert 0.35 < np.mean(xs * xs + y * y < surface._DOMAIN_EDGE) < 0.47
    assert cases[0.01][0] == "none" and cases[1.0][0] == "sparse" and cases[6.0][0] == "dense"


@pytest.mark.parametrize("t", _MASKED_LOOP_TS)
def test_reduction_matches_masked_loop(t):
    # The reduction translates only the points that took S, so a word
    # entry may differ from this loop, which translates every point, in
    # the sign of a zero only; array_equal and the certificate do not see
    # it.  Many tie points take S at once, and S puts them on a
    # half-integer exactly.
    tie_x, tie_y = _tie_points()
    r2 = tie_x * tie_x + tie_y * tie_y
    assert np.count_nonzero((np.abs(tie_x) <= 0.5) & (r2 < 1.0) & (-tie_x / r2 % 1.0 == 0.5)) >= 10
    for x, y in _masked_loop_batches(t):
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


@pytest.mark.parametrize(
    "cap, reduces", [(0, (False, False, False)), (1, (True, False, False)), (2, (True, True, False)), (3, (True, True, True))]
)
def test_sweep_cap_counts_every_sweep(cap, reduces, monkeypatch):
    # 0.1 + 1.3i lies in the domain, 0.3 + 0.8i takes S once and
    # 0.3 + 0.05i twice; the cap counts the first sweep and the last one,
    # which finds no point left to move
    monkeypatch.setattr(surface, "_SWEEP_CAP", cap)
    for (x, y), ok in zip(((0.1, 1.3), (0.3, 0.8), (0.3, 0.05)), reduces):
        if ok:
            xr, yr, _ = surface._reduce_batch(np.array([x]), np.array([y]))
            assert xr[0] ** 2 + yr[0] ** 2 >= 1.0
        else:
            with pytest.raises(ConvergenceError, match="cap"):
                surface._reduce_batch(np.array([x]), np.array([y]))


# Points in the domain, points that take S once from m0 = 0 (with n = -0
# and n = +0) and from m0 = 1, and points that take it twice, with their
# words, the signs of zero entries included.
_WORD_POINTS = [(0.1, 1.3), (-0.1, 1.3), (-0.1, 0.8), (0.1, 0.8), (1.2, 0.8), (-2.3, 0.05), (0.3, 0.05)]
_WORDS = [
    (1.0, 0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, 1.0),
    (-0.0, -1.0, 1.0, 0.0),
    (0.0, -1.0, 1.0, 0.0),
    (0.0, -1.0, 1.0, -1.0),
    (-4.0, -9.0, -3.0, -7.0),
    (-4.0, 1.0, 3.0, -1.0),
]


@pytest.mark.parametrize("pad", [None, (0.1, 1.3), (0.3, 0.8)], ids=["alone", "sparse", "dense"])
def test_reduction_words_bitwise(pad):
    # alone or among points that do not take S (the first sweep gathers
    # the few that do) or that do (it sweeps the whole batch); the two
    # points in the domain alone take no S at all
    x, y = (np.array(v) for v in zip(*_WORD_POINTS))
    if pad is not None:
        x, y = np.concatenate([x, np.full(10, pad[0])]), np.concatenate([y, np.full(10, pad[1])])
    _, _, word = surface._reduce_batch(x, y)
    for i, want in enumerate(_WORDS):
        assert [float(e[i]).hex() for e in word] == [v.hex() for v in want]
    _, _, word = surface._reduce_batch(x[:2], y[:2])
    assert [float(e[0]).hex() for e in word] == [v.hex() for v in _WORDS[0]]


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
    # the edges of the range: MC sample points at t = 20 and 27.7, and
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
    # certificate's tolerance is below 1 (it is wherever the reduced y
    # is below 320; one point here has y = 375 and a tolerance of 2e-4)
    x_in, y_in, x, y, word = _reduced(*_edge_points())
    tol = surface._WORD_K * surface._EPS * (1.0 + (1.0 + np.abs(x_in)) / y_in) * y
    assert np.max(tol) < 1.0
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


def _certify_reference(x_in, y_in, x, y, word):
    # _certify_word's operations in the same order, each term its own
    # array and |z|^2 formed from the iterate passed in
    wa, wb, wc, wd = word
    r2 = np.square(x) + np.square(y)
    if not (np.abs(x).max() <= 0.5 + 1e-12 and r2.min() >= 1.0 - 1e-12):
        raise ConvergenceError("reduction left a point outside the domain")
    if not (wa * wd - wb * wc == 1.0).all():
        raise ConvergenceError("accumulated word does not have determinant 1")
    p = wc * x_in + wd
    den = p * p + (wc * y_in) * (wc * y_in)
    gx = ((wa * x_in + wb) * p + wa * wc * y_in * y_in) / den
    gy = y_in / den
    scale = (1.0 + (1.0 + np.abs(x_in)) / y_in) * y
    worst = float((np.maximum(np.abs(gx - x), np.abs(gy - y)) / scale).max()) / (surface._WORD_K * surface._EPS)
    if not worst <= 1.0:
        raise ConvergenceError("accumulated word does not reproduce the reduced point")
    return worst


def _corrupted(x, y, word, i):
    # the reduction's output with point (or slice) i corrupted in each way
    # the certificate must judge
    a, b, c, d = word

    def word_with(entries):
        broken = [e.copy() for e in word]
        for row, value in entries.items():
            broken[row][i] = value
        return x, y, broken

    def point(px, py):
        moved_x, moved_y = x.copy(), y.copy()
        moved_x[i], moved_y[i] = px, py
        return moved_x, moved_y, word

    ai, bi, ci, di = a[i], b[i], c[i], d[i]
    yield word_with({0: ai + ci, 1: bi + di})  # T gamma
    yield word_with({0: -ci, 1: -di, 2: ai, 3: bi})  # S gamma
    yield word_with({0: ai + ci, 1: bi + di, 2: ci - ai, 3: di - bi})  # determinant 2
    for row, entry in enumerate((ai, bi, ci, di)):
        for step in (1.0, -1.0):
            yield word_with({row: entry + step})
    for px, py in (
        (np.nextafter(x[i], np.inf), y[i]),
        (np.nextafter(x[i], -np.inf), y[i]),
        (x[i], np.nextafter(y[i], np.inf)),
        (x[i], np.nextafter(y[i], -np.inf)),
        (x[i] + 1.0, y[i]),
        (x[i] - 1.0, y[i]),
        (x[i], y[i] + 1.0),
        (x[i], y[i] - 1.0),
        (math.nan, y[i]),
        (x[i], math.nan),
        # on either side of the domain test's edges, |x| = 1/2 + 1e-12
        # and |z|^2 = 1 - 1e-12
        (np.copysign(0.5 + 1e-12, x[i]), y[i]),
        (np.copysign(np.nextafter(0.5 + 1e-12, 1.0), x[i]), y[i]),
        (x[i], np.sqrt(1.0 - 5e-13 - x[i] * x[i])),
        (x[i], np.sqrt(1.0 - 2e-12 - x[i] * x[i])),
    ):
        yield point(px, py)
    yield word_with({0: math.nan})
    yield word_with({3: math.nan})


def _verdict(certify, *args):
    try:
        return certify(*args)
    except ConvergenceError as err:
        return str(err)


def test_certificate_verdicts_match_the_reference():
    # every corruption of one point, and of all points at once, of the
    # range's edges and of Monte Carlo points at t = 2, 10 and 20; the
    # certificate is called directly and with the buffers the sweeps
    # hand it, and both must give the reference's verdict, the worst
    # residual included
    inputs = [_edge_points()] + [_orbit_points(t, 200, 40 + k) for k, t in enumerate((2.0, 10.0, 20.0))]
    seen = set()
    for points in inputs:
        x_in, y_in, x, y, word = _reduced(*points)
        for i in list(range(0, x.size, x.size // 8)) + [slice(None)]:
            for cx, cy, cword in _corrupted(x, y, word, i):
                want = _verdict(_certify_reference, x_in, y_in, cx, cy, cword)
                assert _verdict(surface._certify_word, x_in, y_in, cx, cy, cword) == want
                r2 = np.square(cx)
                r2 += np.square(cy)
                work = (r2, np.empty_like(r2), np.empty_like(r2))
                assert _verdict(surface._certify_word, x_in, y_in, cx, cy, cword, work) == want
                seen.add(want if isinstance(want, str) else "accepted")
    assert len(seen) == 4


def test_sweeps_hand_the_certificate_the_iterates_r2(monkeypatch):
    # the |z|^2 the sweeps pass is bitwise the one the certificate would
    # form from the returned iterate, on batches whose sweeps take every
    # form; the buffers share no memory with the points or the word
    certify = surface._certify_word
    checked = []

    def spy(x_in, y_in, x, y, word, work):
        r2 = np.square(x)
        r2 += np.square(y)
        assert np.array_equal(work[0].view(np.uint64), r2.view(np.uint64))
        arrays = (x_in, y_in, x, y, *word)
        assert not any(np.may_share_memory(w, v) for w in work for v in arrays)
        assert not any(np.may_share_memory(u, v) for u, v in zip(work, work[1:] + work[:1]))
        checked.append(x.size)
        return certify(x_in, y_in, x, y, word, work)

    monkeypatch.setattr(surface, "_certify_word", spy)
    for t in (0.01, 1.0, 6.0):
        for x, y in _masked_loop_batches(t):
            surface._reduce_batch(x, y)
    assert len(checked) == 27


def _traced_peak(call):
    # bytes call() allocates at its peak above what was traced before it,
    # after one untraced call to warm caches
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - before


def test_reduction_allocates_at_most_13_batch_arrays():
    # the certificate works in the sweeps' spare buffers; with fresh
    # temporaries for its terms the traced peak of this batch is 19.2
    # arrays
    x, y = _orbit_points(6.0, 8192, 5)
    assert _traced_peak(lambda: surface._reduce_batch(x, y)) <= 13 * 8 * 8192


def test_reduction_of_empty_batch(monkeypatch):
    # no sweep runs: with none allowed, a nonempty batch fails the cap
    monkeypatch.setattr(surface, "_SWEEP_CAP", 0)
    x, y, word = surface._reduce_batch(np.array([]), np.array([]))
    assert len(word) == 4
    for v in (x, y, *word):
        assert v.shape == (0,) and v.dtype == np.float64


@pytest.mark.parametrize(
    "x, y",
    [
        (np.float64(0.3), np.float64(0.8)),
        (np.array(0.3), np.array(0.8)),
        (np.full((2, 2), 0.3), np.full((2, 2), 0.8)),
        (np.array([0.3, 0.1]), np.array([0.8])),
        (np.array([0.3]), np.array([[0.8]])),
        (np.array([]), np.array([0.8])),
    ],
)
def test_reduction_rejects_batches_not_1d_of_one_length(x, y, monkeypatch):
    # before any work: with no sweeps allowed, a batch that got that far
    # would fail the iteration cap with ConvergenceError instead
    monkeypatch.setattr(surface, "_SWEEP_CAP", 0)
    with pytest.raises(ValidationError, match="1-D"):
        surface._reduce_batch(x, y)


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


def _cap_mp(eta, t, height):
    # 2 * integral of sqrt((eta e^t - y)(y - eta e^-t)) / y^2 dy over
    # y from max(height, eta e^-t) to eta e^t, at 30 digits on twelve
    # log-spaced panels (the integrand is largest near the bottom)
    with mpmath.workdps(30):
        eta, t, height = mpmath.mpf(eta), mpmath.mpf(t), mpmath.mpf(height)
        top, bottom = eta * mpmath.exp(t), eta * mpmath.exp(-t)
        lo = max(height, bottom)
        if lo >= top:
            return 0.0
        cuts = [lo * (top / lo) ** (mpmath.mpf(k) / 12) for k in range(13)]
        return float(mpmath.quad(lambda y: 2 * mpmath.sqrt(max((top - y) * (y - bottom), 0)) / y**2, cuts))


@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 1.01, 2.0, 6.0, 12.0])
def test_cusp_cap_area_matches_mpmath(t):
    # the cut through the disk's Euclidean centre, just above its bottom,
    # just below its top, and at three random heights; each eta is
    # rounded to float before the reference sees it
    height = 2.0
    etas = np.array(
        [height / math.cosh(t), height * math.exp(t) / (1.0 + 1e-3), height * math.exp(-t) / (1.0 - 1e-3)]
        + list(height * np.exp(np.random.default_rng(5).uniform(-t, t, 3)))
    )
    got = surface._cusp_cap_area(etas, t, height)
    for eta, area in zip(etas, got):
        ref = _cap_mp(eta, t, height)
        assert abs(area - ref) <= 1e-12 * ref, (eta, area, ref)
    # a disk wholly above the line is all counted, one wholly below it not
    full, empty = surface._cusp_cap_area(np.array([2.0 * height * math.exp(t), 0.9 * height * math.exp(-t)]), t, height)
    assert full == pytest.approx(4.0 * math.pi * math.sinh(0.5 * t) ** 2, rel=1e-14)
    assert empty == 0.0


# cusp:2 at base (0.1, 1.3): the exact disk average from mpmath at 30
# digits, and the number of orbit points whose t-disk reaches above y = 2
CUSP_ORBIT_SUMS = [(1.0, 0.167463333784381, 2), (2.0, 0.359473239696701, 4), (6.0, 0.47494832046871, 195)]


@pytest.mark.parametrize("t, value, terms", CUSP_ORBIT_SUMS)
def test_cusp_ball_mean_reference_values(t, value, terms):
    obs = CuspIndicator(2.0)
    assert obs.ball_mean(t) == pytest.approx(value, rel=1e-12)
    assert surface._cusp_orbit_heights(t, 2.0, 0.1, 1.3).size == terms
    # the average over the disk about g x0 is the same for every g in
    # PSL(2, Z): summed from the base moved by T or by S, every term
    # changes and the total does not; ball_mean sums from the reduced
    # base, also for a base far down the orbit
    for x0, y0 in ((1.1, 1.3), (-0.1 / 1.7, 1.3 / 1.7)):
        assert surface._cusp_orbit_sum(t, 2.0, x0, y0) == pytest.approx(value, rel=1e-12)
    far = (1.3 * 1j + 0.1 + 7.0) / (3.0 * (1.3 * 1j + 7.1) + 1.0)
    assert obs.ball_mean(t, HPoint(far.real, far.imag)) == pytest.approx(value, rel=1e-12)


def test_cusp_ball_mean_at_its_largest_radius():
    # t = 12 sums 77,715 terms, and the average is within 1e-5 of the
    # space mean
    obs = CuspIndicator(2.0)
    assert surface._cusp_orbit_heights(12.0, 2.0, 0.1, 1.3).size == 77715
    assert abs(obs.ball_mean(12.0) - obs.mean()) < 1e-5


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, 12.000001])
def test_cusp_ball_mean_rejects_radii_outside_its_domain(t, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no orbit term may be formed outside the domain")

    monkeypatch.setattr(surface, "_cusp_orbit_heights", refuse)
    with pytest.raises(ValidationError, match="radii"):
        CuspIndicator(2.0).ball_mean(t)
    # and a base outside the reduction's range, d(i, base) > 28
    with pytest.raises(ValidationError, match="distance"):
        CuspIndicator(2.0).ball_mean(1.0, HPoint(0.0, 1e-13))


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
    for radius in (0.0, -0.1, math.nan):
        with pytest.raises(ValidationError, match="radius"):
            DiskIndicator(HPoint(0.0, 1.5), radius)
    for center in (HPoint(0.6, 1.5), HPoint(-0.6, 1.5), HPoint(0.0, 0.9)):
        with pytest.raises(ValidationError, match="center"):
            DiskIndicator(center, 0.01)


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.0, -1.0), (0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)])
def test_point_needs_finite_coordinates_and_positive_y(x, y):
    with pytest.raises(ValidationError):
        HPoint(x, y)


def test_parse_observable():
    assert isinstance(parse_observable("cusp:2.0"), CuspIndicator)
    assert isinstance(parse_observable("disk:0.0,1.5,0.2"), DiskIndicator)
    assert isinstance(parse_observable("const"), ConstantObservable)
    with pytest.raises(ValidationError):
        parse_observable("blob:1")
    for text in ("disk:a,b,c", "disk:0.0,1.5", "cusp:x"):
        with pytest.raises(ValidationError, match="malformed"):
            parse_observable(text)


def _assert_radius_law(t, rng, n):
    # x0 + y0 k(theta) a_{-tau} i lies at distance exactly tau from x0 + i y0
    theta, tau = surface._draw_polar(t, rng, rng, n)
    x, y = surface._ball_xy(theta, tau, 0.1, 1.3)
    np.testing.assert_allclose(surface._dist_xy(0.1, 1.3, x, y), tau, rtol=0.0, atol=1e-9)
    assert np.all(tau <= t) and np.all((theta >= 0.0) & (theta < math.pi))


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


# float.hex of (estimate, standard error) of the average over the disk
# about the base point.  Most n are no multiple of the block or chunk size,
# so partial blocks and a partial final chunk both run; the last four are
# chunks of one block, 1,000 points as in a scan and exactly one full
# block.  The cusp entries lie within 1.6 sigma of
# CuspIndicator.ball_mean; the t = 0 disk entry is the value at the base
# point, exactly.
PINNED_MC = [
    (2.0, 100000, "cusp:2", 1, "0x1.6e8fb00bcbe62p-2", "0x1.8d69f66182dc2p-10"),
    (8.0, 100000, "disk:0,1.5,0.25", 42, "0x1.820c49ba5e354p-3", "0x1.4438bf16f1b05p-10"),
    (15.0, 70001, "const", 5, "0x1.0000000000000p+0", "0x0.0p+0"),
    (15.0, 100003, "cusp:1.5", 9, "0x1.46d73bb480b3ep-1", "0x1.8e4be34a868a0p-10"),
    (2.0, 9000, "disk:0.1,1.3,0.2", 3, "0x1.26007482296a4p-3", "0x1.e479e4db0633cp-9"),
    (8.0, 131073, "cusp:2", 2, "0x1.e8bf0ba07a2fcp-2", "0x1.69aa42dc306b8p-10"),
    (0.0, 30001, "disk:0.1,1.3,0.2", 7, "0x1.0000000000000p+0", "0x0.0p+0"),
    (10.0, 100001, "cusp:2", 11, "0x1.ea955025267d4p-2", "0x1.9e1f8f749a43fp-10"),
    (10.0, 90001, "disk:0,1.5,0.25", 13, "0x1.7f5025a3242c2p-3", "0x1.54d3465804780p-10"),
    (5.5, 1000, "cusp:2", 17, "0x1.e666666666666p-2", "0x1.02dbf65e5ef4fp-6"),
    (9.5, 1000, "disk:0,1.5,0.25", 23, "0x1.b22d0e5604189p-3", "0x1.a7bd21d96fdcdp-7"),
    (1.0, 1000, "cusp:1.2", 8, "0x1.33b645a1cac08p-1", "0x1.fbae534b9a201p-7"),
    (1.0, 8192, "disk:0,1.5,0.25", 4, "0x1.14c0000000000p-2", "0x1.419456d03f721p-8"),
]


@pytest.mark.parametrize("t, n, obs, seed, estimate, stderr", PINNED_MC)
def test_mc_output_pinned_bitwise(t, n, obs, seed, estimate, stderr):
    run = mc_average(t, n, parse_observable(obs), seed)
    assert (run.estimate.hex(), run.standard_error.hex()) == (estimate, stderr)


@pytest.mark.parametrize("t, n, obs, seed, estimate, stderr", PINNED_MC)
def test_mc_output_does_not_depend_on_block(t, n, obs, seed, estimate, stderr, monkeypatch):
    # blocks stream each chunk's substream in order and their sums are
    # exact integers, so the block size moves no bit
    for block in (1000, 4096, 65536):
        monkeypatch.setattr(surface, "_BLOCK", block)
        run = mc_average(t, n, parse_observable(obs), seed)
        assert (run.estimate.hex(), run.standard_error.hex()) == (estimate, stderr)


class _Recorder:
    # a generator that keeps a copy of every array of uniforms it draws
    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def random(self, n):
        u = self.rng.random(n)
        self.log.append(u.copy())
        return u


@pytest.mark.parametrize("size", [1, 2, 8191, 8192, 8193, 65536])
def test_chunk_blocks_stream_its_substream(size, monkeypatch):
    # the blocks' angle and radial uniforms, end to end, are rows 0 and 1
    # of one (2, size) draw from the chunk's generator; a chunk of one
    # block reads both rows from that one generator
    seq = np.random.SeedSequence(7, spawn_key=(3,))
    angles, radii, generators = [], [], []
    draw = surface._draw_polar

    def spy(t, a, r, n):
        generators.append((a, r))
        return draw(t, _Recorder(a, angles), _Recorder(r, radii), n)

    monkeypatch.setattr(surface, "_draw_polar", spy)
    surface._run_chunk(6.0, HPoint(0.1, 1.3), ConstantObservable(), seq, size)
    want = np.random.Generator(np.random.PCG64(seq)).random((2, size))
    assert len(generators) == -(-size // surface._BLOCK)
    assert all((a is r) == (size <= surface._BLOCK) for a, r in generators)
    for got, row in ((angles, want[0]), (radii, want[1])):
        got = np.concatenate(got)
        assert np.array_equal(got.view(np.uint64), row.view(np.uint64))


def test_mc_traced_peak_is_one_block():
    # no array holds a chunk: a 10^5-sample call peaks at one block's
    # working set, 1.4 MB; with the chunk drawn whole and its values
    # buffered it peaked at 2.9 MB
    peak = _traced_peak(lambda: mc_average(6.0, 100_000, CuspIndicator(2.0), 3))
    assert peak <= 1.6e6


def test_mc_error_scaling():
    # stderr shrinks like 1/sqrt(N)
    small = mc_average(3.0, 20000, CuspIndicator(2.0), 3)
    large = mc_average(3.0, 180000, CuspIndicator(2.0), 3)
    ratio = small.standard_error / large.standard_error
    assert ratio == pytest.approx(3.0, rel=0.15)


def test_mc_converges_to_space_mean():
    # at t = 8 the exact disk average lies 0.00035 below the space mean,
    # about a third of the Monte Carlo noise at this sample size; the
    # estimate must match the exact value
    obs = CuspIndicator(2.0)
    run = mc_average(8.0, 200000, obs, 12)
    target = obs.ball_mean(8.0)
    assert -3.6e-4 < target - obs.mean() < -3.4e-4
    assert abs(run.estimate - target) <= 4.0 * run.standard_error


def test_mc_t_zero_is_orbit_limit():
    # At t = 0 the ball is the base point alone, and every sample is the
    # base point bit for bit; at t = 1e-9 every sample is within 1e-9 of
    # it.  Both give the observable at the base point exactly, with
    # standard error 0, for an observable that is 1 there and one that
    # is 0 there.
    base = HPoint(0.1, 1.3)
    for obs, value in ((DiskIndicator(base, 0.2), 1.0), (CuspIndicator(2.0), 0.0)):
        assert obs.eval_batch(np.array([base.x]), np.array([base.y]))[0] == value
        for t in (0.0, 1e-9):
            run = mc_average(t, 20000, obs, 3, base=base)
            assert (run.estimate, run.standard_error) == (value, 0.0)


def test_mc_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no draw may happen outside the range")

    monkeypatch.setattr(surface, "_draw_polar", refuse)
    monkeypatch.setattr(surface, "build_volume_profile", refuse)
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
    # the KS audit needs a positive radius and at least 100 samples
    for t, n in ((0.0, 100), (-1.0, 100), (math.nan, 100), (1.0, 99)):
        with pytest.raises(ValidationError):
            ks_radial_test(t, n, 1)
    # the refusal above guards every draw: a valid call reaches it
    with pytest.raises(AssertionError, match="no draw"):
        mc_average(1.0, 100, ConstantObservable(), 1)
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
    # the cusp line y = 1.2 runs through the base point: every disk of
    # positive radius about it straddles the line, and t = 0 is the base
    # point alone
    run = mc_average(t, 5000, CuspIndicator(1.2), 2, base=HPoint(0.1, 1.2))
    assert math.isfinite(run.estimate) and (run.standard_error > 0.0) == (t > 0.0)
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
        # sinh(t) for sinh(t/2): draws leave the ball, and fail the statistic
        lambda t, u: 2.0 * np.arcsinh(np.sqrt(u) * math.sinh(t)),
    ],
    ids=["uniform", "shrunk", "full-angle"],
)
def test_ks_rejects_wrong_radial_law(t, mutant, monkeypatch):
    monkeypatch.setattr(surface, "_so21_radius", mutant)
    assert not ks_radial_test(t, 20000, 4).ok


def test_radial_map_in_place_keeps_the_bits():
    # _so21_radius overwrites its uniforms with the radii the expression
    # gives, and the KS statistics read as before it did
    u = np.random.default_rng(2).random(1000)
    want = 2.0 * np.arcsinh(np.sqrt(u) * math.sinh(0.5 * 3.0))
    got = surface._so21_radius(3.0, u)
    assert got is u and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    pinned = [(0.1, 20000, 4, "0x1.17996e723d100p-8"), (3.0, 100000, 42, "0x1.4c3fe30c33400p-9"), (6.0, 20000, 4, "0x1.17996e723d0c0p-8")]
    for t, n, seed, statistic in pinned:
        assert ks_radial_test(t, n, seed).statistic.hex() == statistic


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


@pytest.mark.parametrize("grid", [[math.nan], [math.nan, 2.0, 3.0], [1.0, math.nan, 3.0], [1.0, 2.0, math.nan], []])
def test_decay_scan_rejects_nan_in_grid(grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Monte Carlo run started before the grid was validated")

    monkeypatch.setattr(surface, "mc_average", refuse)
    with pytest.raises(ValidationError, match="scan grid"):
        decay_scan(np.array(grid), 1000, CuspIndicator(2.0), 1)
