"""Hyperbolic geometry, domain reduction, and Monte Carlo on the modular surface."""

import math
import time

import mpmath
import numpy as np
import pytest

from rankone import ballavg, surface
from rankone.ballavg import build_volume_profile
from rankone.errors import ValidationError
from rankone.surface import (
    ConstantObservable,
    CuspIndicator,
    DiskIndicator,
    HPoint,
    Mat2,
    cartan_sample,
    decay_scan,
    hyp_dist,
    ks_radial_test,
    mc_average,
    observable_eval,
    observable_mean,
    parse_observable,
    reduce_to_domain,
    surface_group,
)

I = HPoint(0.0, 1.0)


def test_distance_closed_forms():
    # vertical geodesic: d(i, e*i) = 1
    assert hyp_dist(I, HPoint(0.0, math.e)) == pytest.approx(1.0, rel=1e-14)
    # horizontal displacement: cosh d = 1 + |z-w|^2/(2yy') = 3/2
    assert hyp_dist(I, HPoint(1.0, 1.0)) == pytest.approx(
        math.acosh(1.5), rel=1e-14
    )
    assert hyp_dist(I, HPoint(1.0, 1.0)) == pytest.approx(0.9624236501192069)
    assert hyp_dist(I, I) == 0.0


def test_mobius_action_is_isometry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        det = a * d - b * c
        if det <= 0.1:
            continue
        g = Mat2(a, b, c, d)
        z = HPoint(float(rng.normal()), float(np.exp(rng.normal())))
        w = HPoint(float(rng.normal()), float(np.exp(rng.normal())))
        assert hyp_dist(g.act(z), g.act(w)) == pytest.approx(hyp_dist(z, w), rel=1e-10)


def test_mat2_renormalizes_determinant():
    g = Mat2(2.0, 0.0, 0.0, 2.0)  # det 4 -> scaled to det 1
    assert g.a == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        Mat2(1.0, 0.0, 0.0, -1.0)  # negative determinant


def test_reduction_worked_example():
    z = HPoint(0.7, 0.4)
    reduced, word = reduce_to_domain(z)
    assert reduced.x == pytest.approx(0.2, abs=1e-12)
    assert reduced.y == pytest.approx(1.6, abs=1e-12)
    # word applied to the input reproduces the reduced point
    back = word.act(z)
    assert back.x == pytest.approx(reduced.x, abs=1e-12)
    assert back.y == pytest.approx(reduced.y, abs=1e-12)
    # integer word (up to overall sign in PSL(2, Z))
    entries = (word.a, word.b, word.c, word.d)
    assert all(e == round(e) for e in entries)
    assert {abs(word.a), abs(word.d)} == {1.0} and abs(word.c) == 1.0


def test_reduction_lands_in_domain():
    rng = np.random.default_rng(11)
    for _ in range(300):
        z = HPoint(float(rng.uniform(-30, 30)), float(np.exp(rng.uniform(-6, 3))))
        reduced, word = reduce_to_domain(z)
        assert abs(reduced.x) <= 0.5 + 1e-9
        assert reduced.x**2 + reduced.y**2 >= 1.0 - 1e-9
        # the word is an integer matrix of determinant one
        for e in (word.a, word.b, word.c, word.d):
            assert e == round(e)


def test_reduction_translation_invariance():
    # points differing by the unit translation reduce to the same spot
    z = HPoint(0.31, 0.9)
    shifted = HPoint(z.x + 1.0, z.y)
    r1, _ = reduce_to_domain(z)
    r2, _ = reduce_to_domain(shifted)
    assert r1.x == pytest.approx(r2.x, abs=1e-12)
    assert r1.y == pytest.approx(r2.y, abs=1e-12)


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


@pytest.mark.parametrize(
    "x, y",
    [(math.nan, 1.0), (0.2, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (0.2, math.inf), (0.2, 0.0), (0.2, -1.0)],
)
def test_reduction_rejects_bad_points_at_once(x, y):
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        surface._reduce_batch(np.array([0.3, x]), np.array([0.8, y]))
    assert time.perf_counter() - start < 1.0


def test_reduction_flags_nan_from_underflow():
    # below the floor |z|^2 can underflow to 0, and S would make x = 0/0;
    # such a point is outside the reduction's range and is rejected before
    # the first sweep, not left to the domain check
    for y in (1e-300, 5e-324, math.nextafter(1e-150, 0.0)):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            surface._reduce_batch(np.array([0.3, 0.0]), np.array([0.8, y]))
        assert time.perf_counter() - start < 1.0
    # at the floor itself y^2 is a normal double and S is exact
    reduced, _ = reduce_to_domain(HPoint(0.0, 1e-150))
    assert (reduced.x, reduced.y) == (0.0, 1e150)


def test_observable_means():
    # area(F) = pi/3; cusp strip above Y has area 1/Y
    assert observable_mean(CuspIndicator(2.0)) == pytest.approx(3.0 / (2.0 * math.pi))
    assert observable_mean(CuspIndicator(1.0)) == pytest.approx(3.0 / math.pi)
    assert observable_mean(ConstantObservable()) == 1.0
    disk = DiskIndicator(HPoint(0.0, 1.5), 0.2)
    assert observable_mean(disk) == pytest.approx(
        6.0 * (math.cosh(0.2) - 1.0), rel=1e-12
    )


def test_observable_eval():
    assert observable_eval(CuspIndicator(2.0), HPoint(0.1, 2.5)) == 1.0
    assert observable_eval(CuspIndicator(2.0), HPoint(0.1, 1.9)) == 0.0
    disk = DiskIndicator(HPoint(0.0, 1.5), 0.2)
    assert observable_eval(disk, HPoint(0.0, 1.5)) == 1.0
    assert observable_eval(disk, HPoint(0.4, 1.1)) == 0.0


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


def test_cartan_sample_radius_law():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = cartan_sample(3.0, rng)
        d = hyp_dist(I, g.act(I))
        assert d <= 3.0 + 1e-9


@pytest.mark.parametrize("t", [0.5, 2.0, 6.0, 10.0])
def test_sample_radius_closed_form_oracle(t):
    # On SO(2,1) m(B_tau) = 2 pi (cosh tau - 1), so the exact inverse of the
    # radial law of B_t is tau = arccosh(1 + u (cosh t - 1)), written here as
    # 2 arcsinh(sqrt(u) sinh(t/2)) to keep its digits at small u.
    profile = build_volume_profile(surface_group(), t)
    edges = np.array([0.0, 1e-12, 1e-6, 1.0 - 1e-12, 1.0])
    us = np.concatenate([edges, np.random.default_rng(11).random(20000)])
    taus = profile.sample_radius(t, us)
    exact = 2.0 * np.arcsinh(np.sqrt(us) * math.sinh(t / 2.0))
    assert np.max(np.abs(taus - exact)) <= 1e-8
    # the exact CDF at the drawn radius carries the interpolant's 1e-9 budget;
    # the profile's own CDF is inverted to the sampler's 1e-12 tolerance
    exact_cdf = (np.sinh(taus / 2.0) / math.sinh(t / 2.0)) ** 2
    np.testing.assert_allclose(exact_cdf, us, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(profile.cdf(taus, t), us, rtol=0.0, atol=1e-12)
    assert taus[0] == 0.0
    assert taus[4] <= t


def test_sample_radius_sub_ball_off_knot():
    profile = build_volume_profile(surface_group(), 5.0)
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


def test_mc_thread_count_invariance():
    # fixed chunking and substreams: worker count cannot move the estimate
    single = mc_average(3.0, 150000, CuspIndicator(2.0), 5, threads=1)
    multi = mc_average(3.0, 150000, CuspIndicator(2.0), 5, threads=4)
    assert single.estimate == multi.estimate
    assert single.standard_error == multi.standard_error


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
    target = observable_mean(CuspIndicator(2.0))
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
    r0 = hyp_dist(I, base)
    cos_arc = (math.cosh(r0) ** 2 - math.cosh(0.2)) / math.sinh(r0) ** 2
    orbit_mean = 2.0 * math.acos(cos_arc) / math.pi
    assert abs(at_zero.estimate - orbit_mean) <= 4.0 * at_zero.standard_error
    assert at_zero.estimate != observable_eval(obs, base)


def test_mc_validation():
    # radii outside the domain are rejected before any variate is drawn
    for t in (-1.0, math.nan, math.inf, -math.inf, 700.5):
        with pytest.raises(ValidationError):
            mc_average(t, 100, ConstantObservable(), 1)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            cartan_sample(t, rng)
        assert rng.bit_generator.state == state
    with pytest.raises(ValidationError):
        mc_average(1.0, 0, ConstantObservable(), 1)


@pytest.mark.parametrize("t", [0.0, 0.01, 6.0])
def test_mc_needs_no_volume_profile(t, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the MC path must not use the volume profile")

    monkeypatch.setattr(surface, "build_volume_profile", refuse)
    monkeypatch.setattr(ballavg, "_verify_profile", refuse)
    monkeypatch.setattr(ballavg.VolumeProfile, "sample_radius", refuse)
    run = mc_average(t, 5000, CuspIndicator(1.2), 2)
    assert math.isfinite(run.estimate) and run.standard_error > 0.0
    assert hyp_dist(I, cartan_sample(t, np.random.default_rng(1)).act(I)) <= t + 1e-9


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
