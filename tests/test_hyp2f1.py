"""Hypergeometric engine: closed forms, region overlap, library oracle."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from rankone import hyper
from rankone.errors import ConvergenceError, ValidationError
from rankone.groups import complementary, make_group, principal
from rankone.hyper import DegenerateParamWarning, gauss_2f1_neg
from rankone.spherical import MAX_PRINCIPAL_LAMBDA, spherical_fn_many


def test_elementary_closed_forms():
    # 2F1(1,1;2;x) = -ln(1-x)/x
    assert gauss_2f1_neg([1.0], [1.0], 2.0, -1.0)[0] == pytest.approx(math.log(2.0), rel=1e-13)
    # 2F1(1,1/2;3/2;-x^2) = arctan(x)/x
    assert gauss_2f1_neg([1.0], [0.5], 1.5, -1.0)[0] == pytest.approx(math.pi / 4.0, rel=1e-13)
    # 2F1(a,b;b;x) = (1-x)^(-a), b arbitrary
    for x in [-0.2, -2.0, -40.0]:
        got = gauss_2f1_neg([0.7], [1.9], 1.9, x)[0]
        assert got == pytest.approx((1.0 - x) ** -0.7, rel=1e-12)


def test_zero_parameter_short_circuit():
    ts = np.array([-0.1, -1.0, -100.0])
    assert np.all(gauss_2f1_neg([0.0], [0.5], 1.0, ts) == 1.0)
    assert np.all(gauss_2f1_neg([0.5], [0.0], 1.0, ts) == 1.0)


@pytest.mark.parametrize("zero", [(0.0, 0.3), (1.2, 0.0)])
def test_zero_pair_among_others_is_exact_and_changes_no_other_row(zero):
    # a pair with a = 0 or b = 0, wherever it stands beside a real pair and
    # a conjugate pair, gives exact ones in both regions, and the other
    # rows are bit for bit those of the call without it
    xs = np.array([-0.0, -0.2, -2.5, -7.0, -1e4])
    pairs = [(0.35, 0.95), (0.5 + 8.0j, 0.5 - 8.0j)]
    others = gauss_2f1_neg(*zip(*pairs), 1.5, xs)
    for at in range(len(pairs) + 1):
        rows = gauss_2f1_neg(*zip(*pairs[:at], zero, *pairs[at:]), 1.5, xs)
        assert [v.hex() for v in rows[at]] == ["0x1.0000000000000p+0"] * xs.size
        np.testing.assert_array_equal(np.delete(rows, at, axis=0), others)


def test_parameter_symmetry():
    xs = np.array([-0.3, -2.1, -17.0])
    a, b, c = 0.43, 1.27, 1.5
    ab = gauss_2f1_neg([a], [b], c, xs)[0]
    ba = gauss_2f1_neg([b], [a], c, xs)[0]
    np.testing.assert_allclose(ab, ba, rtol=1e-11)


def test_region_overlap_consistency():
    """The two evaluation regions agree where they meet, at |x| = 3."""
    a, b, c = 0.35, 0.95, 1.0
    # straddle the cutoff closely enough that the function's own motion
    # (about 2e-13 relative here) stays below the comparison tolerance
    x0 = -hyper._PFAFF_MAX
    left = gauss_2f1_neg([a], [b], c, x0 * (1.0 + 1e-12))[0]
    right = gauss_2f1_neg([a], [b], c, x0 * (1.0 - 1e-12))[0]
    assert left == pytest.approx(right, rel=1e-10)


@pytest.mark.parametrize("a, b, c", [(0.35, 0.95, 1.0), (0.5 + 8.0j, 0.5 - 8.0j, 1.5)])
def test_dispatch_splits_at_pfaff_max(a, b, c, monkeypatch):
    # every point goes to exactly one region: the Pfaff series up to
    # |x| = 3 inclusive, the connection formula beyond; each region is
    # entered once per call, with every triple of the call
    cut = hyper._PFAFF_MAX
    xs = np.array([-0.5, -3.5, 0.0, -cut, -1e4, -1e-300, np.nextafter(-cut, -np.inf), -0.25, -1.0])
    seen = {"pfaff": [], "connection": []}

    def spy(name, fn):
        def wrapped(triples, x):
            seen[name].append((list(triples), np.array(x, copy=True)))
            return fn(triples, x)

        return wrapped

    monkeypatch.setattr(hyper, "_pfaff_rows", spy("pfaff", hyper._pfaff_rows))
    monkeypatch.setattr(hyper, "_connection_rows", spy("connection", hyper._connection_rows))
    for triples in ([(a, b, c)], [(a, b, c), (b, a, c)]):
        for calls in seen.values():
            calls.clear()
        a_list, b_list, _ = zip(*triples)
        gauss_2f1_neg(a_list, b_list, c, xs)
        assert [len(calls) for calls in seen.values()] == [1, 1]
        (pfaff_triples, pfaff), (connection_triples, connection) = seen["pfaff"][0], seen["connection"][0]
        assert pfaff_triples == connection_triples == triples
        assert sorted(pfaff) == sorted(xs[np.abs(xs) <= cut])
        assert sorted(connection) == sorted(xs[np.abs(xs) > cut])
        assert pfaff.size + connection.size == xs.size


# The alternating defining series at x cancels here, to a relative error
# of 9.2e-4 at x = -1/2; the Pfaff series does not.
_CANCELLING_CASE = (26.660979201249983, 2.748971804920209, 1.6095898853313744)


def test_generic_real_parameters_small_x_against_mpmath():
    # The Pfaff series at y = x/(x-1) has coefficients (a)_n (c-b)_n /
    # ((c)_n n!), which alternate in sign while n < b - c, so the sampled
    # domain keeps c - b >= -5.  Far outside it both the Pfaff and the
    # defining series cancel; see CHANGES.md.
    rng = np.random.default_rng(2024)
    cases = [_CANCELLING_CASE]
    for _ in range(60):
        a, c = rng.uniform(0.05, 30.0), rng.uniform(0.5, 30.0)
        cases.append((a, rng.uniform(0.05, c + 5.0), c))
    xs = np.array([-0.01, -0.1, -0.25, -0.4, -0.5])
    mpmath.mp.dps = 30
    for a, b, c in cases:
        got = gauss_2f1_neg([a], [b], c, xs)[0]
        for x, value in zip(xs, got):
            ref = float(mpmath.hyp2f1(a, b, c, x))
            assert abs(value - ref) <= 1e-10 * abs(ref), (a, b, c, x)


# lam = 16 on t in (0, 0.658], where |x| = sinh(t)^2 <= 1/2
_SMALL_RADII = np.linspace(0.0, 0.658, 330)[1:]


def test_so3_principal_bound_at_small_radius():
    lam, ts = MAX_PRINCIPAL_LAMBDA, _SMALL_RADII
    got = spherical_fn_many(make_group("so", 3), principal(lam), ts)
    assert np.max(np.abs(got - np.sin(lam * ts) / (lam * np.sinh(ts)))) <= 1e-13


@pytest.mark.parametrize(
    "group", [make_group("so", 5), make_group("su", 3), make_group("sp", 2), make_group("f4")]
)
def test_principal_bound_at_small_radius_against_mpmath(group):
    lam, ts = MAX_PRINCIPAL_LAMBDA, _SMALL_RADII
    got = spherical_fn_many(group, principal(lam), ts)
    a, c = complex(group.rho, lam) / 2.0, group.alpha + 1.0
    mpmath.mp.dps = 40
    for t, value in zip(ts, got):
        x = -mpmath.sinh(mpmath.mpf(t)) ** 2
        ref = float(mpmath.re(mpmath.hyp2f1(a, a.conjugate(), c, x)))
        assert abs(value - ref) <= 1e-14, (group.label, t)


def test_against_mpmath_spots():
    mpmath.mp.dps = 30
    cases = [
        (0.25, 0.75, 1.0, -0.4),
        (0.25, 0.75, 1.0, -2.5),
        (0.25, 0.75, 1.0, -50.0),
        (0.6, 1.4, 1.5, -8.0),
        (1.2, 0.3, 2.5, -300.0),
    ]
    for a, b, c, x in cases:
        ref = float(mpmath.hyp2f1(a, b, c, x))
        got = gauss_2f1_neg([a], [b], c, x)[0]
        assert got == pytest.approx(ref, rel=1e-11), (a, b, c, x)


def test_conjugate_pair_returns_real():
    # principal-series shape: a, b = (rho +- i lam)/2
    a = 0.5 + 0.85j
    b = 0.5 - 0.85j
    vals = gauss_2f1_neg([a], [b], 1.0, np.array([-0.2, -5.0, -200.0]))[0]
    assert vals.dtype == np.float64
    mpmath.mp.dps = 30
    ref = float(mpmath.hyp2f1(a, b, 1.0, -5.0).real)
    assert vals[1] == pytest.approx(ref, rel=1e-10)


def test_degenerate_difference_warns_and_stays_accurate():
    # a - b exactly integral breaks the connection formula's gamma quotient
    a, b, c = 1.0, 0.5, 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateParamWarning):
            gauss_2f1_neg([a + 0.5], [b], c, -100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)
        got = gauss_2f1_neg([a + 0.5], [b], c, -100.0)[0]
    mpmath.mp.dps = 30
    ref = float(mpmath.hyp2f1(a + 0.5, b, c, -100.0))
    assert got == pytest.approx(ref, rel=1e-7)


def test_two_pair_average_at_a_degenerate_difference(monkeypatch):
    # so:5 at s = 1.000005: a - b lies 5e-6 from the integer 1, and of the
    # shifts by +-2 eps one would land nearer it than the shifts by +-eps,
    # so the connection formula averages the one pair, with no Richardson
    # step.  All four radii lie in the connection region, x < -3.
    lengths = []
    pairs = hyper._connection_pairs

    def recording(a, b):
        out = pairs(a, b)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(hyper, "_connection_pairs", recording)
    group, s = make_group("so", 5), 1.000005
    ts = np.array([1.5, 2.0, 5.0, 20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)
        phi = spherical_fn_many(group, complementary(s), ts)
    assert lengths == [2]
    a, b, c = (group.rho + s) / 2.0, (group.rho - s) / 2.0, group.alpha + 1.0
    mpmath.mp.dps = 40
    for t, value in zip(ts, phi):
        ref = float(mpmath.hyp2f1(a, b, c, -mpmath.sinh(mpmath.mpf(t)) ** 2))
        assert abs(value - ref) <= 5e-10 * ref, t


def test_positive_x_rejected():
    with pytest.raises(ValidationError):
        gauss_2f1_neg([0.5], [0.5], 1.0, 0.25)
    with pytest.raises(ValidationError):
        gauss_2f1_neg([0.5], [0.5], 1.0, [-0.2, math.nan])  # NaN fails the guard too
    with pytest.raises(ValidationError):
        gauss_2f1_neg([0.5], [0.5], -1.0, -0.25)  # c at a pole


# Inside each region, and exactly on the |x| = 3 cutoff.
_REGION_POINTS = (-0.2, -0.5, -1.4, -3.0, -11.0, -2500.0)


@pytest.mark.parametrize(
    "group", [make_group("so", 5), make_group("su", 3), make_group("sp", 2), make_group("f4")]
)
@pytest.mark.parametrize("kind", ["complementary", "principal"])
def test_spherical_parameters_against_mpmath(group, kind):
    # phi_s = 2F1((rho+s)/2, (rho-s)/2; alpha+1; x).  The complementary s
    # exceeds 1, so the connection series in 1/(1-x) runs with c' = 1 - s < 0.
    param = complementary(0.77 * group.rho) if kind == "complementary" else principal(2.7)
    s = param.s_complex(group)
    if kind == "complementary":
        s = s.real
        assert 1.0 - s < 0.0
    a, b, c = (group.rho + s) / 2.0, (group.rho - s) / 2.0, group.alpha + 1.0
    got = gauss_2f1_neg([a], [b], c, np.array(_REGION_POINTS))[0]
    mpmath.mp.dps = 40
    for x, value in zip(_REGION_POINTS, got):
        ref = float(mpmath.re(mpmath.hyp2f1(a, b, c, x)))
        assert abs(value - ref) <= max(1e-12 * abs(ref), 1e-13), (group.label, kind, x)


def test_series_term_cap_raises():
    # 2F1(1/2, 1/2; 1; -1/2) needs far more than three terms
    with pytest.raises(ConvergenceError):
        hyper._sums([hyper._Series(0.5, 0.5, 1.0, max_terms=3)], np.array([-0.5]))[0]


def test_empty_argument_returns_empty():
    assert hyper._sums([hyper._Series(0.5, 0.5, 1.0, max_terms=300)], np.zeros(0))[0].shape == (0,)
    assert gauss_2f1_neg([0.5 + 0.3j], [0.5 - 0.3j], 1.0, np.zeros(0))[0].shape == (0,)


@pytest.mark.parametrize("lam", [0.25, 10.0])
def test_so3_principal_closed_form_all_regions(lam):
    # phi = sin(lam t)/(lam sinh t); x = -sinh(t)^2 crosses the cutoff on [0, 8]
    ts = np.linspace(0.0, 8.0, 1601)
    x = -np.sinh(ts) ** 2
    assert np.any(x >= -3.0) and np.any(x < -3.0)
    got = spherical_fn_many(make_group("so", 3), principal(lam), ts)
    exact = np.ones_like(ts)
    exact[1:] = np.sin(lam * ts[1:]) / (lam * np.sinh(ts[1:]))
    assert np.max(np.abs(got - exact)) <= 1e-10


# (p, q, c, y range), each with a zero of its sum inside the range, so some
# points miss their tail bound and take the re-pass:
#   real: real coefficients with a sign change near y = 0.297;
#   conjugate: the defining series of so:3 at lam = 5, q = conj(p), whose
#     coefficients are real, with the zero of phi at t = pi/5;
#   pfaff: the Pfaff series of the same phi, complex and not conjugate,
#     with the zero of phi at t = 2 pi/5.
_LAM5 = 0.5 + 2.5j
_SERIES_CASES = {
    "real": (-4.5, 2.25, 1.5, 0.0, 0.75),
    "conjugate": (_LAM5, _LAM5.conjugate(), 1.5, -0.5, 0.0),
    "pfaff": (_LAM5, 1.5 - _LAM5.conjugate(), 1.5, 0.5 / 1.5, 0.75),
}


@pytest.mark.parametrize("case", sorted(_SERIES_CASES))
def test_series_sum_over_two_blocks_against_mpmath(case, monkeypatch):
    p, q, c, lo, hi = _SERIES_CASES[case]
    probe = hyper._Series(p, q, c, max_terms=1200)
    probe.grow(max(abs(lo), abs(hi)), hyper._SERIES_TOL)
    block = hyper._TABLE_BYTES // (8 * len(probe.coeffs))
    y = np.linspace(lo, hi, block + 1)  # one point past the first block

    fills = []
    fill = hyper._fill_powers

    def spy(table, ys):
        fills.append((table.nbytes, ys.copy()))
        fill(table, ys)

    monkeypatch.setattr(hyper, "_fill_powers", spy)
    got = hyper._sums([hyper._Series(p, q, c, max_terms=1200)], y)[0]
    assert [ys.size for _, ys in fills[:2]] == [block, 1]
    assert len(fills) > 2, "no point took the re-pass"
    assert all(nbytes <= hyper._TABLE_BYTES for nbytes, _ in fills)

    repassed = np.flatnonzero(np.isin(y, np.concatenate([ys for _, ys in fills[2:]])))
    check = np.union1d(np.union1d(repassed, np.arange(0, y.size, 40)), [block - 1, block])
    mpmath.mp.dps = 30
    for i in check:
        ref = complex(mpmath.hyp2f1(p, q, c, y[i]))
        assert abs(got[i] - ref) <= 1e-14 * max(1.0, abs(ref)), (case, y[i])


def test_sums_skip_the_per_point_check_when_no_point_is_flagged(monkeypatch):
    # Positive parameters at y in [0, 1/2]: every sum is at least 1, far
    # above the tail bound at max|y|, so the first screen flags no point.
    calls = []
    misses = hyper._Series.misses

    def spy(self, ys, sums):
        calls.append(ys.size)
        return misses(self, ys, sums)

    monkeypatch.setattr(hyper._Series, "misses", spy)
    params = [(0.5, 0.7, 1.5), (1.2, 0.3, 2.0)]
    y = np.linspace(0.0, 0.5, 201)
    got = hyper._sums([hyper._Series(p, q, c, max_terms=300) for p, q, c in params], y)
    assert calls == []
    mpmath.mp.dps = 30
    for (p, q, c), row in zip(params, got):
        for i in range(0, y.size, 50):
            ref = float(mpmath.hyp2f1(p, q, c, y[i]))
            assert abs(row[i] - ref) <= 1e-14 * ref, (p, q, c, y[i])


@pytest.mark.parametrize("rho, lam, c", [(1.0, 5.0, 1.5), (2.0, 0.3, 2.5), (3.0, 9.3, 2.0), (11.0, 7.0, 8.5)])
def test_conjugate_pair_connection_against_mpmath(rho, lam, c):
    # b = conj(a), c real: the connection formula evaluates one term and
    # doubles its real part
    a = complex(rho, lam) / 2.0
    xs = np.array([-3.5, -50.0, -2500.0])
    got = gauss_2f1_neg([a], [a.conjugate()], c, xs)[0]
    mpmath.mp.dps = 30
    for x, value in zip(xs, got):
        ref = float(mpmath.re(mpmath.hyp2f1(a, a.conjugate(), c, x)))
        assert abs(value - ref) <= 1e-12 * abs(ref), (rho, lam, x)


@pytest.mark.parametrize(
    "group", [make_group("so", 5), make_group("su", 3), make_group("sp", 2), make_group("f4")]
)
def test_principal_frequency_bound_against_mpmath(group):
    # The bound is measured on so:3; the larger groups are no worse there.
    # Radii straddle the region cutoff |x| = 3 (t = 1.3169), where the
    # Pfaff series cancels most.
    lam = MAX_PRINCIPAL_LAMBDA
    ts = np.array([0.3, 0.658, 0.66, 1.0, 1.298, 1.316, 1.32, 3.0, 12.0])
    got = spherical_fn_many(group, principal(lam), ts)
    a, c = complex(group.rho, lam) / 2.0, group.alpha + 1.0
    mpmath.mp.dps = 40
    for t, value in zip(ts, got):
        x = -mpmath.sinh(mpmath.mpf(t)) ** 2
        ref = float(mpmath.re(mpmath.hyp2f1(a, a.conjugate(), c, x)))
        assert abs(value - ref) <= 1e-10, (group.label, t)


def test_several_triples_in_one_call():
    # one row per pair, each equal to that pair's own call up to the
    # rounding of the shared matrix product, which the lam = 16 conjugate
    # pair's cancelling Pfaff series magnifies; c is shared, and x keeps
    # its shape in every row
    xs = np.array([[-0.2, -2.5], [-7.0, -1e4]])
    pairs = [(0.35, 0.95), (0.5 + 8.0j, 0.5 - 8.0j), (1.5, 0.5), (0.0, 0.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateParamWarning)  # 1.5 - 0.5 is an integer
        rows = gauss_2f1_neg(*zip(*pairs), 1.5, xs)
        assert rows.shape == (4, 2, 2) and rows.dtype == np.float64
        for row, (a, b) in zip(rows, pairs):
            np.testing.assert_allclose(row, gauss_2f1_neg([a], [b], 1.5, xs)[0], rtol=1e-13, atol=0.0)
    shared = gauss_2f1_neg([0.35, 0.95], [0.95, 0.35], 1.0, -5.0)
    assert shared.shape == (2,)
    assert shared[0] == pytest.approx(shared[1], rel=1e-14)


@pytest.mark.parametrize(
    "a, b, c",
    [
        ([0.35, 0.5 + 1.0j], [0.95, 0.5 - 0.9j], 1.0),  # complex, not a conjugate pair
        ([0.35, 0.5 + 1.0j], [0.95, 0.25], 1.0),  # complex a with real b: no real row
        ([0.5 + 1.0j], [0.5 - 1.0j], 1.5 + 0.5j),  # complex c
        ([0.5 + 1.0j], [0.5 - 1.0j], 1.5 + 0.0j),  # complex c, even with no imaginary part
        ([0.35, 0.5], [0.95], 1.0),  # unequal lengths
    ],
)
def test_outside_domain_rejected_before_any_work(a, b, c, monkeypatch):
    # each pair must be real or conjugate, c real, and a and b of one length
    def refuse(triples, x):
        raise AssertionError("series work began")

    monkeypatch.setattr(hyper, "_pfaff_rows", refuse)
    monkeypatch.setattr(hyper, "_connection_rows", refuse)
    with pytest.raises(ValidationError):
        gauss_2f1_neg(a, b, c, np.array([-0.5, -50.0]))


@pytest.mark.parametrize("group, s", [(make_group("sp", 2), 4.5), (make_group("f4"), 9.9), (make_group("f4"), 7.3)])
def test_real_connection_against_mpmath_at_negative_gamma_arguments(group, s):
    # complementary s near rho' puts b - a and c - a below 0, so the real
    # Gamma quotient takes each Gamma's sign apart; phi's triple (shift 0)
    # and psi's kernel (shift 1), on the connection region
    xs = np.array([-3.5, -20.0, -400.0, -1e5, -1e9])
    mpmath.mp.dps = 30
    for shift in (0.0, 1.0):
        a, b, c = (group.rho + s) / 2.0 + shift, (group.rho - s) / 2.0 + shift, group.alpha + 1.0 + shift
        assert b - a < 0.0 and c - a < 0.0
        got = gauss_2f1_neg([a], [b], c, xs)[0]
        assert got.dtype == np.float64
        for x, value in zip(xs, got):
            ref = float(mpmath.hyp2f1(a, b, c, x))
            assert abs(value - ref) <= 1e-13 * abs(ref), (group.label, s, shift, x)


def test_real_gamma_quotient():
    # real arguments give a real quotient, each Gamma with its own sign
    got = hyper._gamma_quotient((4.0, -4.5), (0.25, -0.75))
    mpmath.mp.dps = 30
    ref = mpmath.gamma(4.0) * mpmath.gamma(-4.5) / (mpmath.gamma(0.25) * mpmath.gamma(-0.75))
    assert isinstance(got, float) and got == pytest.approx(float(ref), rel=1e-14)
    # beyond double range the quotient goes through ln_gamma
    big = hyper._gamma_quotient((200.0, 0.5), (180.0, 1.5))
    ref = mpmath.gamma(200) * mpmath.gamma(0.5) / (mpmath.gamma(180) * mpmath.gamma(1.5))
    assert complex(big).real == pytest.approx(float(ref), rel=1e-12)
    # a pole of a denominator Gamma gives 0, of a numerator Gamma raises
    assert hyper._gamma_quotient((4.0, -4.5), (-2.0, 3.0)) == 0.0
    with pytest.raises(ValidationError):
        hyper._gamma_quotient((4.0, -3.0), (0.25, 1.5))
