"""Spectral model: diagonal averaging, deviation decay, grids and series."""

import json
import math

import mpmath
import numpy as np
import pytest

import rankone.ballavg
import rankone.spherical
from rankone import model
from rankone.ballavg import psi_on_grid
from rankone.errors import ValidationError
from rankone.groups import complementary, make_group, principal, trivial
from rankone.model import (
    PuritySpectrum,
    SpectralVector,
    deviation_on_grid,
    direction_convergence,
    discrete_constant_report,
    finite_sum_check,
    load_spectrum,
    theorem_mean_report,
    time_grid,
)


@pytest.fixture(scope="module")
def h3():
    return make_group("so", 3)


@pytest.fixture(scope="module")
def spec(h3):
    return PuritySpectrum(
        group=h3,
        atoms=(1.0, 0.7),
        r=0.4,
        omega=((complementary(0.4), 1.0), (principal(1.0), 1.0)),
    )


@pytest.fixture(scope="module")
def unit_f():
    return SpectralVector(atom_norms=(1.0, 1.0), omega_norms=(1.0, 1.0))


def test_average_preserves_constants(spec):
    ts = np.array([0.5, 5.0, 20.0])
    # atom 0, the constants, is the trivial parameter: psi is 1 there and
    # _multipliers gives it no row
    assert np.all(psi_on_grid(spec.group, trivial(), ts) == 1.0)  # exact, not approximate
    rows = model._multipliers(spec, ts, atoms=True)
    assert rows.shape == (len(spec.atoms) - 1 + len(spec.omega), ts.size)
    atom, omega = rows[: len(spec.atoms) - 1], rows[len(spec.atoms) - 1 :]
    assert np.all(np.abs(atom) < 1.0)
    assert np.all(np.abs(omega) < 1.0)
    np.testing.assert_allclose(model._multipliers(spec, ts, atoms=False), omega, rtol=0.0, atol=1e-15)


def test_deviation_single_component_is_psi(h3):
    # one omega component of unit norm: deviation = |psi|
    sp = PuritySpectrum(group=h3, atoms=(1.0,), r=0.4, omega=((complementary(0.4), 1.0),))
    f = SpectralVector(atom_norms=(3.0,), omega_norms=(1.0,))
    ts = np.array([2.0, 5.0, 9.0])
    dev = deviation_on_grid(sp, f, ts)
    psi_vals = np.abs(psi_on_grid(h3, complementary(0.4), ts))
    np.testing.assert_allclose(dev, psi_vals, rtol=1e-12)


def test_deviation_ignores_atoms(spec):
    # atoms are reproduced by the projection, so they never contribute
    heavy = SpectralVector(atom_norms=(40.0, 9.0), omega_norms=(1.0, 1.0))
    light = SpectralVector(atom_norms=(0.0, 0.0), omega_norms=(1.0, 1.0))
    assert deviation_on_grid(spec, heavy, [3.0])[0] == pytest.approx(
        deviation_on_grid(spec, light, [3.0])[0], rel=1e-14
    )


def test_deviation_homogeneous(spec, unit_f):
    doubled = SpectralVector(atom_norms=(1.0, 1.0), omega_norms=(2.0, 2.0))
    assert deviation_on_grid(spec, doubled, [4.0])[0] == pytest.approx(
        2.0 * deviation_on_grid(spec, unit_f, [4.0])[0], rel=1e-13
    )


def test_mean_report_envelope(spec, unit_f):
    report = theorem_mean_report(spec, unit_f, np.linspace(1.0, 40.0, 79))
    assert math.isfinite(report.sup_ratio)
    assert report.sup_ratio > 0.0
    # deviations must decay at the spectral-gap rate rho - r = 0.6
    assert report.fitted_exponent == pytest.approx(-0.6, abs=0.05)
    # envelope evaluated independently
    np.testing.assert_allclose(
        report.envelopes,
        report.ts * np.exp(-0.6 * report.ts) * unit_f.norm(),
        rtol=1e-12,
    )


def test_mean_report_grid_validation(spec, unit_f):
    with pytest.raises(ValidationError):
        theorem_mean_report(spec, unit_f, np.array([0.5, 2.0]))  # below t = 1
    with pytest.raises(ValidationError):
        theorem_mean_report(spec, unit_f, np.array([2.0, 2.0]))  # not increasing


@pytest.mark.parametrize("report", [theorem_mean_report, direction_convergence, deviation_on_grid])
@pytest.mark.parametrize("grid", [[math.nan], [math.nan, 2.0, 3.0], [1.0, math.nan, 3.0], [1.0, 2.0, math.nan]])
def test_reports_reject_nan_in_grid(spec, unit_f, report, grid, monkeypatch):
    # any evaluation of Delta, a 2F1 or a ball volume means work started
    # before validation
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel ran before the grid was validated")

    for name in ("delta", "_jacobi_2f1", "_ball_volumes"):
        monkeypatch.setattr(rankone.ballavg, name, refuse)
    with pytest.raises(ValidationError, match="time grid"):
        report(spec, unit_f, np.array(grid))


@pytest.mark.parametrize(
    "report, args, triples",
    [
        (theorem_mean_report, (np.linspace(1.0, 40.0, 79),), 2),
        (direction_convergence, (np.array([10.0, 20.0, 40.0]),), 3),
        (discrete_constant_report, (0.1, 40), 2),
    ],
)
def test_each_report_is_one_volume_pass(spec, unit_f, report, args, triples, monkeypatch):
    # every component's multiplier comes from one batched psi: one 2F1 call
    # with a triple per component, and one _ball_volumes pass
    kernels, volumes = [], []
    kernel, volume = rankone.spherical.gauss_2f1_neg, rankone.ballavg._ball_volumes

    def counting_kernel(a, b, c, x):
        kernels.append(len(a))
        return kernel(a, b, c, x)

    def counting_volume(group, radii):
        volumes.append(np.size(radii))
        return volume(group, radii)

    monkeypatch.setattr(rankone.spherical, "gauss_2f1_neg", counting_kernel)
    monkeypatch.setattr(rankone.ballavg, "_ball_volumes", counting_volume)
    report(spec, unit_f, *args)
    assert kernels == [triples]
    assert len(volumes) == 1


def test_direction_convergence_monotone(spec, unit_f):
    ts = np.array([5.0, 10.0, 20.0, 40.0])
    dists = direction_convergence(spec, unit_f, ts)
    assert np.all(np.diff(dists) < 0.0)
    assert dists[-1] < 1e-3


def test_direction_requires_second_atom(h3, spec):
    only_constant = PuritySpectrum(group=h3, atoms=(1.0,), r=0.4, omega=())
    f = SpectralVector(atom_norms=(1.0,), omega_norms=())
    with pytest.raises(ValidationError):
        direction_convergence(only_constant, f, np.array([2.0]))
    silent = SpectralVector(atom_norms=(1.0, 0.0), omega_norms=(1.0, 1.0))
    with pytest.raises(ValidationError):
        direction_convergence(spec, silent, np.array([2.0]))


def test_vector_validation():
    with pytest.raises(ValidationError):
        SpectralVector(atom_norms=(1.0, -0.5))
    with pytest.raises(ValidationError):
        SpectralVector(atom_norms=(math.inf,))


def test_spectrum_alignment_enforced(spec):
    short = SpectralVector(atom_norms=(1.0,), omega_norms=(1.0, 1.0))
    with pytest.raises(ValidationError):
        deviation_on_grid(spec, short, [2.0])
    for omega in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValidationError, match="omega entries"):
            deviation_on_grid(spec, SpectralVector(atom_norms=(1.0, 1.0), omega_norms=omega), [2.0])


def test_invalid_spectrum_rejected(h3):
    with pytest.raises(ValidationError, match="invalid spectrum"):
        PuritySpectrum(group=h3, atoms=(1.0, 0.2), r=0.4, omega=())


def test_reference_spectrum_builds(h3):
    # re s = r is allowed on omega; the fields are normalized to float tuples
    spec = PuritySpectrum(
        group=h3, atoms=[1, 0.7], r=0.4, omega=[(complementary(0.4), 1), (principal(1.0), 1)]
    )
    assert spec.atoms == (1.0, 0.7)
    assert spec.omega == ((complementary(0.4), 1.0), (principal(1.0), 1.0))


@pytest.mark.parametrize("group, atoms, r, omega, named", [
    (("so", 3), (0.9,), 0.4, (), "s_0 = 0.9 != rho = 1.0"),
    (("so", 3), (1.0, 0.7, 0.7), 0.4, (), "atoms not strictly decreasing at index 2"),
    (("so", 3), (1.0, 0.3), 0.4, (), "atom s_1 = 0.3 is not above r = 0.4"),
    (("su", 3, 2.0), (3.0, 2.5), 1.0, (), "atom s_1 = 2.5 exceeds rho' = 2.0"),
    (("so", 3), (1.0,), 0.0, (), "r = 0.0 must be positive"),
    (("so", 3), (), 0.4, (), "atom list is empty"),
    (("so", 3), (1.0,), 0.4, ((principal(1.0), -2.0),), "omega[0] weight -2.0 must be finite"),
    (("so", 3), (1.0,), 0.4, ((principal(1.0), math.inf),), "omega[0] weight inf must be finite"),
    (("so", 3), (1.0,), 0.4, ((principal(1.0), math.nan),), "omega[0] weight nan must be finite"),
    (("so", 3), (1.0,), 0.4, ((complementary(0.5), 1.0),), "omega[0] (c:0.5) has re_s = 0.5 > r = 0.4"),
], ids=["s0-not-rho", "not-decreasing", "atom-below-r", "atom-above-rho-prime", "r-not-positive",
        "no-atoms", "negative-weight", "infinite-weight", "nan-weight", "omega-above-r"])
def test_spectrum_rejects_each_violation(group, atoms, r, omega, named):
    with pytest.raises(ValidationError) as info:
        PuritySpectrum(group=make_group(*group), atoms=atoms, r=r, omega=omega)
    # the one violation, named alone
    assert str(info.value).startswith("invalid spectrum: " + named)
    assert "; " not in str(info.value)


def test_spectrum_lists_every_violation(h3):
    # wrong s_0, non-decreasing atoms, both atoms below r, omega above r
    with pytest.raises(ValidationError) as info:
        PuritySpectrum(group=h3, atoms=(0.9, 0.9), r=0.95, omega=((complementary(0.99), 1.0),))
    violations = str(info.value).removeprefix("invalid spectrum: ").split("; ")
    assert len(violations) == 5
    assert violations[0].startswith("s_0 = 0.9 != rho")
    assert violations[1].startswith("atoms not strictly decreasing")
    assert violations[4].startswith("omega[0] (c:0.99) has re_s")


def test_time_grid_structure():
    # delta = 0.5: m = 1 contributes floor(e^{0.25}) + 1 = 2 intervals
    ts = time_grid(0.5, 2)
    assert ts[0] == 1.0
    assert np.all(np.diff(ts) > 0.0)
    assert ts[-1] == 3.0
    # each [m, m+1] is split evenly
    m1 = ts[(ts > 1.0) & (ts <= 2.0)]
    assert len(m1) == 2 and m1[0] == pytest.approx(1.5)


@pytest.mark.parametrize("m_max", [2, 40])
def test_time_grid_matches_block_concatenation(m_max):
    # the one-array fill gives the bits of the list-of-blocks construction
    blocks = [np.array([1.0])]
    for m in range(1, m_max + 1):
        q = model._interval_count(0.5, m)
        blocks.append(m + np.arange(1, q + 1, dtype=np.float64) / q)
    expected = np.concatenate(blocks)
    ts = time_grid(0.5, m_max)
    assert ts.dtype == expected.dtype and ts.shape == expected.shape
    assert ts.tobytes() == expected.tobytes()


def test_time_grid_growth_capped(monkeypatch):
    with pytest.raises(ValidationError, match="above the cap"):
        time_grid(2.0, 60)
    with pytest.raises(ValidationError, match="above the cap"):
        time_grid(0.5, 56)  # 5436776 points; m_max = 55 is the last within the cap

    # e^{delta m_max/2} overflows a double: rejected before any count is formed
    def refuse(*args):
        raise AssertionError("an interval count was formed")

    monkeypatch.setattr(model, "_interval_count", refuse)
    with pytest.raises(ValidationError, match="above the cap"):
        time_grid(0.5, 5000)


def test_finite_sum_closed_form_vs_enumeration():
    report = finite_sum_check(0.5, 40, enumerate_limit=40)
    assert report.enumeration_max_rel_gap < 1e-12


def test_finite_sum_domination():
    report = finite_sum_check(0.5, 200, enumerate_limit=60)
    assert report.domination_checked_to == 60
    assert report.domination_min_slack >= -1e-12
    assert report.cauchy_m == 100
    assert report.cauchy_gap < 1e-6
    # partial sums are nondecreasing (late increments sit below one ulp)
    # and bounded by the dominating series
    assert np.all(np.diff(report.partial_sums) >= 0.0)
    assert np.all(report.partial_sums <= report.dominating_partial_sums)


def _interval_sum_mpmath(delta: float, m: int, q: int) -> float:
    # sum_{j=1..q} (m + j/q)^2 e^{-delta (m + j/q)} from the textbook
    # geometric sums, at a precision that survives their cancellation
    with mpmath.workdps(400):
        y = mpmath.exp(-mpmath.mpf(delta) / q)
        g0 = y * (1 - y**q) / (1 - y)
        g1 = y * (1 - (q + 1) * y**q + q * y ** (q + 1)) / (1 - y) ** 2
        g2 = y * (
            1 + y - (q + 1) ** 2 * y**q + (2 * q * q + 2 * q - 1) * y ** (q + 1) - q * q * y ** (q + 2)
        ) / (1 - y) ** 3
        return float(mpmath.exp(-mpmath.mpf(delta) * m) * (m * m * g0 + 2 * m * g1 / q + g2 / q**2))


@pytest.mark.parametrize("delta", [0.45, 0.5, 0.55])
@pytest.mark.parametrize("m", [1, 20, 40])
def test_interval_enumerate_matches_the_array_expression(delta, m):
    # the in-place buffers give the bits of the plain elementwise expression
    q = model._interval_count(delta, m)
    points = m + np.arange(1, q + 1, dtype=np.float64) / q
    terms = points**2 * np.exp(-delta * points)
    esum, worst = model._interval_enumerate(delta, m)
    assert np.float64(esum).tobytes() == np.sum(terms).tobytes()
    assert np.float64(worst).tobytes() == np.max(terms).tobytes()


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.05, 0.5])
@pytest.mark.parametrize("m", [1, 10, 40])
def test_interval_sum_closed_against_mpmath(delta, m):
    # below delta = 0.1 the closed form's numerators would cancel to about
    # delta^2 and delta^3; the series form keeps every digit
    exact = _interval_sum_mpmath(delta, m, model._interval_count(delta, m))
    assert model._interval_sum_closed(delta, m) == pytest.approx(exact, rel=1e-13, abs=0.0)


# largest = floor(2 (ln delta + 100 ln 10) / delta), the last m_max with
# delta e^{-delta m_max/2} >= 1e-100.
@pytest.mark.parametrize("delta, largest", [(0.05, 9090), (0.5, 918), (3.0, 154)])
def test_finite_sum_domain(delta, largest, monkeypatch):
    report = finite_sum_check(delta, largest, enumerate_limit=5)
    assert np.all(np.isfinite(report.interval_sums))
    assert math.isfinite(report.cauchy_gap)
    exact = _interval_sum_mpmath(delta, largest, model._interval_count(delta, largest))
    assert report.interval_sums[-1] == pytest.approx(exact, rel=1e-12)

    def refuse(*args):
        raise AssertionError("an interval sum was formed")

    monkeypatch.setattr(model, "_interval_sum_closed", refuse)
    with pytest.raises(ValidationError, match="outside the domain"):
        finite_sum_check(delta, largest + 1)


def test_finite_sum_enumeration_domain(monkeypatch):
    # at delta = 0.5 the enumeration may reach m = 61, e^15.25 points in its
    # last interval, but not m = 62, e^15.5 > 5e6
    enumerated = []

    def closed(delta, m):
        enumerated.append(m)
        return model._interval_sum_closed(delta, m), 0.0

    monkeypatch.setattr(model, "_interval_enumerate", closed)
    report = finite_sum_check(0.5, 80, enumerate_limit=61)
    assert enumerated == list(range(1, 62)) and report.domination_checked_to == 61

    def refuse(*args):
        raise AssertionError("an interval was enumerated")

    monkeypatch.setattr(model, "_interval_enumerate", refuse)
    for delta, m_max, limit in ((0.5, 80, 62), (0.5, 62, 200), (2.0, 40, 60)):
        with pytest.raises(ValidationError):
            finite_sum_check(delta, m_max, enumerate_limit=limit)


@pytest.mark.parametrize("limit", [0, -5])
def test_finite_sum_rejects_empty_enumeration(limit):
    # a domination certificate over no intervals certifies nothing
    with pytest.raises(ValidationError, match="enumerate_limit"):
        finite_sum_check(0.5, 12, enumerate_limit=limit)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, f: time_grid(0.0, 10),
        lambda spec, f: time_grid(-0.5, 10),
        lambda spec, f: time_grid(math.nan, 10),
        lambda spec, f: time_grid(0.5, 0),
        lambda spec, f: finite_sum_check(0.0, 10),
        lambda spec, f: finite_sum_check(-0.5, 10),
        lambda spec, f: finite_sum_check(0.5, 0),
        lambda spec, f: discrete_constant_report(spec, f, 0.0, 10),
        lambda spec, f: discrete_constant_report(spec, f, -0.5, 10),
        lambda spec, f: discrete_constant_report(spec, f, 0.5, 0),
    ],
    ids=["grid-delta-0", "grid-delta-neg", "grid-delta-nan", "grid-m-max-0",
         "sum-delta-0", "sum-delta-neg", "sum-m-max-0",
         "series-eps-0", "series-eps-neg", "series-n-max-0"],
)
def test_grid_and_series_reject_bad_input_before_work(spec, unit_f, call, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the input was validated")

    for name in ("_interval_count", "_interval_sum_closed", "_interval_enumerate", "_psi_rows"):
        monkeypatch.setattr(model, name, refuse)
    with pytest.raises(ValidationError):
        call(spec, unit_f)


def test_discrete_constant_consistent(spec, unit_f):
    eps = 0.5
    r60 = discrete_constant_report(spec, unit_f, eps, n_max=60)
    r120 = discrete_constant_report(spec, unit_f, eps, n_max=120)
    assert np.all(np.diff(r60.partial_constants) >= 0.0)
    # the comparison coefficient dominates every term, recomputed here
    ns = np.arange(1, 61, dtype=np.float64)
    assert np.max(r60.terms * ns ** (1.0 + 2.0 * eps)) <= r60.comparison_coefficient * (
        1.0 + 1e-12
    )
    # and its tail bound covers the actually-computed continuation
    extra = r120.partial_constants[-1] ** 2 - r60.partial_constants[-1] ** 2
    assert extra <= r60.tail_bound * (1.0 + 1e-9)
    assert math.isfinite(r60.tail_bound)


def test_load_spectrum_round_trip(tmp_path, spec, unit_f):
    cfg = {
        "group": "so:3",
        "atoms": [1.0, 0.7],
        "r": 0.4,
        "omega": [{"param": "c:0.4", "weight": 1.0}, {"param": "p:1.0", "weight": 1.0}],
        "f": {"atom_norms": [1.0, 1.0], "omega_norms": [1.0, 1.0]},
    }
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(cfg))
    loaded_spec, loaded_f = load_spectrum(str(path))
    assert loaded_spec == spec
    assert loaded_f == unit_f


def test_load_spectrum_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_spectrum(str(path))
    with pytest.raises(ValidationError):
        load_spectrum({"group": "so:3"})  # missing keys
    with pytest.raises(ValidationError):
        load_spectrum(
            {
                "group": "so:3",
                "atoms": [1.0],
                "r": 0.4,
                "omega": [],
                "f": {"atom_norms": [1.0, 1.0], "omega_norms": []},
            }
        )  # misaligned norms
    # a config that is not a mapping, and fields that are not numbers
    for cfg in ([1, 2], 3.0, None):
        with pytest.raises(ValidationError, match="mapping"):
            load_spectrum(cfg)
    good = {
        "group": "so:3",
        "atoms": [1.0, 0.7],
        "r": 0.4,
        "omega": [{"param": "c:0.4", "weight": 1.0}],
        "f": {"atom_norms": [1.0, 1.0], "omega_norms": [1.0]},
    }
    load_spectrum(good)
    for key, value in (
        ("atoms", [1.0, "x"]),
        ("atoms", 0.7),
        ("r", "x"),
        ("r", None),
        ("omega", [{"param": "c:0.4", "weight": "heavy"}]),
        ("f", {"atom_norms": [1.0, "x"], "omega_norms": [1.0]}),
    ):
        with pytest.raises(ValidationError, match="bad spectrum config"):
            load_spectrum({**good, key: value})
