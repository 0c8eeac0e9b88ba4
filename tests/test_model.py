"""Spectral model: diagonal averaging, deviation decay, grids and series."""

import json
import math

import numpy as np
import pytest

import rankone.ballavg
from rankone.ballavg import psi_on_grid
from rankone.errors import ValidationError
from rankone.groups import complementary, make_group, principal
from rankone.model import (
    PuritySpectrum,
    SpectralVector,
    apply_average,
    deviation_norm,
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


def test_average_preserves_constants(spec, unit_f):
    out = apply_average(spec, unit_f, 5.0)
    assert out.atom_norms[0] == 1.0  # exact, not approximate
    assert out.atom_norms[1] < 1.0
    assert all(v < 1.0 for v in out.omega_norms)


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
    assert deviation_norm(spec, heavy, 3.0) == pytest.approx(
        deviation_norm(spec, light, 3.0), rel=1e-14
    )


def test_deviation_homogeneous(spec, unit_f):
    doubled = SpectralVector(atom_norms=(1.0, 1.0), omega_norms=(2.0, 2.0))
    assert deviation_norm(spec, doubled, 4.0) == pytest.approx(
        2.0 * deviation_norm(spec, unit_f, 4.0), rel=1e-13
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
    # any evaluation of Delta or a 2F1 means work started before validation
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature ran before the grid was validated")

    monkeypatch.setattr(rankone.ballavg, "delta", refuse)
    monkeypatch.setattr(rankone.ballavg, "_jacobi_2f1", refuse)
    with pytest.raises(ValidationError, match="time grid"):
        report(spec, unit_f, np.array(grid))


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
        deviation_norm(spec, short, 2.0)


def test_invalid_spectrum_rejected(h3, unit_f):
    bad = PuritySpectrum(group=h3, atoms=(1.0, 0.2), r=0.4, omega=())
    f = SpectralVector(atom_norms=(1.0, 1.0), omega_norms=())
    with pytest.raises(ValidationError, match="invalid spectrum"):
        deviation_norm(bad, f, 2.0)


def test_time_grid_structure():
    # delta = 0.5: m = 1 contributes floor(e^{0.25}) + 1 = 2 intervals
    ts = time_grid(0.5, 2)
    assert ts[0] == 1.0
    assert np.all(np.diff(ts) > 0.0)
    assert ts[-1] == 3.0
    # each [m, m+1] is split evenly
    m1 = ts[(ts > 1.0) & (ts <= 2.0)]
    assert len(m1) == 2 and m1[0] == pytest.approx(1.5)


def test_time_grid_growth_capped():
    with pytest.raises(ValidationError):
        time_grid(2.0, 60, max_points=10_000)


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
