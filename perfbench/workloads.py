"""The benchmark's workloads: streams of public rankone calls with their checks.

A workload is an endless stream of rounds.  Each round is a fixed mix of
calls whose arguments are drawn from the seed, so the same seed gives the
same calls and every round costs about the same.  Every call carries a
check on its output; a call that raises or fails its check counts as a
failed call.

Calls go to the functions captured here at import time, so when the
tracer replaces a callable at the name another module looks it up by,
a direct call from the benchmark is still one span, never two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

import numpy as np

from rankone import (
    ConstantObservable,
    CuspIndicator,
    HPoint,
    PuritySpectrum,
    SpectralVector,
    complementary,
    parse_group,
    parse_observable,
    principal,
)
from rankone.ballavg import ball_volume, build_volume_profile, psi_on_grid
from rankone.model import (
    direction_convergence,
    discrete_constant_report,
    finite_sum_check,
    theorem_mean_report,
)
from rankone.spherical import spherical_fn_many
from rankone.surface import ks_radial_test, mc_average

BASE = HPoint(0.1, 1.3)
CUSP = CuspIndicator(2.0)
DISK = parse_observable("disk:0,1.5,0.25")
CONST = ConstantObservable()

# Envelope constant of the MC accuracy check
#   |estimate - mean| <= ENVELOPE_C * t e^{-t/2} + MC_SIGMAS * stderr.
# Fixed before any benchmark run from 10^6-sample estimates on held-out
# seeds (900000 + i) at t in {1, 1.5, 2, 3, ..., 8, 10}: the largest ratio
# |deviation| / (t e^{-t/2}) was 0.56 (cusp:2 at t = 1; disk: 0.17, also
# at t = 1), and the ratio falls with t for both observables.
ENVELOPE_C = 0.75
MC_SIGMAS = 5.0
# The envelope is loose at large t, where a sampler drawing the radius
# uniformly on [0, t] still passes it; the radial law itself is checked by
# a KS test.  At D sqrt(n) = 2.5 a correct sampler fails with probability
# about 2 e^{-12.5} < 1e-5.
KS_SCALE = 2.5
KS_SAMPLES = 20_000

# so:3 closed forms are checked to the tolerance of acceptance criterion 1.
CLOSED_FORM_TOL = 1e-10

GROUPS = ("so:3", "so:5", "su:3", "sp:2", "f4")
SO3 = parse_group("so:3")
SO5 = parse_group("so:5")

# Boundaries of the three 2F1 regions in t, where sinh(t)^2 = 1/2 and 3.
_T_DIRECT = math.asinh(math.sqrt(0.5))
_T_PFAFF = math.asinh(math.sqrt(3.0))
DENSE = np.linspace(0.0, 8.0, 2001)
REGION_GRIDS = {
    "direct": np.linspace(0.0, _T_DIRECT - 1e-9, 1000),
    "pfaff": np.linspace(_T_DIRECT + 1e-9, _T_PFAFF - 1e-9, 1000),
    "connection": np.linspace(_T_PFAFF + 1e-9, 8.0, 1000),
}


@dataclass
class Op:
    """One public call, the layer it enters and the check of its output."""

    name: str
    layer: str
    fn: Callable
    args: Tuple[Any, ...]
    samples: int
    check: Callable[[Any], Optional[str]] = field(repr=False)

    def call(self):
        return self.fn(*self.args)


# --------------------------------------------------------------------------
# Checks.  Each returns None when the output is right, else the reason.


def _mc_check(t: float, obs):
    def check(run) -> Optional[str]:
        mean = obs.mean()
        allowed = ENVELOPE_C * t * math.exp(-0.5 * t) + MC_SIGMAS * run.standard_error
        dev = abs(run.estimate - mean)
        if not (math.isfinite(run.estimate) and 0.0 <= run.estimate <= 1.0):
            return f"estimate {run.estimate} outside [0, 1]"
        if not dev <= allowed:
            return f"{obs.label()} t={t:.4f}: |estimate - mean| = {dev:.3e} > {allowed:.3e}"
        return None

    return check


def _const_check(run) -> Optional[str]:
    if run.estimate != 1.0 or run.standard_error != 0.0:
        return f"const average {run.estimate!r} +- {run.standard_error!r}, want exactly 1 +- 0"
    return None


def _closed_phi(param, ts):
    """phi on so:3: sinh(st)/(s sinh t) or sin(lam t)/(lam sinh t)."""
    safe = np.where(ts > 0.0, ts, 1.0)
    if param.kind == "complementary":
        s = param.value
        values = np.sinh(s * safe) / (s * np.sinh(safe))
    else:
        lam = param.value
        values = np.sin(lam * safe) / (lam * np.sinh(safe))
    return np.where(ts > 0.0, values, 1.0)


def _phi_check(group, param, ts):
    def check(values) -> Optional[str]:
        values = np.asarray(values)
        if values.shape != ts.shape or not np.all(np.isfinite(values)):
            return f"phi {group.label} {param.label()}: bad shape or non-finite values"
        if np.max(np.abs(values)) > 1.0:
            return f"phi {group.label} {param.label()}: |phi| > 1"
        if group == SO3:
            err = float(np.max(np.abs(values - _closed_phi(param, ts))))
            if err > CLOSED_FORM_TOL:
                return f"phi so:3 {param.label()}: closed-form error {err:.3e}"
        return None

    return check


def _psi_check(group, param, ts):
    def check(values) -> Optional[str]:
        values = np.asarray(values)
        if values.shape != ts.shape or not np.all(np.isfinite(values)):
            return f"psi {group.label} {param.label()}: bad shape or non-finite values"
        if np.max(np.abs(values)) > 1.0:
            return f"psi {group.label} {param.label()}: |psi| > 1"
        return None

    return check


def _volume_check(group, t):
    def check(value) -> Optional[str]:
        if not (math.isfinite(value) and value > 0.0):
            return f"ball_volume {group.label} t={t}: {value}"
        if group == SO3:
            exact = 0.5 * (math.sinh(t) * math.cosh(t) - t)
            if abs(value - exact) > CLOSED_FORM_TOL * exact:
                return f"ball_volume so:3 t={t}: {value!r} vs closed form {exact!r}"
        return None

    return check


def _profile_check(group, t):
    def check(profile) -> Optional[str]:
        steps = np.diff(profile.cumulative)
        if profile.t_max != t or not np.all(steps > 0.0):
            return f"profile {group.label} t={t}: range or monotonicity wrong"
        if group == SO3:
            exact = 0.5 * (math.sinh(t) * math.cosh(t) - t)
            cached = float(profile.volume(t))
            if abs(cached - exact) > 1e-9 * exact:
                return f"profile so:3 t={t}: m(B_t) {cached!r} vs closed form {exact!r}"
        return None

    return check


def _finite(name, array_of):
    def check(report) -> Optional[str]:
        values = np.asarray(array_of(report), dtype=np.float64)
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            return f"{name}: non-finite or negative entries"
        return None

    return check


def _direction_check(dists) -> Optional[str]:
    dists = np.asarray(dists)
    if not np.all(np.isfinite(dists)) or np.any(dists < 0.0) or np.any(dists > 2.0):
        return "direction distances outside [0, 2]"
    return None


def _series_check(report) -> Optional[str]:
    partial = report.partial_constants
    if not (np.all(np.isfinite(partial)) and np.all(np.diff(partial) >= 0.0)):
        return "discrete constant partial sums not finite and nondecreasing"
    if not (math.isfinite(report.tail_bound) and report.tail_bound >= 0.0):
        return f"tail bound {report.tail_bound}"
    return None


def _summability_check(report) -> Optional[str]:
    # The termwise and closed-form checks of acceptance criterion 9.
    if report.domination_min_slack < -1e-12 or report.enumeration_max_rel_gap >= 1e-12:
        return (
            f"grid series: slack {report.domination_min_slack:.3e}, "
            f"enumeration gap {report.enumeration_max_rel_gap:.3e}"
        )
    return None


# --------------------------------------------------------------------------
# Streams.


def _mc_op(t, n, obs, seed):
    return Op("mc_average", "surface.mc_average", mc_average, (t, n, obs, seed, BASE), n, _mc_check(t, obs))


def _phi_op(group, param, ts):
    return Op("spherical_fn_many", "spherical", spherical_fn_many, (group, param, ts), ts.size,
              _phi_check(group, param, ts))


def _psi_op(group, param, ts):
    return Op("psi_on_grid", "ballavg.psi_on_grid", psi_on_grid, (group, param, ts), ts.size,
              _psi_check(group, param, ts))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _stratified(rng, lo, hi, n):
    """One point drawn from each of n equal strata of [lo, hi], increasing."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


def mc_ball(rng):
    """Full-size calls at radii stratified over [2, 10], cusp:2 and a disk."""
    observables = (CUSP, DISK, CUSP, DISK)
    while True:
        yield [_mc_op(float(t), 100_000, obs, _seed(rng))
               for t, obs in zip(_stratified(rng, 2.0, 10.0, 4), observables)]
        observables = observables[::-1]


def mc_sweep(rng):
    """The per-radius pattern of mc-scan: 50 distinct radii in [1, 10], 10^3 samples."""
    while True:
        yield [_mc_op(float(t), 1000, CUSP, _seed(rng)) for t in _stratified(rng, 1.0, 10.0, 50)]


def _away_from_integers(rng, lo, hi):
    # a - b = s; keep the degenerate connection path for the one call meant to hit it.
    while True:
        s = float(rng.uniform(lo, hi))
        if abs(s - round(s)) > 0.01:
            return s


def _reference_spectrum(rng):
    s1 = float(rng.uniform(0.6, 0.8))
    r = float(rng.uniform(0.3, 0.5))
    lam = float(rng.uniform(0.5, 3.0))
    spec = PuritySpectrum(
        group=SO3,
        atoms=(1.0, s1),
        r=r,
        omega=((complementary(r), 1.0), (principal(lam), 1.0)),
    )
    return spec, SpectralVector(atom_norms=(1.0, 1.0), omega_norms=(1.0, 1.0))


def spectral(rng):
    """Kernels, ball volumes, profiles and model reports; no Monte Carlo."""
    groups = [parse_group(g) for g in GROUPS]
    while True:
        round_ = []
        for group in groups:
            s = _away_from_integers(rng, 0.05 * group.rho_prime, 0.95 * group.rho_prime)
            lam = float(rng.uniform(0.25, 10.0))
            params = (complementary(s), principal(lam))
            round_ += [_phi_op(group, param, DENSE) for param in params]
            round_.append(_psi_op(group, params[int(rng.integers(2))], _stratified(rng, 0.1, 8.0, 40)))
            t = float(rng.uniform(0.5, 8.0))
            round_.append(Op("ball_volume", "ballavg.ball_volume", ball_volume,
                             (group, t), 1, _volume_check(group, t)))
            t = float(rng.uniform(2.0, 8.0))
            round_.append(Op("build_volume_profile", "ballavg.profile", build_volume_profile,
                             (group, t), 1, _profile_check(group, t)))

        # Region-pure so:3 grids: per-region kernel rates with a closed-form oracle.
        for grid in REGION_GRIDS.values():
            round_.append(_phi_op(SO3, complementary(_away_from_integers(rng, 0.05, 0.95)), grid))
            round_.append(_phi_op(SO3, principal(float(rng.uniform(0.25, 10.0))), grid))

        # so:5 with s = 1 puts a - b on an integer: the degenerate connection path.
        round_.append(_phi_op(SO5, complementary(1.0), DENSE))
        round_.append(_psi_op(SO5, complementary(1.0), _stratified(rng, 0.1, 8.0, 40)))

        spec, f = _reference_spectrum(rng)
        grid = np.linspace(1.0, 40.0, 79)
        round_.append(Op("theorem_mean_report", "model", theorem_mean_report, (spec, f, grid),
                         grid.size, _finite("theorem_mean_report", lambda rep: rep.deviations)))
        far = np.array([10.0, 20.0, 40.0])
        round_.append(Op("direction_convergence", "model", direction_convergence, (spec, f, far),
                         far.size, _direction_check))
        eps = float(rng.uniform(0.05, 0.2))
        round_.append(Op("discrete_constant_report", "model", discrete_constant_report,
                         (spec, f, eps, 40), 40, _series_check))
        delta = float(rng.uniform(0.45, 0.55))
        round_.append(Op("finite_sum_check", "model", finite_sum_check, (delta, 40, 40),
                         40, _summability_check))
        yield round_


WORKLOADS = {"mc-ball": mc_ball, "mc-sweep": mc_sweep, "spectral": spectral}
MC_WORKLOADS = ("mc-ball", "mc-sweep")


def stream(workload: str, seed: int):
    """The workload's rounds for one seed."""
    return WORKLOADS[workload](np.random.default_rng(seed))


def _ks_check(result) -> Optional[str]:
    threshold = KS_SCALE / math.sqrt(result.samples)
    if not result.statistic < threshold:
        return f"radial KS statistic {result.statistic:.4f} at t={result.t} >= {threshold:.4f}"
    return None


def extra_checks(first: Op, first_out, seed: int):
    """MC-only calls outside the timed window: const exactness, radial law, repeatability."""
    rng = np.random.default_rng([seed, 1])
    const = Op("mc_average", "surface.mc_average", mc_average,
               (6.0, 10_000, CONST, _seed(rng), BASE), 10_000, _const_check)
    ks = Op("ks_radial_test", "surface.mc_average", ks_radial_test,
            (6.0, KS_SAMPLES, _seed(rng)), KS_SAMPLES, _ks_check)

    def same_bits(run) -> Optional[str]:
        if (run.estimate, run.standard_error) != (first_out.estimate, first_out.standard_error):
            return f"repeated seed gave {run.estimate!r}, first call gave {first_out.estimate!r}"
        return None

    repeat = Op(first.name, first.layer, first.fn, first.args, first.samples, same_bits)
    return [const, ks, repeat]


def warmup(workload: str) -> None:
    """The first call a user makes, small: it finishes lazy set-up before timing."""
    if workload in MC_WORKLOADS:
        mc_average(6.0, 4096, CUSP, 0, BASE)
    else:
        psi_on_grid(SO3, principal(1.0), np.linspace(0.5, 4.0, 8))
