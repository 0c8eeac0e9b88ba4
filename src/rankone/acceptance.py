"""Acceptance suite: the quantitative checks the package promises to pass.

Each criterion function runs one self-contained check against frozen
oracle values and returns its verdict, (passed, detail).  ALL_CRITERIA
is the ordered table of (name, check, time budget); run_criterion
numbers, names, times and records each one.  The checks pin concrete
groups, grids, seeds, and tolerances so that a pass is reproducible bit
for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .ballavg import (
    ball_volume,
    psi_asymptotic_constant,
    psi_lipschitz_check,
    psi_on_grid,
)
from .errors import ConvergenceError, ValidationError
from .groups import complementary, make_group, principal, trivial
from .model import (
    PuritySpectrum,
    SpectralVector,
    direction_convergence,
    finite_sum_check,
    theorem_mean_report,
)
from .spherical import certify_decay_bound, hc_c_function, spherical_fn_many
from .surface import (
    ConstantObservable,
    CuspIndicator,
    decay_scan,
    ks_radial_test,
    mc_average,
)

Verdict = Tuple[bool, str]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {self.name}: {status} ({self.detail}; {self.seconds:.1f}s)"


def _h3():
    return make_group("so", 3)


def criterion_spherical_oracle() -> Verdict:
    """Closed-form check of the spherical functions on hyperbolic 3-space."""
    group = _h3()
    ts = np.logspace(math.log10(0.01), math.log10(25.0), 200)
    worst = 0.0
    for s in np.arange(1, 11) / 10.0:
        vals = spherical_fn_many(group, complementary(float(s)), ts)
        oracle = np.sinh(s * ts) / (s * np.sinh(ts))
        worst = max(worst, float(np.max(np.abs(vals - oracle))))
    for lam in (0.5, 1.0, 2.0):
        vals = spherical_fn_many(group, principal(lam), ts)
        oracle = np.sin(lam * ts) / (lam * np.sinh(ts))
        worst = max(worst, float(np.max(np.abs(vals - oracle))))
    return worst <= 1e-10, f"worst abs err {worst:.2e}"


def criterion_c_function() -> Verdict:
    """Scaled spherical values at t=40 against the gamma-factor constant."""
    group = _h3()
    t = 40.0
    worst = 0.0
    for s in (0.3, 0.5, 0.9):
        phi = float(spherical_fn_many(group, complementary(s), np.array([t]))[0])
        scaled = phi * math.exp((group.rho - s) * t)
        c = hc_c_function(group, complementary(s)).real
        worst = max(worst, abs(scaled - c) / abs(c), abs(c - 1.0 / s) * s)
    return worst <= 1e-8, f"worst rel err {worst:.2e}"


def criterion_decay_certificates() -> Verdict:
    """Empirical decay constants are finite, and exactly 1 for the constants."""
    group = _h3()
    params = [
        trivial(),
        complementary(0.3),
        complementary(0.5),
        complementary(0.9),
        principal(0.5),
        principal(1.0),
        principal(2.0),
    ]
    grid = np.concatenate([[0.0], np.linspace(0.01, 40.0, 120)])
    certified = certify_decay_bound(group, params, grid)
    finite = all(math.isfinite(c) for _, c in certified)
    trivial_const = next(c for p, c in certified if p.is_trivial)
    worst = max(c for _, c in certified)
    return finite and trivial_const == 1.0, f"max constant {worst:.4f}, constants exactly {trivial_const}"


def criterion_ball_volume() -> Verdict:
    """ball_volume against the separately coded H3 volume, and its growth constant.

    The normalized limit e^{-2t} m(B_t) of the closed form
    (sinh t cosh t - t)/2 is 1/8, which is the frozen expected value.
    Both parts must hold to 1e-12, 35 times the oracle's own cancellation
    at t = 0.1 (2.8e-14).
    """
    group = _h3()
    worst = 0.0
    for t in np.linspace(0.1, 30.0, 60):
        v = ball_volume(group, float(t))
        oracle = (math.sinh(t) * math.cosh(t) - t) / 2.0
        worst = max(worst, abs(v - oracle) / oracle)
    norm_limit = ball_volume(group, 30.0) * math.exp(-60.0)
    limit_err = abs(norm_limit - 0.125)
    passed = worst <= 1e-12 and limit_err <= 1e-12
    return passed, f"worst rel err {worst:.2e}, normalized limit off by {limit_err:.2e}"


def criterion_psi_asymptotics() -> Verdict:
    """Scaled ball averages settle on the elementary-integration constant."""
    group = _h3()
    s = 0.5
    vals = psi_on_grid(group, complementary(s), np.array([30.0, 40.0]))
    scaled = vals * np.exp((group.rho - s) * np.array([30.0, 40.0]))
    rel_diff = abs(scaled[1] - scaled[0]) / abs(scaled[1])
    limit = psi_asymptotic_constant(group, complementary(s))
    oracle = 8.0 / 3.0  # c(s) 2 rho / (rho + s) = 2 * 2 / 1.5 on H3
    limit_err = abs(limit - oracle)
    return rel_diff < 1e-3 and limit_err <= 1e-6, f"scaled drift {rel_diff:.2e}, limit off by {limit_err:.2e}"


def criterion_shell_lipschitz() -> Verdict:
    """Ball-average increments stay within the volume-shell bound."""
    group = _h3()
    params = [trivial(), complementary(0.5), principal(1.0)]
    min_slack = math.inf
    for t in (1.0, 2.0, 5.0, 10.0):
        for eps in (0.01, 0.1, 0.5):
            for param in params:
                jump, bound = psi_lipschitz_check(group, param, [t, t + eps])
                min_slack = min(min_slack, float(bound[0] - jump[0]))
    return min_slack >= -1e-9, f"min slack {min_slack:.2e}"


def _reference_spectrum():
    group = _h3()
    spec = PuritySpectrum(
        group=group,
        atoms=(1.0, 0.7),
        r=0.4,
        omega=((complementary(0.4), 1.0), (principal(1.0), 1.0)),
    )
    f = SpectralVector(atom_norms=(1.0, 1.0), omega_norms=(1.0, 1.0))
    return spec, f


def criterion_mean_envelope() -> Verdict:
    """Spectral-model deviations stay under the drifting exponential envelope."""
    spec, f = _reference_spectrum()
    grid = np.linspace(1.0, 40.0, 79)
    report = theorem_mean_report(spec, f, grid)
    refined = theorem_mean_report(spec, f, np.linspace(1.0, 40.0, 157))
    sup_change = abs(refined.sup_ratio - report.sup_ratio) / report.sup_ratio
    exponent_err = abs(report.fitted_exponent - (-0.6))
    passed = (
        math.isfinite(report.sup_ratio)
        and sup_change < 0.01
        and exponent_err <= 0.05
    )
    return passed, (f"sup {report.sup_ratio:.4f}, refinement drift {sup_change:.2e}, "
                    f"exponent {report.fitted_exponent:.4f}")


def criterion_direction() -> Verdict:
    """Normalized deviation aligns with the leading nonconstant atom."""
    spec, f = _reference_spectrum()
    dists = direction_convergence(spec, f, np.array([10.0, 20.0, 40.0]))
    final = float(dists[-1])
    passed = final < 1e-3 and bool(np.all(np.diff(dists) < 0))
    return passed, f"distance at t=40 is {final:.2e}"


def criterion_grid_summability() -> Verdict:
    """Refining-grid series is dominated termwise and Cauchy at the recorded M."""
    report = finite_sum_check(0.5, 200, enumerate_limit=60)
    passed = (
        report.domination_checked_to == 60
        and report.domination_min_slack >= -1e-12
        and report.enumeration_max_rel_gap < 1e-12
        and report.cauchy_m == 100
        and report.cauchy_gap < 1e-6
    )
    return passed, (f"min domination slack {report.domination_min_slack:.2e}, "
                    f"|S(200)-S(100)| = {report.cauchy_gap:.2e}")


def criterion_mc_ergodic() -> Verdict:
    """Monte Carlo ball averages match the exact cusp orbit sum at t = 1, 2 and 6.

    At each radius the estimate of cusp:2 from 10^6 samples about the
    default base point must lie within 4 standard errors of
    CuspIndicator.ball_mean, the exact average over the disk.  The
    constant observable must average to exactly 1 with standard error 0,
    and the sampled radii must pass the KS audit of the radial law.
    """
    obs = CuspIndicator(2.0)
    zs = []
    for t in (1.0, 2.0, 6.0):
        run = mc_average(t, 1_000_000, obs, 42)
        dev = run.estimate - obs.ball_mean(t)
        if run.standard_error > 0.0:
            zs.append(dev / run.standard_error)
        else:
            # every sample agreed: only an exact hit passes
            zs.append(0.0 if dev == 0.0 else math.inf)
    const = mc_average(6.0, 10_000, ConstantObservable(), 42)
    ks = ks_radial_test(6.0, 100_000, 42)
    passed = (
        all(abs(z) <= 4.0 for z in zs)
        and const.estimate == 1.0
        and const.standard_error == 0.0
        and ks.ok
    )
    return passed, (f"z vs orbit sum {', '.join(f'{z:+.2f}' for z in zs)} at t = 1, 2, 6 (|z| <= 4), "
                    f"KS {ks.statistic:.4f} < {ks.threshold:.4f}")


def criterion_mc_decay_scan() -> Verdict:
    """MC deviations across radii stay inside envelope or noise band."""
    report = decay_scan(np.arange(2.0, 9.0), 1_000_000, CuspIndicator(2.0), 42)
    bounds = np.maximum(report.envelopes, 4.0 * report.stderrs)
    ok = bool(np.all(report.deviations <= bounds * (1.0 + 1e-12)))
    passed = ok and report.fitted_exponent is not None and report.fitted_exponent < 0.0
    return passed, f"envelope C {report.fitted_constant:.4f}, exponent {report.fitted_exponent:.3f}"


# Criterion n is entry n - 1: (name, check, time budget in seconds or None).
ALL_CRITERIA: List[Tuple[str, Callable[[], Verdict], Optional[float]]] = [
    ("spherical oracle", criterion_spherical_oracle, 10.0),
    ("c-function consistency", criterion_c_function, None),
    ("decay certificates", criterion_decay_certificates, None),
    ("ball volume", criterion_ball_volume, None),
    ("psi asymptotics", criterion_psi_asymptotics, None),
    ("shell Lipschitz bound", criterion_shell_lipschitz, None),
    ("mean decay envelope", criterion_mean_envelope, None),
    ("direction convergence", criterion_direction, None),
    ("grid summability", criterion_grid_summability, None),
    ("MC ergodic limit", criterion_mc_ergodic, 120.0),
    ("MC decay scan", criterion_mc_decay_scan, None),
]


def run_criterion(number: int) -> CriterionResult:
    """Run criterion `number` of ALL_CRITERIA and time it.

    It fails if it raises ValidationError or ConvergenceError, with the
    exception's message as its detail, or if it takes its time budget or
    longer.
    """
    name, check, budget = ALL_CRITERIA[number - 1]
    start = time.perf_counter()
    try:
        passed, detail = check()
    except (ValidationError, ConvergenceError) as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if budget is not None and not seconds < budget:
        passed, detail = False, f"{detail}, over its {budget:g}s budget"
    return CriterionResult(number, name, passed, detail, seconds)


def run_all(report: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    """Run every criterion in order, optionally streaming one line per result;
    a failing criterion does not stop the rest."""
    results = []
    for number in range(1, len(ALL_CRITERIA) + 1):
        results.append(run_criterion(number))
        if report is not None:
            report(results[-1].line())
    return results
