"""Haar measure of Cartan balls and ball-averaged spherical functions.

The radial Haar density is Delta(t) = sinh(t)^n1 * sinh(2t)^n2, so the
ball volume m(B_t) = int_0^t Delta grows like a constant times e^{2 rho t}.
The ball average of a spherical function,

    psi_s(t) = int_0^t phi_s Delta dtau / int_0^t Delta dtau,

inherits |psi| <= 1 and decays like c(s) * (2 rho / (rho + s)) e^{-(rho-s)t}
for complementary parameters.  Differentiating phi_s's 2F1 (DLMF 15.5.1)
in the Jacobi equation (Delta phi')' = -(rho^2 - s^2) Delta phi gives the
numerator in closed form (Koornwinder 1984, section 2):

    int_0^t phi_s Delta = Delta(t) sinh t cosh t 2F1(a+1, b+1; c+1; -sinh(t)^2) / (2c),

with a, b = (rho +- s)/2 and c = alpha + 1.  Every ball volume, those
of the volume profile (the radial CDF of a ball and its inverse)
included, comes from _ball_volumes, the closed-form antiderivative of
Delta for the integer multiplicities of RankOneGroup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .groups import RankOneGroup, SpectralParam, check_param, complementary
from .spherical import _jacobi_2f1, _with_ones, hc_c_function
# Unused here: perfbench/spans.py traces this name and needs it to stay.
from .spherical import spherical_fn_many  # noqa: F401

_SERIES_TERMS = 48  # terms of the tanh^2 series of int_0^t sinh^2m
_SERIES_TOL = 2.0**-53  # bound on the omitted terms, relative to the sum
_EXP_ARG_LIMIT = 700.0  # exp overflow guard for e^{2 rho t}
_KNOTS = 33  # equispaced knots of a volume profile, 0 and t_max included
_HALVINGS = 64  # bisection steps of the radial inversion: below double spacing at any allowed t
_CDF_TOL = 1e-12  # a sampled radius's mass must match its target to this, of m(B_t)


def delta(group: RankOneGroup, t) -> np.ndarray:
    """Radial Haar density sinh(t)^n1 * sinh(2t)^n2."""
    t = np.asarray(t, dtype=np.float64)
    # n2 = 0 skips sinh(2t), which overflows first (so:2 beyond t = 355).
    return np.sinh(t) ** group.n1 * (np.sinh(2.0 * t) ** group.n2 if group.n2 else 1.0)


def _check_radius(group: RankOneGroup, t: float) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"radius t = {t} must be finite and >= 0")
    # e^(2 rho t) must stay in double range; 2 rho <= 700, a radius bound of
    # at least 1, keeps every table and split power of _ball_volumes in it.
    if 2.0 * group.rho * max(t, 1.0) > _EXP_ARG_LIMIT:
        raise ValidationError(
            f"ball volumes need 2 rho max(t, 1) <= {_EXP_ARG_LIMIT:g}; got rho={group.rho}, t={t}"
        )


def _times_power(factor: np.ndarray, z: np.ndarray, n: int, shift: int) -> np.ndarray:
    """factor z^n 2^shift as factor f^n 2^(e n + shift), z = f 2^e: f^n stays normal
    for n < 1022, so no result in double range passes through an underflowed
    power (custom:100,100 near t = 0.03)."""
    mantissa, exponent = np.frexp(z)
    return np.ldexp(factor * mantissa**n, exponent * n + shift)


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


@functools.cache
def _poly_rule(p: int, q: int) -> Tuple[int, np.ndarray]:
    """(e, c) with int_0^t sinh^p cosh^q = z^e sum_i c_i z^i, for p or q odd.

    q odd: sinh^p cosh^(q-1) d(sinh t) = u^p (1 + u^2)^((q-1)/2) du, z = sinh t.
    p odd: sinh^(p-1) cosh^q d(cosh t) = (w (w + 2))^((p-1)/2) (1 + w)^q dw,
    z = cosh t - 1.  Either integrand has positive coefficients.
    """
    if q % 2:
        low, poly = p, [0 if i % 2 else math.comb(q // 2, i // 2) for i in range(q)]
    else:
        low = k = p // 2
        poly = [sum(math.comb(k, i) * 2 ** (k - i) * math.comb(q, l - i) for i in range(min(k, l) + 1))
                for l in range(k + q + 1)]
    return low + 1, _readonly([c / (low + 1 + i) for i, c in enumerate(poly)])


@functools.cache
def _even_rule(a: int, j: int):
    """Weights C(j, i) and, for each m = a + i, one row of the I_2m series
    coefficients (1/2)_k / (m + 3/2)_k / (2m + 1), k < _SERIES_TERMS, the
    first omitted (1/2)_N / (m + 3/2)_N, and 4^j times the coefficients of
    t and e^(2lt) - e^(-2lt), l = 1, ..., a + j, in the exponential sum
    I_2m = 4^-m [(-1)^m C(2m, m) t + sum_l (-1)^(m-l) C(2m, m-l) sinh(2lt) / l].
    """
    series, tail, exponential = [], [], []
    for m in range(a, a + j + 1):
        coeff = [Fraction(1)]
        for k in range(_SERIES_TERMS):
            coeff.append(coeff[-1] * Fraction(2 * k + 1, 2 * k + 2 * m + 3))
        series.append([c / (2 * m + 1) for c in coeff[:-1]])
        tail.append([coeff[-1]])
        exponential.append([(-1) ** (m - l) * math.comb(2 * m, m - l) * 4**j / (4**m * max(2 * l, 1))
                            for l in range(m + 1)] + [0] * (a + j - m))
    weights = [math.comb(j, i) for i in range(j + 1)]
    return tuple(_readonly(rows) for rows in (weights, series, tail, exponential))


def _even_volumes(a: int, j: int, t: np.ndarray) -> np.ndarray:
    """4^j sum_i C(j, i) I_2m(t), m = a + i, each I_2m from its series or its exponential sum."""
    weights, series, tail, exponential = _even_rule(a, j)
    # Powers of E = e^(2t) carry no rounding of the argument 2lt, which
    # sinh(2lt) would pay for with up to 2lt ulps.
    basis = np.exp(2.0 * t) ** np.arange(a + j + 1)[:, None]
    basis -= 1.0 / basis
    basis[0] = t
    rows = exponential @ basis
    s = np.sinh(t)
    s2 = s * s
    c2 = 1.0 + s2
    x = s2 / c2  # tanh^2 t
    # I_2m = s^(2m+1) / ((2m+1) cosh t) sum_k (1/2)_k / (m+3/2)_k x^k.  The
    # terms from k = N on fall by a factor below x each, so they sum to less
    # than tail x^N / (1 - x) = tail x^N cosh^2 t, against a sum >= 1.  The
    # tail shrinks as m grows, so the last row reaches the furthest.
    reach = tail * (x**_SERIES_TERMS * c2) <= _SERIES_TOL
    near = np.flatnonzero(reach[-1])
    sums = series @ x[near] ** np.arange(_SERIES_TERMS)[:, None]
    sums *= s2[near] ** np.arange(j + 1)[:, None] / np.sqrt(c2[near])
    sums = _times_power(sums, s[near], 2 * a + 1, 2 * j)
    rows[:, near] = np.where(reach[:, near], sums, rows[:, near])
    return weights @ rows


def _ball_volumes(group: RankOneGroup, radii) -> np.ndarray:
    """m(B_t) at radii t >= 0, in any order, from the antiderivative of Delta.

    With p = n1 + n2 and q = n2, Delta = 2^q sinh^p t cosh^q t.  For p or q
    odd its integral is a positive polynomial (_poly_rule); for both even a
    positive binomial sum of I_2m = int_0^t sinh^2m, each from its tanh^2
    series where a tail bound allows, else from its exponential sum, whose
    terms cancel there by at most a factor 14 (m <= 200).  The volumes are
    within 1e-13 relative of an mpmath quadrature of Delta (5e-14 the worst
    measured); radius 0 gives exactly 0.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if not radii.size:
        return np.zeros_like(radii)
    # NaN propagates into both extremes and fails the check.
    _check_radius(group, float(radii.min()))
    _check_radius(group, float(radii.max()))
    p, q = group.n1 + group.n2, group.n2
    if p % 2 == q % 2 == 0:
        return _even_volumes(p // 2, q // 2, radii)
    z = np.sinh(radii) if q % 2 else 2.0 * np.sinh(0.5 * radii) ** 2
    low, rule = _poly_rule(p, q)
    return _times_power(rule @ z ** np.arange(rule.size)[:, None], z, low, q)


def _shaped(t: np.ndarray, values: np.ndarray):
    """values in the shape of the radii t, a float if t is one radius."""
    return float(values[0]) if t.ndim == 0 else values.reshape(t.shape)


def ball_volume(group: RankOneGroup, t):
    """m(B_t) at a radius t >= 0, or at every radius of an array; see _ball_volumes for its accuracy."""
    t = np.asarray(t, dtype=np.float64)
    return _shaped(t, _ball_volumes(group, t.ravel()))


def volume_regularity(group: RankOneGroup, t, eps: float):
    """Relative shell growth (m(B_{t+eps}) - m(B_t)) / (eps * m(B_t)) at one or more t > 0."""
    t = np.asarray(t, dtype=np.float64)
    # Written so that NaN fails the check too.
    if not (np.all(t > 0.0) and eps > 0.0):
        raise ValidationError("volume_regularity needs t > 0 and eps > 0")
    base, grown = np.split(_ball_volumes(group, np.concatenate([t.ravel(), t.ravel() + eps])), 2)
    return _shaped(t, (grown - base) / (eps * base))


# --------------------------------------------------------------------------
# Volume profile: the radial law of a ball.


@dataclass(frozen=True, eq=False)
class VolumeProfile:
    """Ball volumes on [0, t_max], with the radial CDF of a ball and its inverse.

    Every volume is one _ball_volumes call.  `cumulative` holds
    m(B_t) at the _KNOTS equispaced `knots`; sample_radius bisects on
    _ball_volumes directly.
    """

    group: RankOneGroup
    t_max: float
    knots: np.ndarray
    cumulative: np.ndarray

    def volume(self, t):
        """m(B_t) for 0 <= t <= t_max, a float for one radius."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and (np.min(t) < -1e-12 or np.max(t) > self.t_max + 1e-12):
            raise ValidationError(f"radius outside profile range [0, {self.t_max}]")
        return ball_volume(self.group, np.clip(t, 0.0, self.t_max))

    def cdf(self, tau, t: float):
        """Radial law m(B_tau) / m(B_t) of B_t, from one pass over tau with t appended."""
        tau = np.asarray(tau, dtype=np.float64)
        masses = self.volume(np.append(tau.ravel(), t))
        if not masses[-1] > 0.0:
            raise ValidationError("cdf undefined for zero-volume ball")
        return _shaped(tau, masses[:-1] / masses[-1])

    def sample_radius(self, t: float, u) -> np.ndarray:
        """Invert the radial CDF of B_t at the uniform variates u.

        Each radius is the lower end of a bracket on [0, t] around the
        target mass u m(B_t), halved _HALVINGS times against _ball_volumes,
        so u = 0 gives 0 and every radius is at most t.  The result must
        reproduce u m(B_t) to 1e-12 relative to m(B_t), or ConvergenceError
        is raised.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if u.size and not (np.min(u) >= 0.0 and np.max(u) <= 1.0):
            raise ValidationError("uniform variates must lie in [0, 1]")
        total = float(self.volume(t))
        if not total > 0.0:
            raise ValidationError("cannot sample a zero-volume ball")
        target = u * total
        lo = np.zeros_like(target)
        hi = np.full_like(target, t)
        for _ in range(_HALVINGS):
            mid = 0.5 * (lo + hi)
            below = _ball_volumes(self.group, mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        err = np.max(np.abs(_ball_volumes(self.group, lo) - target), initial=0.0) / total
        if err > _CDF_TOL:
            raise ConvergenceError(f"radial inversion missed CDF tolerance: {err:.3e}")
        return lo


def build_volume_profile(group: RankOneGroup, t_max: float) -> VolumeProfile:
    """m(B_t) at _KNOTS equispaced knots on [0, t_max], from one _ball_volumes pass."""
    _check_radius(group, t_max)
    if t_max <= 0.0:
        raise ValidationError("t_max must be positive")
    knots = np.linspace(0.0, t_max, _KNOTS)
    return VolumeProfile(group, float(t_max), knots, _ball_volumes(group, knots))


# --------------------------------------------------------------------------
# Ball averages of spherical functions.


def _psi_rows(group: RankOneGroup, params: Sequence[SpectralParam], ts: Sequence[float]) -> np.ndarray:
    """psi_s of every parameter on an increasing radius grid, one row each.

    One 2F1 call gives every row's kernel by the identity in the module
    docstring, at one 2F1 per radius and parameter, and one
    _ball_volumes call over the grid divides them all.  The grid and every
    parameter are checked before either.  Delta / m(B_t) is formed first:
    Delta sinh t cosh t alone overflows near the radius bound (f4 at
    2 rho t = 700).

    psi is accurate in absolute terms only: where |psi| is tiny the 2F1 can
    cancel to no relative digits, sign included (custom:100,100 at t = 2:
    c:0.3 gives -4.84e-64, p:3.7 -3.99e-69 against mpmath's 6.9e-71).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return np.ones((len(params),) + ts.shape)
    # Written so that NaN fails both tests too.
    if not ts.min() > 0.0:
        raise ValidationError("psi needs t > 0")
    if not (np.diff(ts) > 0.0).all():
        raise ValidationError("radius grid must be strictly increasing")
    _check_radius(group, float(ts[-1]))
    # Averaging the constant function is exact, no 2F1 or volume involved.
    live = [i for i, param in enumerate(params) if not param.is_trivial]
    if not live:
        return np.ones((len(params),) + ts.shape)

    # The 2F1 comes first: _jacobi_2f1 checks every parameter, the
    # principal bound and the radii before any Delta or 2F1 work.
    kernel = _jacobi_2f1(group, [params[i] for i in live], ts, 1.0)
    ratio = delta(group, ts) / _ball_volumes(group, ts)
    values = ratio * np.sinh(ts) * np.cosh(ts) * kernel / (2.0 * (group.alpha + 1.0))
    overshoot = np.abs(values).max() - 1.0
    if overshoot > 1e-9:
        raise ConvergenceError(f"|psi| exceeded 1 by {overshoot:.3e}; evaluation unreliable")
    return _with_ones(np.clip(values, -1.0, 1.0, out=values), live, len(params))


def psi_on_grid(group: RankOneGroup, param: SpectralParam, ts: Sequence[float]) -> np.ndarray:
    """psi_s at every point of an increasing radius grid; see _psi_rows."""
    return _psi_rows(group, [param], ts)[0]


def psi_bound_check(
    group: RankOneGroup,
    params: Sequence[SpectralParam],
    t_grid: Sequence[float],
    r: float,
) -> float:
    """Empirical constant for the uniform bound |psi| <= C t e^{-(rho-r)t}.

    Every parameter must satisfy re s <= r; the return value is the max of
    |psi_s(t)| e^{(rho-r)t} / t over the grid and parameter set, and 0.0
    for an empty parameter set.
    """
    if not (r > 0.0):
        raise ValidationError("r must be positive")
    ts = np.asarray(list(t_grid), dtype=np.float64)
    if ts.size == 0:
        raise ValidationError("empty t grid")
    params = list(params)
    if not params:
        return 0.0
    for param in params:
        re_s = param.re_s(group)
        if re_s > r + 1e-12:
            raise ValidationError(
                f"parameter {param.label()} has re_s = {re_s} > r = {r}; bound does not apply"
            )
    values = np.abs(_psi_rows(group, params, ts))
    return float(np.max(values * np.exp((group.rho - r) * ts) / ts))


def psi_asymptotic_constant(group: RankOneGroup, param: SpectralParam) -> float:
    """Limit of psi_s(t) e^{(rho-s)t} by sequence acceleration.

    Evaluates the normalized averages at t = 20, 30 and 40 and applies one
    Aitken extrapolation step; the result must agree with the final raw
    value to 1e-4 relative or ConvergenceError is raised.  The derived
    closed form c(s) * 2 rho / (rho + s) is exposed as
    psi_asymptotic_formula for cross-checks.  The trivial parameter returns 1 exactly; s = rho as a
    complementary parameter is rejected (that point is the trivial one).
    """
    check_param(group, param)
    if param.is_trivial:
        return 1.0
    if param.kind != "complementary":
        raise ValidationError("asymptotic constant is defined for complementary parameters")
    s = param.value
    if s >= group.rho - 1e-12:
        raise ValidationError(f"s = {s} is at the trivial corner; use the trivial parameter")
    grid = np.array([20.0, 30.0, 40.0])
    values = psi_on_grid(group, param, grid) * np.exp((group.rho - s) * grid)
    f1, f2, f3 = (float(v) for v in values)
    d1, d2 = f2 - f1, f3 - f2
    denom = d2 - d1
    if abs(denom) < 1e-14 * max(1.0, abs(f3)):
        limit = f3  # already converged to roundoff
    else:
        limit = f3 - d2 * d2 / denom
    if abs(limit - f3) > 1e-4 * max(1.0, abs(limit)):
        raise ConvergenceError(
            f"asymptotic constant did not settle: raw {f3:.12g} vs extrapolated {limit:.12g}"
        )
    return float(limit)


def psi_asymptotic_formula(group: RankOneGroup, s: float) -> float:
    """Derived constant c(s) * 2 rho / (rho + s) for a complementary parameter."""
    cval = hc_c_function(group, complementary(s)).real
    return cval * 2.0 * group.rho / (group.rho + s)


def psi_lipschitz_check(
    group: RankOneGroup,
    param: SpectralParam,
    ts: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Continuity bounds (|psi(t') - psi(t)|, shell mass ratio) on every grid step t < t'.

    The ratio is m(B_t' minus B_t) / m(B_t'); the jump never exceeds it
    beyond rounding because both ball averages lie in the range
    of phi, an interval of diameter at most 1 here.
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = psi_on_grid(group, param, ts)
    volumes = _ball_volumes(group, ts)
    return np.abs(np.diff(values)), np.diff(volumes) / volumes[1:]
