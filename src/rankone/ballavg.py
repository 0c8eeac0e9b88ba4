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
included, comes from one verified quadrature, _ball_volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .groups import RankOneGroup, SpectralParam, check_param, complementary
from .spherical import _jacobi_2f1, _with_ones, hc_c_function
# Unused here: perfbench/spans.py traces this name and needs it to stay.
from .spherical import spherical_fn_many  # noqa: F401

# One evaluation of Delta serves two Gauss-Legendre rules on the same panels:
# the 20-node sums are returned and the 10-node sums check them.
_GL20, _GL10 = (np.polynomial.legendre.leggauss(n) for n in (20, 10))
_NODES = np.concatenate([_GL20[0], _GL10[0]])
_WEIGHTS = np.zeros((_NODES.size, 2))
_WEIGHTS[:20, 0], _WEIGHTS[20:, 1] = _GL20[1], _GL10[1]
_PANEL_WIDTH = 0.25  # first panel width; each refinement halves it
_REFINEMENTS = 6
# Panels whose Delta values are held at once: bounds a pass's memory at
# _PANEL_BLOCK * 30 points, however many radii it covers.
_PANEL_BLOCK = 4096
_REL_TOL = 1e-10  # the two rules must agree to this, relative to each volume
_ABS_FLOOR = np.finfo(np.float64).tiny
_SMALL_BREAKS = 0.5 ** np.arange(8, 0, -1)  # r0 2^-k, k = 8, ..., 1
_EXP_ARG_LIMIT = 700.0  # exp overflow guard for e^{2 rho t}
_KNOTS = 33  # equispaced knots of a volume profile, 0 and t_max included
_NEWTON_STEPS = 40  # cap for the bracketed Newton radial inversion
_CDF_TOL = 1e-12  # a sampled radius's mass must match its target to this, of m(B_t)


def delta(group: RankOneGroup, t) -> np.ndarray:
    """Radial Haar density sinh(t)^n1 * sinh(2t)^n2."""
    t = np.asarray(t, dtype=np.float64)
    # n2 = 0 skips sinh(2t), which overflows first (so:2 beyond t = 355).
    return np.sinh(t) ** group.n1 * (np.sinh(2.0 * t) ** group.n2 if group.n2 else 1.0)


def _check_radius(group: RankOneGroup, t: float) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"radius t = {t} must be finite and >= 0")
    if 2.0 * group.rho * t > _EXP_ARG_LIMIT:
        raise ValidationError(
            f"e^(2 rho t) overflows double precision for rho={group.rho}, t={t}"
        )


def _panel_edges(breaks: np.ndarray, width: float) -> np.ndarray:
    """Refine a sorted break sequence so every panel is at most `width` wide.

    Each gap is split into equal panels at lo + k (hi - lo)/n, the points
    np.linspace(lo, hi, n + 1) gives, with hi itself as the last edge.
    """
    lo, hi = breaks[:-1], breaks[1:]
    counts = np.maximum(1, np.ceil((hi - lo) / width - 1e-12).astype(np.intp))
    gap = np.arange(lo.size).repeat(counts)
    ends = counts.cumsum()
    k = np.arange(1, ends[-1] + 1) - (ends - counts).repeat(counts)
    edges = k * ((hi - lo) / counts)[gap] + lo[gap]
    edges[ends - 1] = hi
    return np.concatenate([breaks[:1], edges])


def _ball_volumes(group: RankOneGroup, radii) -> np.ndarray:
    """Verified m(B_t) at radii t >= 0, in any order.

    One composite pass puts a panel end at every radius and evaluates Delta
    once, at the 20-node and 10-node Gauss-Legendre points of every panel,
    in blocks of _PANEL_BLOCK panels.
    The 20-node volumes are returned once the summed panel differences of
    the two rules are within 1e-10 of every volume (or below the smallest
    normal double); otherwise the panel width, 0.25 at first, is halved, and
    ConvergenceError follows six passes.

    Near 0, Delta ~ t^n with n = n1 + n2.  Breaks at r0 2^-k (k = 1..8) below
    the smallest positive radius r0 shrink the share of the panel touching 0,
    which no rule integrates to a relative tolerance once n is large.  For
    n > 19 the 10-node rule is not exact on t^n either, and halving an
    absolute width never makes h / lo small near 0, so breaks at the ratio
    1 + 6/n also run from r0 2^-8 up to n / 24 (where 0.25 = 6 lo / n) or the
    largest radius: t^n grows by at most e^6 across each panel there, on
    which the 10-node rule is within 1e-15.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if not radii.size:
        return np.zeros_like(radii)
    # NaN propagates into both extremes and fails the check.
    low, high = float(radii.min()), float(radii.max())
    _check_radius(group, low)
    _check_radius(group, high)
    if not high > 0.0:
        return np.zeros_like(radii)
    smallest = low if low > 0.0 else radii[radii > 0.0].min()
    breaks = [[0.0], smallest * _SMALL_BREAKS, radii]
    n = group.n1 + group.n2
    if n > 19:
        bottom, top = smallest * _SMALL_BREAKS[0], min(n / 24.0, high)
        steps = math.ceil(math.log(top / bottom) / math.log1p(6.0 / n))
        breaks.append(np.geomspace(bottom, top, steps + 1))
    # Repeated breaks only make panels of width 0.
    breaks = np.concatenate(breaks)
    breaks.sort()
    width = _PANEL_WIDTH
    for _ in range(_REFINEMENTS):
        edges = _panel_edges(breaks, width)
        left = edges[:-1, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        # Row 0 stays 0 and rows 1.. take each panel's two sums; column 1
        # then becomes the rules' gap, and one cumsum gives volumes and error.
        table = np.zeros((half.shape[0] + 1, 2))
        sums = table[1:]
        for lo in range(0, half.shape[0], _PANEL_BLOCK):
            block = slice(lo, lo + _PANEL_BLOCK)
            h = half[block]
            sums[block] = (delta(group, (left[block] + h) + h * _NODES) * h) @ _WEIGHTS
        np.abs(sums[:, 0] - sums[:, 1], out=sums[:, 1])
        np.cumsum(table, axis=0, out=table)
        at = edges.searchsorted(radii)
        volumes, error = table[at, 0], table[at, 1]
        missed = error > np.maximum(_ABS_FLOOR, _REL_TOL * volumes)
        if not missed.any():
            return volumes
        width *= 0.5
    raise ConvergenceError(
        f"ball volume quadrature did not converge at t={radii[np.argmax(missed)]} "
        f"for {group.label} with panels {2 * width:.3g} wide"
    )


def _shaped(t: np.ndarray, values: np.ndarray):
    """values in the shape of the radii t, a float if t is one radius."""
    return float(values[0]) if t.ndim == 0 else values.reshape(t.shape)


def ball_volume(group: RankOneGroup, t):
    """m(B_t) to 1e-10 relative at a radius t >= 0, or at every radius of an array."""
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

    Every volume is one verified pass of _ball_volumes.  `cumulative` holds
    m(B_t) at the _KNOTS equispaced `knots`; sample_radius brackets each
    target mass by it.
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

        `cumulative` brackets each target mass u m(B_t) by a knot interval;
        each radius starts from the interval's chord and takes Newton steps
        on _ball_volumes with Delta as the slope, kept inside the bracket (a
        step that would leave it bisects instead).  Iteration stops once
        every residual is within 1e-14 relative to its target mass, or the
        bracket has shrunk to 1e-15 t.  The result must then reproduce
        u m(B_t) to 1e-12 relative to m(B_t), or ConvergenceError is raised.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if u.size and not (np.min(u) >= 0.0 and np.max(u) <= 1.0):
            raise ValidationError("uniform variates must lie in [0, 1]")
        total = float(self.volume(t))
        if not total > 0.0:
            raise ValidationError("cannot sample a zero-volume ball")
        target = u * total
        # The last usable interval is the one whose right knot is the first
        # knot >= t; u = 1 at t = t_max would otherwise index one past the end.
        last = min(max(int(np.searchsorted(self.knots, t)) - 1, 0), self.knots.size - 2)
        k = np.minimum(np.searchsorted(self.cumulative, target, side="right") - 1, last)
        lo = self.knots[k]
        hi = np.minimum(self.knots[k + 1], t)  # keeps every draw inside the ball
        rise = self.cumulative[k + 1] - self.cumulative[k]
        chord = (target - self.cumulative[k]) / np.where(rise > 0.0, rise, 1.0)
        tau = np.clip(lo + (self.knots[k + 1] - lo) * chord, lo, hi)
        resid = _ball_volumes(self.group, tau) - target
        for _ in range(_NEWTON_STEPS):
            done = (np.abs(resid) <= 1e-14 * target) | (hi - lo <= 1e-15 * t)
            if np.all(done):
                break
            lo = np.where(resid < 0.0, tau, lo)
            hi = np.where(resid > 0.0, tau, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = tau - resid / delta(self.group, tau)
            # Inclusive test: a step that rounds back onto tau, now a bracket
            # end, is kept; a strict one would bisect nearly converged points.
            tau = np.where(done, tau, np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi)))
            resid = _ball_volumes(self.group, tau) - target
        err = np.max(np.abs(resid), initial=0.0) / total
        if err > _CDF_TOL:
            raise ConvergenceError(f"radial inversion missed CDF tolerance: {err:.3e}")
        return tau


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
    docstring, at one 2F1 per radius and parameter, and one verified
    _ball_volumes pass over the grid divides them all.  The grid and every
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
    # Averaging the constant function is exact, no quadrature involved.
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
    beyond quadrature tolerance because both ball averages lie in the range
    of phi, an interval of diameter at most 1 here.
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = psi_on_grid(group, param, ts)
    volumes = _ball_volumes(group, ts)
    return np.abs(np.diff(values)), np.diff(volumes) / volumes[1:]
