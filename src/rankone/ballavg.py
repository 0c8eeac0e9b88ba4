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

with a, b = (rho +- s)/2 and c = alpha + 1.  Ball volumes use composite
Gauss-Legendre panels (20 nodes, width at most 0.25), with interval-halving
verification in ball_volume.  The volume profile integrates each knot
interval with the 4-point Gauss-Lobatto rule, whose end nodes are the knots
where its Hermite slopes already need Delta, and is checked against the
20-node panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .groups import RankOneGroup, SpectralParam, check_param, complementary
from .spherical import _jacobi_2f1, hc_c_function
# Unused here: perfbench/spans.py traces this name and needs it to stay.
from .spherical import spherical_fn_many  # noqa: F401

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANEL_WIDTH = 0.25
_REL_TOL = 1e-10  # two panel refinements of a ball volume must agree to these
_ABS_TOL = 1e-12
_EXP_ARG_LIMIT = 700.0  # exp overflow guard for e^{2 rho t}
_MIN_KNOTS = 32  # knot intervals of the smallest volume profile
_NEWTON_STEPS = 40  # cap for the bracketed Newton radial inversion


@dataclass(frozen=True)
class PsiValue:
    """Ball-averaged spherical function value at radius t."""

    t: float
    param: SpectralParam
    value: float


def delta(group: RankOneGroup, t) -> np.ndarray:
    """Radial Haar density sinh(t)^n1 * sinh(2t)^n2."""
    t = np.asarray(t, dtype=np.float64)
    return np.sinh(t) ** group.n1 * np.sinh(2.0 * t) ** group.n2


def _check_radius(group: RankOneGroup, t: float) -> None:
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValidationError(f"radius t = {t} must be finite and >= 0")
    if 2.0 * group.rho * t > _EXP_ARG_LIMIT:
        raise ValidationError(
            f"e^(2 rho t) overflows double precision for rho={group.rho}, t={t}"
        )


def _check_spacing(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{name} = {value} must be finite and > 0")


def _panel_edges(breaks: np.ndarray, width: float) -> np.ndarray:
    """Refine a sorted break sequence so every panel is at most `width` wide.

    Each gap is split into equal panels at lo + k (hi - lo)/n, the points
    np.linspace(lo, hi, n + 1) gives, with hi itself as the last edge.
    """
    lo, hi = breaks[:-1], breaks[1:]
    counts = np.maximum(1, np.ceil((hi - lo) / width - 1e-12).astype(np.intp))
    gap = np.repeat(np.arange(lo.size), counts)
    ends = np.cumsum(counts)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - counts, counts)
    edges = k * ((hi - lo) / counts)[gap] + lo[gap]
    edges[ends - 1] = hi
    return np.concatenate([breaks[:1], edges])


def _gl_points(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights for each panel, shape (panels, 20)."""
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * _GL_NODES[None, :]
    weights = half * _GL_WEIGHTS[None, :]
    return nodes, weights


def ball_volume(group: RankOneGroup, t: float, panel_width: float = _PANEL_WIDTH) -> float:
    """m(B_t) by adaptive composite quadrature.

    The panel width is halved until two successive refinements agree to
    1e-10 relative (or 1e-12 absolute); failure to stabilize raises
    ConvergenceError.
    """
    _check_radius(group, t)
    _check_spacing("panel_width", panel_width)
    if t == 0.0:
        return 0.0
    previous = None
    width = panel_width
    for _ in range(6):
        value = float(_volumes_at(group, np.array([t]), width)[0])
        if previous is not None and abs(value - previous) <= max(_ABS_TOL, _REL_TOL * abs(value)):
            return value
        previous = value
        width *= 0.5
    raise ConvergenceError(
        f"ball volume quadrature did not stabilize at t={t} for {group.label}: "
        f"last two values {previous:.17g} (width {2*width:.3g}) vs next refinement"
    )


def volume_regularity(group: RankOneGroup, t: float, eps: float) -> float:
    """Relative shell growth (m(B_{t+eps}) - m(B_t)) / (eps * m(B_t))."""
    if not (t > 0.0 and eps > 0.0):
        raise ValidationError("volume_regularity needs t > 0 and eps > 0")
    base = ball_volume(group, t)
    grown = ball_volume(group, t + eps)
    return (grown - base) / (eps * base)


# --------------------------------------------------------------------------
# Cached antiderivative of Delta.


@dataclass(frozen=True, eq=False)
class VolumeProfile:
    """Cumulative ball volume with a cached monotone interpolant.

    The antiderivative of Delta is tabulated on an equispaced knot grid and
    interpolated by a cubic Hermite spline that uses the exact derivative
    Delta at the knots, so the interpolant is monotone for this data.
    `coeffs` has shape (4, intervals): on interval k the cubic is
    coeffs[0, k] s^3 + coeffs[1, k] s^2 + coeffs[2, k] s + coeffs[3, k]
    with s = t - knots[k].  The verified error budget is 1e-9 relative to
    the total mass m(B_{t_max}), the scale of the radial CDF; very close
    to t = 0 the pointwise relative error of the cached value is worse
    than that (use ball_volume there instead).

    sample_radius inverts the radial CDF directly on this table: a search
    of `cumulative` picks each draw's knot interval, and a bracketed Newton
    solve on that interval's cubic finds the radius.  Every draw must
    reproduce its target mass to 1e-12 of m(B_t).
    """

    group: RankOneGroup
    t_max: float
    knots: np.ndarray
    cumulative: np.ndarray
    coeffs: np.ndarray

    def volume(self, t) -> np.ndarray:
        """m(B_t) for 0 <= t <= t_max (vectorized)."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and (np.min(t) < -1e-12 or np.max(t) > self.t_max + 1e-12):
            raise ValidationError(f"radius outside profile range [0, {self.t_max}]")
        t = np.clip(t, 0.0, self.t_max)
        # The knots are equispaced, so the scaled radius guesses the interval
        # with knots[k] <= t < knots[k + 1] (the last one for t = t_max), and
        # one step each way corrects its rounding.
        last = self.knots.size - 2
        k = np.clip((t * ((last + 1) / self.t_max)).astype(np.intp), 0, last)
        k -= self.knots[k] > t
        k += (k < last) & (self.knots[k + 1] <= t)
        c3, c2, c1, c0 = self.coeffs.take(k, axis=1)
        s = t - self.knots[k]
        z = s * s
        # Ascending powers, the summation order of scipy's PPoly.
        return np.maximum(c0 + c1 * s + c2 * z + c3 * (z * s), 0.0)

    def cdf(self, tau, t: float) -> np.ndarray:
        """Radial law m(B_tau) / m(B_t) of the uniform average on B_t."""
        total = float(self.volume(t))
        if total <= 0.0:
            raise ValidationError("cdf undefined for zero-volume ball")
        return self.volume(tau) / total

    def sample_radius(self, t: float, u, cdf_tol: float = 1e-12) -> np.ndarray:
        """Invert the radial CDF of B_t at the uniform variates u.

        One search of the knot table picks the interval holding each target
        mass u m(B_t); the root of that interval's Hermite cubic is then
        found by Newton steps on the stored coefficients, each kept inside
        the interval's bracket (a step that would leave it bisects instead).
        Iteration stops once every residual is within 1e-14 relative to its
        target mass, or the bracket has shrunk to 1e-15 max(t, 1).  The
        result must then reproduce u m(B_t) through volume() to cdf_tol
        relative to m(B_t), or ConvergenceError is raised.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        if u.size and (np.min(u) < 0.0 or np.max(u) > 1.0):
            raise ValidationError("uniform variates must lie in [0, 1]")
        total = float(self.volume(t))
        if total <= 0.0:
            raise ValidationError("cannot sample a zero-volume ball")
        target = u * total
        # The last usable interval is the one whose right knot is the first
        # knot >= t; u = 1 at t = t_max would otherwise index one past the end.
        last = min(max(int(np.searchsorted(self.knots, t)) - 1, 0), self.knots.size - 2)
        k = np.minimum(np.searchsorted(self.cumulative, target, side="right") - 1, last)
        left = self.knots[k]
        right = self.knots[k + 1]
        lo = np.zeros_like(left)
        hi = np.minimum(right, t) - left  # keeps every draw inside the ball
        c3, c2, c1, c0 = self.coeffs.take(k, axis=1)
        goal = target - c0
        # Start from the chord of the interval.
        rise = self.cumulative[k + 1] - c0
        s = np.clip((right - left) * goal / np.where(rise > 0.0, rise, 1.0), lo, hi)
        width_tol = 1e-15 * max(t, 1.0)
        for _ in range(_NEWTON_STEPS):
            resid = ((c3 * s + c2) * s + c1) * s - goal
            done = (np.abs(resid) <= 1e-14 * target) | (hi - lo <= width_tol)
            if np.all(done):
                break
            lo = np.where(resid < 0.0, s, lo)
            hi = np.where(resid > 0.0, s, hi)
            slope = (3.0 * c3 * s + 2.0 * c2) * s + c1
            with np.errstate(divide="ignore", invalid="ignore"):
                step = s - resid / slope
            # Inclusive test: a step that rounds back onto s, now a bracket end,
            # is kept; a strict one would bisect nearly converged points away.
            s = np.where(done, s, np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi)))
        tau = left + s
        err = np.max(np.abs(self.volume(tau) - target)) / total
        if err > cdf_tol:
            raise ConvergenceError(f"radial inversion missed CDF tolerance: {err:.3e}")
        return tau


def build_volume_profile(
    group: RankOneGroup,
    t_max: float,
    knot_spacing: Optional[float] = None,
) -> VolumeProfile:
    """Tabulate m(B_t) on [0, t_max] and the Hermite cubic on each interval.

    The default knot spacing h shrinks with rho so the quartic interpolation
    error, whose bound on an interval is (kappa h)^4 / 384 relative to the
    local mass, with kappa the log-derivative of Delta (it tends to 2 rho),
    stays under the 1e-9 budget; at the default 2 rho h <= 0.02.  Small
    balls get at least _MIN_KNOTS intervals: near t = 0 the mass grows like
    t^(n1 + n2 + 1), so a fixed spacing would leave the interpolation error
    large against the tiny total.

    Each interval's mass comes from the 4-point Gauss-Lobatto rule, nodes
    k, k + h (1 -+ 1/sqrt(5)) / 2 and k + h with weights h/12, 5h/12, 5h/12
    and h/12.  Its end values are the knot values of Delta that the Hermite
    slopes use, so Delta is evaluated 3n + 1 times for n intervals.  The
    rule is exact through degree 5 and its error is about
    6.6e-7 (kappa h)^6 relative to the interval: wherever the cubic meets
    its budget, kappa h <= 0.025 and the rule is at rounding level.  The
    budget is checked at build time against independent 20-node
    Gauss-Legendre quadrature.

    A group with n1 + n2 >= 2 needs t_max >= 1, or ValidationError is raised
    up front.  Below that the table can miss its budget, because a cubic
    with zero value and slope at 0 cannot follow a first interval whose mass
    grows like t^(n1 + n2 + 1).
    """
    _check_radius(group, t_max)
    if t_max <= 0.0:
        raise ValidationError("t_max must be positive")
    if group.n1 + group.n2 >= 2 and t_max < 1.0:
        raise ValidationError(
            f"volume profile of {group.label} needs t_max >= 1 (got {t_max}); "
            "use ball_volume for smaller balls"
        )
    if knot_spacing is None:
        knot_spacing = 0.01 / max(1.0, group.rho)
    _check_spacing("knot_spacing", knot_spacing)
    n = max(_MIN_KNOTS, int(math.ceil(t_max / knot_spacing)))
    knots = np.linspace(0.0, t_max, n + 1)
    h = np.diff(knots)
    d = delta(group, knots)
    # 4-point Gauss-Lobatto on each interval: its end nodes are the knots.
    off = 0.5 * (1.0 - 1.0 / math.sqrt(5.0)) * h
    inner = delta(group, np.stack([knots[:-1] + off, knots[1:] - off]))
    increments = (h / 12.0) * (d[:-1] + d[1:] + 5.0 * (inner[0] + inner[1]))
    cumulative = np.concatenate([[0.0], np.cumsum(increments)])
    # Hermite coefficients from the values and slopes at both ends of each
    # interval, highest power first, in scipy's CubicHermiteSpline arithmetic.
    slope = np.diff(cumulative) / h
    bend = (d[:-1] + d[1:] - 2 * slope) / h
    coeffs = np.array([bend / h, (slope - d[:-1]) / h - bend, d[:-1], cumulative[:-1]])
    profile = VolumeProfile(
        group=group, t_max=float(t_max), knots=knots, cumulative=cumulative, coeffs=coeffs
    )
    _verify_profile(profile)
    return profile


def _volumes_at(group: RankOneGroup, radii: np.ndarray, width: float) -> np.ndarray:
    """m(B_t) at sorted positive radii from one composite pass with panel ends at each."""
    edges = _panel_edges(np.concatenate([[0.0], radii]), width)
    nodes, weights = _gl_points(edges)
    increments = np.sum(delta(group, nodes) * weights, axis=1)
    return np.concatenate([[0.0], np.cumsum(increments)])[np.searchsorted(edges, radii)]


def _verify_profile(profile: VolumeProfile, samples: int = 17, budget: float = 1e-9) -> None:
    """Check the table against quadrature at 20 radii, to budget * m(B_{t_max}).

    The radii are three near zero and `samples` interval midpoints.  They and
    t_max share one composite Gauss-Legendre pass, run at panel widths 0.25
    and 0.125 (ball_volume's first two refinements); the two passes must
    agree to ball_volume's tolerance at every radius, or ConvergenceError.
    """
    mids = np.linspace(profile.t_max / samples, profile.t_max, samples) - profile.t_max / (2 * samples)
    near_zero = profile.t_max * np.array([1e-3, 0.01, 0.03])
    # np.sort, not np.unique: the latter imports numpy.ma on first use.
    radii = np.sort(np.concatenate([near_zero, mids, [profile.t_max]]))
    coarse = _volumes_at(profile.group, radii, _PANEL_WIDTH)
    direct = _volumes_at(profile.group, radii, 0.5 * _PANEL_WIDTH)
    unstable = np.abs(coarse - direct) > np.maximum(_ABS_TOL, _REL_TOL * np.abs(direct))
    if np.any(unstable):
        raise ConvergenceError(
            f"volume check quadrature did not stabilize at t={radii[np.argmax(unstable)]} "
            f"for {profile.group.label}"
        )
    cached = profile.volume(radii)
    miss = np.abs(cached - direct) > budget * direct[-1]
    if np.any(miss):
        k = int(np.argmax(miss))
        raise ConvergenceError(
            f"volume interpolant misses budget at t={radii[k]}: {cached[k]} vs {direct[k]}"
        )


# --------------------------------------------------------------------------
# Ball averages of spherical functions.


def psi_on_grid(group: RankOneGroup, param: SpectralParam, ts: Sequence[float]) -> np.ndarray:
    """psi_s at every point of an increasing radius grid.

    One 2F1 per radius by the identity in the module docstring, divided by
    m(B_t) from one composite quadrature of Delta with a panel end at every
    radius.  Delta / m(B_t) is formed first: Delta sinh t cosh t alone
    overflows near the radius bound (f4 at 2 rho t = 700).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0:
        return np.zeros(0)
    # Written so that NaN fails both tests too.
    if not np.min(ts) > 0.0:
        raise ValidationError("psi needs t > 0")
    if not np.all(np.diff(ts) > 0.0):
        raise ValidationError("radius grid must be strictly increasing")
    _check_radius(group, float(ts[-1]))
    if param.is_trivial:
        # Averaging the constant function is exact, no quadrature involved.
        return np.ones_like(ts)

    # The 2F1 comes first: _jacobi_2f1 checks the parameter and the
    # principal bound before any Delta or 2F1 work.
    kernel = _jacobi_2f1(group, param, ts, 1.0)
    ratio = delta(group, ts) / _volumes_at(group, ts, _PANEL_WIDTH)
    values = ratio * np.sinh(ts) * np.cosh(ts) * kernel / (2.0 * (group.alpha + 1.0))
    overshoot = np.max(np.abs(values)) - 1.0
    if overshoot > 1e-9:
        raise ConvergenceError(f"|psi| exceeded 1 by {overshoot:.3e}; evaluation unreliable")
    return np.clip(values, -1.0, 1.0)


def psi(group: RankOneGroup, param: SpectralParam, t: float) -> PsiValue:
    """Ball-averaged spherical function at a single radius."""
    value = psi_on_grid(group, param, np.array([float(t)]))[0]
    return PsiValue(t=float(t), param=param, value=float(value))


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
    best = 0.0
    for param in params:
        re_s = param.re_s(group)
        if re_s > r + 1e-12:
            raise ValidationError(
                f"parameter {param.label()} has re_s = {re_s} > r = {r}; bound does not apply"
            )
        values = np.abs(psi_on_grid(group, param, ts))
        best = max(best, float(np.max(values * np.exp((group.rho - r) * ts) / ts)))
    return best


def psi_asymptotic_constant(
    group: RankOneGroup,
    param: SpectralParam,
    ts: Tuple[float, float, float] = (20.0, 30.0, 40.0),
) -> float:
    """Limit of psi_s(t) e^{(rho-s)t} by sequence acceleration.

    Evaluates the normalized averages at three radii and applies one Aitken
    extrapolation step; the result must agree with the final raw value to
    1e-4 relative or ConvergenceError is raised.  The derived closed form
    c(s) * 2 rho / (rho + s) is exposed as psi_asymptotic_formula for
    cross-checks.  The trivial parameter returns 1 exactly; s = rho as a
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
    grid = np.asarray(ts, dtype=np.float64)
    if grid.size != 3 or np.any(np.diff(grid) <= 0):
        raise ValidationError("need three increasing radii")
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
    cval = hc_c_function(group, complementary(s)).value.real
    return cval * 2.0 * group.rho / (group.rho + s)


def psi_lipschitz_check(
    group: RankOneGroup,
    param: SpectralParam,
    t: float,
    eps: float,
) -> Tuple[float, float]:
    """Continuity bound pair (|psi(t+eps) - psi(t)|, shell mass ratio).

    The second component is m(B_{t+eps} minus B_t) / m(B_{t+eps}); the first
    never exceeds it beyond quadrature tolerance because both ball averages
    lie in the range of phi, an interval of diameter at most 1 here.
    """
    if not (t > 0.0 and eps > 0.0):
        raise ValidationError("need t > 0 and eps > 0")
    pair = psi_on_grid(group, param, np.array([t, t + eps]))
    jump = float(abs(pair[1] - pair[0]))
    v_t = ball_volume(group, t)
    v_te = ball_volume(group, t + eps)
    bound = (v_te - v_t) / v_te
    return jump, float(bound)
