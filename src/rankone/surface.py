"""Monte Carlo ball averages on the modular surface.

The group is PSL(2, R) acting on the upper half-plane, the quotient is by
PSL(2, Z), and the uniform measure on a Riemannian ball is sampled in
Cartan coordinates: two projective rotation angles plus a radius from the
exact radial law, m(B_tau) = 2 pi (cosh tau - 1), inverted in closed form.
Each sample moves the base point by one Moebius map built from the tangents
of the two angles and e^{-tau}, so no sine or cosine is taken.  Orbit
points are folded back into the standard fundamental domain, where
indicator observables are compared against their exact normalized areas.

The reduction takes points within hyperbolic distance 28 of i (for
|x| <= 1/2, every y in [1e-12, 1e12]), so the Monte Carlo takes radii
with t + d(i, base) < 28; anything beyond is rejected with
ValidationError before any work.  Each reduced point is certified by its
integer word: the word has determinant exactly 1, and its image of the
input agrees with the reduced point to 8 eps (1 + (1 + |x|) / y) in the
hyperbolic metric, where x + iy is the input: at most 1.4e-6 for Monte
Carlo radii up to 20 and 3.1e-3 at the edge of the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ballavg import _check_radius, build_volume_profile
from .errors import ConvergenceError, ValidationError
from .groups import make_group
from .model import DecayReport

_CHUNK = 65536
# Points per block within a chunk: small enough that one block's working
# arrays stay in cache through the reduction's sweeps.
_BLOCK = 8192
_DOMAIN_EDGE = 1.0 - 1e-15
# Sweeps before the reduction gives up with ConvergenceError.
_SWEEP_CAP = 10**6
# The reduction takes points within this hyperbolic distance of i; see
# _reduce_batch for what holds inside it.
_REACH = 28.0
_TWO_COSH_REACH = 2.0 * math.cosh(_REACH)
# Monte Carlo orbit points lie within t + d(i, base) of i.  The margin
# covers the rounding of the sample map, far below 1e-6 in distance.
_MC_REACH = _REACH - 1e-6
# Word tolerance in units of eps times the scale set in _certify_word.
_WORD_K = 8.0
_EPS = float(np.finfo(np.float64).eps)
# Hyperbolic area of the modular surface.
_SURFACE_AREA = math.pi / 3.0
_GROUP = make_group("so", 2)


@dataclass(frozen=True)
class HPoint:
    """Upper half-plane point."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise ValidationError("point needs finite x and y > 0")


def _mobius_xy(a, b, c, d, x, y):
    # Real Moebius action with the imaginary part written explicitly as
    # det * y / |cz + d|^2, which keeps it positive for det = 1.  With
    # cz + d = p + i c y, p is formed once; the arguments are not written.
    p = c * x
    p += d
    den = p * p
    cy = c * y
    cy *= cy
    den += cy
    xn = a * x
    xn += b
    xn *= p
    acyy = a * c
    acyy *= y
    acyy *= y
    xn += acyy
    xn /= den
    return xn, y / den


def _dist_xy(x1, y1, x2, y2):
    # Distance in the hyperbolic metric of the upper half-plane, as
    # 2 asinh(|z - w| / (2 sqrt(y1 y2))); arccosh(1 + q) with
    # q = |z - w|^2 / (2 y1 y2) returns 0 once q < eps/2.
    return 2.0 * np.arcsinh(np.sqrt(((x1 - x2) ** 2 + (y1 - y2) ** 2) / (4.0 * y1 * y2)))


def _so21_radius(t, u):
    # m(B_tau) / m(B_t) = sinh^2(tau/2) / sinh^2(t/2); arcsinh keeps the
    # digits at small u that arccosh(1 + u (cosh t - 1)) would lose.
    return 2.0 * np.arcsinh(np.sqrt(u) * math.sinh(0.5 * t))


def _draw_cartan(t, rng, n):
    # Draw order is fixed: theta1, theta2, then the radial uniform.  The
    # angles are one (2, n) block of the stream, scaled to [0, pi) in place.
    thetas = rng.random((2, n))
    thetas *= math.pi
    return thetas[0], thetas[1], _so21_radius(t, rng.random(n))


# --------------------------------------------------------------------------
# Reduction to the standard fundamental domain.


def _certify_word(x_in, y_in, x, y, word):
    """Check that each word carries its input point to the reduced point.

    Raises ConvergenceError unless every point lies in the domain (to
    1e-12), every word has ad - bc = 1 exactly, and the word's image of
    the input agrees with the sweep's iterate in both coordinates to

        tol = K eps (1 + (1 + |x_in|) / y_in) y,    K = 8.

    The rounding of the input, about (1 + |x_in|) eps, is stretched by the
    map's condition number y / y_in, and the sweeps add a few eps of y, so
    tol / y bounds in the hyperbolic metric how far the reduced point may
    lie from the exact image of the input.  Over Monte Carlo points at
    t = 2-27.7 and points at every scale within _REACH of i, the worst
    residual measured was 0.6 eps (1 + (1 + |x_in|) / y_in) y, 0.074 of
    tol.  Returns the worst residual as a fraction of tol.
    """
    wa, wb, wc, wd = word
    # Written as "not ok" so that a NaN, which fails every comparison,
    # fails the check instead of slipping past "any error too large".
    r2 = np.square(x)
    r2 += np.square(y)
    if not (np.abs(x).max() <= 0.5 + 1e-12 and r2.min() >= 1.0 - 1e-12):
        raise ConvergenceError("reduction left a point outside the domain")
    # In range |ad| and |bc| stay below 2^53, so both products and their
    # difference are exact.
    det = wa * wd
    det -= wb * wc
    if not (det == 1.0).all():
        raise ConvergenceError("accumulated word does not have determinant 1")
    # The word's image of the input, from the orbit map's own Moebius action.
    num, den = _mobius_xy(wa, wb, wc, wd, x_in, y_in)
    num -= x
    np.abs(num, out=num)
    den -= y
    np.abs(den, out=den)
    np.maximum(num, den, out=num)
    # Residual over the scale (1 + (1 + |x_in|) / y_in) y.
    scale = np.abs(x_in, out=den)
    scale += 1.0
    scale /= y_in
    scale += 1.0
    scale *= y
    num /= scale
    worst = float(num.max()) / (_WORD_K * _EPS)
    if not worst <= 1.0:
        raise ConvergenceError("accumulated word does not reproduce the reduced point")
    return worst


def _reduce_batch(x, y):
    """Fold points into {|Re| <= 1/2, |z| >= 1}, accumulating the word.

    The input is translated into the strip |Re| <= 1/2 once, and each
    sweep then applies S to the points with |z| < 1 together with the
    translation that brings them back to the strip; a point that did not
    take S is not translated again.

    The range is every point within hyperbolic distance 28 of i, that is
    (x^2 + 1) / y + y <= 2 cosh 28: for x in [-1/2, 1/2] it holds every y
    in [1e-12, 1e12].  A point outside it, or not finite, is rejected with
    ValidationError before the first sweep.  In range the word entries
    stay below 2^53 (|ad| < 3e12), so they are exact integers in float64,
    and the certificate's tolerance (see _certify_word) is at most
    3.1e-3 y.  A word that takes one translation too many carries the
    input to x + 1 instead of x, which that tolerance catches wherever the
    reduced point has y < 320.  At d(i, z) <= 20.3, the Monte Carlo reach
    at t = 20, the tolerance is below 1.4e-6 y.  The returned point is
    the sweep's own iterate.
    """
    x_in = np.asarray(x, dtype=np.float64)
    y_in = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # 2 cosh d(i, z) = (x^2 + 1) / y + y; NaN and infinities fail it.
        in_range = (y_in > 0.0) & ((x_in * x_in + 1.0) / y_in + y_in <= _TWO_COSH_REACH)
    if not in_range.all():
        raise ValidationError(f"points to reduce must lie within hyperbolic distance {_REACH:g} of i")
    # T^{-m}, m = rint(x), applied to the input and the identity word;
    # 0.0 - m, not -m, gives the +0.0 that translating a zero entry gives.
    m = np.rint(x_in)
    x = x_in - m
    y = y_in.copy()
    size = x.size
    wa = np.ones(size)
    wb = np.subtract(0.0, m)
    wc = np.zeros(size)
    wd = np.ones(size)
    r2 = np.empty_like(x)
    tmp = np.empty_like(x)
    inside = np.empty(x.shape, dtype=bool)
    np.square(x, out=r2)
    np.square(y, out=tmp)
    r2 += tmp
    for _ in range(_SWEEP_CAP):
        # Every point is in the strip |x| <= 1/2 here, and r2 is its
        # |z|^2: only S takes a point out of the strip, and the translation
        # that goes with S brings back the points that took it.
        np.less(r2, _DOMAIN_EDGE, out=inside)
        count = np.count_nonzero(inside)
        if count == 0:
            break
        # S and the T^{-n} after it in one step: with v = x / |z|^2 the
        # image -v + i y / |z|^2 takes n = rint(-v) = -m for m = rint(v),
        # so x becomes m - v, and the word's rows (a, b), (c, d) become
        # m (a, b) - (c, d) and (a, b).
        if 2 * count > size:
            # Most points take S: apply it to the whole arrays, then put
            # back the few that should not have taken it.
            keep = np.flatnonzero(np.logical_not(inside, out=inside))
            saved = x[keep], y[keep], wa[keep], wb[keep], wc[keep], wd[keep]
            x /= r2
            y /= r2
            np.rint(x, out=m)
            np.subtract(m, x, out=x)
            np.multiply(m, wa, out=tmp)
            np.subtract(tmp, wc, out=wc)
            np.multiply(m, wb, out=tmp)
            np.subtract(tmp, wd, out=wd)
            wa, wb, wc, wd = wc, wd, wa, wb
            x[keep], y[keep], wa[keep], wb[keep], wc[keep], wd[keep] = saved
            np.square(x, out=r2)
            np.square(y, out=tmp)
            r2 += tmp
        else:
            # Few points take S: gather them, and scatter back their new
            # point, word and |z|^2.
            idx = np.flatnonzero(inside)
            r2i = r2[idx]
            xi = x[idx]
            xi /= r2i
            mi = np.rint(xi)
            np.subtract(mi, xi, out=xi)
            yi = y[idx]
            yi /= r2i
            x[idx] = xi
            y[idx] = yi
            a, b = wa[idx], wb[idx]
            wa[idx] = mi * a - wc[idx]
            wb[idx] = mi * b - wd[idx]
            wc[idx] = a
            wd[idx] = b
            np.square(xi, out=xi)
            np.square(yi, out=yi)
            xi += yi
            r2[idx] = xi
    else:
        raise ConvergenceError("reduction did not terminate within the iteration cap")
    word = (wa, wb, wc, wd)
    _certify_word(x_in, y_in, x, y, word)
    return x, y, word


# --------------------------------------------------------------------------
# Observables on the fundamental domain.


class CuspIndicator:
    """Indicator of the cusp neighborhood Im z > height."""

    def __init__(self, height: float):
        if not height >= 1.0:
            raise ValidationError("cusp height must be >= 1 to stay in the domain")
        self.height = float(height)

    def label(self) -> str:
        return f"cusp:{self.height:g}"

    def mean(self) -> float:
        return (1.0 / self.height) / _SURFACE_AREA

    def eval_batch(self, x, y):
        return (np.asarray(y) > self.height).astype(np.float64)


class DiskIndicator:
    """Indicator of a hyperbolic disk contained in the fundamental domain."""

    def __init__(self, center: HPoint, radius: float):
        if not radius > 0.0:
            raise ValidationError("disk radius must be positive")
        self.center = center
        self.radius = float(radius)
        cx, cy = center.x, center.y
        if abs(cx) > 0.5 or cx * cx + cy * cy < 1.0:
            raise ValidationError("disk center must lie in the fundamental domain")
        sr = math.sinh(self.radius)
        # Distances to the three boundary geodesics: the two vertical
        # lines and the unit circle.
        to_lines = min(0.5 - cx, 0.5 + cx) / cy
        to_circle = (cx * cx + cy * cy - 1.0) / (2.0 * cy)
        if min(to_lines, to_circle) < sr:
            raise ValidationError("disk must be contained in the fundamental domain")
        # d(z, c) < r iff |z - c|^2 < 4 y c_y sinh^2(r/2) = y * _scale: the
        # quantity _dist_xy forms before its arcsinh, compared squared.
        self._scale = 4.0 * cy * math.sinh(0.5 * self.radius) ** 2

    def label(self) -> str:
        return f"disk:{self.center.x:g},{self.center.y:g},{self.radius:g}"

    def mean(self) -> float:
        return 2.0 * math.pi * (math.cosh(self.radius) - 1.0) / _SURFACE_AREA

    def eval_batch(self, x, y):
        q = np.subtract(x, self.center.x)
        q *= q
        dy = np.subtract(y, self.center.y)
        dy *= dy
        q += dy
        return (q < np.multiply(y, self._scale)).astype(np.float64)


class ConstantObservable:
    """The constant function 1; its average is exact for any sampling."""

    def label(self) -> str:
        return "const"

    def mean(self) -> float:
        return 1.0

    def eval_batch(self, x, y):
        return np.ones_like(np.asarray(x, dtype=np.float64))


def parse_observable(text: str):
    """Parse 'cusp:Y', 'disk:cx,cy,r', or 'const'."""
    name, _, rest = text.partition(":")
    try:
        if name == "cusp":
            return CuspIndicator(float(rest))
        if name == "disk":
            cx, cy, r = (float(v) for v in rest.split(","))
            return DiskIndicator(HPoint(cx, cy), r)
        if name == "const" and not rest:
            return ConstantObservable()
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"malformed observable {text!r}: {exc}") from None
    raise ValidationError(f"unknown observable {text!r}")


# --------------------------------------------------------------------------
# Monte Carlo driver.


@dataclass(frozen=True)
class MCRun:
    """Result of one Monte Carlo ball average."""

    t: float
    samples: int
    seed: int
    observable: str
    base: HPoint
    estimate: float
    standard_error: float


def _chunk_sizes(n: int, chunk: int):
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    return sizes


def _orbit_xy(theta1, theta2, tau, x0, y0):
    """g^{-1} x0 = k(-theta2) a_{-tau} k(-theta1) x0 as one Moebius map.

    Projectively k(-theta) = [[1, tan theta], [-tan theta, 1]] and
    a_{-tau} = diag(e^{-tau}, 1), so the product needs tan and exp only;
    its determinant s (1 + t1^2)(1 + t2^2) goes into the imaginary part.
    """
    t1 = np.tan(theta1)
    t2 = np.tan(theta2)
    s = np.negative(tau)
    np.exp(s, out=s)
    u = t2 * s
    # The matrix [[s - t2 t1, s t1 + t2], [-(u + t1), 1 - u t1]], u = t2 s,
    # built in place.
    a = t2 * t1
    np.subtract(s, a, out=a)
    b = s * t1
    b += t2
    c = u + t1
    np.negative(c, out=c)
    np.multiply(u, t1, out=u)
    d = np.subtract(1.0, u, out=u)
    x, y = _mobius_xy(a, b, c, d, x0, y0)
    # y times the determinant s (1 + t1^2)(1 + t2^2).
    np.square(t1, out=t1)
    t1 += 1.0
    np.square(t2, out=t2)
    t2 += 1.0
    s *= t1
    s *= t2
    y *= s
    return x, y


def _run_chunk(t, base, obs, seq, size):
    rng = np.random.Generator(np.random.PCG64(seq))
    theta1, theta2, tau = _draw_cartan(t, rng, size)
    # The chunk is drawn whole, so the substream order does not depend on
    # the block size.  Each block's temporaries stay in cache through the
    # reduction's sweeps, and the values are summed once at the end, so
    # the pairwise sums match an unblocked chunk bit for bit.
    values = np.empty(size)
    for lo in range(0, size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        # g^{-1} x0, one Moebius map built from tan of the angles; Haar
        # measure on the ball is inversion invariant, so this has the law
        # of g x0.
        x, y = _orbit_xy(theta1[block], theta2[block], tau[block], base.x, base.y)
        xr, yr, _ = _reduce_batch(x, y)
        values[block] = obs.eval_batch(xr, yr)
    return float(values.sum()), float((values * values).sum())


_DEFAULT_BASE = HPoint(0.1, 1.3)


def _check_seed(seed) -> int:
    # numpy's SeedSequence takes non-negative integers only.
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer; got {seed}")
    return seed


def _check_reach(t: float, base: HPoint) -> None:
    # An orbit point g^{-1} x0 lies within d(i, x0) of g^{-1} i, which lies
    # within t of i; t + d(i, x0) must be inside the reduction's range.
    if not t + float(_dist_xy(0.0, 1.0, base.x, base.y)) <= _MC_REACH:
        raise ValidationError(
            f"radius plus the base point's distance from i must be below {_REACH:g}"
        )


def mc_average(
    t: float,
    n: int,
    obs,
    seed: int,
    base: Optional[HPoint] = None,
) -> MCRun:
    """Monte Carlo estimate of the t-ball average of obs over the K-orbit of the base point.

    Each sample evaluates obs at g^-1 x0, with g uniform in the group ball
    {g : d(g i, i) <= t} and x0 the base point.  The law of g^-1 x0 is
    invariant under rotation about i, so the estimand is the disk average
    of radius t about x0 averaged over the K-orbit of x0 about i, not the
    disk average about x0 itself (they agree for x0 = i).  For cusp:2 at
    base (0.1, 1.3) and t = 0.5 the two are 0.00816 and 0.02402.

    Samples are drawn in fixed-size chunks, each from its own substream
    of the master seed, and reduced in chunk order.  At t = 0 the draws
    are the average over the K-orbit of the base point, the limit as
    t -> 0+.  The supported radii are t + d(i, base) < 28, so t < 27.72
    at the default base (0.1, 1.3): every orbit point then lies in the
    reduction's range, where each reduced point is certified by its
    integer word to K eps (1 + (1 + |x|) / y) in the hyperbolic metric
    (x, y the orbit point, K = 8; at most 1.4e-6 for t <= 20).  A radius
    outside it is rejected with ValidationError before any draw.
    """
    _check_radius(_GROUP, t)
    n = int(n)
    if n < 1:
        raise ValidationError("sample count must be positive")
    seed = _check_seed(seed)
    if base is None:
        base = _DEFAULT_BASE
    _check_reach(t, base)
    label = obs.label()
    sizes = _chunk_sizes(n, _CHUNK)
    # Chunk i draws from the i-th child of SeedSequence(seed), the one its
    # spawn() would return.
    partials = [
        _run_chunk(float(t), base, obs, np.random.SeedSequence(seed, spawn_key=(i,)), size)
        for i, size in enumerate(sizes)
    ]
    total = sum(p[0] for p in partials)
    total_sq = sum(p[1] for p in partials)
    estimate = total / n
    if n > 1:
        variance = max(total_sq - n * estimate * estimate, 0.0) / (n - 1)
    else:
        variance = 0.0
    stderr = math.sqrt(variance / n)
    return MCRun(float(t), n, seed, label, base, estimate, stderr)


@dataclass(frozen=True)
class KSResult:
    """Kolmogorov-Smirnov audit of the sampled radial law."""

    t: float
    samples: int
    statistic: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.statistic < self.threshold


def ks_radial_test(t: float, n: int, seed: int) -> KSResult:
    """Compare the empirical law of the sampled radius with the Haar CDF.

    The reference CDF is the volume profile's cdf on SO(2,1), read as 0
    or 1 outside [0, t].  Its volumes, 2 sinh^2(tau/2), share algebra but
    no code with _so21_radius, which inverts them; the tests check them
    against a quadrature of the density.  The threshold 1.63 / sqrt(n) is
    the asymptotic 1 percent critical value of the two-sided statistic.
    """
    if not t > 0.0:
        raise ValidationError("radius t must be positive")
    n = int(n)
    if n < 100:
        raise ValidationError("KS test needs at least 100 samples")
    seed = _check_seed(seed)
    profile = build_volume_profile(_GROUP, float(t))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    _, _, tau = _draw_cartan(t, rng, n)
    tau = np.sort(tau)
    cdf = profile.cdf(np.clip(tau, 0.0, t), float(t))
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    statistic = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    return KSResult(float(t), n, statistic, 1.63 / math.sqrt(n))


def decay_scan(
    t_grid,
    n: int,
    obs,
    seed: int,
    base: Optional[HPoint] = None,
) -> DecayReport:
    """Deviation of MC ball averages from the space mean, against t e^{-t/2}.

    The envelope constant is the empirical supremum of deviation over the
    shape, taken on the points whose deviation stands above the 4-sigma
    Monte Carlo noise band, so the reported envelope genuinely bounds the
    signal; the decay exponent is a separate least-squares fit reported
    with its uncertainty.  When every point is noise the constant is zero
    and only the noise band remains.
    """
    ts = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if ts.size == 0:
        raise ValidationError("scan grid must be nonempty")
    # Written so that NaN fails both tests too.
    if not (np.min(ts) >= 1.0 and np.max(ts) <= 10.0):
        raise ValidationError("scan grid must lie in [1, 10]")
    if not np.all(np.diff(ts) > 0.0):
        raise ValidationError("scan grid must be strictly increasing")
    seed = _check_seed(seed)
    if base is None:
        base = _DEFAULT_BASE
    _check_reach(float(ts[-1]), base)
    mean = obs.mean()
    seeds = np.random.SeedSequence(seed).generate_state(ts.size, dtype=np.uint64)
    estimates = np.empty_like(ts)
    stderrs = np.empty_like(ts)
    for i, t in enumerate(ts):
        run = mc_average(float(t), n, obs, int(seeds[i]), base=base)
        estimates[i] = run.estimate
        stderrs[i] = run.standard_error
    deviations = np.abs(estimates - mean)
    shape = ts * np.exp(-0.5 * ts)
    signal = deviations > 4.0 * stderrs
    fitted_constant = 0.0
    fitted_exponent = None
    exponent_stderr = None
    if np.any(signal):
        fitted_constant = float(np.max(deviations[signal] / shape[signal]))
        if np.count_nonzero(signal) >= 3:
            coef, cov = np.polyfit(ts[signal], np.log(deviations[signal]), 1, cov=True)
            fitted_exponent = float(coef[0])
            exponent_stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    envelopes = fitted_constant * shape
    return DecayReport(
        ts=ts,
        deviations=deviations,
        envelopes=envelopes,
        fitted_exponent=fitted_exponent,
        fitted_constant=fitted_constant,
        fitted_exponent_stderr=exponent_stderr,
        estimates=estimates,
        stderrs=stderrs,
    )
