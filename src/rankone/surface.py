"""Monte Carlo ball averages on the modular surface.

The group is PSL(2, R) acting on the upper half-plane, the quotient is by
PSL(2, Z), and the uniform measure on the hyperbolic disk of radius t
about the base point x0 is sampled in polar coordinates about x0: one
projective rotation angle plus a radius from the exact radial law,
m(B_tau) = 2 pi (cosh tau - 1), inverted in closed form.  Each sample
moves x0 by one map built from the tangent of the angle and e^{-tau}, so
no sine or cosine is taken.  The sample points are folded back into the
standard fundamental domain.  Every observable is the indicator of a
region there, evaluated as a boolean mask, so the estimator counts hits:
the estimate is the hit fraction, compared against the region's exact
normalized area.  For the cusp indicators the exact disk average is also
known, as a finite sum over the orbit of x0 (CuspIndicator.ball_mean).

Samples come in chunks of _CHUNK, each drawn from its own substream of
the seed, and each chunk is streamed through blocks of _BLOCK samples
that are drawn, mapped, reduced and counted in turn: no array holds a
chunk, and the samples and counts do not depend on _BLOCK.

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
# arrays stay in cache through the reduction's sweeps, and each of them
# (64 KiB) below glibc's 128 KiB mmap threshold.
_BLOCK = 8192
_DOMAIN_EDGE = 1.0 - 1e-15
# Sweeps before the reduction gives up with ConvergenceError.
_SWEEP_CAP = 10**6
# The reduction takes points within this hyperbolic distance of i; see
# _reduce_batch for what holds inside it.
_REACH = 28.0
_TWO_COSH_REACH = 2.0 * math.cosh(_REACH)
# Monte Carlo sample points lie within t + d(i, base) of i.  The margin
# covers the rounding of the sample map, far below 1e-6 in distance.
_MC_REACH = _REACH - 1e-6
# Word tolerance in units of eps times the scale set in _certify_word.
_WORD_K = 8.0
_EPS = float(np.finfo(np.float64).eps)
# Hyperbolic area of the modular surface.
_SURFACE_AREA = math.pi / 3.0
# Largest radius of the cusp orbit sum: it has about 3 e^t / (pi Y)
# terms, 77,715 for cusp:2 at t = 12.
_ORBIT_SUM_T_MAX = 12.0
# Orbit terms per block of the cap quadrature, and its Gauss-Legendre
# order: 24 nodes already reach the conditioning floor at t = 1, the
# widest integrand the quadrature takes.
_CAP_BLOCK = 4096
_CAP_NODES = 32
_GROUP = make_group("so", 2)


@dataclass(frozen=True)
class HPoint:
    """Upper half-plane point."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and self.y > 0.0):
            raise ValidationError("point needs finite x and y > 0")


def _mobius_xy(a, b, c, d, x, y, out=None):
    # Real Moebius action with the imaginary part written explicitly as
    # det * y / |cz + d|^2, which keeps it positive for det = 1.  With
    # cz + d = p + i c y, p is formed once; the arguments are not written.
    # The map works in three arrays of the broadcast shape, out or new
    # ones, and returns the image in the second and third.
    if out is None:
        shape = np.broadcast(a, b, c, d, x, y).shape
        out = (np.empty(shape), np.empty(shape), np.empty(shape))
    p, xn, den = out
    np.multiply(c, x, out=p)
    p += d
    np.multiply(c, y, out=xn)
    xn *= xn
    np.multiply(p, p, out=den)
    den += xn
    np.multiply(a, x, out=xn)
    xn += b
    xn *= p
    acyy = np.multiply(a, c, out=p)
    acyy *= y
    acyy *= y
    xn += acyy
    xn /= den
    return xn, np.divide(y, den, out=den)


def _dist_xy(x1, y1, x2, y2):
    # Distance in the hyperbolic metric of the upper half-plane, as
    # 2 asinh(|z - w| / (2 sqrt(y1 y2))); arccosh(1 + q) with
    # q = |z - w|^2 / (2 y1 y2) returns 0 once q < eps/2.
    return 2.0 * np.arcsinh(np.sqrt(((x1 - x2) ** 2 + (y1 - y2) ** 2) / (4.0 * y1 * y2)))


def _so21_radius(t, u):
    # m(B_tau) / m(B_t) = sinh^2(tau/2) / sinh^2(t/2); arcsinh keeps the
    # digits at small u that arccosh(1 + u (cosh t - 1)) would lose.
    # Overwrites the uniforms u with the radii and returns u.
    np.sqrt(u, out=u)
    u *= math.sinh(0.5 * t)
    np.arcsinh(u, out=u)
    u *= 2.0
    return u


def _draw_polar(t, angles, radii, n):
    # One block of n samples: n angle uniforms from the generator angles,
    # scaled to [0, pi) in place, then n radial uniforms from radii, mapped
    # to the radius in place.  With one generator for both, the two arrays
    # are rows 0 and 1 of its random((2, n)).
    theta = angles.random(n)
    theta *= math.pi
    return theta, _so21_radius(t, radii.random(n))


def _ball_xy(theta, tau, x0, y0):
    """x0 + y0 k(theta) a_{-tau} i, the point at distance tau from x0 + i y0.

    k(theta) turns the tangent plane at i by 2 theta, so theta uniform on
    [0, pi) with tau from the radial law is uniform on the ball.  With
    t1 = tan(theta) and s = e^{-tau},

        k(theta) a_{-tau} i = (t1 (1 - s^2) + i s (1 + t1^2)) / (1 + s^2 t1^2),

    so the map takes one tan and one exp.  At tau = 0 the quotient in y
    is exactly 1 and the sample is x0 itself.
    """
    t1 = np.tan(theta)
    s = np.negative(tau)
    np.exp(s, out=s)
    den = s * t1
    den *= den
    den += 1.0
    y = np.square(t1)
    y += 1.0
    y *= s
    y /= den
    y *= y0
    np.square(s, out=s)
    x = np.subtract(1.0, s, out=s)
    x *= t1
    x /= den
    x *= y0
    x += x0
    return x, y


# --------------------------------------------------------------------------
# Reduction to the standard fundamental domain.


def _certify_word(x_in, y_in, x, y, word, work=None):
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

    work is three float64 arrays of the batch's shape, the first holding
    |z|^2 = x^2 + y^2 of the iterate; _reduce_batch passes the sweeps'
    |z|^2, formed by the same operations in the same order, and two
    buffers it no longer needs.  The domain test reads |z|^2, and the
    determinant, the image and the residual are then formed in the three
    arrays, which the certificate overwrites; with work given it
    allocates no array of the batch's size.  Without it, the certificate
    forms |z|^2 and the buffers itself.
    """
    wa, wb, wc, wd = word
    if work is None:
        r2 = np.square(x)
        r2 += np.square(y)
        work = (r2, np.empty_like(r2), np.empty_like(r2))
    r2, det, bc = work
    # Written as "not ok" so that a NaN, which fails every comparison and
    # makes max and min NaN, fails the check instead of slipping past
    # "any error too large".
    edge = 0.5 + 1e-12
    if not (x.max() <= edge and x.min() >= -edge and r2.min() >= 1.0 - 1e-12):
        raise ConvergenceError("reduction left a point outside the domain")
    # In range |ad| and |bc| stay below 2^53, so both products and their
    # difference are exact.
    np.multiply(wa, wd, out=det)
    np.multiply(wb, wc, out=bc)
    det -= bc
    if not (det.min() == 1.0 and det.max() == 1.0):
        raise ConvergenceError("accumulated word does not have determinant 1")
    # The word's image of the input.
    num, den = _mobius_xy(wa, wb, wc, wd, x_in, y_in, out=work)
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


def _fold_all(x, y, r2, keep, n, tmp):
    # T^n S in one step, applied in place to every point and then undone
    # at the indices keep: most points take it, and one pass over the
    # whole arrays costs less than gathering them.  Every point is in the
    # strip |x| <= 1/2 and r2 is its |z|^2; with v = x / |z|^2 the image
    # -v + i y / |z|^2 of S goes back to the strip by T^n, n = rint(v), so
    # x becomes n - v.  Leaves n in n and the new |z|^2 in r2.
    saved = x[keep], y[keep]
    x /= r2
    y /= r2
    np.rint(x, out=n)
    np.subtract(n, x, out=x)
    x[keep], y[keep] = saved
    np.square(x, out=r2)
    np.square(y, out=tmp)
    r2 += tmp


def _fold_some(x, y, r2, idx):
    # The step of _fold_all for the few points at idx, gathered and
    # scattered back with their |z|^2; returns their n.
    r2i = r2[idx]
    xi = x[idx]
    xi /= r2i
    n = np.rint(xi)
    np.subtract(n, xi, out=xi)
    yi = y[idx]
    yi /= r2i
    x[idx] = xi
    y[idx] = yi
    np.square(xi, out=xi)
    np.square(yi, out=yi)
    xi += yi
    r2[idx] = xi
    return n


def _reduce_batch(x, y):
    """Fold points into {|Re| <= 1/2, |z| >= 1}, accumulating the word.

    The input is translated into the strip |Re| <= 1/2 once, and each
    sweep then applies S to the points with |z| < 1 together with the
    translation that brings them back to the strip; a point that did not
    take S is not translated again.

    The word starts as the translation's (1, -m0; 0, 1), m0 = rint(x), and
    the first sweep writes its product with T^n S directly: a point that
    takes S gets (n, -n m0 - 1; 1, -m0), one that does not keeps
    (1, -m0; 0, 1), bit for bit what the general step gives from that
    word.  Every sweep counts against _SWEEP_CAP, the first one included,
    and so does the last one, which finds no point left to move.

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

    x and y are 1-D and of one length; anything else is rejected with
    ValidationError before any work.  An empty batch returns empty
    arrays without a sweep.
    """
    x_in = np.asarray(x, dtype=np.float64)
    y_in = np.asarray(y, dtype=np.float64)
    if x_in.ndim != 1 or x_in.shape != y_in.shape:
        raise ValidationError("points to reduce must be two 1-D arrays of one length")
    if x_in.size == 0:
        return np.empty(0), np.empty(0), tuple(np.empty(0) for _ in range(4))
    # 2 cosh d(i, z) = (x^2 + 1) / y + y; NaN fails min and max, and
    # infinities the bound.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tmp = np.square(x_in)
        tmp += 1.0
        tmp /= y_in
        tmp += y_in
        in_range = y_in.min() > 0.0 and tmp.max() <= _TWO_COSH_REACH
    if not in_range:
        raise ValidationError(f"points to reduce must lie within hyperbolic distance {_REACH:g} of i")
    if _SWEEP_CAP < 1:
        raise ConvergenceError("reduction did not terminate within the iteration cap")
    # T^{-m0}, m0 = rint(x); 0.0 - m0, not -m0, gives the +0.0 that
    # translating a zero entry gives.
    m = np.rint(x_in)
    x = x_in - m
    y = y_in.copy()
    size = x.size
    neg_m0 = np.subtract(0.0, m)
    r2 = np.square(x)
    np.square(y, out=tmp)
    r2 += tmp
    inside = np.less(r2, _DOMAIN_EDGE)
    count = np.count_nonzero(inside)
    # The first sweep, against the word (1, -m0; 0, 1).  Where T^n S is
    # taken the word's rows (a, b), (c, d) become n (a, b) - (c, d) and
    # (a, b); where no point takes it, idx is empty.
    if 2 * count > size:
        wc = inside.astype(np.float64)
        keep = np.logical_not(inside, out=inside).nonzero()[0]
        wa = np.empty(size)
        _fold_all(x, y, r2, keep, wa, tmp)
        wb = np.multiply(wa, neg_m0)
        wb -= 1.0
        wd = neg_m0
        wa[keep] = 1.0
        wb[keep] = wd[keep]
        wd[keep] = 1.0
    else:
        wc = inside.astype(np.float64)
        idx = inside.nonzero()[0]
        n = _fold_some(x, y, r2, idx)
        b = neg_m0[idx]
        wa = np.ones(size)
        wa[idx] = n
        wb = neg_m0.copy()
        wb[idx] = n * b - 1.0
        wd = np.ones(size)
        wd[idx] = b
    # The sweep above was the first of the _SWEEP_CAP; the loop ends with
    # count 0 unless it runs out of sweeps.
    for _ in range(_SWEEP_CAP - 1):
        np.less(r2, _DOMAIN_EDGE, out=inside)
        count = np.count_nonzero(inside)
        if count == 0:
            break
        if 2 * count > size:
            keep = np.logical_not(inside, out=inside).nonzero()[0]
            saved = wa[keep], wb[keep], wc[keep], wd[keep]
            _fold_all(x, y, r2, keep, m, tmp)
            np.multiply(m, wa, out=tmp)
            np.subtract(tmp, wc, out=wc)
            np.multiply(m, wb, out=tmp)
            np.subtract(tmp, wd, out=wd)
            wa, wb, wc, wd = wc, wd, wa, wb
            wa[keep], wb[keep], wc[keep], wd[keep] = saved
        else:
            idx = inside.nonzero()[0]
            n = _fold_some(x, y, r2, idx)
            a, b = wa[idx], wb[idx]
            wa[idx] = n * a - wc[idx]
            wb[idx] = n * b - wd[idx]
            wc[idx] = a
            wd[idx] = b
    if count:
        raise ConvergenceError("reduction did not terminate within the iteration cap")
    # r2 is the |z|^2 of the returned iterate; tmp and m are free.
    word = (wa, wb, wc, wd)
    _certify_word(x_in, y_in, x, y, word, (r2, tmp, m))
    return x, y, word


# --------------------------------------------------------------------------
# Observables on the fundamental domain.


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, from the asymptotic
    guesses cos(pi (k + 3/4) / (n + 1/2)).
    """
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_CAP_NODES)


def _cusp_cap_area(eta, t, height):
    """Hyperbolic area of {Im z > height} inside radius-t disks centred at height eta.

    That is A = 2 * integral of sqrt((eta e^t - y)(y - eta e^-t)) / y^2
    dy over y from max(height, eta e^-t) to eta e^t.  With p = cosh t,
    q = sinh t and y = eta (p + q cos u), u the angle at the disk's
    Euclidean centre from its top, the cut at height lies at u = psi and

        A = integral_0^psi 2 q^2 sin^2 u / (e^-t + 2 q cos^2(u/2))^2 du
          = 4 p atan(e^-t tan(psi/2)) - 2 psi + 2 q sin psi / (e^-t + 2 q cos^2(psi/2)).

    The closed form cancels for small caps and for small t, and the
    integrand peaks near u = pi as t grows, so Gauss-Legendre takes
    psi <= pi/2 at every t and every psi at t <= 1, and the closed form
    the rest.  sin^2 and cos^2 of psi/2 come from (height - eta) / eta and
    expm1(+-t), not from psi.  Relative error: a few eps times the
    condition number of A in (eta, t, height); against mpmath, 1.4e-13 or
    better at t = 1e-6 to 12 unless the cut lies within 1e-4 of the top
    or bottom of the disk, where A is that sensitive to its inputs.
    """
    p, q = math.cosh(t), math.sinh(t)
    emt = math.exp(-t)
    d = (height - eta) / eta
    # 2 q sin^2(psi/2) and 2 q cos^2(psi/2): the cut below the top and
    # above the bottom of the disk, in units of eta.
    above = np.maximum(math.expm1(t) - d, 0.0)
    below = np.maximum(d - math.expm1(-t), 0.0)
    half = np.arctan2(np.sqrt(above), np.sqrt(below))
    area = np.empty_like(half)
    closed = half > 0.25 * math.pi if t > 1.0 else np.zeros(half.shape, dtype=bool)
    quad = ~closed
    if np.any(quad):
        h = half[quad, None]
        u = h * (1.0 + _GL_NODES)
        c = np.cos(0.5 * u)
        den = emt + 2.0 * q * c * c
        f = np.sin(u)
        f *= f
        f /= den * den
        area[quad] = (2.0 * q * q) * (h[:, 0] * (f @ _GL_WEIGHTS))
    if np.any(closed):
        total = above[closed] + below[closed]
        c2 = below[closed] / total
        s2 = above[closed] / total
        area[closed] = (
            4.0 * p * np.arctan2(emt * np.sqrt(s2), np.sqrt(c2))
            - 4.0 * half[closed]
            + 4.0 * q * np.sqrt(s2 * c2) / (emt + 2.0 * q * c2)
        )
    return area


def _cusp_orbit_heights(t, height, x0, y0):
    """Imaginary parts eta = y0 / |c z0 + d|^2 of the orbit points whose t-disk reaches above height.

    One term per coset of the stabiliser of infinity in PSL(2, Z), that
    is per coprime (c, d) up to sign: (0, 1) and c >= 1.  A term counts
    when eta e^t > height, that is |c z0 + d|^2 < y0 e^t / height.
    """
    bound = y0 * math.exp(t) / height
    c = np.arange(1.0, math.floor(math.sqrt(bound) / y0) + 1.0)
    reach = np.sqrt(np.maximum(bound - (c * y0) ** 2, 0.0))
    # Every d with |c x0 + d| < reach, with a margin of one either side;
    # the exact test below drops the extra ones.
    lo = np.floor(-c * x0 - reach)
    counts = (np.ceil(-c * x0 + reach) - lo + 1.0).astype(np.int64)
    cs = np.repeat(c, counts)
    ds = np.arange(cs.size, dtype=np.float64)
    ds += np.repeat(lo - np.cumsum(counts) + counts, counts)
    coprime = np.gcd(cs.astype(np.int64), ds.astype(np.int64)) == 1
    cs, ds = cs[coprime], ds[coprime]
    norm = (cs * x0 + ds) ** 2 + (cs * y0) ** 2
    etas = y0 / norm[norm < bound]
    if y0 * math.exp(t) > height:
        etas = np.concatenate(([y0], etas))
    return etas


def _cusp_orbit_sum(t, height, x0, y0):
    # The sum of CuspIndicator.ball_mean from the base x0 + i y0 as given.
    etas = _cusp_orbit_heights(t, height, x0, y0)
    total = 0.0
    for lo in range(0, etas.size, _CAP_BLOCK):
        total += float(_cusp_cap_area(etas[lo:lo + _CAP_BLOCK], t, height).sum())
    return total / (4.0 * math.pi * math.sinh(0.5 * t) ** 2)


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

    def ball_mean(self, t: float, base: Optional[HPoint] = None) -> float:
        """Exact average over the radius-t disk about base, the estimand of mc_average.

        A point's reduced image lies above height >= 1 exactly when one
        of its orbit points does, and then only one coset's does, so the
        average is the sum over the orbit points g x0 of the area of
        {Im z > height} inside their t-disks, divided by
        m(B_t) = 4 pi sinh^2(t/2).  It is the same for every point of the
        base's orbit, so the sum runs from the base's reduced point and
        has about 3 e^t / (pi height) terms (77,715 for cusp:2 at t = 12)
        wherever the base is.  The domain is 0 < t <= 12 and a base within
        hyperbolic distance 28 of i, the reduction's range; anything else
        is rejected with ValidationError before any term is formed.  At
        t = 1, 2 and 6 it is within 5e-16 of mpmath.
        """
        t = float(t)
        if not 0.0 < t <= _ORBIT_SUM_T_MAX:
            raise ValidationError(
                f"the cusp orbit sum takes radii in (0, {_ORBIT_SUM_T_MAX:g}]; got {t}"
            )
        if base is None:
            base = _DEFAULT_BASE
        x0, y0, _ = _reduce_batch(np.array([base.x]), np.array([base.y]))
        return _cusp_orbit_sum(t, self.height, float(x0[0]), float(y0[0]))

    def eval_batch(self, x, y):
        return np.asarray(y) > self.height


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
        return q < np.multiply(y, self._scale)


class ConstantObservable:
    """The constant function 1; its average is exact for any sampling."""

    def label(self) -> str:
        return "const"

    def mean(self) -> float:
        return 1.0

    def eval_batch(self, x, y):
        return np.ones(np.shape(x), dtype=bool)


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


def _run_chunk(t, base, obs, seq, size):
    # The chunk's substream is the rng.random((2, size)) of a generator on
    # seq: row 0 the angles, row 1 the radial uniforms.  Blocks stream it
    # in order, the angles from that generator and the radial uniforms
    # from a second one advanced past the angles, so no array holds the
    # chunk and the samples do not depend on _BLOCK.  A chunk of one
    # block reads both rows from the one generator.  The observable is an
    # indicator whose eval_batch returns a boolean mask, and the chunk
    # returns its number of hits, the same however the chunk is blocked.
    angles = np.random.Generator(np.random.PCG64(seq))
    radii = angles
    if size > _BLOCK:
        radii = np.random.Generator(np.random.PCG64(seq).advance(size))
    hits = 0
    for lo in range(0, size, _BLOCK):
        x, y = _ball_xy(*_draw_polar(t, angles, radii, min(_BLOCK, size - lo)), base.x, base.y)
        xr, yr, _ = _reduce_batch(x, y)
        mask = np.asarray(obs.eval_batch(xr, yr))
        if mask.dtype != bool or mask.shape != xr.shape:
            raise ValidationError(f"observable {obs.label()} must return one boolean per point")
        hits += np.count_nonzero(mask)
    return hits


_DEFAULT_BASE = HPoint(0.1, 1.3)


def _check_seed(seed) -> int:
    # numpy's SeedSequence takes non-negative integers only.
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer; got {seed}")
    return seed


def _check_reach(t: float, base: HPoint) -> None:
    # Every sample lies within t of x0, which lies d(i, x0) from i, so
    # t + d(i, x0) must be inside the reduction's range.
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
    """Monte Carlo estimate of the average of obs over the radius-t disk about the base point.

    Each sample evaluates obs at a point drawn uniformly from the
    hyperbolic disk {z : d(z, x0) <= t}, x0 the base point, folded into
    the fundamental domain.  obs is an indicator: its eval_batch returns
    a boolean mask, one entry per point, and the estimate is the fraction
    of hits; any other mask is rejected with ValidationError.  For cusp
    indicators CuspIndicator.ball_mean gives the exact value of this
    average.

    Samples are drawn in fixed-size chunks, each from its own substream
    of the master seed, and reduced in chunk order.  Each chunk streams
    its substream through cache-sized blocks, so no array holds a chunk
    and the samples do not depend on the block size.  At t = 0 every sample
    is x0 itself, so the estimate is obs at x0 exactly, with standard error
    0.  The supported radii are t + d(i, base) < 28, so t < 27.72 at the
    default base (0.1, 1.3): every sample then lies in the reduction's
    range, where each reduced point is certified by its integer word to
    K eps (1 + (1 + |x|) / y) in the hyperbolic metric (x, y the sample,
    K = 8; at most 1.4e-6 for t <= 20).  A radius outside it is rejected
    with ValidationError before any draw.
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
    hits = 0
    for i, lo in enumerate(range(0, n, _CHUNK)):
        # Chunk i draws from the i-th child of SeedSequence(seed), the one
        # its spawn() would return.
        seq = np.random.SeedSequence(seed, spawn_key=(i,))
        hits += _run_chunk(float(t), base, obs, seq, min(_CHUNK, n - lo))
    estimate = hits / n
    # An indicator's sum of squares is its number of hits.
    if n > 1:
        variance = max(hits - n * estimate * estimate, 0.0) / (n - 1)
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

    The radii come from the Monte Carlo's own draw, _draw_polar, as one
    block of n angle and n radial uniforms from one generator.  The reference CDF is the volume profile's cdf on
    SO(2,1), read as 0 or 1 outside [0, t].  Its volumes, 2 sinh^2(tau/2),
    share algebra but no code with _so21_radius, which inverts them; the
    tests check them against a quadrature of the density.  The threshold
    1.63 / sqrt(n) is the asymptotic 1 percent critical value of the
    two-sided statistic.
    """
    if not t > 0.0:
        raise ValidationError("radius t must be positive")
    n = int(n)
    if n < 100:
        raise ValidationError("KS test needs at least 100 samples")
    seed = _check_seed(seed)
    profile = build_volume_profile(_GROUP, float(t))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    _, tau = _draw_polar(t, rng, rng, n)
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
