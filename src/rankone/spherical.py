"""Spherical functions and their decay data on a rank-one group.

With alpha, beta the Jacobi-type parameters of the group and s the
spectral coordinate (s = i*lam on the tempered axis), the spherical
function along the Cartan coordinate t >= 0 is

    phi_s(t) = 2F1((rho+s)/2, (rho-s)/2; alpha+1; -sinh(t)^2),

so phi is 1 at t = 0, identically 1 at s = rho, and bounded by 1.  Its
large-t behaviour for 0 < Re s < rho is phi_s(t) ~ c(s) e^{-(rho-s)t}
with the gamma-quotient coefficient computed by hc_c_function.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .groups import PRINCIPAL_KIND, RankOneGroup, SpectralParam, check_param
from .hyper import _gamma_quotient, gauss_2f1_neg

_UNIT_SLACK = 1e-11  # |phi| may exceed 1 by roundoff only
# Largest principal lam evaluated, for phi and for psi's kernel (the same
# 2F1 with a, b, c shifted by 1).  On so:3, the worst case among the
# groups, phi stays within 6.3e-11 of sin(lam t)/(lam sinh t) for every
# lam <= 16, and no lam <= 16.5 misses 1e-10 (steps of 0.01, radii in
# [0.01, 25] and dense near t = 1.3169).  psi stays within 5.7e-12 of its
# closed form for every lam <= 16 and within 9e-12 up to 16.5 (steps of
# 0.05, radii in [0.2, 25] and dense near t = 1.3169).  Beyond, the Pfaff
# series loses digits to cancellation at its edge |x| = 3, t = 1.3169.
MAX_PRINCIPAL_LAMBDA = 16.0


def _jacobi_2f1(group: RankOneGroup, params: Sequence[SpectralParam], ts: np.ndarray, shift: float) -> np.ndarray:
    """2F1(a + shift, b + shift; c + shift; -sinh(t)^2), a, b = (rho +- s)/2, c = alpha + 1.

    One row per parameter, each shaped like ts, from one gauss_2f1_neg
    call.  Shift 0 gives phi_s and shift 1 the kernel of psi_s.  The domain
    is the radii at which sinh(t)^2 is a finite double, t <= 355.58; every
    parameter, the principal bound and the radii are checked before any
    2F1 work.
    """
    for param in params:
        check_param(group, param)
        if param.kind == PRINCIPAL_KIND and param.value > MAX_PRINCIPAL_LAMBDA:
            raise ValidationError(
                f"principal lam = {param.value} exceeds the verified bound {MAX_PRINCIPAL_LAMBDA}"
            )
    with np.errstate(over="ignore"):
        x = -np.sinh(ts) ** 2
    # Written so that NaN fails the test too.
    if not (x > -np.inf).all():
        raise ValidationError("radius t must keep sinh(t)^2 finite in double precision (t <= 355.58)")
    s = [param.s_complex(group) for param in params]
    a = [(group.rho + v) / 2.0 + shift for v in s]
    b = [(group.rho - v) / 2.0 + shift for v in s]
    c = group.alpha + 1.0 + shift
    return gauss_2f1_neg(a, b, c, x)


def _phi_rows(group: RankOneGroup, params: Sequence[SpectralParam], ts) -> np.ndarray:
    """phi_s(a_t) of every parameter at the radii ts >= 0, one row each, from one 2F1 call.

    The constant function's row is exact: its b = (rho - s)/2 is 0, for
    which gauss_2f1_neg returns ones.
    """
    ts = np.asarray(ts, dtype=np.float64)
    # Written so that NaN fails the test too.
    if ts.size and not ts.min() >= 0.0:
        raise ValidationError("t >= 0 required")
    # No radii need no 2F1.
    if ts.size == 0:
        return np.ones((len(params),) + ts.shape)
    values = _jacobi_2f1(group, params, ts, 0.0)
    np.copyto(values, 1.0, where=ts == 0.0)
    for param, row in zip(params, values):
        overshoot = np.abs(row).max() - 1.0
        if overshoot > _UNIT_SLACK:
            raise ConvergenceError(
                f"|phi| exceeded 1 by {overshoot:.3e} for {param.label()}; evaluation is unreliable"
            )
    return np.clip(values, -1.0, 1.0, out=values)


def spherical_fn_many(group: RankOneGroup, param: SpectralParam, ts) -> np.ndarray:
    """phi_s(a_t) on an array of Cartan coordinates t >= 0.

    Principal parameters are supported up to lam = MAX_PRINCIPAL_LAMBDA, and
    radii up to t = 355.58, where sinh(t)^2 leaves double precision.
    """
    return _phi_rows(group, [param], ts)[0]


def hc_c_function(group: RankOneGroup, param: SpectralParam) -> complex:
    """Gamma-quotient decay coefficient c(s); complex on the tempered axis.

    c(s) = 2^{rho-s} Gamma(alpha+1) Gamma(s)
           / [Gamma((rho+s)/2) Gamma((s+alpha-beta+1)/2)],

    defined for complementary parameters 0 < s <= rho' and tempered
    parameters with lam > 0; the constant function and the s = 0 boundary
    are rejected.  The Gamma quotient is the connection formula's
    (hyper._gamma_quotient): math.gamma ratios for real s, log-gammas on
    the tempered axis.
    """
    check_param(group, param)
    if param.is_trivial:
        raise ValidationError("the constant spherical function has no decay coefficient")
    s = param.s_complex(group)
    if s == 0.0:
        raise ValidationError("s = 0 boundary point has a c-function pole")
    rho, alpha, beta = group.rho, group.alpha, group.beta
    quotient = _gamma_quotient((alpha + 1.0, s), ((rho + s) / 2.0, (s + alpha - beta + 1.0) / 2.0))
    return 2.0 ** (rho - s) * quotient  # complex, as s is


def certify_decay_bound(
    group: RankOneGroup,
    params: Iterable[SpectralParam],
    t_grid: Sequence[float],
) -> List[Tuple[SpectralParam, float]]:
    """Empirical constant for the first-order decay bound.

    For each parameter, returns C* = max over the grid of
    |phi_s(a_t)| e^{(rho - re s) t} / (1 + t); C* is finite because the
    bound it certifies holds with some constant for every parameter.
    """
    ts = np.asarray(list(t_grid), dtype=np.float64)
    if ts.size == 0:
        raise ValidationError("empty t grid")
    params = list(params)
    results: List[Tuple[SpectralParam, float]] = []
    for param, values in zip(params, np.abs(_phi_rows(group, params, ts))):
        decay = group.rho - param.re_s(group)
        ratio = values * np.exp(decay * ts) / (1.0 + ts)
        c_star = float(np.max(ratio))
        if not math.isfinite(c_star):
            raise ConvergenceError(f"decay certificate diverged for {param.label()}")
        results.append((param, c_star))
    return results
