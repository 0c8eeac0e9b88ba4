"""Synthetic spectral model of ball averaging.

Under the purity constraint the averaging operator acts diagonally on the
spectral decomposition: every component is scaled by the ball average of
its spherical function.  A vector is therefore represented by its
component norms alone, which is enough to evaluate mean decay rates,
direction convergence toward the leading atom, and the series constants
behind the pointwise sampling arguments.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .ballavg import _psi_rows
# Unused here: perfbench/spans.py traces this name and needs it to stay.
from .ballavg import psi_on_grid  # noqa: F401
from .errors import ValidationError
from .groups import (
    RankOneGroup,
    SpectralParam,
    complementary,
    parse_group,
    parse_param,
    trivial,
)


@dataclass(frozen=True)
class PuritySpectrum:
    """Spectral data: atoms s_0 > s_1 > ... > s_k above a strip bound r.

    Atom 0 is the constants (s_0 equals rho), the remaining atoms are
    isolated complementary parameters in (r, rho'], and omega collects the
    weighted continuous components with re s <= r.  Construction checks
    every one of these inequalities, with r > 0 and finite weights >= 0,
    and raises one ValidationError that lists each violation.
    """

    group: RankOneGroup
    atoms: Tuple[float, ...]
    r: float
    omega: Tuple[Tuple[SpectralParam, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(float(s) for s in self.atoms))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(
            self, "omega", tuple((p, float(w)) for p, w in self.omega)
        )
        group, atoms, r = self.group, self.atoms, self.r
        problems = []
        if not atoms:
            problems.append("atom list is empty (s_0 = rho is mandatory)")
        elif abs(atoms[0] - group.rho) > 1e-12:
            problems.append(f"s_0 = {atoms[0]} != rho = {group.rho}")
        for j in range(1, len(atoms)):
            if not atoms[j] < atoms[j - 1]:
                problems.append(f"atoms not strictly decreasing at index {j}: {atoms[j-1]} -> {atoms[j]}")
        for j, s in enumerate(atoms):
            if not s > r:
                problems.append(f"atom s_{j} = {s} is not above r = {r}")
        for j, s in enumerate(atoms[1:], start=1):
            if s > group.rho_prime + 1e-12:
                problems.append(f"atom s_{j} = {s} exceeds rho' = {group.rho_prime}")
        if not (r > 0.0):
            problems.append(f"r = {r} must be positive")
        for i, (param, weight) in enumerate(self.omega):
            if not (math.isfinite(weight) and weight >= 0.0):
                problems.append(f"omega[{i}] weight {weight} must be finite and >= 0")
            re_s = param.re_s(group)
            if re_s > r + 1e-12:
                problems.append(f"omega[{i}] ({param.label()}) has re_s = {re_s} > r = {r}")
        if problems:
            raise ValidationError("invalid spectrum: " + "; ".join(problems))


@dataclass(frozen=True)
class SpectralVector:
    """Component norms of a vector: one entry per atom and per omega slot.

    The squared norm is the sum of the squared entries, so any weight a
    continuous component carries is already folded into its entry.
    """

    atom_norms: Tuple[float, ...]
    omega_norms: Tuple[float, ...] = ()

    def __post_init__(self):
        atom = tuple(float(v) for v in self.atom_norms)
        omega = tuple(float(v) for v in self.omega_norms)
        for v in atom + omega:
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError("component norms must be finite and >= 0")
        object.__setattr__(self, "atom_norms", atom)
        object.__setattr__(self, "omega_norms", omega)

    def norm(self) -> float:
        return math.sqrt(
            sum(v * v for v in self.atom_norms)
            + sum(v * v for v in self.omega_norms)
        )


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Deviation sizes against the t e^{-(rho-r)t} envelope on a grid.

    ratios, deviation over envelope (0 where the envelope is 0), and their
    maximum sup_ratio are derived on construction.
    """

    ts: np.ndarray
    deviations: np.ndarray
    envelopes: np.ndarray
    ratios: np.ndarray = field(init=False)
    sup_ratio: float = field(init=False)
    fitted_exponent: Optional[float]
    fitted_constant: Optional[float]
    fitted_exponent_stderr: Optional[float] = None
    estimates: Optional[np.ndarray] = None
    stderrs: Optional[np.ndarray] = None

    def __post_init__(self):
        dev, env = self.deviations, self.envelopes
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(env > 0.0, dev / np.where(env > 0.0, env, 1.0), 0.0)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "sup_ratio", float(np.max(ratios)) if ratios.size else 0.0)


def _require_aligned(spec: PuritySpectrum, f: SpectralVector) -> None:
    if len(f.atom_norms) != len(spec.atoms):
        raise ValidationError(
            f"vector has {len(f.atom_norms)} atom entries, spectrum has {len(spec.atoms)}"
        )
    if len(f.omega_norms) != len(spec.omega):
        raise ValidationError(
            f"vector has {len(f.omega_norms)} omega entries, spectrum has {len(spec.omega)}"
        )


def _as_grid(ts, minimum: float) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if ts.size == 0:
        raise ValidationError("time grid must be nonempty")
    # Written so that NaN fails both tests too.
    if not np.min(ts) >= minimum:
        raise ValidationError(f"time grid must start at {minimum} or later")
    if not np.all(np.diff(ts) > 0.0):
        raise ValidationError("time grid must be strictly increasing")
    return ts


def _multipliers(spec: PuritySpectrum, ts: np.ndarray, atoms: bool) -> np.ndarray:
    """psi rows of the atoms, when `atoms` is set, then of the omega components.

    One _psi_rows call, so one _ball_volumes pass, gives every row.  Atom 0
    is the constants, the trivial parameter: its row is exactly 1, as
    averaging leaves them untouched.
    """
    params = [trivial()] + [complementary(s) for s in spec.atoms[1:]] if atoms else []
    return _psi_rows(spec.group, params + [p for p, _ in spec.omega], ts)


def deviation_on_grid(spec: PuritySpectrum, f: SpectralVector, ts) -> np.ndarray:
    """Distance between the average and the atom expansion, per grid point.

    Atoms contribute exactly zero: averaging acts on them by scalar
    multiplication, so the whole deviation is carried by omega.
    """
    _require_aligned(spec, f)
    ts = _as_grid(ts, minimum=1e-12)
    if not spec.omega:
        return np.zeros_like(ts)
    mult = _multipliers(spec, ts, atoms=False)
    weights = np.asarray(f.omega_norms, dtype=np.float64)
    return np.sqrt(np.sum((mult * weights[:, None]) ** 2, axis=0))


def theorem_mean_report(spec: PuritySpectrum, f: SpectralVector, t_grid) -> DecayReport:
    """Mean decay audit: deviations against t e^{-(rho-r)t} ||f|| on a grid.

    The grid lives in [1, T].  The fitted exponent is a least squares
    slope of log deviation against t, reported as None when there are not
    enough nonzero deviations to fit.
    """
    _require_aligned(spec, f)
    ts = _as_grid(t_grid, minimum=1.0 - 1e-12)
    dev = deviation_on_grid(spec, f, ts)
    fnorm = f.norm()
    env = ts * np.exp(-(spec.group.rho - spec.r) * ts) * fnorm
    positive = dev > 0.0
    fitted_exponent = None
    fitted_constant = None
    if np.count_nonzero(positive) >= 2:
        slope, intercept = np.polyfit(ts[positive], np.log(dev[positive]), 1)
        fitted_exponent = float(slope)
        fitted_constant = float(math.exp(intercept))
    return DecayReport(
        ts=ts,
        deviations=dev,
        envelopes=env,
        fitted_exponent=fitted_exponent,
        fitted_constant=fitted_constant,
    )


def direction_convergence(spec: PuritySpectrum, f: SpectralVector, t_grid) -> np.ndarray:
    """Distance of the normalized deviation from the constants to atom 1.

    The deviation here is the average minus the projection to constants,
    with signed components.  A zero deviation is reported as distance 0:
    there is nothing left to point anywhere else.
    """
    _require_aligned(spec, f)
    if len(spec.atoms) < 2:
        raise ValidationError("direction check needs a second atom")
    if f.atom_norms[1] <= 0.0:
        raise ValidationError("direction check needs mass on atom 1")
    ts = _as_grid(t_grid, minimum=1e-12)
    # Row 0, the constants, is left out: the deviation is measured from them.
    mult = _multipliers(spec, ts, atoms=True)[1:]
    weights = np.asarray(f.atom_norms[1:] + f.omega_norms, dtype=np.float64)
    comps = mult * weights[:, None]
    norms = np.sqrt(np.sum(comps**2, axis=0))
    out = np.zeros_like(ts)
    nz = norms > 0.0
    if np.any(nz):
        unit = comps[:, nz] / norms[nz]
        unit[0, :] -= 1.0
        out[nz] = np.sqrt(np.sum(unit**2, axis=0))
    return out


# --------------------------------------------------------------------------
# Series constants for the pointwise sampling arguments.


@dataclass(frozen=True, eq=False)
class SeriesReport:
    """Terms and partial constants of the discrete-time series."""

    eps: float
    terms: np.ndarray
    partial_constants: np.ndarray
    comparison_coefficient: float
    tail_bound: float


def discrete_constant_report(
    spec: PuritySpectrum, f: SpectralVector, eps: float, n_max: int
) -> SeriesReport:
    """Audit of sum_n n^{-3-2eps} e^{2(rho-r)n} dev(n)^2 up to n_max.

    Terms are assembled in log space so the exponential growth factor
    never overflows on its own.  The comparison coefficient is the
    empirical sup of term * n^{1+2eps}; with it the tail beyond n_max is
    bounded by coefficient * n_max^{-2eps} / (2 eps).
    """
    if not eps > 0.0:
        raise ValidationError("eps must be positive")
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    dev = deviation_on_grid(spec, f, ns)
    gap = spec.group.rho - spec.r
    terms = np.zeros_like(ns)
    pos = dev > 0.0
    if np.any(pos):
        log_terms = (
            (-3.0 - 2.0 * eps) * np.log(ns[pos])
            + 2.0 * gap * ns[pos]
            + 2.0 * np.log(dev[pos])
        )
        terms[pos] = np.exp(log_terms)
    partial = np.sqrt(np.cumsum(terms))
    coef = float(np.max(terms * ns ** (1.0 + 2.0 * eps))) if terms.size else 0.0
    tail = coef * n_max ** (-2.0 * eps) / (2.0 * eps)
    return SeriesReport(
        eps=float(eps),
        terms=terms,
        partial_constants=partial,
        comparison_coefficient=coef,
        tail_bound=float(tail),
    )


# --------------------------------------------------------------------------
# The refining time grid and its summability certificate.

_MAX_GRID_POINTS = 5_000_000  # cap on a time_grid, and on one enumerated interval
# ln 1e-100, finite_sum_check's floor on delta e^{-delta m_max/2}, which is
# about u1 = 1 - e^{-delta/q}: above it the u1**3 its closed form divides by
# is a normal double.
_LOG_MIN_U1 = -100.0 * math.log(10.0)


def _interval_count(delta: float, m: int) -> int:
    return int(math.floor(math.exp(0.5 * delta * m) + 1.0))


def time_grid(delta: float, m_max: int) -> np.ndarray:
    """Grid on [1, m_max+1]: each [m, m+1] split into floor(e^{delta m/2}+1) parts.

    The grid starts at 1 and the point count per unit interval grows
    geometrically, so its domain is the m_max whose grid holds at most
    _MAX_GRID_POINTS = 5e6 points (m_max <= 55 at delta = 0.5).  The last
    interval alone holds more than e^{delta m_max/2} points, so
    delta m_max / 2 <= ln 5e6 is checked first, before any count is formed.
    """
    if not delta > 0.0:
        raise ValidationError("delta must be positive")
    m_max = int(m_max)
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if not 0.5 * delta * m_max <= math.log(_MAX_GRID_POINTS):
        raise ValidationError(
            f"grid would hold more than e^{0.5 * delta * m_max:.6g} points, "
            f"above the cap {_MAX_GRID_POINTS}"
        )
    counts = [_interval_count(delta, m) for m in range(1, m_max + 1)]
    total = 1 + sum(counts)
    if total > _MAX_GRID_POINTS:
        raise ValidationError(
            f"grid would hold {total} points, above the cap {_MAX_GRID_POINTS}"
        )
    grid = np.empty(total)
    grid[0] = 1.0
    start = 1
    for m, q in zip(range(1, m_max + 1), counts):
        grid[start : start + q] = m + np.arange(1, q + 1, dtype=np.float64) / q
        start += q
    return grid


@dataclass(frozen=True, eq=False)
class SummabilityReport:
    """Partial sums of sum t_n^2 e^{-delta t_n} with their dominating series.

    Interval sums are closed-form geometric expressions, cross-checked
    against direct enumeration on the intervals small enough to
    materialize; domination is asserted termwise on those same intervals.
    """

    delta: float
    m_values: np.ndarray
    interval_sums: np.ndarray
    partial_sums: np.ndarray
    dominating_terms: np.ndarray
    dominating_partial_sums: np.ndarray
    domination_checked_to: int
    domination_min_slack: float
    enumeration_max_rel_gap: float
    cauchy_m: int
    cauchy_gap: float


# Below this delta the numerators of s1 and s2 in _interval_sum_closed
# cancel to about delta^2 and delta^3, and it takes the series form.
_SMALL_DELTA = 0.1
# Taylor coefficients at 0 of phi2(x) = (e^x - 1 - x) / x^2,
# phi3(x) = (e^x - 1 - x - x^2/2) / x^3, psi(x) = ((x - 1) e^x + 1) / x^2
# and chi(x) = ((x^2 - 2x + 2) e^x - 2) / x^3.  At |x| < 0.1 the first
# term left out is below 1e-24 of the sum.
_PHI2 = tuple(1.0 / math.factorial(n + 2) for n in range(14))
_PHI3 = tuple(1.0 / math.factorial(n + 3) for n in range(14))
_PSI = tuple((n + 1) / math.factorial(n + 2) for n in range(14))
_CHI = tuple((n + 1) * (n + 2) / math.factorial(n + 3) for n in range(14))


def _taylor(coeffs: Tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _interval_sum_closed(delta: float, m: int) -> float:
    # Sum of (m + j/q)^2 y^j for j = 1..q with y = e^{-delta/q}; the three
    # geometric pieces are written with expm1 so tiny delta/q stays exact.
    q = _interval_count(delta, m)
    u1 = -math.expm1(-delta / q)
    y = math.exp(-delta / q)
    yq = math.exp(-delta)
    if delta < _SMALL_DELTA:
        # With w = 1/q, e = delta w, r = delta / u1 and f1 = (1 - yq) / delta:
        # s0 = y r f1, s1 = y r^2 t1 and s2 = y r^3 t2, where t1 and t2 are
        # the numerators over delta^2 and delta^3, expanded so that no term
        # cancels by more than a factor of 3.
        w = 1.0 / q
        e = delta * w
        f1 = -math.expm1(-delta) / delta
        p2, p3 = _taylor(_PHI2, -e), _taylor(_PHI3, -e)
        psi, chi = _taylor(_PSI, -delta), _taylor(_CHI, -delta)
        t1 = psi + w * yq * p2
        t2 = chi + w * (2.0 * p2 * yq - psi - 2.0 * w * p3 * yq) + w * w * p2 * (f1 - delta * p2 * yq)
        g = e / u1  # r / q
        return math.exp(-delta * m) * y * (delta / u1) * (m * m * f1 + g * (2.0 * m * t1 + g * t2))
    a = q * u1
    s0 = y * (1.0 - yq) / u1
    s1 = y * (1.0 - yq * (a + 1.0)) / (u1 * u1)
    s2 = y * (1.0 + y - yq * (2.0 + 2.0 * a - u1 + a * a)) / (u1 * u1 * u1)
    return math.exp(-delta * m) * (m * m * s0 + (2.0 * m / q) * s1 + s2 / (q * q))


def _interval_enumerate(delta: float, m: int) -> Tuple[float, float]:
    # Returns (sum, worst term) for the interval's grid points.  The points
    # and their decay factors live in one buffer each, updated in place:
    # the same operations in the same order as
    # points**2 * np.exp(-delta * points), so the same bits.
    q = _interval_count(delta, m)
    points = np.arange(1, q + 1, dtype=np.float64)
    points /= q
    points += m
    terms = np.multiply(points, -delta)
    np.exp(terms, out=terms)
    points *= points
    terms *= points
    return float(terms.sum()), float(terms.max())


def finite_sum_check(
    delta: float, m_max: int, enumerate_limit: int = 60
) -> SummabilityReport:
    """Summability certificate for the grid series sum t_n^2 e^{-delta t_n}.

    Every unit interval [m, m+1] contributes a closed-form sum; intervals
    up to enumerate_limit are additionally enumerated point by point to
    confirm the closed form and the termwise bound (m+1)^2 e^{-delta m}.
    The Cauchy gap compares the partial sum at m_max with the one at
    m_max // 2.

    The closed form divides by u1^3 with u1 = 1 - e^{-delta/q}, about
    delta e^{-delta m/2}.  The domain is the m_max with
    delta e^{-delta m_max/2} >= 1e-100 (m_max <= 918 at delta = 0.5): there
    u1^3 stays a normal double and every interval sum is finite.  Below
    delta = 0.1 the closed form is a series form that does not cancel.  The
    enumeration holds the points of one interval at a time, more than
    e^{delta m/2} of them, so it takes delta min(enumerate_limit, m_max) / 2
    <= ln 5e6 (enumerate_limit <= 61 at delta = 0.5), time_grid's cap.  It
    keeps two float64 buffers of that interval, the points and their
    terms, about 16 e^{delta m/2} bytes at the largest m enumerated: 52 MB
    at delta = 0.5, m = 60.
    """
    if not delta > 0.0:
        raise ValidationError("delta must be positive")
    m_max = int(m_max)
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if enumerate_limit < 1:
        raise ValidationError("enumerate_limit must be at least 1")
    # Written so that NaN (delta = inf) fails the test too.
    if not math.log(delta) - 0.5 * delta * m_max >= _LOG_MIN_U1:
        raise ValidationError(
            f"m_max = {m_max} is outside the domain at delta = {delta:g}: "
            "the closed form needs delta e^(-delta m_max/2) >= 1e-100"
        )
    checked_to = min(enumerate_limit, m_max)
    if not 0.5 * delta * checked_to <= math.log(_MAX_GRID_POINTS):
        raise ValidationError(
            f"enumerating up to m = {checked_to} at delta = {delta:g} would make "
            f"more than e^{0.5 * delta * checked_to:.6g} points in one interval, "
            f"above the cap {_MAX_GRID_POINTS}; lower the enumerate limit"
        )
    m_values = np.arange(1, m_max + 1)
    interval_sums = np.array([_interval_sum_closed(delta, int(m)) for m in m_values])
    dominating = np.array(
        [
            (m + 1.0) ** 2 * float(_interval_count(delta, int(m))) * math.exp(-delta * m)
            for m in m_values
        ]
    )
    min_slack = math.inf
    max_gap = 0.0
    for m in range(1, checked_to + 1):
        esum, worst = _interval_enumerate(delta, m)
        bound = (m + 1.0) ** 2 * math.exp(-delta * m)
        min_slack = min(min_slack, bound - worst)
        max_gap = max(max_gap, abs(esum - interval_sums[m - 1]) / max(esum, 1e-300))
    partial = np.cumsum(interval_sums)
    dom_partial = np.cumsum(dominating)
    cauchy_m = max(1, m_max // 2)
    cauchy_gap = float(partial[-1] - partial[cauchy_m - 1])
    return SummabilityReport(
        delta=float(delta),
        m_values=m_values,
        interval_sums=interval_sums,
        partial_sums=partial,
        dominating_terms=dominating,
        dominating_partial_sums=dom_partial,
        domination_checked_to=checked_to,
        domination_min_slack=float(min_slack),
        enumeration_max_rel_gap=float(max_gap),
        cauchy_m=cauchy_m,
        cauchy_gap=cauchy_gap,
    )


def load_spectrum(source) -> Tuple[PuritySpectrum, SpectralVector]:
    """Read a spectrum configuration and its test vector.

    Accepts a mapping or a path to a JSON file with keys: group, optional
    rho_prime, atoms (spectral parameters of the atoms, leading entry is
    the constant's), r, omega (list of {param, weight} entries), and
    f = {atom_norms, omega_norms}.  Malformed input raises ValidationError.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                cfg = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read spectrum file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spectrum file is not valid JSON: {exc}") from exc
    else:
        cfg = source
    if not isinstance(cfg, dict):
        raise ValidationError("spectrum config must be a mapping")
    try:
        group = parse_group(str(cfg["group"]), rho_prime=cfg.get("rho_prime"))
        atoms = tuple(float(a) for a in cfg["atoms"])
        r = float(cfg["r"])
        omega = tuple(
            (parse_param(str(entry["param"])), float(entry.get("weight", 1.0)))
            for entry in cfg.get("omega", ())
        )
        f_cfg = cfg["f"]
        f = SpectralVector(
            atom_norms=tuple(float(v) for v in f_cfg["atom_norms"]),
            omega_norms=tuple(float(v) for v in f_cfg.get("omega_norms", ())),
        )
    except KeyError as exc:
        raise ValidationError(f"spectrum config missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad spectrum config: {exc}") from exc
    spec = PuritySpectrum(group=group, atoms=atoms, r=r, omega=omega)
    _require_aligned(spec, f)
    return spec, f
