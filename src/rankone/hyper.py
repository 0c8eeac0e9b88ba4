"""Log-gamma and the Gauss hypergeometric function at nonpositive argument.

gauss_2f1_neg evaluates 2F1(a, b; c; x) for x <= 0 with a two-region
strategy chosen so every series it sums has geometric term ratio < 0.9:

  * |x| <= 3            Pfaff transform (DLMF 15.8.1), series at
                        x/(x-1) in [0, 3/4],
  * |x| > 3             two-term connection formula in powers of 1/(1-x)
                        (DLMF 15.8.4), argument below 1/4.

The defining series at x itself is not summed.  For x < 0 the Pfaff
argument |x|/(1+|x|) is the smaller one, and for real a, b, c > 0 the
defining series alternates in sign at every term, while the Pfaff terms
keep one sign once n > b - c.

gauss_2f1_neg takes equal-length lists a and b, one real c shared by
every pair and an array x, and returns one real row per pair (a_i, b_i):
each pair is real or a complex-conjugate pair.  It checks the grid and
splits it into the two regions once, and each region sums the series of
every pair together.

A series' coefficients are built once in a scalar loop.  The sum is one
matrix product of the coefficient rows (real parts, and imaginary parts
when there are any) against a power table y^0..y^N, which is built by
doubling in point blocks under a fixed byte cap.  Series that share an
argument share the table.  The term count comes from a geometric tail
bound: past term N every term ratio is at most R_N |y| < 1, so the tail is
bounded in advance.  The count is first set so the bound at the largest
|y| is below 1e-16, then checked at every point against 1e-16 of that
point's sum and raised where it falls short.

The connection formula's two terms swap a and b.  When b = conj(a) and c
is real they are complex conjugates, so one is evaluated and twice its
real part taken.  Real a, b, c stay in real arithmetic: the Gamma
quotients are products of math.gamma ratios, and (1-x)^(-a) is a real
exp.  The connection coefficients degenerate when a - b is an integer;
such points are evaluated at symmetric perturbations of a - b (shifts of
+-1e-6, and +-2e-6 where those keep off the integer, in the a - b
direction and real when a - b is), whose averages are extrapolated to
zero shift, and flagged with a warning.

ln_gamma, for complex Gamma quotients and the c-function, is a fixed
Lanczos-style rational approximation with reflection handled through the
recurrence, matching the principal branch of the analytic continuation
of log Gamma.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from typing import Union

import numpy as np

from .errors import ConvergenceError, ValidationError

Number = Union[float, complex]

# Lanczos coefficients, g = 607/128 (Godfrey's 15-term set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class DegenerateParamWarning(UserWarning):
    """Spectral parameter sits on a degenerate connection coefficient."""


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _lanczos_right(z: complex) -> complex:
    # Valid for Re z >= 0.5, Im z >= 0.
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _HALF_LOG_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def ln_gamma(z: Number) -> complex:
    """Principal-branch log-gamma of a complex argument.

    Raises ValidationError at the poles (nonpositive integers).  Accuracy
    is at the 1e-13 relative level on Re z in [-10, 50], |Im z| <= 50.
    """
    z = complex(z)
    if _is_pole(z):
        raise ValidationError(f"log-gamma pole at z = {z}")
    if z.imag < 0.0:
        return ln_gamma(z.conjugate()).conjugate()
    shifts = 0.0 + 0.0j
    # Recurrence toward Re z >= 0.5; each factor uses the principal log,
    # which matches the continuation's branch (continuous from above).
    while z.real < 0.5:
        shifts += cmath.log(z)
        z = z + 1.0
    return _lanczos_right(z) - shifts


def _gamma_quotient(numerators, denominators) -> Number:
    """Gamma(n1) Gamma(n2) / (Gamma(d1) Gamma(d2)); 0 when a denominator hits a pole.

    Real arguments give a real quotient, the product of the ratios
    Gamma(n_k) / Gamma(d_k) from math.gamma, which carries each sign and
    stays within a few ulps; a sum of log-gammas would lose |log Gamma|
    ulps in the exp.  Complex arguments, and real ones whose Gammas leave
    double range, go through ln_gamma.  A numerator pole raises
    ValidationError; callers exclude them.
    """
    if any(_is_pole(complex(d)) for d in denominators):
        return 0.0
    if not any(isinstance(v, complex) and v.imag != 0.0 for v in (*numerators, *denominators)):
        for n in numerators:
            if _is_pole(complex(n)):
                raise ValidationError(f"gamma pole at z = {n}")
        try:
            value = 1.0
            for n, d in zip(numerators, denominators):
                value *= math.gamma(n.real) / math.gamma(d.real)
        except OverflowError:
            value = math.inf
        if value != 0.0 and math.isfinite(value):
            return value
    acc = 0.0 + 0.0j
    for d in denominators:
        acc -= ln_gamma(d)
    for n in numerators:
        acc += ln_gamma(n)  # numerator poles raise
    return cmath.exp(acc)


# --------------------------------------------------------------------------
# Series engines.  x is a 1-d array; parameters are scalars.

_SERIES_TOL = 1e-16
# Byte cap on one power table; points are summed in blocks that fit under it.
_TABLE_BYTES = 1 << 20
# gauss_2f1_neg's one cutoff: Pfaff transform up to |x| = 3, connection beyond.
_PFAFF_MAX = 3.0


def _ratio_bound(abs_p: float, abs_q: float, re_c: float, n: int) -> float:
    """R_n >= |(p+m)(q+m) / ((c+m)(m+1))| for every m >= n; needs Re c + n > 0."""
    return max(1.0, (abs_p + n) / (re_c + n)) * max(1.0, (abs_q + n) / (n + 1.0))


class _Series:
    """Coefficients (p)_n (q)_n / ((c)_n n!) of one series, grown on demand."""

    def __init__(self, p: Number, q: Number, c: Number, max_terms: int):
        self.complex = any(isinstance(v, complex) and v.imag != 0.0 for v in (p, q, c))
        if not self.complex:
            p, q, c = float(np.real(p)), float(np.real(q)), float(np.real(c))
        self.p, self.q, self.c, self.max_terms = p, q, c, max_terms
        self.abs_p, self.abs_q, self.re_c = abs(p), abs(q), float(np.real(c))
        self.coeffs = [complex(1.0) if self.complex else 1.0]

    def grow(self, v: float, tol: float) -> float:
        """Add terms until the tail bound at |y| = v is at most tol; return it."""
        coeffs = self.coeffs
        n = len(coeffs) - 1
        mag = abs(coeffs[n]) * v**n  # |c_n| v^n, kept as terms are added
        while True:
            # R_n >= 1 makes mag * v a lower bound on the tail bound.
            if mag * v <= tol and self.re_c + n > 0.0:
                r = _ratio_bound(self.abs_p, self.abs_q, self.re_c, n) * v
                if r < 1.0 and mag * r <= tol * (1.0 - r):
                    return mag * r / (1.0 - r)
            if n >= self.max_terms:
                raise ConvergenceError(
                    f"hypergeometric series did not converge in {self.max_terms} terms "
                    f"(p={self.p}, q={self.q}, c={self.c}, max|y|={v:.3g})"
                )
            ratio = (self.p + n) * (self.q + n) / ((self.c + n) * (n + 1.0))
            coeffs.append(coeffs[n] * ratio)
            mag *= abs(ratio) * v
            n += 1

    def misses(self, ys: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Points whose own tail bound exceeds 1e-16 of their sum."""
        n = len(self.coeffs) - 1
        ay = np.abs(ys)
        r = _ratio_bound(self.abs_p, self.abs_q, self.re_c, n) * ay
        return abs(self.coeffs[n]) * ay**n * r / (1.0 - r) > _SERIES_TOL * np.abs(sums)

    def rows(self) -> list:
        """The coefficients as real rows: the real parts, then any imaginary parts."""
        if not self.complex:
            return [self.coeffs]
        values = np.array(self.coeffs)
        return [values.real, values.imag] if values.imag.any() else [values.real]


def _fill_powers(table: np.ndarray, y: np.ndarray) -> None:
    """table[k] = y^k, by doubling: y^(j+m) = y^j y^m fills rows m+1..2m at once."""
    table[0] = 1.0
    if len(table) > 1:
        table[1] = y
    m = 2
    while m < len(table):
        k = min(m - 1, len(table) - m)
        np.multiply(table[1 : k + 1], table[m - 1], out=table[m : m + k])
        m += k


def _evaluate(series: list, y: np.ndarray) -> list:
    """Each series summed with its current coefficients at the points y.

    All rows share one power table y^0..y^N, built in point blocks of at
    most _TABLE_BYTES; each block costs one matrix product.
    """
    rows = [s.rows() for s in series]
    width = max(len(r[0]) for r in rows)
    # At least two rows: numpy hands a one-row product to BLAS's
    # matrix-vector kernel, which rounds differently, and a series' sum
    # must not depend on the series summed with it.
    matrix = np.zeros((max(2, sum(len(r) for r in rows)), width))
    for i, row in enumerate(row for r in rows for row in r):
        matrix[i, : len(row)] = row
    sums = np.empty((len(matrix), y.size))
    block = max(1, _TABLE_BYTES // (8 * width))
    table = np.empty((width, min(block, y.size)))
    for start in range(0, y.size, block):
        stop = min(start + block, y.size)
        powers = table[:, : stop - start]
        _fill_powers(powers, y[start:stop])
        np.matmul(matrix, powers, out=sums[:, start:stop])
    out, i = [], 0
    for s, r in zip(series, rows):
        total = sums[i]
        if s.complex:
            total = total + 1j * sums[i + 1] if len(r) == 2 else total.astype(np.complex128)
        out.append(total)
        i += len(r)
    return out


def _sums(series: list, y: np.ndarray) -> list:
    """Each series summed at the real points y (1-d).

    Once Re c + N > 0 the term ratio after N is bounded by R_N (see
    _ratio_bound), so with r = R_N |y| < 1 the tail after term N is at most
    |c_N| |y|^N r / (1 - r).  Each series starts with the first count whose
    bound at max|y| is below 1e-16, and all are summed from one power table.
    Then every point must have its own bound below 1e-16 of its |sum|.  A
    first screen flags the points whose |sum| is small enough to miss
    against the bound at max|y|, and the per-point check runs on those
    only, so a series with none flagged skips it.  The points that miss get
    more terms and another pass of that series alone.
    ConvergenceError is raised when max_terms terms do not suffice.
    """
    v = float(np.max(np.abs(y), initial=0.0))
    bounds = [s.grow(v, _SERIES_TOL) for s in series]
    totals = _evaluate(series, y)
    for s, total, bound in zip(series, totals, bounds):
        # A point's own bound is at most `bound`, so only small sums can miss.
        idx = np.flatnonzero(_SERIES_TOL * np.abs(total) < bound)
        while idx.size:
            idx = idx[s.misses(y[idx], total[idx])]
            if not idx.size:
                break
            bound = s.grow(float(np.max(np.abs(y[idx]))), _SERIES_TOL * float(np.min(np.abs(total[idx]))))
            total[idx] = _evaluate([s], y[idx])[0]
            idx = idx[_SERIES_TOL * np.abs(total[idx]) < bound]
    return totals


def _pfaff_rows(triples: list, x: np.ndarray) -> list:
    """One Pfaff row per triple at the points x (nonempty, 1-d); see gauss_2f1_neg."""
    # 2F1(a,b;c;x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)); maps x<=0 into [0,1)
    y = x / (x - 1.0)
    sums = _sums([_Series(a, c - b, c, max_terms=1200) for a, b, c in triples], y)
    log1mx = np.log1p(-x)
    return [np.exp(-a * log1mx) * s for (a, _, _), s in zip(triples, sums)]


def _conjugate_pair(a: Number, b: Number) -> bool:
    return isinstance(a, complex) and b == a.conjugate()


def _connection_terms(a: Number, b: Number, c: Number) -> tuple:
    """DLMF 15.8.4 for one triple: its terms (p, coefficient, series) and whether they are conjugate.

    The second term is the first with a and b swapped.  For b = conj(a)
    and real c the two are complex conjugates, so only the first is kept
    and twice its real part taken.  A term whose coefficient has a
    denominator pole is dropped.
    """
    conjugate = _conjugate_pair(a, b)
    terms = []
    for p, q in ((a, b),) if conjugate else ((a, b), (b, a)):
        coef = _gamma_quotient((c, q - p), (q, c - p))
        if coef != 0.0:
            terms.append((p, coef, _Series(p, c - q, p - q + 1.0, max_terms=300)))
    return terms, conjugate


def _degenerate_distance(a: Number, b: Number) -> float:
    d = complex(a) - complex(b)
    return abs(complex(d.real - round(d.real), d.imag))


_DEGENERATE_EPS = 1e-6
_DEGENERATE_BAND = 1e-5


def _connection_pairs(a: Number, b: Number) -> list:
    """(a, b) itself, or for a degenerate a - b its symmetric perturbations.

    Each perturbation moves a - b by 2h with a + b held fixed.  The pair
    h = +-eps/2 is averaged, which cancels the leading pole term of each
    one-sided evaluation and leaves an error of order h^2.  The pair
    h = +-eps removes that error (Richardson; see _connection_rows) unless
    one of its points lies nearer the integer than the first pair's: the
    connection formula cancels near it.  Shifts are real when a - b is, so
    real parameters stay real.
    """
    if _degenerate_distance(a, b) >= _DEGENERATE_BAND:
        return [(a, b)]
    d = complex(a) - complex(b)
    n = round(d.real)
    h = 0.5 * _DEGENERATE_EPS * (1j if abs(d.imag) > abs(d.real) else 1.0)
    shifts = [h, -h]
    if min(abs(d + 4.0 * h - n), abs(d - 4.0 * h - n)) >= min(abs(d + 2.0 * h - n), abs(d - 2.0 * h - n)):
        shifts += [2.0 * h, -2.0 * h]
    return [(_as_scalar(complex(a) + s), _as_scalar(complex(b) - s)) for s in shifts]


def _connection_rows(triples: list, x: np.ndarray) -> list:
    """One connection-formula row per triple at the points x < -3 (nonempty, 1-d).

    Every term of every triple, the perturbed pairs of degenerate ones
    included, is summed in one _sums call in powers of w = 1/(1-x).
    """
    w = 1.0 / (1.0 - x)
    log1mx = np.log1p(-x)
    evaluations = []
    for a, b, c in triples:
        pairs = _connection_pairs(a, b)
        if len(pairs) > 1:
            warnings.warn(
                f"a - b = {complex(a) - complex(b):.6g} is within {_DEGENERATE_BAND:g} of an "
                "integer; connection formula evaluated by symmetric perturbation",
                DegenerateParamWarning,
                stacklevel=3,  # the caller of gauss_2f1_neg
            )
        evaluations.append([_connection_terms(p, q, c) for p, q in pairs])
    series = [s for pairs in evaluations for terms, _ in pairs for _, _, s in terms]
    sums = iter(_sums(series, w) if series else ())
    rows = []
    for pairs in evaluations:
        values = []
        for terms, conjugate in pairs:
            parts = [coef * np.exp(-p * log1mx) * next(sums) for p, coef, _ in terms] or [np.zeros(x.size)]
            total = sum(parts[1:], parts[0])
            values.append(2.0 * total.real if conjugate else total)
        if len(values) == 1:
            rows.append(values[0])
        elif len(values) == 2:
            rows.append(0.5 * (values[0] + values[1]))
        else:
            # Averages A(h) = f + k h^2 and A(2h) = f + 4 k h^2 give f = (4 A(h) - A(2h)) / 3.
            rows.append((4.0 * (values[0] + values[1]) - (values[2] + values[3])) / 6.0)
    return rows


def _as_scalar(v: Number) -> Number:
    v = complex(v)
    return v if v.imag != 0.0 else float(v.real)


def gauss_2f1_neg(a, b, c, x) -> np.ndarray:
    """2F1(a_i, b_i; c; x) for x <= 0: one float64 row per pair (a_i, b_i), each shaped like x.

    a and b are equal-length sequences, c is one real number that is not a
    nonpositive integer, and x is an array of any shape.  Each pair is
    real or an exact complex-conjugate pair, so every row is real.
    Anything else raises ValidationError before any series work.  The grid
    is checked and split into the two regions once, and each region sums
    the series of every pair in one pass; see the module docstring.
    Degenerate connection parameters (a - b within 1e-5 of an integer at
    large |x|) are handled by perturbation and reported through
    DegenerateParamWarning.

    Verified domain: real a, b with c - b > 0, or a conjugate pair a, b
    with c - Re b > 0.  psi's kernel shifts a, b and c by 1, which leaves
    c - b unchanged.  Real c - b far below 0 stays outside: the Pfaff
    coefficients then alternate in sign while n < b - c, and cancel.
    """
    if len(a) != len(b):
        raise ValidationError("a and b list different numbers of parameters")
    if not isinstance(c, numbers.Real) or _is_pole(complex(c)):
        raise ValidationError(f"c = {c} must be real and not a nonpositive integer")
    c = float(c)
    triples = []
    for p, q in zip(a, b):
        p, q = _as_scalar(p), _as_scalar(q)
        if (isinstance(p, complex) or isinstance(q, complex)) and not _conjugate_pair(p, q):
            raise ValidationError(f"a = {p}, b = {q} is neither real nor a complex-conjugate pair")
        triples.append((p, q, c))
    flat = np.asarray(x, dtype=np.float64).ravel()
    # Written so that NaN fails the test too.
    if flat.size and not flat.max() <= 0.0:
        raise ValidationError("gauss_2f1_neg requires x <= 0")

    out = np.ones((len(triples), flat.size))
    live = [i for i, (p, q, _) in enumerate(triples) if p != 0.0 and q != 0.0]
    conn = np.abs(flat) > _PFAFF_MAX
    for mask, region_rows in ((~conn, _pfaff_rows), (conn, _connection_rows)):
        if live and mask.any():
            for i, row in zip(live, region_rows([triples[i] for i in live], flat[mask])):
                out[i][mask] = row.real
    return out.reshape((len(triples),) + np.shape(x))
