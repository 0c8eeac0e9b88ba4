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
real part taken.  The connection coefficients degenerate when a - b is an
integer; such points are evaluated by averaging two symmetric
perturbations (a shift of 1e-6 in the a - b direction) and flagged with a
warning.

ln_gamma is a fixed Lanczos-style rational approximation with reflection
handled through the recurrence, matching the principal branch of the
analytic continuation of log Gamma.
"""

from __future__ import annotations

import cmath
import math
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


def _gamma_quotient(numerators, denominators) -> complex:
    """exp(sum ln_gamma(num) - sum ln_gamma(den)); 0 when a denominator hits a pole."""
    acc = 0.0 + 0.0j
    for d in denominators:
        if _is_pole(complex(d)):
            return 0.0 + 0.0j
        acc -= ln_gamma(d)
    for n in numerators:
        acc += ln_gamma(n)  # numerator poles raise; callers exclude them
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
    matrix = np.zeros((sum(len(r) for r in rows), width))
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
    """Each series summed at the real points y (nonempty, 1-d).

    Once Re c + N > 0 the term ratio after N is bounded by R_N (see
    _ratio_bound), so with r = R_N |y| < 1 the tail after term N is at most
    |c_N| |y|^N r / (1 - r).  Each series starts with the first count whose
    bound at max|y| is below 1e-16, and all are summed from one power table.
    Then every point must have its own bound below 1e-16 of its |sum|; the
    points that miss get more terms and another pass of that series alone.
    ConvergenceError is raised when max_terms terms do not suffice.
    """
    v = float(np.max(np.abs(y)))
    bounds = [s.grow(v, _SERIES_TOL) for s in series]
    totals = _evaluate(series, y)
    for s, total, bound in zip(series, totals, bounds):
        idx = np.arange(y.size)
        while True:
            # A point's own bound is at most `bound`, so only small sums can miss.
            idx = idx[_SERIES_TOL * np.abs(total[idx]) < bound]
            idx = idx[s.misses(y[idx], total[idx])]
            if not idx.size:
                break
            bound = s.grow(float(np.max(np.abs(y[idx]))), _SERIES_TOL * float(np.min(np.abs(total[idx]))))
            total[idx] = _evaluate([s], y[idx])[0]
    return totals


def _series_sum(p: Number, q: Number, c: Number, y: np.ndarray, max_terms: int) -> np.ndarray:
    """sum_n (p)_n (q)_n / ((c)_n n!) y^n at real points y (1-d); see _sums."""
    series = _Series(p, q, c, max_terms)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        return np.zeros(y.shape, dtype=np.complex128 if series.complex else np.float64)
    return _sums([series], y)[0]


def _pfaff_series(a: Number, b: Number, c: Number, x: np.ndarray) -> np.ndarray:
    # 2F1(a,b;c;x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)); maps x<=0 into [0,1)
    x = np.asarray(x, dtype=np.float64)
    y = x / (x - 1.0)
    series = _series_sum(a, c - b, c, y, max_terms=1200)
    log1mx = np.log1p(-x)
    if isinstance(a, complex) and a.imag != 0.0:
        pref = np.exp(-a * log1mx.astype(np.complex128))
    else:
        pref = np.exp(-np.real(a) * log1mx)
    return pref * series


def _conjugate_pair(a: Number, b: Number, c: Number) -> bool:
    return isinstance(a, complex) and isinstance(b, complex) and b == a.conjugate() and isinstance(c, float)


def _connection_formula(a: Number, b: Number, c: Number, x: np.ndarray) -> np.ndarray:
    """DLMF 15.8.4: expansion in w = 1/(1-x), valid when a - b is not an integer.

    The second term is the first with a and b swapped.  For b = conj(a)
    and real c the two are complex conjugates, so only the first is
    evaluated and twice its real part returned.
    """
    x = np.asarray(x, dtype=np.float64)
    w = 1.0 / (1.0 - x)
    log1mx = np.log1p(-x).astype(np.complex128)
    conjugate = _conjugate_pair(a, b, c)
    terms = []
    for p, q in ((a, b),) if conjugate else ((a, b), (b, a)):
        coef = _gamma_quotient((c, q - p), (q, c - p))
        if coef != 0.0:
            terms.append((p, coef, _Series(p, c - q, p - q + 1.0, max_terms=300)))
    out = np.zeros_like(x, dtype=np.complex128)
    for (p, coef, _), series in zip(terms, _sums([s for _, _, s in terms], w)):
        out += coef * np.exp(-complex(p) * log1mx) * series
    return 2.0 * out.real if conjugate else out


def _degenerate_distance(a: Number, b: Number) -> float:
    d = complex(a) - complex(b)
    return abs(complex(d.real - round(d.real), d.imag))


_DEGENERATE_EPS = 1e-6
_DEGENERATE_BAND = 1e-5


def _connection_degenerate(a: Number, b: Number, c: Number, x: np.ndarray) -> np.ndarray:
    # Symmetric perturbation of a - b by +-eps (a + b held fixed); the
    # average cancels the leading pole term of each one-sided evaluation.
    d = complex(a) - complex(b)
    direction = 1j if abs(d.imag) > abs(d.real) else 1.0
    shift = 0.5 * _DEGENERATE_EPS * direction
    hi = _connection_formula(complex(a) + shift, complex(b) - shift, c, x)
    lo = _connection_formula(complex(a) - shift, complex(b) + shift, c, x)
    return 0.5 * (hi + lo)


def _as_scalar(v: Number) -> Number:
    v = complex(v)
    return v if v.imag != 0.0 else float(v.real)


def gauss_2f1_neg(a: Number, b: Number, c: Number, x) -> Union[float, complex, np.ndarray]:
    """2F1(a, b; c; x) for x <= 0 (scalar or array x).

    Points with |x| <= 3 are summed by the Pfaff series, the rest by the
    connection formula; see the module docstring.  a and b may be real or
    a complex-conjugate pair; the result is real for real-valued inputs
    (conjugate pairs included).  Degenerate connection parameters (a - b
    within 1e-5 of an integer at large |x|) are handled by perturbation
    and reported through DegenerateParamWarning.

    Verified domain: real a, b, c with c - b > 0, or a conjugate pair a, b
    with real c and c - Re b > 0.  psi's kernel shifts a, b and c by 1, which
    leaves c - b unchanged.  Real c - b far below 0 stays outside: the Pfaff
    coefficients then alternate in sign while n < b - c, and cancel.
    """
    scalar_in = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    # Written so that NaN fails the test too.
    if xs.size and not np.max(xs) <= 0.0:
        raise ValidationError("gauss_2f1_neg requires x <= 0")
    a, b, c = _as_scalar(a), _as_scalar(b), _as_scalar(c)
    if isinstance(c, float) and _is_pole(complex(c)):
        raise ValidationError(f"c = {c} is a nonpositive integer")

    params_complex = any(isinstance(v, complex) for v in (a, b))
    out_dtype = np.float64 if (not params_complex or _conjugate_pair(a, b, c)) else np.complex128
    out = np.empty_like(xs, dtype=out_dtype)

    if complex(a) == 0.0 or complex(b) == 0.0:
        out[:] = 1.0
    else:
        conn = np.abs(xs) > _PFAFF_MAX
        pfaff = ~conn
        if np.any(pfaff):
            out[pfaff] = _cast(_pfaff_series(a, b, c, xs[pfaff]), out_dtype)
        if np.any(conn):
            if _degenerate_distance(a, b) < _DEGENERATE_BAND:
                warnings.warn(
                    f"a - b = {complex(a) - complex(b):.6g} is within {_DEGENERATE_BAND:g} of an "
                    "integer; connection formula evaluated by symmetric perturbation",
                    DegenerateParamWarning,
                    stacklevel=2,
                )
                vals = _connection_degenerate(a, b, c, xs[conn])
            else:
                vals = _connection_formula(a, b, c, xs[conn])
            out[conn] = _cast(vals, out_dtype)

    if scalar_in:
        v = out[0]
        return float(v) if out_dtype is np.float64 else complex(v)
    return out


def _cast(values: np.ndarray, dtype) -> np.ndarray:
    if dtype is np.float64 and np.iscomplexobj(values):
        return np.real(values)
    return values.astype(dtype, copy=False)
