"""Log-gamma kernel against frozen values, scipy and an mpmath oracle."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from rankone.hyper import ln_gamma


def test_frozen_real_values():
    assert abs(ln_gamma(1.0)) < 1e-14
    assert abs(ln_gamma(2.0)) < 1e-14
    # ln Gamma(1/2) = ln sqrt(pi)
    assert ln_gamma(0.5).real == pytest.approx(0.5723649429247001, abs=1e-14)
    # ln Gamma(5) = ln 24
    assert ln_gamma(5.0).real == pytest.approx(3.1780538303479458, abs=1e-13)


def test_recurrence():
    # Gamma(z+1) = z Gamma(z) across the reflection boundary
    for z in [0.3, 1.7, 4.2, 0.5 + 2.0j, -0.7 + 0.4j, 3.0 - 5.0j]:
        lhs = ln_gamma(z + 1.0)
        rhs = ln_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_against_scipy_grid():
    xs = np.linspace(0.05, 12.0, 41)
    ys = np.linspace(-8.0, 8.0, 17)
    for x in xs:
        for y in ys:
            z = complex(x, y)
            ours = ln_gamma(z)
            ref = sps.loggamma(z)
            assert abs(ours - ref) < 1e-11 * max(1.0, abs(ref))


def test_against_mpmath_over_stated_range():
    # The docstring's range: Re z in [-10, 50], |Im z| <= 50, 1e-13 relative.
    # Left of Re z = 1/2 the values are compared as exponentials, so a
    # branch shift of 2 pi i cannot count as an error.
    mpmath.mp.dps = 30
    for x in np.linspace(-10.0, 50.0, 41):
        for y in np.linspace(-50.0, 50.0, 21):
            z = complex(x, y)
            if y == 0.0 and x <= 0.0 and x == round(x):
                continue  # pole
            ours = ln_gamma(z)
            ref = complex(mpmath.loggamma(mpmath.mpc(x, y)))
            if x >= 0.5:
                assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref)), z
            else:
                assert abs(cmath.exp(ours - ref) - 1.0) <= 1e-13, z


def test_reflection_half_plane():
    # left half plane via reflection; compare against scipy up to 2 pi i
    # branch shifts, which cancel once exponentiated
    for z in [-0.5 + 1.0j, -2.3 + 0.7j, -1.1 - 2.2j]:
        ours = cmath.exp(ln_gamma(z))
        ref = cmath.exp(sps.loggamma(z))
        assert abs(ours - ref) < 1e-10 * abs(ref)


def test_poles_rejected():
    from rankone.errors import ValidationError

    for z in [0.0, -1.0, -2.0]:
        with pytest.raises(ValidationError):
            ln_gamma(z)
