"""psi and ball volumes against mpmath at 30 digits.

_PSI_MPMATH holds psi_s(t) = int_0^t phi_s Delta / int_0^t Delta at
_RADII for each group and parameter, both integrals by mpmath's
Gauss-Legendre quad at 30 digits with phi_s from mpmath's hyp2f1.  The
whole table takes minutes of mpmath on one core, so it is stored;
`_mpmath_psi` computes it and `python tests/test_psi_mpmath.py` (with
rankone importable) prints it again, and one test recomputes its cheapest
column.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

import rankone
from rankone.ballavg import ball_volume, psi_on_grid
from rankone.groups import complementary, principal
from rankone.hyper import DegenerateParamWarning

_RADII = (0.01, 0.1, 0.5, 1.0, 1.3169, 2.0, 5.0, 10.0, 20.0)
_GROUPS = ("so:2", "so:3", "so:5", "su:3", "sp:2", "f4")
# complementary s = 0.3 rho' and 0.5 rho', principal lam = 3.7 and 16
_PARAMS = (("c", 0.3), ("c", 0.5), ("p", 3.7), ("p", 16.0))


def _param(group, kind, x):
    return complementary(x * group.rho_prime) if kind == "c" else principal(x)


def _mpmath_psi(group, param, radii, dps=30):
    """psi at increasing radii as the ratio of mpmath quadratures of phi Delta and Delta.

    [0, radii[0]] is split into 8 pieces and each later gap into pieces at
    most 1 wide, each integrated by Gauss-Legendre.  mpmath's default
    tanh-sinh rule is not used: for the f4 density on [0, 1e-3] it is off by
    2.2e-6 relative unsplit, and by 9e-11 split into 8 pieces, against the
    Taylor value 8e-48 (1 + 5.33e-6).
    """
    with mpmath.workdps(dps):
        s = param.s_complex(group)
        s = mpmath.mpc(s) if s.imag else mpmath.mpf(s.real)
        rho, c = mpmath.mpf(group.rho), mpmath.mpf(group.alpha) + 1
        a, b = (rho + s) / 2, (rho - s) / 2
        dens = lambda x: mpmath.sinh(x) ** group.n1 * mpmath.sinh(2 * x) ** group.n2
        phi = lambda x: mpmath.re(mpmath.hyp2f1(a, b, c, -mpmath.sinh(x) ** 2))
        radii = [mpmath.mpf(t) for t in radii]
        ends = [radii[0] * k / 8 for k in range(8)] + [radii[0]]
        for lo, hi in zip(radii[:-1], radii[1:]):
            n = int(math.ceil(hi - lo))
            ends += [lo + (hi - lo) * k / n for k in range(1, n)] + [hi]
        num = den = 0
        values = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            num += mpmath.quad(lambda x: phi(x) * dens(x), [lo, hi], method="gauss-legendre")
            den += mpmath.quad(dens, [lo, hi], method="gauss-legendre")
            if hi in radii:
                values.append(float(num / den))
        return values


_PSI_MPMATH = {
    ("so:2", "c", 0.3): (
        0.9999971562526957, 0.999715651974834, 0.9929077548491333, 0.9718489453675668,
        0.9515762430249054, 0.8913999187313952, 0.50221074781225, 0.1106855708943197,
        0.0035446704008872936,
    ),
    ("so:2", "c", 0.5): (
        0.9999976562518311, 0.9997656433260942, 0.9941523070288125, 0.9767598927556365,
        0.9599748978695721, 0.9098983591645098, 0.5736303099283516, 0.1810232030835055,
        0.014995523870460268,
    ),
    ("so:2", "p", 3.7): (
        0.9998257601207281, 0.982675917987308, 0.6232479463752624, 0.021832884266875758,
        -0.12812057806075444, 0.03233571863004449, -0.011237077493799402, -0.0010403388887440846,
        -6.2170182256822294e-06,
    ),
    ("so:2", "p", 16.0): (
        0.9968002931780792, 0.7121190205596064, 0.05875958073091912, 0.011107267032540906,
        0.01630836236594374, -0.0015130508691652738, -0.0009425390650880753, 9.883176925581526e-05,
        -7.469547900756712e-07,
    ),
    ("so:3", "c", 0.3): (
        0.9999909000382416, 0.9990903824383914, 0.9774892851037834, 0.9128299104388368,
        0.8536641014394802, 0.6953977222330814, 0.14068035259492248, 0.004654791226987263,
        4.264201183566016e-06,
    ),
    ("so:3", "c", 0.5): (
        0.9999925000272322, 0.9992502723588614, 0.9814207338095012, 0.9277477623092186,
        0.8782083383110699, 0.7433570263076947, 0.21469334266401094, 0.017965413037944813,
        0.00012106647861801647,
    ),
    ("so:3", "p", 3.7): (
        0.9998531078466891, 0.985388250242482, 0.6785090789340272, 0.12983543823574928,
        -0.05135439496524711, -0.007912046141215587, -0.001895223905973983, -1.1612286526169104e-05,
        -2.4580798275355946e-10,
    ),
    ("so:3", "p", 16.0): (
        0.9974323602146857, 0.76551962536084, 0.012929749742368431, 0.010501489916597093,
        0.004160434185766188, -0.0019353080049834192, 5.065806939298135e-06, 6.990836435125545e-07,
        -2.9849508904702906e-11,
    ),
    ("so:5", "c", 0.3): (
        0.999974000345426, 0.9974034517417757, 0.9371192158904785, 0.7720254039316861,
        0.6400811631414731, 0.3664828976378572, 0.008614932759074066, 7.995103864058673e-06,
        6.648461639424169e-12,
    ),
    ("so:5", "c", 0.5): (
        0.9999785716751686, 0.9978596073276585, 0.947946012000053, 0.808841339384755,
        0.694583935403764, 0.44458172243468147, 0.026899143190364468, 0.00018159968049653185,
        8.244614489754223e-09,
    ),
    ("so:5", "p", 3.7): (
        0.9998736494671289, 0.9874301905703823, 0.7224805950154922, 0.23356196680268854,
        0.04443197853357645, -0.015554078570085688, -1.4568729471544842e-05,
        -1.0013213025385245e-10, 2.038202974603491e-18,
    ),
    ("so:5", "p", 16.0): (
        0.9981442037731983, 0.8272353624241664, -0.024382826858200052, 0.0016035320630485926,
        -0.0007882543658480727, -0.00016537173388758006, 5.255094546015304e-07,
        -8.239501884007823e-13, 1.2469186776294084e-20,
    ),
    ("su:3", "c", 0.3): (
        0.9999488138892905, 0.9948951195882255, 0.880352488201146, 0.6053722869175624,
        0.4251672346252914, 0.15564808683173906, 0.00040257439740501596, 1.1132062263990489e-08,
        8.440960350634622e-18,
    ),
    ("su:3", "c", 0.5): (
        0.9999578134931495, 0.9957911670603093, 0.900512741703825, 0.663662596495187,
        0.49946828747634386, 0.22679896104224243, 0.002878447542947242, 1.5928659686104791e-06,
        4.872614080956871e-13,
    ),
    ("su:3", "p", 3.7): (
        0.9998581964893879, 0.9859083052697005, 0.696618173395869, 0.21129315562021117,
        0.048313594750450044, -0.006127175036445158, -4.091246566007169e-09, 7.179342895053515e-14,
        1.7219092847358886e-26,
    ),
    ("su:3", "p", 16.0): (
        0.9983448578913464, 0.8450519880452154, -0.024544933620953686, -0.00019308145939971952,
        -0.0004653471024690203, -5.0044858229649464e-06, 4.618704745888682e-09,
        -1.1194454733657529e-15, 1.2883074062937986e-28,
    ),
    ("sp:2", "c", 0.3): (
        0.9998862569076604, 0.9886937979450842, 0.7546794124633803, 0.33736145010860946,
        0.16258666753213338, 0.023084681806852584, 8.038752506239754e-07, 2.0203947079209013e-14,
        1.2738825086293437e-29,
    ),
    ("sp:2", "c", 0.5): (
        0.9999062549119332, 0.9906739453273042, 0.7937271810430659, 0.41422575183346794,
        0.23267093297371888, 0.05229260293361538, 3.150813404639774e-05, 1.1744653675148271e-10,
        1.6310909263486702e-21,
    ),
    ("sp:2", "p", 3.7): (
        0.9998065681711127, 0.9808356299706429, 0.6144942388061991, 0.13616058827263863,
        0.02759372867186339, -0.0005562714005152652, 1.1998183755260716e-10, 2.346148730948367e-21,
        5.413212651437924e-43,
    ),
    ("sp:2", "p", 16.0): (
        0.9985958409497088, 0.8676250989816064, -0.009711092269899068, -0.00047291218953298276,
        -3.844439605216952e-05, 1.926551226147748e-06, -1.7848206075432866e-13,
        -7.73067785571708e-24, 1.312831516237432e-45,
    ),
    ("f4", "c", 0.3): (
        0.9996941881180996, 0.969900775540641, 0.4727520921483766, 0.05969846661799668,
        0.00983645544041707, 9.762818668348122e-05, 1.185931967655305e-14, 2.2596384146329607e-31,
        8.19150795067244e-65,
    ),
    ("f4", "c", 0.5): (
        0.9997479511409623, 0.9751331162351821, 0.5414994432612594, 0.10357374820156891,
        0.025567641730376827, 0.0008099069741314503, 6.150748262755997e-11, 7.013670625221052e-23,
        9.114836175875562e-47,
    ),
    ("f4", "p", 3.7): (
        0.9996259328226214, 0.9632940550751669, 0.3967917681559729, 0.02815910588008854,
        0.002456029741474928, 1.8188041178464477e-06, 3.45225263066636e-21, 7.735810837137343e-46,
        -1.0908840855366355e-92,
    ),
    ("f4", "p", 16.0): (
        0.9989532955538685, 0.9002981660682654, 0.056133892299413096, 2.148291485382593e-05,
        -4.128857504002926e-07, -1.3998783797554301e-10, 1.047481605002331e-24,
        -3.642694407076341e-49, 1.092688062706096e-96,
    ),
}


@pytest.mark.parametrize("name", _GROUPS)
def test_psi_against_mpmath(name):
    # 1e-10 everywhere; 1e-13 for the complementary parameters and
    # lam = 3.7 wherever the 2F1 does not take the degenerate path
    group = rankone.parse_group(name)
    for kind, x in _PARAMS:
        param = _param(group, kind, x)
        for t, want in zip(_RADII, _PSI_MPMATH[name, kind, x]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error")
                warnings.simplefilter("always", DegenerateParamWarning)
                got = psi_on_grid(group, param, np.array([t]))[0]
            tight = not caught and x != 16.0
            assert abs(got - want) <= (1e-13 if tight else 1e-10), (name, kind, x, t)


def test_table_is_mpmath_psi():
    # the first three radii need no analytic continuation, so are cheap
    for name in _GROUPS:
        group = rankone.parse_group(name)
        got = _mpmath_psi(group, _param(group, "c", 0.3), _RADII[:3])
        assert got == list(_PSI_MPMATH[name, "c", 0.3][:3])


def _mpmath_volume(group, t):
    """m(B_t) as Delta(t) times the tanh-sinh quadrature of Delta / Delta(t).

    The scaling keeps the integrand at most 1: mpmath's quad stops on an
    absolute error estimate, so it misreports tiny volumes unscaled.
    """
    x = mpmath.mpf(t)
    dens = lambda u: mpmath.sinh(u) ** group.n1 * mpmath.sinh(2 * u) ** group.n2
    top = dens(x)
    return top * mpmath.quad(lambda u: dens(u) / top, [0, x / 2, x])


def _mpmath_psi_identity(group, param, t):
    """psi_s(t) = Delta sinh t cosh t 2F1(a+1, b+1; c+1; -sinh(t)^2) / (2c m(B_t))."""
    s = param.s_complex(group)
    s = mpmath.mpc(s) if s.imag else mpmath.mpf(s.real)
    a, b = (group.rho + s) / 2, (group.rho - s) / 2
    c = mpmath.mpf(group.alpha) + 1
    x = mpmath.mpf(t)
    dens = mpmath.sinh(x) ** group.n1 * mpmath.sinh(2 * x) ** group.n2
    kernel = mpmath.hyp2f1(a + 1, b + 1, c + 1, -mpmath.sinh(x) ** 2)
    numer = dens * mpmath.sinh(x) * mpmath.cosh(x) * kernel / (2 * c)
    return mpmath.re(numer / _mpmath_volume(group, t))


@pytest.mark.parametrize("name, t", [("custom:100,100", 0.315), ("custom:100,100", 0.69),
                                     ("custom:100,100", 2.0), ("custom:40,20", 0.08),
                                     ("custom:40,20", 0.5), ("so:40", 0.001), ("so:40", 0.01),
                                     ("sp:9", 0.001), ("sp:9", 0.01), ("so:50", 0.001),
                                     ("so:50", 0.01)])
def test_high_dimension_volume_against_mpmath(name, t):
    # Delta ~ t^(n1 + n2) near 0: m(B_0.315) on custom:100,100 is 3e-70, and
    # a volume check with an absolute floor let it through 3.8e-9 off; for
    # n1 + n2 > 19 a check by the 10-node rule on fixed octaves below t
    # never passed (so:40, sp:9 and so:50 raised ConvergenceError)
    group = rankone.parse_group(name)
    with mpmath.workdps(30):
        want = float(_mpmath_volume(group, t))
    assert ball_volume(group, t) == pytest.approx(want, rel=1e-12, abs=0.0)


_NEAR_ZERO = [0.001, 0.01, 0.1, 1.0]


@pytest.mark.parametrize("name, param, ts", [
    ("custom:100,100", complementary(37.5), [0.3, 0.69, 1.0, 2.0]),
    ("custom:100,100", principal(3.7), [0.3, 0.69, 1.0]),
    ("so:40", complementary(9.75), _NEAR_ZERO), ("so:40", principal(1.0), _NEAR_ZERO),
    ("sp:9", complementary(9.5), _NEAR_ZERO), ("sp:9", principal(1.0), _NEAR_ZERO),
    ("so:50", complementary(12.25), _NEAR_ZERO), ("so:50", principal(1.0), _NEAR_ZERO),
], ids=lambda v: v.label() if hasattr(v, "label") else None)
def test_high_dimension_psi_against_mpmath(name, param, ts):
    # psi's volumes on custom:100,100 were off by 2.8e-6 at t = 0.3 and
    # 2.7e-7 at t = 0.69 while they went unchecked; grids that start near 0
    # on so:40, sp:9 and so:50 raised ConvergenceError under a 10-node check
    # on fixed octaves
    group = rankone.parse_group(name)
    ts = np.array(ts)
    with mpmath.workdps(30):
        want = np.array([float(_mpmath_psi_identity(group, param, t)) for t in ts])
    np.testing.assert_allclose(psi_on_grid(group, param, ts), want, rtol=1e-12, atol=0.0)
    for t, w in zip(ts, want):
        assert psi_on_grid(group, param, [float(t)])[0] == pytest.approx(w, rel=1e-12, abs=0.0)


if __name__ == "__main__":
    for name in _GROUPS:
        group = rankone.parse_group(name)
        for kind, x in _PARAMS:
            values = _mpmath_psi(group, _param(group, kind, x), _RADII)
            print(f"    {(name, kind, x)!r}: {tuple(values)!r},", flush=True)
