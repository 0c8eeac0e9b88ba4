"""Structure constants and parameter parsing."""

import math

import pytest

from rankone.errors import ValidationError
from rankone.groups import (
    RankOneGroup,
    SpectralParam,
    check_param,
    complementary,
    make_group,
    parse_group,
    parse_param,
    principal,
    trivial,
)


def test_multiplicities_by_family():
    cases = [
        ("so", 2, 1, 0),
        ("so", 3, 2, 0),
        ("so", 5, 4, 0),
        ("su", 2, 2, 1),
        ("su", 4, 6, 1),
        ("sp", 2, 4, 3),
        ("sp", 3, 8, 3),
    ]
    for name, n, n1, n2 in cases:
        g = make_group(name, n)
        assert (g.n1, g.n2) == (n1, n2)
    f4 = make_group("f4")
    assert (f4.n1, f4.n2) == (8, 7)


def test_structure_constants_exact():
    g = make_group("su", 3)  # n1=4, n2=1
    assert (g.rho, g.alpha, g.beta) == (3.0, 2.0, 0.0)
    f4 = make_group("f4")
    assert (f4.rho, f4.alpha, f4.beta) == (11.0, 7.0, 3.0)
    # Half-integers are exact in float64, so the identities hold with no
    # roundoff on every group with small multiplicities.
    for n1 in range(1, 200):
        for n2 in range(100):
            h = make_group("custom", (n1, n2))
            assert type(h.rho) is float
            assert h.alpha + h.beta + 1.0 == h.rho == (n1 + 2 * n2) / 2


def test_h3_is_so3():
    g = make_group("so", 3)
    assert (g.n1, g.n2) == (2, 0)
    assert g.rho == 1.0
    assert g.alpha == 0.5
    assert g.beta == -0.5
    # full complementary interval is a theorem for real hyperbolic space
    assert g.rho_prime == 1.0


def test_rho_prime_default_is_flagged():
    g = make_group("su", 3)
    assert g.rho_prime == g.rho
    sharp = make_group("su", 3, rho_prime=2.5)
    assert sharp.rho_prime == 2.5


def test_parse_group_round_trips():
    for text in ["so:3", "su:4", "sp:2", "f4", "custom:5,2"]:
        g = parse_group(text)
        assert g.rho > 0
    assert parse_group("custom:5,2").n1 == 5
    assert parse_group("custom:5,2").n2 == 2


def test_parse_group_rejects_garbage():
    for text in ["so", "so:1", "sl:3", "custom:5", "so:x",
                 "custom:1,x", "custom:1.5,2", "custom:1,2,3",
                 "custom:0,1", "custom:4,-1"]:
        with pytest.raises(ValidationError):
            parse_group(text)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RankOneGroup(1.5, 0, 1.0),
        lambda: RankOneGroup(2, 0.5, 1.0),
        lambda: make_group("custom", 3),
        lambda: make_group("so", 2.5),
        lambda: make_group("su", "3"),
    ],
    ids=["n1-float", "n2-float", "custom-scalar", "so-float-rank", "su-string-rank"],
)
def test_group_constructors_reject_bad_input(build):
    with pytest.raises(ValidationError):
        build()


def test_rho_prime_range_enforced():
    with pytest.raises(ValidationError):
        make_group("so", 3, rho_prime=1.5)  # above rho
    with pytest.raises(ValidationError):
        make_group("so", 3, rho_prime=0.0)


def test_param_constructors_and_parse():
    assert parse_param("trivial").is_trivial
    assert parse_param("c:0.5") == complementary(0.5)
    assert parse_param("p:2") == principal(2.0)
    with pytest.raises(ValidationError):
        parse_param("c:-1")
    with pytest.raises(ValidationError):
        principal(-1.0)
    with pytest.raises(ValidationError):
        parse_param("x:1")
    with pytest.raises(ValidationError):
        SpectralParam("weird")


def test_param_spectral_coordinates():
    g = make_group("so", 3)
    assert trivial().re_s(g) == 1.0
    assert complementary(0.3).re_s(g) == 0.3
    assert principal(2.0).re_s(g) == 0.0
    assert principal(2.0).s_complex(g) == 2.0j
    assert complementary(0.7).label() == "c:0.7"


def test_check_param_respects_rho_prime():
    g = make_group("so", 3)
    check_param(g, complementary(1.0))  # s = rho allowed
    with pytest.raises(ValidationError):
        check_param(g, complementary(1.2))
    sharp = make_group("su", 3, rho_prime=1.0)
    with pytest.raises(ValidationError):
        check_param(sharp, complementary(2.0))

