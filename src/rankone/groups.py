"""Rank-one simple Lie group data and spectral parameters.

A group is identified by its restricted-root multiplicities (n1, n2).  Its
structural constants (rho, and the Jacobi-type parameters alpha, beta) are
half-integers, which float64 holds exactly, so the defining identities hold
with no roundoff:

    rho   = (n1 + 2*n2) / 2
    alpha = (n1 + n2 - 1) / 2
    beta  = (n2 - 1) / 2
    alpha + beta + 1 == rho

The positive spherical dual is parametrized by {rho} u (0, rho'] u i*R+,
split here into a three-way tagged parameter: the constant function, the
real interval (decaying, positive definite), and the tempered axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError

_NAMED_MULTIPLICITIES = {
    # name -> callable(n) -> (n1, n2)
    "so": lambda n: (n - 1, 0),
    "su": lambda n: (2 * (n - 1), 1),
    "sp": lambda n: (4 * (n - 1), 3),
}


@dataclass(frozen=True)
class RankOneGroup:
    """Root data of a rank-one simple Lie group.

    rho_prime bounds the spherical parameters that actually occur in
    L2-decompositions of lattice quotients; it equals rho for the real
    hyperbolic family, and defaults to rho when no sharper value is supplied.
    """

    n1: int
    n2: int
    rho_prime: float
    label: str = "custom"

    def __post_init__(self):
        if not (isinstance(self.n1, int) and isinstance(self.n2, int)):
            raise ValidationError("multiplicities must be integers")
        if self.n1 < 1:
            raise ValidationError("n1 >= 1 required: a rank-one group has a root")
        if self.n2 < 0:
            raise ValidationError("n2 >= 0 required")
        if not (0.0 < self.rho_prime <= self.rho + 1e-12):
            raise ValidationError(
                f"rho_prime must lie in (0, rho]; got {self.rho_prime} with rho={self.rho}"
            )

    @property
    def rho(self) -> float:
        return (self.n1 + 2 * self.n2) / 2

    @property
    def alpha(self) -> float:
        return (self.n1 + self.n2 - 1) / 2

    @property
    def beta(self) -> float:
        return (self.n2 - 1) / 2


def make_group(
    name: str,
    n: Optional[object] = None,
    rho_prime: Optional[float] = None,
) -> RankOneGroup:
    """Build a group from a family name.

    name is one of "so", "su", "sp", "f4", "custom"; n is the real rank-n
    index for the named families (so/su/sp need n >= 2) or an (n1, n2) pair
    for "custom".  rho_prime, if given, overrides the default rho.
    """
    name = name.lower()
    if name == "f4":
        n1, n2 = 8, 7
        label = "f4(-20)"
    elif name == "custom":
        if not (isinstance(n, (tuple, list)) and len(n) == 2):
            raise ValidationError("custom group needs an (n1, n2) pair")
        n1, n2 = int(n[0]), int(n[1])
        label = f"custom({n1},{n2})"
    elif name in _NAMED_MULTIPLICITIES:
        if not isinstance(n, int):
            raise ValidationError(f"{name} group needs an integer rank parameter")
        if n < 2:
            raise ValidationError(f"{name}:{n} is not a noncompact rank-one group (need n >= 2)")
        n1, n2 = _NAMED_MULTIPLICITIES[name](n)
        label = f"{name}({n},1)"
    else:
        raise ValidationError(f"unknown group family {name!r} (want so, su, sp, f4, custom)")

    rp = (n1 + 2 * n2) / 2 if rho_prime is None else float(rho_prime)
    return RankOneGroup(n1=n1, n2=n2, rho_prime=rp, label=label)


def parse_group(text: str, rho_prime: Optional[float] = None) -> RankOneGroup:
    """Parse a compact group spec: so:n | su:n | sp:n | f4 | custom:n1,n2."""
    text = text.strip().lower()
    if text == "f4":
        return make_group("f4", rho_prime=rho_prime)
    if ":" not in text:
        raise ValidationError(f"cannot parse group {text!r}")
    head, _, tail = text.partition(":")
    if head == "custom":
        try:
            n1, n2 = (int(part) for part in tail.split(","))
        except ValueError as exc:
            raise ValidationError(f"custom group wants custom:n1,n2 with integers; got {text!r}") from exc
        return make_group("custom", (n1, n2), rho_prime=rho_prime)
    try:
        n = int(tail)
    except ValueError as exc:
        raise ValidationError(f"bad rank in group spec {text!r}") from exc
    return make_group(head, n, rho_prime=rho_prime)


# --------------------------------------------------------------------------
# Spectral parameters.

TRIVIAL_KIND = "trivial"
COMPLEMENTARY_KIND = "complementary"
PRINCIPAL_KIND = "principal"


@dataclass(frozen=True)
class SpectralParam:
    """Point of the positive spherical dual.

    kind "trivial": the constant spherical function (s = rho).
    kind "complementary": real parameter s in (0, rho'].
    kind "principal": tempered parameter s = i*lam, lam >= 0.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (TRIVIAL_KIND, COMPLEMENTARY_KIND, PRINCIPAL_KIND):
            raise ValidationError(f"unknown spectral kind {self.kind!r}")
        if self.kind == COMPLEMENTARY_KIND and not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValidationError("complementary parameter needs s > 0")
        if self.kind == PRINCIPAL_KIND and not (self.value >= 0.0 and math.isfinite(self.value)):
            raise ValidationError("principal parameter needs lambda >= 0")

    @property
    def is_trivial(self) -> bool:
        return self.kind == TRIVIAL_KIND

    def re_s(self, group: RankOneGroup) -> float:
        """Real part of the spectral coordinate: rho, s, or 0."""
        if self.kind == TRIVIAL_KIND:
            return group.rho
        if self.kind == COMPLEMENTARY_KIND:
            return self.value
        return 0.0

    def s_complex(self, group: RankOneGroup) -> complex:
        """Spectral coordinate as a complex number."""
        if self.kind == TRIVIAL_KIND:
            return complex(group.rho)
        if self.kind == COMPLEMENTARY_KIND:
            return complex(self.value)
        return complex(0.0, self.value)

    def label(self) -> str:
        if self.kind == TRIVIAL_KIND:
            return "trivial"
        if self.kind == COMPLEMENTARY_KIND:
            return f"c:{self.value:g}"
        return f"p:{self.value:g}"


def trivial() -> SpectralParam:
    return SpectralParam(TRIVIAL_KIND)


def complementary(s: float) -> SpectralParam:
    return SpectralParam(COMPLEMENTARY_KIND, float(s))


def principal(lam: float) -> SpectralParam:
    return SpectralParam(PRINCIPAL_KIND, float(lam))


def parse_param(text: str) -> SpectralParam:
    """Parse trivial | c:S | p:LAM."""
    text = text.strip().lower()
    if text == "trivial":
        return trivial()
    head, _, tail = text.partition(":")
    try:
        if head == "c":
            return complementary(float(tail))
        if head == "p":
            return principal(float(tail))
    except ValueError as exc:
        raise ValidationError(f"bad spectral parameter {text!r}") from exc
    raise ValidationError(f"bad spectral parameter {text!r} (want trivial, c:S, or p:LAM)")


def check_param(group: RankOneGroup, param: SpectralParam) -> None:
    """Reject parameters outside the dual of the given group."""
    if param.kind == COMPLEMENTARY_KIND and param.value > group.rho_prime + 1e-12:
        raise ValidationError(
            f"complementary s={param.value} exceeds rho'={group.rho_prime} for {group.label}"
        )

