"""Coordinate-power maps between weighted projective spaces.

A tuple of positive exponents e defines z_i -> z_i^{e_i} upstairs; it descends
to the quotients precisely when q_i * e_i = d * r_i holds for a single integer
d, in which case the acting circle is pushed forward by gamma -> gamma^d.
This condition is closed under composition and contains, as special cases,
the map from ordinary projective space onto CP^n(q) (exponents q, d = 1), the
map from CP^n(q) back to ordinary projective space (exponents lcm(q)/q_i,
d = lcm(q)), and every composition of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotEquivariantError, OrbidegreeError, WeightMismatchError
from .roots import RootOfUnity, integers
from .spaces import WpsOrbifold, WpsPoint, support_isotropy_order


@dataclass(frozen=True)
class MonomialMap:
    """The descended coordinate-power map CP^n(q) -> CP^n(r), z_i -> z_i^{e_i}."""

    source: WpsOrbifold
    target: WpsOrbifold
    exponents: tuple[int, ...]
    equivariance_degree: int = field(init=False)

    def __post_init__(self) -> None:
        exponents = integers(self.exponents, "exponents", NotEquivariantError)
        object.__setattr__(self, "exponents", exponents)
        q, r = self.source.weights, self.target.weights
        if not (len(q) == len(r) == len(exponents)):
            raise NotEquivariantError("source, target and exponent lists must have equal length")
        if any(e < 1 for e in exponents):
            raise NotEquivariantError(f"exponents must be >= 1, got {exponents}")
        d0 = q[0] * exponents[0]
        if d0 % r[0] != 0:
            raise NotEquivariantError(f"q_0*e_0/r_0 = {d0}/{r[0]} is not an integer")
        d = d0 // r[0]
        for qi, ei, ri in zip(q, exponents, r):
            if qi * ei != d * ri:
                raise NotEquivariantError(
                    f"q_i*e_i/r_i is not constant: expected {d}, found {qi}*{ei}/{ri}"
                )
        object.__setattr__(self, "equivariance_degree", d)

    @classmethod
    def identity(cls, space: WpsOrbifold) -> "MonomialMap":
        return cls(space, space, tuple(1 for _ in space.weights))

    @classmethod
    def from_projective(cls, weights: tuple[int, ...]) -> "MonomialMap":
        """CP^n -> CP^n(q) raising coordinate i to the power q_i (d = 1)."""
        target = WpsOrbifold(tuple(weights))
        source = WpsOrbifold(tuple(1 for _ in target.weights))
        return cls(source, target, target.weights)

    @classmethod
    def to_projective(cls, weights: tuple[int, ...]) -> "MonomialMap":
        """CP^n(q) -> CP^n raising coordinate i to the power lcm(q)/q_i (d = lcm(q))."""
        source = WpsOrbifold(tuple(weights))
        target = WpsOrbifold(tuple(1 for _ in source.weights))
        return cls(source, target, projective_exponents(source.weights))

    @classmethod
    def between(cls, q: tuple[int, ...], r: tuple[int, ...]) -> "MonomialMap":
        """CP^n(q) -> CP^n(r), the composition through ordinary projective space."""
        return compose(cls.to_projective(q), cls.from_projective(r))

    @classmethod
    def from_descriptor(cls, data: dict) -> "MonomialMap":
        """Build from the wire descriptor {"q": [...], "r": [...], "e": [...]}; d is derived."""
        return cls(
            WpsOrbifold(tuple(data["q"])),
            WpsOrbifold(tuple(data["r"])),
            tuple(data["e"]),
        )

    def descriptor(self) -> dict:
        return {
            "q": list(self.source.weights),
            "r": list(self.target.weights),
            "e": list(self.exponents),
        }

    @property
    def exponent_product(self) -> int:
        return math.prod(self.exponents)

    def __call__(self, x: WpsPoint) -> WpsPoint:
        return underlying_image(self, x)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}, e={self.exponents}, d={self.equivariance_degree}"


def projective_exponents(weights: tuple[int, ...]) -> tuple[int, ...]:
    """lcm(q)/q_i for each weight: the exponents of MonomialMap.to_projective(q)."""
    ell = math.lcm(*weights)
    return tuple(ell // w for w in weights)


def compose(f: MonomialMap, g: MonomialMap) -> MonomialMap:
    """The composition "f then g" (g after f); exponents and d both multiply."""
    if f.target != g.source:
        raise WeightMismatchError(
            f"target weights {f.target.weights} do not match source weights {g.source.weights}"
        )
    exponents = tuple(ef * eg for ef, eg in zip(f.exponents, g.exponents))
    composed = MonomialMap(f.source, g.target, exponents)
    if composed.equivariance_degree != f.equivariance_degree * g.equivariance_degree:
        raise OrbidegreeError(
            f"composite d = {composed.equivariance_degree} is not "
            f"{f.equivariance_degree}*{g.equivariance_degree}; this is a bug"
        )
    return composed


def underlying_image(f: MonomialMap, x: WpsPoint) -> WpsPoint:
    """Image of x under the underlying map: exact coordinate-wise powers."""
    if x.space != f.source:
        raise ValueError(f"point lives in {x.space}, not in the source {f.source}")
    return WpsPoint(f.target, tuple(c**e for c, e in zip(x.coords, f.exponents)))


@dataclass(frozen=True)
class ThetaHom:
    """The induced homomorphism between cyclic isotropy groups, gamma -> gamma^power.

    ``power`` is reduced modulo lcm(source_order, target_order), which leaves
    both the map on the source group and its reduction mod the target order
    unchanged.
    """

    source_order: int
    target_order: int
    power: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "power", self.power % math.lcm(self.source_order, self.target_order)
        )
        # image of a generator has order source_order/kernel; it must divide target_order
        if self.target_order % (self.source_order // self.kernel_order) != 0:
            raise ValueError("power does not define a homomorphism between these orders")

    @property
    def exponent(self) -> int:
        """The power reduced mod the target order (the wire/report form)."""
        return self.power % self.target_order

    @property
    def kernel_order(self) -> int:
        return math.gcd(self.source_order, self.power)

    @property
    def is_injective(self) -> bool:
        return self.kernel_order == 1

    def __call__(self, gamma: RootOfUnity) -> RootOfUnity:
        return gamma**self.power


def theta_at(f: MonomialMap, x: WpsPoint) -> ThetaHom:
    """Isotropy homomorphism of f at x, from Z_{|G_x|} to Z_{|G_{f(x)}|}."""
    if x.space != f.source:
        raise ValueError(f"point lives in {x.space}, not in the source {f.source}")
    mx = support_isotropy_order(f.source.weights, x.support)
    my = support_isotropy_order(f.target.weights, x.support)  # every e_i >= 1: f(x) has x's support
    return ThetaHom(mx, my, f.equivariance_degree)

