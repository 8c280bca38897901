"""One-dimensional model maps: circle quotients, folds, flat maps and coverings.

These maps live on S^1 with a finite rotation group Z_k (free, quotient a
circle) or the reflection Z_2 (quotient a closed interval whose endpoints
have order-2 isotropy).  The fold map squares the second coordinate and lands
in the upper half circle; its mod-2 degree depends on the value probed, the
behaviour the reflection quotient's codimension-1 stratum makes possible.
The two flat maps replace y^2 by e^{-1/y^2} (even) and sign(y) e^{-1/y^2}
(odd): equal underlying maps on the quotient, different isotropy
homomorphisms, equal degrees.

Degrees are computed numerically: dense sampling of the covering circle,
bisection brackets on the wrapped angular difference, Newton polish, then
folding of the roots into the quotient's fundamental domain with weighted
counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CriticalValueError,
    NoConvergenceError,
    NoHomomorphismError,
    NonIntegralWeightError,
    PreconditionViolatedError,
)
from .spaces import CircleQuotient

TWO_PI = 2.0 * math.pi
DEFAULT_SEEDS = 4096
DEFAULT_DERIVATIVE_THRESHOLD = 1e-8
DEFAULT_REFINE_TOL = 1e-12
_ANGLE_CLUSTER = 1e-8

_KINDS = ("fold", "flat_even", "flat_odd", "power", "covering")


def flat_bump(y):
    """e^{-1/y^2} continued by 0 at y = 0, in a form immune to overflow warnings."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    mask = np.abs(y) > 1e-150  # below this y*y underflows; the true value is 0 anyway
    yy = y[mask]
    out[mask] = np.exp(-1.0 / (yy * yy))
    return out


@dataclass(frozen=True)
class CircleMap:
    """A self-contained one-dimensional map with its quotient and isotropy data."""

    kind: str
    domain: CircleQuotient
    codomain: CircleQuotient
    power: int = 1
    theta: str = "trivial"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind in ("fold", "flat_even", "flat_odd"):
            if not self.domain.is_reflection:
                raise ValueError(f"{self.kind} requires the reflection quotient as domain")
            expected = "identity" if self.kind == "flat_odd" else "trivial"
            if self.theta != expected:
                raise ValueError(f"{self.kind} carries the {expected} homomorphism")
        else:
            if self.domain.is_reflection or self.codomain.is_reflection:
                raise ValueError("power maps act between rotation quotients")
            k, b = self.domain.order, self.codomain.order
            if (self.power * b) % k != 0:
                raise NoHomomorphismError(
                    f"exp(2*pi*i*{self.power}/{k}) does not lie in the order-{b} rotation group"
                )

    @classmethod
    def fold(cls) -> "CircleMap":
        """(x, y) -> (x, y^2) normalized; reflection quotient onto the plain circle."""
        return cls("fold", CircleQuotient.reflection(), CircleQuotient.rotation(1))

    @classmethod
    def flat_even(cls) -> "CircleMap":
        """(x, y) -> (x, e^{-1/y^2}) normalized, with the trivial homomorphism."""
        return cls("flat_even", CircleQuotient.reflection(), CircleQuotient.reflection())

    @classmethod
    def flat_odd(cls) -> "CircleMap":
        """(x, y) -> (x, sign(y) e^{-1/y^2}) normalized, with the identity homomorphism."""
        return cls(
            "flat_odd", CircleQuotient.reflection(), CircleQuotient.reflection(), theta="identity"
        )

    @classmethod
    def winding(cls, k: int) -> "CircleMap":
        """theta -> k*theta on the plain circle."""
        return cls("power", CircleQuotient.rotation(1), CircleQuotient.rotation(1), power=k,
                   theta="rotation")

    @classmethod
    def covering_projection(cls, order: int) -> "CircleMap":
        """The identity upstairs, projecting the circle onto S^1 // Z_order."""
        return cls("covering", CircleQuotient.rotation(1), CircleQuotient.rotation(order),
                   power=1, theta="rotation")

    @classmethod
    def quotient_power(cls, power: int, domain_order: int, codomain_order: int) -> "CircleMap":
        """theta -> power*theta descended to S^1//Z_{domain} -> S^1//Z_{codomain}."""
        return cls("power", CircleQuotient.rotation(domain_order),
                   CircleQuotient.rotation(codomain_order), power=power, theta="rotation")


def circle_eval(m: CircleMap, theta):
    """Angle of the image point on the codomain covering circle, in [0, 2*pi).

    The image is renormalized to the unit circle, which its angle encodes;
    vectorized over array input.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    y = np.sin(theta)
    if m.kind == "fold":
        second = y * y
    elif m.kind == "flat_even":
        second = flat_bump(y)
    elif m.kind == "flat_odd":
        second = np.sign(y) * flat_bump(y)
    else:
        return (m.power * theta) % TWO_PI
    return np.arctan2(second, x) % TWO_PI


def _wrap(delta):
    """Wrap angular differences to (-pi, pi]."""
    return (np.asarray(delta) + math.pi) % TWO_PI - math.pi


def _refine_root(func, target: float, lo: float, hi: float, tol: float) -> float:
    """Bisection bracket shrink plus Newton polish on wrap(func(theta) - target)."""

    def g(t: float) -> float:
        return float(_wrap(func(t) - target))

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    h = 1e-7
    for _ in range(5):
        slope = float(_wrap(func(theta + h) - func(theta - h))) / (2.0 * h)
        if slope == 0.0:
            break
        step = g(theta) / slope
        if not math.isfinite(step):
            break
        theta -= step
    if abs(g(theta)) > 1e-6:
        raise NoConvergenceError(f"root refinement stalled near theta={theta:.6f}")
    return theta % TWO_PI


def _upstairs_roots(m: CircleMap, targets, seeds: int, tol: float) -> list[float]:
    grid = np.linspace(0.0, TWO_PI, seeds + 1)
    values = circle_eval(m, grid)

    def func(t):
        return circle_eval(m, t)

    roots: list[float] = []
    for target in targets:
        diff = _wrap(values - target)
        small = np.abs(diff) < 0.5 * math.pi  # sign flips across the wrap are not roots
        for i in range(seeds):
            if diff[i] == 0.0:
                roots.append(float(grid[i]) % TWO_PI)
                continue
            if small[i] and small[i + 1] and diff[i] * diff[i + 1] < 0:
                roots.append(_refine_root(func, target, float(grid[i]), float(grid[i + 1]), tol))
    roots.sort()
    deduped: list[float] = []
    for t in roots:
        if deduped and (t - deduped[-1] < _ANGLE_CLUSTER or (TWO_PI - t) + deduped[0] < _ANGLE_CLUSTER):
            continue
        deduped.append(t)
    return deduped


def _slope_at(m: CircleMap, theta: float, h: float = 1e-6) -> float:
    return float(_wrap(circle_eval(m, theta + h) - circle_eval(m, theta - h))) / (2.0 * h)


@dataclass(frozen=True)
class CirclePreimage:
    angle: float  # canonical representative in the domain fundamental domain
    derivative_sign: int
    isotropy_order: int


@dataclass(frozen=True)
class CirclePreimageSet:
    points: tuple[CirclePreimage, ...]
    fundamental_domain: str

    def angles(self) -> list[float]:
        return [p.angle for p in self.points]


@dataclass(frozen=True)
class CircleDegreeResult:
    weighted_count: int
    mod2: int
    preimages: CirclePreimageSet

    def to_json(self) -> dict:
        return {
            "weighted_count": self.weighted_count,
            "mod2": self.mod2,
            "preimages": [
                {"angle": p.angle, "sign": p.derivative_sign, "isotropy": p.isotropy_order}
                for p in self.preimages.points
            ],
        }


def circle_degree2(
    m: CircleMap,
    value: float,
    derivative_threshold: float = DEFAULT_DERIVATIVE_THRESHOLD,
    seeds: int = DEFAULT_SEEDS,
    refine_tol: float = DEFAULT_REFINE_TOL,
) -> CircleDegreeResult:
    """Weighted preimage count and mod-2 degree of the quotient map at ``value``.

    ``value`` is an angle on the codomain covering circle.  Every numeric
    preimage must clear the derivative-magnitude threshold, otherwise the
    value is reported critical.
    """
    psi = value % TWO_PI
    if m.codomain.is_reflection:
        targets = sorted({psi, (TWO_PI - psi) % TWO_PI})
    else:
        period = m.codomain.period
        targets = [(psi % period) + j * period for j in range(m.codomain.order)]

    roots = _upstairs_roots(m, targets, seeds, refine_tol)

    slopes = {}
    for theta in roots:
        slope = _slope_at(m, theta)
        if abs(slope) <= derivative_threshold:
            raise CriticalValueError(
                f"preimage at theta={theta:.6f} has derivative {slope:.3g}"
            )
        slopes[theta] = slope

    # fold the upstairs roots into domain orbits
    groups: dict[float, list[float]] = {}
    for theta in roots:
        folded = m.domain.fold(theta)
        for rep in groups:
            if abs(folded - rep) < _ANGLE_CLUSTER:
                groups[rep].append(theta)
                break
        else:
            groups[folded] = [theta]

    value_isotropy = m.codomain.isotropy_order(psi)
    points = []
    total = Fraction(0)
    for rep in sorted(groups):
        point_isotropy = m.domain.isotropy_order(rep)
        slope = slopes[groups[rep][0]]
        points.append(CirclePreimage(rep, 1 if slope > 0 else -1, point_isotropy))
        total += Fraction(value_isotropy, point_isotropy)
    if total.denominator != 1:
        raise NonIntegralWeightError(f"weighted count {total} is not an integer")

    domain_note = (
        "[0, pi], endpoints carry isotropy 2"
        if m.domain.is_reflection
        else f"[0, 2*pi/{m.domain.order})"
    )
    return CircleDegreeResult(
        weighted_count=int(total),
        mod2=int(total) % 2,
        preimages=CirclePreimageSet(tuple(points), domain_note),
    )


def covering_degree(
    group_order: int,
    power: int,
    target_group_order: int,
    value: float | None = None,
) -> int:
    """Degree of theta -> power*theta between rotation quotients Z_k and Z_b.

    Computed by numeric preimage counting on the quotient circles; requires
    k | power*b for the pushforward homomorphism to exist.
    """
    m = CircleMap.quotient_power(power, group_order, target_group_order)
    if value is None:
        value = 0.375 * m.codomain.period  # generic: every value of a power map is regular
    result = circle_degree2(m, value)
    if any(p.derivative_sign != 1 for p in result.preimages.points):
        raise PreconditionViolatedError(
            f"theta -> {power}*theta reverses orientation; covering_degree needs power >= 1"
        )
    return result.weighted_count
