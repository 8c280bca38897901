"""One-dimensional model maps: circle quotients, folds, flat maps and coverings.

These maps live on S^1 with a finite rotation group Z_k (free, quotient a
circle) or the reflection Z_2 (quotient a closed interval whose endpoints
have order-2 isotropy).  The fold map squares the second coordinate and lands
in the upper half circle; its mod-2 degree depends on the value probed, the
behaviour the reflection quotient's codimension-1 stratum makes possible.
The two flat maps replace y^2 by e^{-1/y^2} (even) and sign(y) e^{-1/y^2}
(odd): equal underlying maps on the quotient, different isotropy
homomorphisms, equal degrees.

Degrees are computed numerically in one pass with fixed constants: the
covering circle is sampled on a GRID-point grid, sign changes of the wrapped
angular difference bracket the roots, each bracket is narrowed below
REFINE_TOL, and the roots are folded into the quotient's fundamental domain
and counted with integer weights |G_value| / |G_point|.  A bracket is
narrowed by Illinois regula falsi: secant steps, with the value at an end
that survived two steps in a row halved.  A secant point within REFINE_TOL/2
of an end becomes a closing probe REFINE_TOL/2 inside it, so a step that
lands that close to the root is followed by one that closes the bracket.
Bisection takes over when the end values do not differ in sign and once a
bracket has used as many secant steps as bisection would need.  Near a
critical value, where the difference rounds to exactly 0 on a stretch around
the root, the point of it that bisection picks is returned.  A winding root
takes 5 evaluations of the map, a fold or flat root about 8; bisection alone
took 33.

A map whose turning rate the grid cannot resolve (4 * rate > GRID, i.e. a
grid step may turn by more than pi/2) is refused with NoConvergenceError
instead of being undercounted; sampled steps cannot detect this themselves,
since a map turning by a full 2*pi per step looks flat on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
GRID = 4096  # sample steps around the covering circle
BOUNDED_RATE = 3  # turning-rate bound of the fold and flat maps (measured: 1.43 and e)
REFINE_TOL = 1e-12  # root refinement stops once a bracket is this narrow
RESIDUAL_TOL = 1e-6  # largest angle miss accepted at a refined root
SLOPE_STEP = 1e-6  # half-width of the central difference for derivatives
DERIVATIVE_THRESHOLD = 1e-8  # a preimage with |derivative| at or below it is critical
ANGLE_CLUSTER = 1e-8  # roots and folded angles closer than this coincide

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


def _refine(m: CircleMap, target: float, lo: float, hi: float) -> float:
    """Shrink the bracket [lo, hi] around the zero of wrap(circle_eval(theta) - target).

    Illinois regula falsi: each step evaluates the secant point of the
    bracket, where the value kept at an end that survived two steps in a
    row is halved.  A secant point closer than REFINE_TOL/2 to an end is
    moved to REFINE_TOL/2 inside it; that closing probe ends the refinement
    one step after a step lands within REFINE_TOL/2 of the root.  The
    midpoint is taken instead when the two end values do not differ in sign
    (an end evaluated on the 0 = 2*pi seam can round to the wrong side), and
    for every step after as many secant steps as bisection would need, so
    the steps cost at most twice what bisection's do.

    Where the map barely turns, the difference rounds to exactly 0 on a
    stretch around the root.  A step that lands on a stretch wider than
    REFINE_TOL/2 returns the point of it that bisection of [lo, hi] returns,
    evaluating only bisection's midpoints inside the last bracket.
    """

    def g(t: float) -> float:
        return float(_wrap(circle_eval(m, t) - target))

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    a, b, f_a, f_b = lo, hi, f_lo, g(hi)
    half = 0.5 * REFINE_TOL
    secant_steps = math.ceil(math.log2((hi - lo) / REFINE_TOL))  # bisection's step count
    kept = 0  # the end that survived the last step: 1 for b, -1 for a
    while b - a >= REFINE_TOL:
        if secant_steps > 0 and (f_a < 0) != (f_b < 0):
            secant_steps -= 1
            theta = a - f_a * (b - a) / (f_b - f_a)
            theta = min(max(theta, a + half), b - half)
        else:
            theta = 0.5 * (a + b)
        f_theta = g(theta)
        if f_theta == 0.0:
            # the difference rounds to 0 over about ulp(2*pi) / slope; the
            # secant slope says whether that may pass REFINE_TOL/2, and two
            # probes confirm it does not
            narrow = (b - a) * math.ulp(TWO_PI) < half * abs(f_b - f_a)
            if narrow and g(theta - half) != 0.0 and g(theta + half) != 0.0:
                return theta
            return _bisection_point(g, lo, hi, f_lo, a, b)
        if (f_theta < 0) == (f_a < 0):
            a, f_a = theta, f_theta
            if kept == 1:
                f_b *= 0.5
            kept = 1
        else:
            b, f_b = theta, f_theta
            if kept == -1:
                f_a *= 0.5
            kept = -1
    return _checked_root(g, 0.5 * (a + b))


def _bisection_point(g, lo: float, hi: float, f_lo: float, a: float, b: float) -> float:
    """The root bisection of [lo, hi] returns, where g has the sign of f_lo up to a and
    the other sign from b: only the midpoints between a and b are evaluated."""
    while hi - lo >= REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            f_mid = g(mid)
            if f_mid == 0.0:
                return mid
            below = (f_mid < 0) == (f_lo < 0)  # the root lies above mid
        else:
            below = mid <= a
        if below:
            lo = mid
        else:
            hi = mid
    return _checked_root(g, 0.5 * (lo + hi))


def _checked_root(g, theta: float) -> float:
    if abs(g(theta)) > RESIDUAL_TOL:
        raise NoConvergenceError(f"root refinement stalled near theta={theta:.6f}")
    return theta % TWO_PI


def _upstairs_roots(m: CircleMap, targets) -> np.ndarray:
    """Sorted, deduplicated angles theta in [0, 2*pi) with circle_eval(m, theta) in targets.

    A grid step turns the image by at most rate * 2*pi/GRID, which the
    refusal keeps at pi/2 or less: a step over a root then changes the
    wrapped difference by at most pi/2, a step across the wrap by at least
    3*pi/2, and no step hides a whole turn.
    """
    rate = abs(m.power) if m.kind in ("power", "covering") else BOUNDED_RATE  # |d image / d theta|
    if 4 * rate > GRID:
        raise NoConvergenceError(
            f"{m.kind} map turns at rate {rate}; a {GRID}-point grid resolves rates "
            f"up to {GRID // 4}"
        )
    grid = np.linspace(0.0, TWO_PI, GRID + 1)
    values = circle_eval(m, grid)
    values[-1] = values[0]  # 2*pi is 0 again; evaluated apart, they can round apart
    roots: list[float] = []
    for target in targets:
        diff = _wrap(values - target)
        roots += (grid[np.flatnonzero(diff[:-1] == 0.0)] % TWO_PI).tolist()
        # sign flips across the wrap are not roots
        brackets = np.flatnonzero((diff[:-1] * diff[1:] < 0) & (np.abs(np.diff(diff)) < math.pi))
        roots += [_refine(m, target, grid[i], grid[i + 1]) for i in brackets.tolist()]
    roots = np.sort(roots)
    # a root repeats its predecessor, or the first root across the 2*pi wrap
    keep = np.ones(len(roots), dtype=bool)
    keep[1:] = np.diff(roots) >= ANGLE_CLUSTER
    keep[1:] &= (TWO_PI - roots[1:]) + roots[:1] >= ANGLE_CLUSTER
    return roots[keep]


def _orbit_leaders(m: CircleMap, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle of each orbit of the roots, and the index of its smallest root.

    Orbits come in increasing angle.  An orbit's derivative sign is read at
    its smallest upstairs root, so the choice between the two
    reflection-symmetric roots of one orbit never depends on rounding.  On a
    rotation quotient a root that folds to just below the period is the orbit
    of angle 0, and such an orbit is reported at its 0-side angle.
    """
    key = m.domain.fold(roots)
    if not m.domain.is_reflection:
        key[m.domain.period - key < ANGLE_CLUSTER] -= m.domain.period
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-math.inf) >= ANGLE_CLUSTER)
    leaders = np.minimum.reduceat(order, starts)
    angles = np.maximum(key[leaders], 0.0)
    by_angle = np.argsort(angles)
    return angles[by_angle], leaders[by_angle]


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


def circle_degree2(m: CircleMap, value: float) -> CircleDegreeResult:
    """Weighted preimage count and mod-2 degree of the quotient map at ``value``.

    ``value`` is an angle on the codomain covering circle.  Every numeric
    preimage must clear DERIVATIVE_THRESHOLD, otherwise the value is reported
    critical; a map that turns too fast for the grid raises
    NoConvergenceError rather than returning a smaller count.
    """
    psi = value % TWO_PI
    if m.codomain.is_reflection:
        targets = sorted({psi, (TWO_PI - psi) % TWO_PI})
    else:
        period = m.codomain.period
        targets = [(psi % period) + j * period for j in range(m.codomain.order)]

    roots = _upstairs_roots(m, targets)
    slopes = _wrap(circle_eval(m, roots + SLOPE_STEP) - circle_eval(m, roots - SLOPE_STEP))
    slopes /= 2.0 * SLOPE_STEP
    critical = np.flatnonzero(np.abs(slopes) <= DERIVATIVE_THRESHOLD)
    if len(critical):
        i = critical[0]
        raise CriticalValueError(f"preimage at theta={roots[i]:.6f} has derivative {slopes[i]:.3g}")

    angles, leaders = _orbit_leaders(m, roots)
    points = tuple(
        CirclePreimage(angle, 1 if slope > 0 else -1, m.domain.isotropy_order(angle))
        for angle, slope in zip(angles.tolist(), slopes[leaders].tolist())
    )
    # sum of |G_value| / |G_point| over the points, over a common denominator
    value_isotropy = m.codomain.isotropy_order(psi)
    scale = math.lcm(*(p.isotropy_order for p in points))
    numerator = sum(value_isotropy * scale // p.isotropy_order for p in points)
    total, rem = divmod(numerator, scale)
    if rem:
        raise NonIntegralWeightError(f"weighted count {numerator}/{scale} is not an integer")

    domain_note = (
        "[0, pi], endpoints carry isotropy 2"
        if m.domain.is_reflection
        else f"[0, 2*pi/{m.domain.order})"
    )
    return CircleDegreeResult(
        weighted_count=total,
        mod2=total % 2,
        preimages=CirclePreimageSet(points, domain_note),
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
