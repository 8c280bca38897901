"""One-dimensional model maps: circle quotients, folds, flat maps and coverings.

These maps live on S^1 with a finite rotation group Z_k (free, quotient a
circle) or the reflection Z_2 (quotient a closed interval whose endpoints
have order-2 isotropy).  The fold map squares the second coordinate and lands
in the upper half circle; its mod-2 degree depends on the value probed, the
behaviour the reflection quotient's codimension-1 stratum makes possible.
The two flat maps replace y^2 by e^{-1/y^2} (even) and sign(y) e^{-1/y^2}
(odd): equal underlying maps on the quotient, different isotropy
homomorphisms, equal degrees.  A power map theta -> power*theta descends
between rotation quotients; windings and covering projections (power 1
onto S^1 // Z_k) are power maps.  A map's kind fixes its isotropy
homomorphism, which CircleMap.theta names.

circle_eval evaluates each kind by its own formula: a power map is
power*theta mod 2*pi and computes no trigonometry, the fold and flat maps take
the angle of (cos theta, f(sin theta)).  The flat bump clamps y*y below at
1e-300 instead of masking small y, which gives the same bits, NaN included,
without a floating-point warning.  The grid and the slopes are evaluated on
arrays.  The refinement probes _image, the same formulas, on Python floats,
where a power probe is two float operations with the bits of the array
result and a fold or flat probe runs numpy's scalar ufuncs, or on arrays of
one angle per bracket, as below.

Degrees are computed numerically in one pass with fixed constants: the
covering circle is sampled on a GRID-point grid, the grid steps that start
on a target or change the sign of the wrapped angular difference to it
bracket the roots, each bracket is narrowed to one root below REFINE_TOL,
and the roots are folded into the quotient's fundamental domain, grouped
into orbits and counted with integer weights |G_value| / |G_point|.  A value
is solved as the targets over it on the codomain covering circle: one per
element of a rotation group, psi and 2*pi - psi on the reflection, and psi
alone at a reflection endpoint (isotropy 2).  circle_degrees takes many
values of one map in that one pass, and circle_degree2 is its one-value
case.  The grid depends only on the map's kind and power, so _grid evaluates
it once per (kind, power) and keeps the _GRID_CACHE most recently used, each
with the short arc each grid step sweeps, sorted by its low end: a later
call on any map of that kind and power, whatever its quotients, evaluates no
grid while its grid is kept.  Each target, one turn down, as given and one
turn up, finds the arcs that may hold it by a sorted search over those arcs,
so a call costs O(T log GRID + pairs) for T targets, rather than O(GRID) or
O(GRID * T); roots, orbits and weights are then tallied over (value, root)
rows.  A result keeps its points as read-only angle, sign and isotropy
columns, slices of one array per column shared by the call's values;
CirclePreimageSet.points builds CirclePreimage records from them on request.

A bracket is narrowed by Illinois regula falsi: secant steps, with the value
at an end that survived two steps in a row halved.  A secant point within
REFINE_TOL/2 of an end becomes a closing probe REFINE_TOL/2 inside it, so a
step that lands that close to the root is followed by one that closes the
bracket.  Bisection takes over when the end values do not differ in sign and
once a bracket has used as many secant steps as bisection would need.  Near
a critical value, where the difference rounds to exactly 0 on a stretch
around the root, the point of it that bisection picks is returned.  A
winding root takes 5 evaluations of the map, a fold or flat root about 8.
_refine, on Python floats, is the one definition of this rule.  A call with
at least LANE_BRACKETS brackets first narrows them together as numpy lanes,
one per bracket, that repeat its arithmetic step for step in the common
case: a lane that lands on a zero stretch wider than REFINE_TOL/2, or
closes with a residual past RESIDUAL_TOL, is left to _refine, which redoes
its steps and returns the same root or raises.  With fewer brackets,
numpy's fixed cost per operation makes _refine alone the faster (the 7
brackets of winding(7): about 30 us scalar, 170 us as lanes).

A map whose turning rate the grid cannot resolve (4 * rate > GRID, i.e. a
grid step may turn by more than pi/2) is refused with NoConvergenceError
instead of being undercounted; sampled steps cannot detect this themselves,
since a map turning by a full 2*pi per step looks flat on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    CriticalValueError,
    NoConvergenceError,
    NoHomomorphismError,
    NonIntegralWeightError,
    PreconditionViolatedError,
)
from .roots import integers
from .spaces import CircleQuotient

TWO_PI = 2.0 * math.pi
GRID = 4096  # sample steps around the covering circle
BOUNDED_RATE = 3  # turning-rate bound of the fold and flat maps (measured: 1.43 and e)
REFINE_TOL = 1e-12  # root refinement stops once a bracket is this narrow
LANE_BRACKETS = 64  # a call with this many brackets refines them as numpy lanes, not one by one
RESIDUAL_TOL = 1e-6  # largest angle miss accepted at a refined root
SLOPE_STEP = 1e-6  # half-width of the central difference for derivatives
DERIVATIVE_THRESHOLD = 1e-8  # a preimage with |derivative| at or below it is critical
ANGLE_CLUSTER = 1e-8  # folded roots closer than this are one orbit
_GRID_CACHE = 32  # grids _grid keeps, one per (kind, power), the least recently used dropped

_KINDS = ("fold", "flat_even", "flat_odd", "power")
_GRID_ANGLES = np.linspace(0.0, TWO_PI, GRID + 1)
_GRID_ANGLES.flags.writeable = False


def flat_bump(y):
    """e^{-1/y^2} continued by 0 at y = 0 (and at NaN), without a floating-point warning.

    Clamping y*y at 1e-300 keeps the division finite; e^{-1/y^2} underflows
    to 0 long before y*y gets that small, and fmax maps NaN to the clamp.
    """
    return np.exp(-1.0 / np.fmax(y * y, 1e-300))


@dataclass(frozen=True)
class CircleMap:
    """A self-contained one-dimensional map with its quotient and isotropy data."""

    kind: str
    domain: CircleQuotient
    codomain: CircleQuotient
    power: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        (power,) = integers((self.power,), "power")
        object.__setattr__(self, "power", power)
        if self.kind != "power":
            if not self.domain.is_reflection:
                raise ValueError(f"{self.kind} requires the reflection quotient as domain")
            if self.power != 1:
                raise ValueError(f"{self.kind} has no power, got power={self.power}")
        else:
            if self.domain.is_reflection or self.codomain.is_reflection:
                raise ValueError("power maps act between rotation quotients")
            k, b = self.domain.order, self.codomain.order
            if (self.power * b) % k != 0:
                raise NoHomomorphismError(
                    f"exp(2*pi*i*{self.power}/{k}) does not lie in the order-{b} rotation group"
                )

    @property
    def theta(self) -> str:
        """The isotropy homomorphism, fixed by the kind: gamma -> gamma^power for a power map."""
        if self.kind == "power":
            return "rotation"
        return "identity" if self.kind == "flat_odd" else "trivial"

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
        return cls("flat_odd", CircleQuotient.reflection(), CircleQuotient.reflection())

    @classmethod
    def winding(cls, k: int) -> "CircleMap":
        """theta -> k*theta on the plain circle."""
        return cls.quotient_power(k, 1, 1)

    @classmethod
    def covering_projection(cls, order: int) -> "CircleMap":
        """The identity upstairs, projecting the circle onto S^1 // Z_order."""
        return cls.quotient_power(1, 1, order)

    @classmethod
    def quotient_power(cls, power: int, domain_order: int, codomain_order: int) -> "CircleMap":
        """theta -> power*theta descended to S^1//Z_{domain} -> S^1//Z_{codomain}."""
        return cls("power", CircleQuotient.rotation(domain_order),
                   CircleQuotient.rotation(codomain_order), power=power)


def circle_eval(m: CircleMap, theta):
    """Angle of the image point on the codomain covering circle, in [0, 2*pi).

    The image is renormalized to the unit circle, which its angle encodes;
    vectorized over array input.
    """
    return _image(m, np.asarray(theta, dtype=float))


def _image(m: CircleMap, theta):
    """circle_eval on an angle taken as given: a float array, or a Python float.

    On a Python float a power map costs two float operations, bit for bit
    the array result: int * float and float % follow the same IEEE steps
    and sign rule as np.multiply and np.remainder.
    """
    if m.kind == "power":
        return (m.power * theta) % TWO_PI
    y = np.sin(theta)
    if m.kind == "fold":
        second = y * y
    elif m.kind == "flat_even":
        second = flat_bump(y)
    else:
        second = np.sign(y) * flat_bump(y)
    return np.arctan2(second, np.cos(theta)) % TWO_PI


def _wrap(delta):
    """Wrap angular differences to (-pi, pi]."""
    return (delta + math.pi) % TWO_PI - math.pi


def _refine(m: CircleMap, target: float, lo: float, hi: float) -> float:
    """Shrink the bracket [lo, hi] around the zero of wrap(circle_eval(theta) - target).

    lo, hi and target are Python floats, and so is every probe.

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

    def g(theta: float) -> float:  # the wrapped angle from target to the image, as a float
        return float(_wrap(_image(m, theta) - target))

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


def _refine_each(
    m: CircleMap, target: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, NoConvergenceError | None]:
    """The root of each bracket up to the first whose refinement raises, and that error.

    A call with at least LANE_BRACKETS brackets narrows them as lanes first;
    _refine then finishes, in bracket order, every bracket the lanes leave,
    and every bracket of a smaller call.
    """
    if len(target) >= LANE_BRACKETS:
        roots = _refine_lanes(m, target, lo, hi)
    else:
        roots = np.full(len(target), math.nan)
    for i in np.isnan(roots).nonzero()[0].tolist():
        try:
            roots[i] = _refine(m, float(target[i]), float(lo[i]), float(hi[i]))
        except NoConvergenceError as exc:
            return roots[:i], exc
    return roots, None


def _refine_lanes(m: CircleMap, target: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """_refine's root of each bracket as numpy lanes, one per bracket, or NaN where
    a lane leaves the bracket to _refine.

    Each lane runs _refine's arithmetic on elementwise array operations,
    which round as the float operations do: the secant budget, taken with
    math.log2 per distinct bracket width, the clamped secant point, the
    midpoint fallback and the Illinois halving.  The secant division is
    masked to the lanes that take a secant step.  A lane returns where
    _refine returns: at an exact 0 of its lower end, at a closed bracket
    that passes the residual check, or at an exact 0 inside that the narrow
    test and the two REFINE_TOL/2 probes, run in lanes too, call narrow.  A
    lane that lands on a wider zero stretch, or closes with a residual past
    RESIDUAL_TOL, is left as NaN: _refine repeats its steps and ends it as
    the scalar refinement does, in _bisection_point or with the error.
    """

    def g(theta, at):
        return _wrap(_image(m, theta) - at)

    roots = np.full(len(target), math.nan)
    f_lo = g(lo, target)
    roots[f_lo == 0.0] = lo[f_lo == 0.0]
    lane = (f_lo != 0.0).nonzero()[0]
    at, a, b, f_a = target[lane], lo[lane], hi[lane], f_lo[lane]
    f_b = g(b, at)
    widths, width_of = np.unique((b - a) / REFINE_TOL, return_inverse=True)
    steps = np.array([math.ceil(math.log2(w)) for w in widths.tolist()], dtype=np.int64)
    steps = steps[width_of]  # bisection's step count
    kept = np.zeros(len(lane), dtype=np.int64)  # as in _refine: 1 for b, -1 for a
    half = 0.5 * REFINE_TOL
    closed = []  # (lanes, midpoints, targets) of the brackets narrowed below REFINE_TOL
    while len(lane):
        open_ = b - a >= REFINE_TOL
        if not open_.all():
            shut = ~open_
            closed.append((lane[shut], 0.5 * (a[shut] + b[shut]), at[shut]))
            lane, at, a, b, f_a, f_b, steps, kept = (
                x[open_] for x in (lane, at, a, b, f_a, f_b, steps, kept)
            )
            continue
        secant = (steps > 0) & ((f_a < 0) != (f_b < 0))
        steps -= secant
        theta = a - np.divide(f_a * (b - a), f_b - f_a, out=np.zeros(len(lane)), where=secant)
        low, high = a + half, b - half
        theta = np.where(low > theta, low, theta)  # min(max(theta, low), high), ties as in Python
        theta = np.where(high < theta, high, theta)
        theta = np.where(secant, theta, 0.5 * (a + b))
        f_theta = g(theta, at)
        zero = f_theta == 0.0
        if zero.any():
            z = zero.nonzero()[0]
            narrow = (b[z] - a[z]) * math.ulp(TWO_PI) < half * np.abs(f_b[z] - f_a[z])
            narrow[narrow] = g(theta[z[narrow]] - half, at[z[narrow]]) != 0.0
            narrow[narrow] = g(theta[z[narrow]] + half, at[z[narrow]]) != 0.0
            roots[lane[z[narrow]]] = theta[z[narrow]]
            live = ~zero
            lane, at, a, b, f_a, f_b, steps, kept, theta, f_theta = (
                x[live] for x in (lane, at, a, b, f_a, f_b, steps, kept, theta, f_theta)
            )
        same = (f_theta < 0) == (f_a < 0)  # theta replaces a, b survives
        f_a, f_b = (
            np.where(same, f_theta, np.where(kept == -1, f_a * 0.5, f_a)),
            np.where(same, np.where(kept == 1, f_b * 0.5, f_b), f_theta),
        )
        a, b = np.where(same, theta, a), np.where(same, b, theta)
        kept = np.where(same, 1, -1)
    if closed:
        lane, mid, at = (np.concatenate(x) for x in zip(*closed))
        roots[lane] = np.where(np.abs(g(mid, at)) > RESIDUAL_TOL, math.nan, mid % TWO_PI)
    return roots


def _targets(m: CircleMap, psi: float, isotropy: int) -> list[float]:
    """The angles on the codomain covering circle over the quotient point of psi, sorted.

    A reflection endpoint (isotropy 2, within ENDPOINT_TOL of 0 or pi) is
    its own mirror image and is solved as the one target psi.
    """
    if m.codomain.is_reflection:
        return [psi] if isotropy == 2 else sorted([psi, TWO_PI - psi])
    period = m.codomain.period
    return [(psi % period) + j * period for j in range(m.codomain.order)]


class _Grid(NamedTuple):
    """A map's image on the grid and the short arc of each grid step, all read-only."""

    image: np.ndarray  # circle_eval at _GRID_ANGLES, with image[-1] = image[0]
    low: np.ndarray  # each step's arc from low to high, the arcs sorted by low
    high: np.ndarray
    step: np.ndarray  # the grid step of each arc, in 16 bits: GRID fits
    width: float  # the widest arc: high - low <= width for every arc


@lru_cache(maxsize=_GRID_CACHE)
def _grid(kind: str, power: int) -> _Grid:
    """The grid of every map of this kind and power, evaluated on the first call.

    The image reads nothing else of a map, so covering_projection(3) and (4)
    share one grid.  A step's short arc runs from image[i] to image[i+1] the
    short way round: a step that turns by more than pi crosses 0 = 2*pi, and
    its arc runs from the larger end up to the smaller one plus 2*pi.
    """
    domain = CircleQuotient.rotation(1) if kind == "power" else CircleQuotient.reflection()
    image = circle_eval(CircleMap(kind, domain, domain, power), _GRID_ANGLES)
    image[-1] = image[0]  # 2*pi is 0 again; evaluated apart, they can round apart
    low = np.minimum(image[:-1], image[1:])
    high = np.maximum(image[:-1], image[1:])
    across = (high - low > math.pi).nonzero()[0]  # steps across 0 = 2*pi: the arc wraps
    low[across], high[across] = high[across], low[across] + TWO_PI
    width = float((high - low).max())
    step = low.argsort(kind="stable").astype(np.int16)
    grid = _Grid(image, low[step], high[step], step, width)
    for array in grid[:4]:
        array.flags.writeable = False
    return grid


def _crossings(grid: _Grid, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target and step indices of the brackets, sorted by target, then step: the
    grid steps that start on a target or whose wrapped difference to it changes
    sign.  A step that starts on its target is the bracket whose refinement
    returns that grid angle at its first probe.

    A grid step turns the image by at most rate * 2*pi/GRID, which the
    refusal keeps at pi/2 or less: a step over a root then changes the
    wrapped difference by at most pi/2, a step across the wrap by at least
    3*pi/2, and no step hides a whole turn.  So a step can only start on or
    cross the targets of its short arc.  Widened by ANGLE_CLUSTER against
    rounding, an arc [low, high] holds a target t, repeated one turn down
    and up as u, when low <= u + ANGLE_CLUSTER and high >= u - ANGLE_CLUSTER.
    Each u finds its arcs in the arcs sorted by low: a searchsorted gives
    those with low <= u + ANGLE_CLUSTER, and since high - low <= width, no
    arc with high >= u - ANGLE_CLUSTER has low below
    u - ANGLE_CLUSTER - width - ANGLE_CLUSTER, where a second searchsorted
    starts them; the last ANGLE_CLUSTER covers the rounding of that bound.
    The exact high test then keeps the arcs that hold u.  These are the two
    float comparisons of the definition, so the (target, step) pairs are
    exactly those of a search over every arc, and only they get the exact
    test: O(T log GRID + pairs) time and memory, never O(GRID * T).
    """
    turns = np.concatenate([targets - TWO_PI, targets, targets + TWO_PI])
    below = turns - ANGLE_CLUSTER  # the low end of each target's widened span
    start = grid.low.searchsorted(below - grid.width - ANGLE_CLUSTER, side="left")
    counts = grid.low.searchsorted(turns + ANGLE_CLUSTER, side="right") - start
    # pair j of turn u is its arc start[u] + j
    turn = np.arange(len(turns)).repeat(counts)
    arc = np.arange(len(turn)) + (start - counts.cumsum() + counts).repeat(counts)
    held = grid.high[arc] >= below[turn]
    target, step = turn[held] % len(targets), grid.step[arc[held]]
    order = np.lexsort((step, target))
    target, step = target[order], step[order]
    diff, diff_next = _wrap(grid.image[np.add.outer((0, 1), step)] - targets[target])
    # sign flips across the wrap are not roots
    found = (diff == 0.0) | ((diff * diff_next < 0) & (np.abs(diff_next - diff) < math.pi))
    return target[found], step[found]


@dataclass(frozen=True)
class CirclePreimage:
    angle: float  # canonical representative in the domain fundamental domain
    derivative_sign: int
    isotropy_order: int


@dataclass(frozen=True, eq=False)
class CirclePreimageSet:
    """The points over one value in increasing angle, one row each of read-only columns."""

    angle: np.ndarray  # float64, as CirclePreimage.angle
    sign: np.ndarray  # derivative_sign
    isotropy: np.ndarray  # isotropy_order
    fundamental_domain: str

    @property
    def points(self) -> tuple[CirclePreimage, ...]:
        """One CirclePreimage per row, built anew on each access."""
        columns = (self.angle, self.sign, self.isotropy)
        return tuple(map(CirclePreimage, *(column.tolist() for column in columns)))

    def angles(self) -> list[float]:
        return self.angle.tolist()


@dataclass(frozen=True, eq=False)
class CircleDegreeResult:
    weighted_count: int
    mod2: int
    preimages: CirclePreimageSet


def circle_degrees(m: CircleMap, values) -> list[CircleDegreeResult]:
    """circle_degree2(m, value) for each of ``values``, in one pass over the map's grid.

    The grid is _grid's, evaluated once per kind and power.  The brackets of
    all values are found in one sparse search and refined by _refine_each,
    each to one root; the slopes of all roots come from one evaluation, and
    roots, orbits and weights are tallied over (value, root) rows, where the
    orbit grouping merges roots within ANGLE_CLUSTER.  Each result is the one
    a call for its value alone returns, bit for bit; its points are read-only
    slices of one array per column, and no CirclePreimage is built until
    ``points`` is read.
    The error raised is the one the first failing value raises in
    ``[circle_degree2(m, v) for v in values]``.  A NaN or infinite value has
    no angle; it is refused with PreconditionViolatedError before any work.
    ``values`` is read once, so any iterable of numbers will do.
    """
    values = list(values)
    for value in values:
        if not math.isfinite(value):
            raise PreconditionViolatedError(f"circle value {float(value)} is not finite")
    if len(values) == 0:
        return []
    psis = [value % TWO_PI for value in values]
    value_isotropy = m.codomain.isotropy_order(np.array(psis))
    per_value = [_targets(m, psi, iso) for psi, iso in zip(psis, value_isotropy.tolist())]
    targets = np.array([t for ts in per_value for t in ts])
    owner = np.array([v for v, ts in enumerate(per_value) for _ in ts])  # value of a target

    rate = abs(m.power) if m.kind == "power" else BOUNDED_RATE  # |d image / d theta|
    if 4 * rate > GRID:
        raise NoConvergenceError(
            f"{m.kind} map turns at rate {rate}; a {GRID}-point grid resolves rates "
            f"up to {GRID // 4}"
        )
    bracket_target, bracket_step = _crossings(_grid(m.kind, m.power), targets)
    grid = _GRID_ANGLES
    roots, failure = _refine_each(
        m, targets[bracket_target], grid[bracket_step], grid[bracket_step + 1]
    )
    # the first value whose refinement raises
    failed = len(psis) if failure is None else int(owner[bracket_target[len(roots)]])
    root_owner = owner[bracket_target[: len(roots)]]
    order = np.lexsort((roots, root_owner))
    roots, root_owner = roots[order], root_owner[order]

    above, below = circle_eval(m, np.add.outer((SLOPE_STEP, -SLOPE_STEP), roots))
    slopes = _wrap(above - below)
    slopes /= 2.0 * SLOPE_STEP
    critical = (np.abs(slopes) <= DERIVATIVE_THRESHOLD).nonzero()[0][::-1]
    critical_of = dict(zip(root_owner[critical].tolist(), critical.tolist()))  # first per value

    # orbits of each value in increasing angle, each read at its smallest
    # upstairs root, so the choice between the two reflection-symmetric roots
    # of one orbit never depends on rounding.  On a rotation quotient a root
    # that folds to just below the period is the orbit of angle 0, reported
    # at its 0-side angle.
    key = m.domain.fold(roots)
    if not m.domain.is_reflection:
        key[m.domain.period - key < ANGLE_CLUSTER] -= m.domain.period
    order = np.lexsort((key, root_owner))
    sorted_key, sorted_owner = key[order], root_owner[order]
    gaps = (sorted_key[1:] - sorted_key[:-1] >= ANGLE_CLUSTER) | (
        sorted_owner[1:] != sorted_owner[:-1]
    )
    starts = np.concatenate(([0], gaps.nonzero()[0] + 1))  # first row of each orbit
    leaders = np.minimum.reduceat(order, starts) if len(order) else order
    angles = np.maximum(key[leaders], 0.0)
    point_owner = root_owner[leaders]
    isotropy = m.domain.isotropy_order(angles)

    # sum of |G_value| / |G_point| over each value's points, over a common denominator
    n = len(psis)
    scale = np.ones(n, dtype=np.int64)
    np.lcm.at(scale, point_owner, isotropy)
    numerator = np.zeros(n, dtype=np.int64)
    np.add.at(numerator, point_owner, value_isotropy[point_owner] * scale[point_owner] // isotropy)
    total, remainder = np.divmod(numerator, scale)

    bounds = point_owner.searchsorted(np.arange(n + 1)).tolist()
    columns = (angles, np.where(slopes[leaders] > 0, 1, -1), isotropy)
    for column in columns:
        column.flags.writeable = False
    scale, numerator, total = scale.tolist(), numerator.tolist(), total.tolist()
    domain_note = ("[0, pi], endpoints carry isotropy 2" if m.domain.is_reflection
                   else f"[0, 2*pi/{m.domain.order})")
    results = []
    for v in range(failed):
        if v in critical_of:
            i = critical_of[v]
            raise CriticalValueError(
                f"preimage at theta={roots[i]:.6f} has derivative {slopes[i]:.3g}"
            )
        if remainder[v]:
            raise NonIntegralWeightError(
                f"weighted count {numerator[v]}/{scale[v]} is not an integer"
            )
        rows = slice(bounds[v], bounds[v + 1])
        results.append(CircleDegreeResult(
            weighted_count=total[v],
            mod2=total[v] % 2,
            preimages=CirclePreimageSet(*(column[rows] for column in columns), domain_note),
        ))
    if failure is not None:
        raise failure
    return results


def circle_degree2(m: CircleMap, value: float) -> CircleDegreeResult:
    """Weighted preimage count and mod-2 degree of the quotient map at ``value``.

    ``value`` is an angle on the codomain covering circle.  Every numeric
    preimage must clear DERIVATIVE_THRESHOLD, otherwise the value is reported
    critical; a map that turns too fast for the grid raises
    NoConvergenceError rather than returning a smaller count.
    """
    return circle_degrees(m, [value])[0]


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
    if (result.preimages.sign != 1).any():
        raise PreconditionViolatedError(
            f"theta -> {power}*theta reverses orientation; covering_degree needs power >= 1"
        )
    return result.weighted_count
