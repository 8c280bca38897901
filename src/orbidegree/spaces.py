"""Weighted projective spaces and finite circle quotients.

A weighted projective space with weights q = (q_0, ..., q_n) is the quotient
of C^{n+1} minus the origin by the circle/C* action gamma . z =
(gamma^{q_0} z_0, ..., gamma^{q_n} z_n).  Points here carry exact
root-of-unity coordinates, so orbit equality is decidable: the canonical form
scales the first nonzero coordinate to 1 and then minimizes the remaining
coordinates lexicographically over the finite residual group Z_{q0}.  The
minimum is found in integer arithmetic by a stabilizer chain of that cyclic
group, one step per coordinate, not by trying all q0 scalings; the same
code canonicalizes one point or a whole fibre of points held as arrays
(canonical_numerators); WpsOrbifold.support_point skips it, as ones on a
support and zeros elsewhere are already the least tuple of their orbit.

The isotropy order and the singular dimension of a point depend only on its
support (the indices of its nonzero coordinates): support_isotropy_order and
support_singular_dimension compute them from (weights, support), and
isotropy, singular_dimension and strata all call them.  strata_supports walks
every support in strata order, sorted once per weight vector; strata groups
that walk by singular dimension.

Circle quotients S^1 // Z_k (free rotations) and S^1 // Z_2 (reflection, a
closed interval with two order-2 endpoints) are the one-dimensional model
family; the reflection quotient is the one supported space with a nonempty
codimension-1 singular stratum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotEffectiveError
from .roots import ExactCoordinate, RootOfUnity, integers

_ONE, _ZERO = ExactCoordinate.one(), ExactCoordinate.zero()  # shared by every support point


@dataclass(frozen=True)
class WpsOrbifold:
    """CP^n(q): weights must be positive with overall gcd 1 (effective action)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = integers(self.weights, "weights")
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("weights must be nonempty")
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be >= 1, got {weights}")
        if math.gcd(*weights) != 1:
            raise NotEffectiveError(f"weights {weights} have gcd {math.gcd(*weights)} > 1")

    @property
    def complex_dimension(self) -> int:
        return len(self.weights) - 1

    @property
    def dimension(self) -> int:
        """Real dimension 2n."""
        return 2 * self.complex_dimension

    @property
    def lcm(self) -> int:
        return math.lcm(*self.weights)

    def point(self, *coords: str | ExactCoordinate) -> "WpsPoint":
        parsed = tuple(
            c if isinstance(c, ExactCoordinate) else ExactCoordinate.parse(c) for c in coords
        )
        return WpsPoint(self, parsed)

    def support_point(self, support: tuple[int, ...]) -> "WpsPoint":
        """The point with 1 on ``support`` and 0 elsewhere, canonical as built: every
        numerator is 0, the least of its orbit.  Bad indices raise ValueError."""
        n = len(self.weights)
        support = integers(support, "support indices")
        ones = set(support)
        if not support or len(ones) != len(support) or not ones <= set(range(n)):
            raise ValueError(f"support {support} is not nonempty distinct indices in 0..{n - 1}")
        return WpsPoint._from_canonical(self, tuple(_ONE if i in ones else _ZERO for i in range(n)))

    def all_ones(self) -> "WpsPoint":
        return self.support_point(tuple(range(len(self.weights))))

    def axis_point(self, index: int) -> "WpsPoint":
        """The point with a single nonzero coordinate (equal to 1) at ``index``."""
        return self.support_point((index,))

    def to_json(self) -> dict:
        return {"weights": list(self.weights)}

    @classmethod
    def from_json(cls, data: dict) -> "WpsOrbifold":
        return cls(tuple(data["weights"]))

    def __str__(self) -> str:
        return "CP%d(%s)" % (self.complex_dimension, ",".join(map(str, self.weights)))


def canonical_numerators(
    weights: tuple[int, ...], support: tuple[int, ...], numerators: list, den: int
) -> list:
    """Orbit-canonical numerators over ``den`` of the coordinates in ``support``.

    ``numerators[k]`` is the turn numerator of coordinate ``support[k]`` (the
    support ascending, every other coordinate zero): a Python int for one
    point, or an integer array with one entry per point, which is then
    canonicalized in bulk by the same arithmetic.  ``den`` must be a multiple
    of q0 = weights[support[0]] times every coordinate's order, so that each
    numerator is a multiple of q0.

    Scaling by exp(2*pi*i*s/den) adds q_i*s to numerator i.  The particular
    s = -n_0/q0 (taken mod den/q0) sends the first coordinate to 1; the
    residual scalings are k*den/q0, k in Z_q0.  They are walked as a
    stabilizer chain: with ``stab`` generating the residual scalings that
    fix the coordinates already placed, the next coordinate's orbit is its
    residue class mod g = gcd(step, den), step = stab*q_j*den/q0, so its
    minimum c mod g is reached by one shift, and the scalings that fix it
    are the multiples of stab*den/g.  The result is the lexicographically
    least tuple of the orbit, with no loop over Z_q0.  Every intermediate
    stays below den*(max(weights) + 1).
    """
    q0 = weights[support[0]]
    unit = den // q0
    shift = (-(numerators[0] // q0)) % unit
    cols = [(n + weights[i] * shift) % den for n, i in zip(numerators, support)]
    stab = 1
    for pos in range(1, len(support)):
        h = math.gcd(stab * weights[support[pos]], q0)
        order = q0 // h
        if order == 1:  # every scaling left fixes this coordinate
            continue
        inv = pow(stab * weights[support[pos]] // h, -1, order)
        k = (-(cols[pos] // (unit * h)) * inv) % order
        for j in range(pos, len(support)):
            mult = (stab * weights[support[j]]) % q0
            cols[j] = (cols[j] + (k * mult) % q0 * unit) % den
        stab *= order
    return cols


def _canonical_coords(
    weights: tuple[int, ...], coords: tuple[ExactCoordinate, ...]
) -> tuple[ExactCoordinate, ...]:
    """Orbit-canonical representative under the weighted root-of-unity action.

    The first nonzero coordinate becomes 1 and the rest are lexicographically
    least over the residual scalings (see canonical_numerators).
    """
    support = tuple(i for i, c in enumerate(coords) if not c.is_zero)
    orders = [coords[i].root.order for i in support]
    den = weights[support[0]] * math.lcm(*orders)
    numerators = [coords[i].root.num * (den // m) for i, m in zip(support, orders)]
    out = list(coords)
    for i, n in zip(support, canonical_numerators(weights, support, numerators, den)):
        out[i] = ExactCoordinate(RootOfUnity(n, den))
    return tuple(out)


@dataclass(frozen=True)
class WpsPoint:
    """A point [z_0 : ... : z_n]_q with zero-or-root-of-unity coordinates.

    Stored in canonical form, so == and hash decide orbit equality exactly.
    """

    space: WpsOrbifold
    coords: tuple[ExactCoordinate, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.space.weights):
            raise ValueError("coordinate count does not match the weight count")
        if all(c.is_zero for c in self.coords):
            raise ValueError("at least one coordinate must be nonzero")
        object.__setattr__(self, "coords", _canonical_coords(self.space.weights, self.coords))

    @classmethod
    def _from_canonical(cls, space: WpsOrbifold, coords: tuple[ExactCoordinate, ...]) -> "WpsPoint":
        """The point with ``coords``, which the caller guarantees are already canonical.

        Skips the constructor's checks and canonical form; for support points
        and points read back from canonical columns (degree.PreimageColumns).
        """
        point = object.__new__(cls)
        object.__setattr__(point, "space", space)
        object.__setattr__(point, "coords", coords)
        return point

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if not c.is_zero)

    def translated(self, gamma: RootOfUnity) -> "WpsPoint":
        """Act by gamma: coordinate i is multiplied by gamma^{q_i}."""
        return WpsPoint(
            self.space,
            tuple(c.times(gamma**w) for c, w in zip(self.coords, self.space.weights)),
        )

    def cvalues(self) -> list[complex]:
        return [c.cvalue() for c in self.coords]

    def encode(self) -> str:
        """Wire encoding: coordinates joined by commas, each ``0`` or ``a/m``."""
        return ",".join(str(c) for c in self.coords)

    def to_json(self) -> dict:
        return {"weights": list(self.space.weights), "coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, data: dict) -> "WpsPoint":
        space = WpsOrbifold(tuple(data["weights"]))
        return cls(space, tuple(ExactCoordinate.from_json(c) for c in data["coords"]))

    def __str__(self) -> str:
        return "[" + ":".join(str(c) for c in self.coords) + "]_" + str(self.space.weights)


def support_isotropy_order(weights: tuple[int, ...], support: tuple[int, ...]) -> int:
    """Order of the isotropy group of every point with this support: gcd{q_i : i in support}."""
    return math.gcd(*(weights[i] for i in support))


def support_singular_dimension(weights: tuple[int, ...], support: tuple[int, ...]) -> int:
    """Real dimension of the chart subspace fixed by the isotropy of this support.

    In the chart centred on the first support coordinate, each other coordinate
    whose weight the isotropy order divides is one fixed complex line.
    """
    order = support_isotropy_order(weights, support)
    return 2 * sum(1 for j, w in enumerate(weights) if j != support[0] and w % order == 0)


def strata_supports(weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nonempty support of CP(weights) in strata() order: by descending
    singular dimension, then by size, then lexicographically.

    The walk depends on the weights alone, so it is sorted once per weight
    vector; each call returns a fresh list.
    """
    return list(_strata_walk(tuple(weights)))


@functools.lru_cache(maxsize=256)
def _strata_walk(weights: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(weights)
    walk = [sup for size in range(1, n + 1) for sup in itertools.combinations(range(n), size)]
    # sorted is stable, so each dimension keeps the walk's size-then-lexicographic order
    return tuple(sorted(walk, key=lambda sup: -support_singular_dimension(weights, sup)))


@dataclass(frozen=True)
class IsotropyGroup:
    """Cyclic isotropy Z_order."""

    order: int


def isotropy(x: WpsPoint) -> IsotropyGroup:
    """Isotropy group of x: cyclic of order gcd{q_i : i in support(x)}."""
    return IsotropyGroup(support_isotropy_order(x.space.weights, x.support))


def singular_dimension(x: WpsPoint) -> int:
    """Real dimension of the chart subspace fixed by the isotropy action at x."""
    return support_singular_dimension(x.space.weights, x.support)


ENDPOINT_TOL = 1e-8  # angles this close to 0 or pi are fixed by the reflection


@dataclass(frozen=True)
class CircleQuotient:
    """S^1 // G for G a rotation group Z_k (free) or the reflection Z_2."""

    group: str  # "rotation" | "reflection"
    order: int

    def __post_init__(self) -> None:
        if self.group not in ("rotation", "reflection"):
            raise ValueError(f"circle group {self.group!r} is not 'rotation' or 'reflection'")
        (order,) = integers((self.order,), f"{self.group} order")
        object.__setattr__(self, "order", order)
        if self.group == "rotation" and order < 1:
            raise ValueError("rotation order must be >= 1")
        if self.group == "reflection" and order != 2:
            raise ValueError(f"the reflection group has order 2, got {order}")

    @classmethod
    def rotation(cls, k: int = 1) -> "CircleQuotient":
        return cls("rotation", k)

    @classmethod
    def reflection(cls) -> "CircleQuotient":
        return cls("reflection", 2)

    @property
    def is_reflection(self) -> bool:
        return self.group == "reflection"

    @property
    def period(self) -> float:
        """Length of the fundamental domain: 2*pi/k for rotations, pi for the reflection."""
        return math.pi if self.is_reflection else 2.0 * math.pi / self.order

    def fold(self, theta):
        """Canonical representative of the orbit of the angle theta; elementwise on arrays."""
        two_pi = 2.0 * math.pi
        theta = np.remainder(theta, two_pi)
        if self.is_reflection:
            return np.minimum(theta, two_pi - theta)
        return np.remainder(theta, self.period)

    def isotropy_order(self, theta):
        """2 within ENDPOINT_TOL of the reflection's fixed points 0 and pi, else 1.

        An int for a scalar angle; elementwise on arrays.
        """
        if self.is_reflection:
            folded = self.fold(theta)
            endpoint = (folded < ENDPOINT_TOL) | (np.abs(folded - math.pi) < ENDPOINT_TOL)
            orders = np.where(endpoint, 2, 1)
        else:
            orders = np.ones(np.shape(theta), dtype=int)
        return orders if orders.ndim else int(orders)

    def to_json(self) -> dict:
        return {"kind": self.group, "order": self.order}

    def __str__(self) -> str:
        return "S1//Z%d(%s)" % (self.order, self.group)


@dataclass(frozen=True)
class StratumComponent:
    support: tuple[int, ...] | None
    isotropy_order: int
    description: str


@dataclass(frozen=True)
class StratumRecord:
    sdim: int
    components: tuple[StratumComponent, ...]
    open_dense: bool = False


@dataclass(frozen=True)
class StrataReport:
    records: tuple[StratumRecord, ...]
    codim1_empty: bool
    orientable: bool

    def isotropy_orders(self) -> set[int]:
        return {c.isotropy_order for r in self.records for c in r.components}

    def to_json(self) -> dict:
        return {
            "codim1_empty": self.codim1_empty,
            "orientable": self.orientable,
            "strata": [
                {
                    "sdim": r.sdim,
                    "open_dense": r.open_dense,
                    "components": [
                        {
                            "support": list(c.support) if c.support is not None else None,
                            "isotropy": c.isotropy_order,
                            "description": c.description,
                        }
                        for c in r.components
                    ],
                }
                for r in self.records
            ],
        }


def strata(space: WpsOrbifold | CircleQuotient) -> StrataReport:
    """Stratification by singular dimension, with orientability flags.

    Weighted projective spaces are stratified per support class (coordinate
    subsets sharing a weight gcd); complex charts force every singular
    dimension to be even, so the codimension-1 stratum is always empty.
    """
    if isinstance(space, CircleQuotient):
        return _circle_strata(space)

    weights = space.weights
    records = []
    for sdim, group in itertools.groupby(
        strata_supports(weights), key=lambda sup: support_singular_dimension(weights, sup)
    ):
        components = tuple(
            StratumComponent(
                sup, support_isotropy_order(weights, sup), f"points with support {set(sup)}"
            )
            for sup in group
        )
        records.append(StratumRecord(sdim, components, open_dense=(sdim == space.dimension)))
    codim1_empty = all(r.sdim != space.dimension - 1 for r in records)
    return StrataReport(tuple(records), codim1_empty=codim1_empty, orientable=True)


def _circle_strata(space: CircleQuotient) -> StrataReport:
    if not space.is_reflection:
        record = StratumRecord(
            1,
            (StratumComponent(None, 1, "the whole quotient circle (free rotation action)"),),
            open_dense=True,
        )
        return StrataReport((record,), codim1_empty=True, orientable=True)
    interior = StratumRecord(
        1,
        (StratumComponent(None, 1, "open interval of smooth points"),),
        open_dense=True,
    )
    endpoints = StratumRecord(
        0,
        (
            StratumComponent(None, 2, "endpoint at angle 0"),
            StratumComponent(None, 2, "endpoint at angle pi"),
        ),
    )
    # dim 1 with a nonempty 0-stratum: the codimension-1 stratum is not empty
    return StrataReport((interior, endpoints), codim1_empty=False, orientable=False)
