"""Exact mapping degrees by weighted preimage counting.

For a coordinate-power map and a regular value y with support S, the fibre is
solved exactly: after scaling y's class to a representative fixed upstairs,
the solutions are b-indexed tuples of roots of unity, identified under the
finite residual symmetry (see orbits.py).  Every preimage point in a fixed
fibre has the same isotropy order gcd{q_i : i in S}, the value has isotropy
order gcd{r_i : i in S}, and each point is counted with weight
|G_y| / |G_x| — a positive integer at regular values.  Coordinate-power maps
are holomorphic on charts, so every orientation sign is +1 and the oriented
degree equals the weighted count.

The preimage points are kept as integer columns (PreimageColumns): every
coordinate of every point is a numerator over one common denominator
D = q0 * lcm_i(m_i * e_i), for y_i = a_i/m_i and q0 the weight of the first
support coordinate, and all points are put in canonical form at once by
spaces.canonical_numerators.  The columns are int64 while every intermediate
fits, and Python-int object arrays otherwise, so they never wrap.  Point
objects are built only for callers that ask for records.

The closed form (prod_i e_i) / d is the fast path; orbit enumeration is the
trusted oracle.  They are never silently swapped: enumeration beyond the cap
raises instead of falling back to the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonIntegralWeightError,
    NotRegularError,
    PreconditionViolatedError,
)
from .maps import MonomialMap
from .orbits import _INT64_MAX, coset_minima, decode
from .roots import ExactCoordinate, RootOfUnity
from .spaces import WpsOrbifold, WpsPoint, canonical_numerators, isotropy, support_isotropy_order

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class RegularityCertificate:
    """Chart-lift criterion: y is regular iff no zero coordinate carries an exponent > 1."""

    support: tuple[int, ...]
    violations: tuple[tuple[int, int], ...]  # (coordinate index off support, exponent)

    @property
    def regular(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "regular": self.regular,
            "support": list(self.support),
            "violations": [{"index": i, "exponent": e} for i, e in self.violations],
        }


@dataclass(frozen=True)
class PreimageRecord:
    point: WpsPoint
    isotropy_order: int
    weight: int
    sign: int = 1

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "isotropy": self.isotropy_order,
            "weight": self.weight,
            "sign": self.sign,
        }


@dataclass(frozen=True)
class DegreeResult:
    weighted_count: int
    mod2: int
    oriented: int
    value: WpsPoint
    certificate: RegularityCertificate
    preimages: tuple[PreimageRecord, ...] | None = None
    _fibre: _Fibre | None = field(default=None, repr=False, compare=False)

    def preimage_columns(self) -> PreimageColumns:
        """The preimage points as integer columns, built from the fibre this result solved."""
        return _columns(self.value, self._fibre)

    def to_json(self) -> dict:
        data = {
            "degree": self.oriented,
            "mod2": self.mod2,
            "weighted_count": self.weighted_count,
            "value": self.value.to_json(),
            "regular": self.certificate.to_json(),
        }
        if self.preimages is not None:
            data["preimages"] = [rec.to_json() for rec in self.preimages]
        return data


def support_regularity(f: MonomialMap, support: tuple[int, ...]) -> RegularityCertificate:
    """The certificate shared by every value of f with this support."""
    violations = tuple((j, e) for j, e in enumerate(f.exponents) if j not in support and e > 1)
    return RegularityCertificate(support, violations)


def regularity(f: MonomialMap, y: WpsPoint) -> RegularityCertificate:
    if y.space != f.target:
        raise ValueError(f"value lives in {y.space}, not in the target {f.target}")
    return support_regularity(f, y.support)


def is_regular_value(f: MonomialMap, y: WpsPoint) -> bool:
    return regularity(f, y).regular


@dataclass(frozen=True)
class _Fibre:
    """Solved fibre data: coset representatives plus the shared arithmetic context."""

    space: WpsOrbifold  # the source space the preimage points live in
    support: tuple[int, ...]
    codes: np.ndarray
    sub_exponents: tuple[int, ...]
    value_isotropy: int  # gcd of target weights over the support
    point_isotropy: int  # gcd of source weights over the support
    certificate: RegularityCertificate

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def weight(self) -> int:
        w, rem = divmod(self.value_isotropy, self.point_isotropy)
        if rem or w <= 0:
            raise NonIntegralWeightError(
                f"|G_y|/|G_x| = {self.value_isotropy}/{self.point_isotropy} is not a "
                "positive integer; this is a bug"
            )
        return w


def _solve_fibre(f: MonomialMap, y: WpsPoint, cap: int | None) -> _Fibre:
    cert = regularity(f, y)
    if not cert.regular:
        raise NotRegularError(
            f"{y} is a critical value: exponent > 1 off the support at "
            f"indices {[i for i, _ in cert.violations]}"
        )
    sup = cert.support
    q = f.source.weights
    r = f.target.weights
    e_sub = tuple(f.exponents[i] for i in sup)
    g_val = support_isotropy_order(r, sup)
    m_pt = support_isotropy_order(q, sup)
    shift = tuple((r[i] // g_val) % f.exponents[i] for i in sup)
    codes = coset_minima(e_sub, shift, cap)
    return _Fibre(f.source, sup, codes, e_sub, g_val, m_pt, cert)


@dataclass(frozen=True, eq=False)
class PreimageColumns:
    """The canonical preimage points of a fibre, one row per point.

    Coordinate support[k] of point b is exp(2*pi*i*num[b, k]/den[b, k]) in
    lowest terms; every other coordinate is zero.  The arrays are int64, or
    object arrays of Python ints when the common denominator is too large
    for int64.  All points share ``isotropy_order`` and ``weight``.
    """

    space: WpsOrbifold
    support: tuple[int, ...]
    num: np.ndarray
    den: np.ndarray
    isotropy_order: int
    weight: int

    def __len__(self) -> int:
        return len(self.num)

    def rows(self) -> list[tuple[int, ...]]:
        """Per point (num, den) of each support coordinate, interleaved, as Python ints."""
        pairs = np.empty((len(self), 2 * len(self.support)), dtype=self.num.dtype)
        pairs[:, 0::2] = self.num
        pairs[:, 1::2] = self.den
        return list(map(tuple, pairs.tolist()))

    def record(self, row: tuple[int, ...]) -> PreimageRecord:
        coords = [ExactCoordinate.zero()] * len(self.space.weights)
        for k, i in enumerate(self.support):
            coords[i] = ExactCoordinate(RootOfUnity._from_reduced(row[2 * k], row[2 * k + 1]))
        point = WpsPoint._from_canonical(self.space, tuple(coords))
        return PreimageRecord(point, self.isotropy_order, self.weight)

    def records(self) -> tuple[PreimageRecord, ...]:
        return tuple(self.record(row) for row in self.rows())


def _columns(y: WpsPoint, fibre: _Fibre) -> PreimageColumns:
    """Canonical preimage columns: point b has turns (a_i/m_i + b_i)/e_i on the support."""
    q = fibre.space.weights
    roots = [y.coords[i].root for i in fibre.support]
    moduli = [root.order * e for root, e in zip(roots, fibre.sub_exponents)]
    den = q[fibre.support[0]] * math.lcm(*moduli)
    digits = decode(fibre.codes, fibre.sub_exponents)
    if den * (max(q) + 1) > _INT64_MAX:
        digits = digits.astype(object)
    numerators = [
        (root.num + digits[:, k] * root.order) * (den // m)
        for k, (root, m) in enumerate(zip(roots, moduli))
    ]
    cols = np.stack(canonical_numerators(q, fibre.support, numerators, den), axis=1)
    common = np.gcd(cols, den)
    return PreimageColumns(
        fibre.space, fibre.support, cols // common, den // common, fibre.point_isotropy, fibre.weight
    )


def preimage_columns(
    f: MonomialMap, y: WpsPoint, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> PreimageColumns:
    """All preimage points of the regular value y, as integer columns.

    Rows follow the sorted canonical representatives of the fibre cosets.
    """
    return _columns(y, _solve_fibre(f, y, cap))


def preimages(
    f: MonomialMap, y: WpsPoint, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> tuple[PreimageRecord, ...]:
    """All preimage points of the regular value y, one record per point.

    Ordering is deterministic: records follow the sorted canonical
    representatives of the fibre cosets.
    """
    return preimage_columns(f, y, cap).records()


def weighted_cardinality(
    f: MonomialMap, y: WpsPoint, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> int:
    """Sum of |G_y|/|G_x| over the fibre of the regular value y.

    Every point carries the same weight, checked to be an integer rather than rounded.
    """
    fibre = _solve_fibre(f, y, cap)
    return fibre.count * fibre.weight


def degree(
    f: MonomialMap,
    y: WpsPoint | None = None,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
    include_preimages: bool = True,
) -> DegreeResult:
    """Oriented and mod-2 degree of f, probed at y (default [1:...:1] in the target).

    The default probe has full support, hence is always regular; for a
    caller-supplied critical value NotRegularError is raised.
    """
    if y is None:
        y = f.target.all_ones()
    fibre = _solve_fibre(f, y, cap)
    count = fibre.count * fibre.weight
    records = _columns(y, fibre).records() if include_preimages else None
    return DegreeResult(
        weighted_count=count,
        mod2=count % 2,
        oriented=count,  # holomorphic chart lifts: every sign is +1
        value=y,
        certificate=fibre.certificate,
        preimages=records,
        _fibre=fibre,
    )


def degree_closed_form(f: MonomialMap) -> int:
    """(prod_i e_i) / d; the fast path the enumeration oracle is checked against."""
    value, rem = divmod(f.exponent_product, f.equivariance_degree)
    if rem:
        raise NonIntegralWeightError(
            f"closed form {f.exponent_product}/{f.equivariance_degree} is not an integer; "
            "this is a bug"
        )
    return value


def smooth_preimage_check(f: MonomialMap, y: WpsPoint) -> bool:
    """True iff every preimage of the smooth regular value y is itself smooth.

    Every preimage has y's support, so all share the isotropy order
    gcd{q_i : i in support}; the fibre is never solved, however large.
    """
    if isotropy(y).order != 1:
        raise PreconditionViolatedError(f"{y} is not a smooth point")
    if not is_regular_value(f, y):
        raise PreconditionViolatedError(f"{y} is not a regular value")
    return support_isotropy_order(f.source.weights, y.support) == 1
