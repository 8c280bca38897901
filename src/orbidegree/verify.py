"""Executable suites that certify the degree invariants on concrete families.

Each check runs a deterministic batch of cases and returns a PropertyReport;
a failing case always records a replayable witness (map descriptor, probed
value, seed), built only then.  The value-independence check doubles as the
mandatory counterexample: on the reflection quotient it must *detect* that
the mod-2 degree depends on the value, and reports failure if the
discrepancy is missing.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circle import CircleMap, circle_degree2, circle_degrees, circle_eval, covering_degree
from .degree import (
    DEFAULT_ENUMERATION_CAP,
    degree,
    degree_closed_form,
    support_regularity,
    weighted_cardinality,
)
from .maps import MonomialMap, compose, projective_exponents
from .roots import ExactCoordinate, RootOfUnity
from .spaces import WpsOrbifold, WpsPoint, canonical_numerators, strata_supports


@dataclass
class PropertyReport:
    name: str
    statement: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, witness: Callable[[], dict]) -> None:
        """Count one case; ``witness()`` builds its failure record and runs only if not ok."""
        self.cases += 1
        if not ok:
            self.failures.append(witness())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
        }


def _coprime_weights(rng: random.Random, n: int, max_weight: int) -> tuple[int, ...]:
    while True:
        weights = tuple(rng.randint(1, max_weight) for _ in range(n + 1))
        if math.gcd(*weights) == 1:
            return weights


def random_monomial_maps(
    count: int,
    seed: int = 0,
    max_product: int = 20_000,
    max_n: int = 2,
    max_weight: int = 6,
) -> list[MonomialMap]:
    """Valid maps built only by composing the two generator families.

    Equivariance holds by construction, so no rejection sampling over
    exponent tuples is needed; chains are truncated to keep the exponent
    product under ``max_product``.  Chains compose on exponent tuples, and
    only each accepted map is built (and validated) as a MonomialMap.
    """
    rng = random.Random(seed)
    maps: list[MonomialMap] = []
    while len(maps) < count:
        n = rng.randint(1, max_n)
        ones = (1,) * (n + 1)
        if rng.random() < 0.5:
            source, target = ones, _coprime_weights(rng, n, max_weight)
            exponents = target
        else:
            source, target = _coprime_weights(rng, n, max_weight), ones
            exponents = projective_exponents(source)
        for _ in range(rng.randint(0, 2)):
            if target == ones:
                step = after = _coprime_weights(rng, n, max_weight)
            else:
                step, after = projective_exponents(target), ones
            candidate = tuple(a * b for a, b in zip(exponents, step))
            if math.prod(candidate) > max_product:
                break
            exponents, target = candidate, after
        if math.prod(exponents) <= max_product:
            maps.append(MonomialMap(WpsOrbifold(source), WpsOrbifold(target), exponents))
    return maps


def random_composable_pairs(
    count: int,
    seed: int = 0,
    max_product: int = 20_000,
    max_weight: int = 5,
) -> list[tuple[MonomialMap, MonomialMap]]:
    rng = random.Random(seed)
    pairs: list[tuple[MonomialMap, MonomialMap]] = []
    while len(pairs) < count:
        n = rng.randint(1, 2)
        q, r = _coprime_weights(rng, n, max_weight), _coprime_weights(rng, n, max_weight)
        if math.prod(projective_exponents(q)) * math.prod(r) <= max_product:
            pairs.append((MonomialMap.to_projective(q), MonomialMap.from_projective(r)))
    return pairs


def regular_support_values(f: MonomialMap) -> list[WpsPoint]:
    """One value per regular support class of the target, ones on the support,
    in strata(f.target) order (spaces.strata_supports)."""
    return [
        f.target.support_point(sup)
        for sup in strata_supports(f.target.weights)
        if support_regularity(f, sup).regular
    ]


def _twisted_values(y: WpsPoint, perturbations: int) -> list[WpsPoint]:
    """y with coordinate i turned by j*(i + 1)/(perturbations + 1), for j = 1..perturbations.

    Each value is built in integers: the turns of its support coordinates are
    numerators over one denominator, put in canonical form by
    spaces.canonical_numerators and reduced to lowest terms, so no point
    goes through the constructor's canonical form.
    """
    space, sup = y.space, y.support
    q = space.weights
    roots = [y.coords[i].root for i in sup]
    order = perturbations + 1
    den = q[sup[0]] * math.lcm(order, *[root.order for root in roots])
    step = den // order
    values = []
    for j in range(1, order):
        numerators = [
            root.num * (den // root.order) + j * (i + 1) * step for i, root in zip(sup, roots)
        ]
        coords = list(y.coords)
        for i, n in zip(sup, canonical_numerators(q, sup, numerators, den)):
            g = math.gcd(n, den)
            coords[i] = ExactCoordinate(RootOfUnity._from_reduced(n // g, den // g))
        values.append(WpsPoint._from_canonical(space, tuple(coords)))
    return values


def check_local_constancy(
    f: MonomialMap,
    y: WpsPoint,
    perturbations: int = 8,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> PropertyReport:
    """Weighted counts at same-support phase perturbations of y all agree.

    Raises ValueError for fewer than one perturbation: a check with no case
    would pass without testing anything.
    """
    if perturbations < 1:
        raise ValueError(f"local constancy needs perturbations >= 1, got {perturbations}")
    report = PropertyReport(
        "local-constancy",
        "the weighted preimage count is constant on nearby regular values",
    )
    base = weighted_cardinality(f, y, cap)
    for nearby in _twisted_values(y, perturbations):
        count = weighted_cardinality(f, nearby, cap)
        report.record(
            count == base,
            lambda: {"map": f.descriptor(), "value": nearby.encode(), "count": count,
                     "expected": base},
        )
    return report


def check_value_independence(
    f: MonomialMap | CircleMap, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> PropertyReport:
    """Equal weighted counts across regular support classes; on the reflection
    quotient, instead require the counterexample: two regular values whose
    mod-2 degrees differ."""
    if isinstance(f, CircleMap):
        report = PropertyReport(
            "value-independence",
            "with a codimension-1 singular stratum the mod-2 degree depends on the value",
        )
        top, bottom = circle_degrees(f, [math.pi / 2, 3 * math.pi / 2])
        report.record(
            top.mod2 != bottom.mod2,
            lambda: {
                "map": f.kind,
                "values": ["pi/2", "3*pi/2"],
                "mod2": [top.mod2, bottom.mod2],
            },
        )
        return report

    report = PropertyReport(
        "value-independence",
        "without a codimension-1 singular stratum the weighted count is value independent",
    )
    values = regular_support_values(f)
    counts = [weighted_cardinality(f, y, cap) for y in values]
    for y, count in zip(values, counts):
        report.record(
            count == counts[0],
            lambda: {"map": f.descriptor(), "value": y.encode(), "count": count,
                     "expected": counts[0]},
        )
    return report


def check_multiplicativity(
    f: MonomialMap, g: MonomialMap, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> PropertyReport:
    report = PropertyReport(
        "multiplicativity",
        "degree(g o f) = degree(g) * degree(f) for composable maps",
    )
    composed = compose(f, g)
    df = degree(f, cap=cap, include_preimages=False).oriented
    dg = degree(g, cap=cap, include_preimages=False).oriented
    dgf = degree(composed, cap=cap, include_preimages=False).oriented
    report.record(
        dgf == df * dg,
        lambda: {"f": f.descriptor(), "g": g.descriptor(), "degrees": [df, dg, dgf]},
    )
    return report


def check_same_underlying(
    fa, fb, samples: int = 50, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> PropertyReport:
    """Maps with equal underlying maps have equal degrees at every common value."""
    report = PropertyReport(
        "same-underlying",
        "orbifold maps with the same underlying map have equal degrees",
    )
    if isinstance(fa, MonomialMap):
        # both enumerations must meet one closed form at every regular support value
        closed = [degree_closed_form(fa), degree_closed_form(fb)]
        counts = [
            [weighted_cardinality(f, y, cap) for y in regular_support_values(f)] for f in (fa, fb)
        ]
        report.record(
            closed[0] == closed[1]
            and all(count == d for row, d in zip(counts, closed) for count in row),
            lambda: {"fa": fa.descriptor(), "fb": fb.descriptor(), "closed_form": closed,
                     "counts": counts},
        )
        return report

    # circle pair: underlying evaluations must agree pointwise on the quotient
    thetas = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    fold = fa.domain.fold
    gap = float(np.max(np.abs(fold(circle_eval(fa, thetas)) - fold(circle_eval(fb, thetas)))))
    report.record(gap < 1e-12, lambda: {"pointwise_gap": gap})
    values = np.linspace(0.1, math.pi - 0.1, samples).tolist()
    for value, ra, rb in zip(values, circle_degrees(fa, values), circle_degrees(fb, values)):
        report.record(
            ra.mod2 == rb.mod2 and ra.weighted_count == rb.weighted_count,
            lambda: {"value": value, "mod2": [ra.mod2, rb.mod2],
                     "counts": [ra.weighted_count, rb.weighted_count]},
        )
    return report


def check_covering() -> PropertyReport:
    report = PropertyReport(
        "covering",
        "quotient projections have degree |G|; induced degrees scale by |G2|/|G1|",
    )
    for k in range(2, 7):
        result = circle_degree2(CircleMap.covering_projection(k), 0.375 * 2 * math.pi / k)
        report.record(
            result.weighted_count == k,
            lambda: {"projection_order": k, "count": result.weighted_count},
        )
    grid = [
        (1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 4, 1), (2, 4, 2),
        (3, 6, 1), (3, 6, 2), (3, 3, 1), (4, 8, 2), (6, 6, 1),
    ]
    solved = functools.cache(covering_degree)  # each map once: powers repeat, (1,m,1) is upstairs
    for k, m, b in grid:
        induced = solved(k, m, b)
        upstairs = solved(1, m, 1)  # plain winding count, measured numerically
        report.record(
            induced * k == upstairs * b,
            lambda: {"case": [k, m, b], "induced": induced, "upstairs": upstairs},
        )
    return report


def _suite_local_constancy(seed: int, cap: int | None) -> list[PropertyReport]:
    reports = []
    f13 = MonomialMap.from_projective((1, 3))
    reports.append(check_local_constancy(f13, f13.target.axis_point(1), cap=cap))
    ident = MonomialMap.identity(WpsOrbifold((1, 3)))
    reports.append(check_local_constancy(ident, ident.target.all_ones(), cap=cap))
    h = MonomialMap.between((1, 3), (1, 2))
    reports.append(check_local_constancy(h, h.target.all_ones(), cap=cap))
    for f in random_monomial_maps(10, seed=seed, max_product=5_000):
        reports.append(check_local_constancy(f, f.target.all_ones(), perturbations=4, cap=cap))
    return reports


def _suite_value_independence(seed: int, cap: int | None) -> list[PropertyReport]:
    reports = [check_value_independence(MonomialMap.from_projective((2, 3, 5)), cap)]
    reports.append(check_value_independence(MonomialMap.identity(WpsOrbifold((1, 1))), cap))
    for f in random_monomial_maps(50, seed=seed, max_product=20_000):
        reports.append(check_value_independence(f, cap))
    return reports


def _suite_multiplicativity(seed: int, cap: int | None) -> list[PropertyReport]:
    reports = []
    fq, gq = MonomialMap.from_projective((1, 3)), MonomialMap.to_projective((1, 3))
    reports.append(check_multiplicativity(fq, gq, cap))
    reports.append(check_multiplicativity(MonomialMap.to_projective((1, 3)),
                                          MonomialMap.from_projective((1, 2)), cap))
    reports.append(check_multiplicativity(fq, MonomialMap.identity(fq.target), cap))
    for f, g in random_composable_pairs(20, seed=seed):
        reports.append(check_multiplicativity(f, g, cap))
    return reports


def _suite_same_underlying(seed: int, cap: int | None) -> list[PropertyReport]:
    reports = [check_same_underlying(CircleMap.flat_even(), CircleMap.flat_odd())]
    f13 = MonomialMap.from_projective((1, 3))
    reports.append(check_same_underlying(f13, f13, cap=cap))
    twin = MonomialMap.from_descriptor(f13.descriptor())
    reports.append(check_same_underlying(f13, twin, cap=cap))
    return reports


def _suite_covering(seed: int, cap: int | None) -> list[PropertyReport]:
    return [check_covering()]


def _suite_counterexample(seed: int, cap: int | None) -> list[PropertyReport]:
    return [check_value_independence(CircleMap.fold())]


SUITES = {
    "local-constancy": _suite_local_constancy,
    "value-independence": _suite_value_independence,
    "multiplicativity": _suite_multiplicativity,
    "same-underlying": _suite_same_underlying,
    "covering": _suite_covering,
    "counterexample": _suite_counterexample,
}


def run_suite(
    name: str, seed: int = 0, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> list[PropertyReport]:
    """The reports of one suite, or of every suite for "all"; every fibre the
    suites enumerate is held to ``cap`` tuples (None: no cap)."""
    if name == "all":
        return run_all(seed, cap)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed, cap)


def run_all(seed: int = 0, cap: int | None = DEFAULT_ENUMERATION_CAP) -> list[PropertyReport]:
    reports: list[PropertyReport] = []
    for name in sorted(SUITES):
        reports.extend(SUITES[name](seed, cap))
    return reports


def reports_to_json(reports: list[PropertyReport]) -> list[dict]:
    return [r.to_json() for r in reports]


def summarize(reports: list[PropertyReport]) -> str:
    lines = []
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  cases={r.cases:<4d} {r.statement}")
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports)} reports, {failed} failing")
    return "\n".join(lines)
