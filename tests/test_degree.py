import cmath
import contextlib
import importlib
import io
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from oracles import coordinate_turns, loop_canonical_turns, maps_with_values

from orbidegree.cli import main
from orbidegree.degree import (
    DEFAULT_ENUMERATION_CAP,
    PreimageColumns,
    PreimageRecord,
    _solve_fibre,
    degree,
    degree_closed_form,
    is_regular_value,
    preimage_columns,
    preimages,
    regularity,
    smooth_preimage_check,
    weighted_cardinality,
)
from orbidegree.errors import (
    EnumerationCapExceededError,
    NonIntegralWeightError,
    NotRegularError,
    PreconditionViolatedError,
)
from orbidegree.maps import MonomialMap, compose, underlying_image
from orbidegree.roots import ExactCoordinate
from orbidegree.spaces import WpsOrbifold, WpsPoint, isotropy
from orbidegree.verify import random_composable_pairs, random_monomial_maps

degree_module = importlib.import_module("orbidegree.degree")


def oracle_preimage_count(f, y):
    """Independent float oracle: solve the fibre upstairs by brute force and
    merge solutions that differ by a continuous weighted rotation."""
    q = f.source.weights
    sup = y.support
    y_values = y.cvalues()

    def solutions(i):
        e = f.exponents[i]
        base = cmath.phase(y_values[i]) / e
        return [cmath.exp(1j * (base + 2 * math.pi * b / e)) for b in range(e)]

    def equivalent(za, zb):
        q0 = q[sup[0]]
        delta = cmath.phase(zb[0] / za[0])
        for t in range(q0):
            angle = (delta + 2 * math.pi * t) / q0
            if all(
                abs(cmath.exp(1j * angle * q[i]) * za[pos] - zb[pos]) < 1e-7
                for pos, i in enumerate(sup)
            ):
                return True
        return False

    classes = []
    for tup in itertools.product(*(solutions(i) for i in sup)):
        if not any(equivalent(tup, rep) for rep in classes):
            classes.append(tup)
    return len(classes)


def test_regularity_paper_examples():
    for k in (2, 3, 5):
        for weights in ((1, k), (1, 1, k)):
            f = MonomialMap.from_projective(weights)
            vertex = f.target.axis_point(len(weights) - 1)
            assert is_regular_value(f, vertex)
            origin_axis = f.target.axis_point(0)
            cert = regularity(f, origin_axis)
            assert not cert.regular
            assert (len(weights) - 1, k) in cert.violations
    h = MonomialMap.between((1, 3), (1, 2))
    assert is_regular_value(h, h.target.all_ones())


def test_preimages_smooth_value():
    f13 = MonomialMap.from_projective((1, 3))
    records = preimages(f13, f13.target.all_ones())
    assert len(records) == 3
    assert all(rec.weight == 1 and rec.sign == 1 for rec in records)
    assert all(rec.isotropy_order == 1 for rec in records)
    # deterministic ordering and pairwise distinct points
    assert len({rec.point for rec in records}) == 3
    assert records == preimages(f13, f13.target.all_ones())


def test_preimages_nonsmooth_regular_value():
    f13 = MonomialMap.from_projective((1, 3))
    records = preimages(f13, f13.target.axis_point(1))
    assert len(records) == 1
    assert records[0].weight == 3
    assert records[0].isotropy_order == 1
    assert records[0].point == f13.source.axis_point(1)


def test_preimages_identity():
    ident = MonomialMap.identity(WpsOrbifold((1, 2, 3)))
    y = ident.target.point("0", "1/5", "0/1")
    records = preimages(ident, y)
    assert len(records) == 1 and records[0].weight == 1
    assert records[0].point == y


def test_preimage_counts_match_float_oracle():
    cases = [
        (MonomialMap.from_projective((2, 3, 5)), None, 30),
        (MonomialMap.between((1, 3), (1, 2)), None, 2),
        (MonomialMap.to_projective((1, 2, 3)), None, 6),
        (MonomialMap.from_projective((1, 3)), WpsOrbifold((1, 3)).axis_point(1), 1),
    ]
    for f, y, frozen in cases:
        y = y if y is not None else f.target.all_ones()
        records = preimages(f, y)
        assert len(records) == frozen
        assert oracle_preimage_count(f, y) == frozen


def test_smooth_values_have_smooth_preimages():
    f = MonomialMap.from_projective((2, 3, 5))
    y = f.target.all_ones()
    assert smooth_preimage_check(f, y)
    assert len(preimages(f, y)) == 30

    with pytest.raises(PreconditionViolatedError):
        smooth_preimage_check(f, f.target.axis_point(0))  # not smooth
    g = MonomialMap.from_projective((1, 1, 5))
    with pytest.raises(PreconditionViolatedError):
        smooth_preimage_check(g, g.target.axis_point(0))  # smooth but critical


@settings(deadline=None, max_examples=100)
@given(maps_with_values())
def test_smooth_regular_values_always_have_smooth_preimages(case):
    # the lemma in smooth_preimage_check's docstring: it never answers False
    f, _ = case
    n = len(f.target.weights)
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(1, n + 1)
    ):
        y = f.target.support_point(support)
        if isotropy(y).order == 1 and is_regular_value(f, y):
            assert smooth_preimage_check(f, y)
            assert {isotropy(r.point).order for r in preimages(f, y)} == {1}


def test_smooth_preimage_check_builds_no_records(monkeypatch):
    def refuse(self, row):
        raise AssertionError("a preimage record was built")

    monkeypatch.setattr(PreimageColumns, "record", refuse)
    f = MonomialMap.from_projective((2, 3, 5))
    assert smooth_preimage_check(f, f.target.all_ones())


def test_smooth_preimage_check_and_weighted_cardinality_build_no_columns(monkeypatch):
    def refuse(y, fibre):
        raise AssertionError("preimage columns were built")

    monkeypatch.setattr(degree_module, "_columns", refuse)
    f = MonomialMap.from_projective((2, 3, 5))
    assert smooth_preimage_check(f, f.target.all_ones())
    assert weighted_cardinality(f, f.target.all_ones()) == 30


def test_smooth_preimage_check_solves_no_fibre(monkeypatch):
    def refuse(f, y, cap):
        raise AssertionError("a fibre was solved")

    monkeypatch.setattr(degree_module, "_solve_fibre", refuse)
    f = MonomialMap.from_projective((2, 3, 5))
    assert smooth_preimage_check(f, f.target.all_ones())


def test_smooth_preimage_check_answers_past_the_enumeration_cap():
    # the fibre of [1:1:1] has 1 * 5000 * 5001 = 25_005_000 tuples
    f = MonomialMap.from_projective((1, 5000, 5001))
    assert f.exponent_product > DEFAULT_ENUMERATION_CAP
    assert smooth_preimage_check(f, f.target.all_ones())


def test_weighted_cardinality_checks_the_weight_of_each_point(monkeypatch):
    # two points of weight 3/2 sum to the integer 3, but no point can weigh 3/2
    f = MonomialMap(WpsOrbifold((1, 1)), WpsOrbifold((1, 1)), (2, 2))
    fibre = _solve_fibre(f, f.target.all_ones(), None)
    assert fibre.count == 2
    skewed = replace(fibre, value_isotropy=3, point_isotropy=2)
    monkeypatch.setattr(degree_module, "_solve_fibre", lambda *args: skewed)
    with pytest.raises(NonIntegralWeightError):
        weighted_cardinality(f, f.target.all_ones())


def test_weighted_cardinality_examples():
    f13 = MonomialMap.from_projective((1, 3))
    assert weighted_cardinality(f13, f13.target.all_ones()) == 3
    assert weighted_cardinality(f13, f13.target.axis_point(1)) == 3
    g23 = MonomialMap.to_projective((2, 3))
    assert g23.exponents == (3, 2) and g23.equivariance_degree == 6
    assert weighted_cardinality(g23, g23.target.all_ones()) == 1


# Fibres over singular values whose preimages are singular too (|G_x| > 1):
# (map, value, expected (encoded point, |G_x|, weight) per preimage).
SINGULAR_PREIMAGE_PINS = [
    # the identity on CP(1,3) at [0:1]: one point of isotropy 3, weight 3/3
    (MonomialMap.identity(WpsOrbifold((1, 3))), ("0", "0/1"), [("0,0/1", 3, 1)]),
    # CP(1,2,2) -> CP(1,4,4) at [0:1:1]: two points of isotropy 2, weight 4/2,
    # 4 in all, the closed form prod(e)/d
    (
        MonomialMap(WpsOrbifold((1, 2, 2)), WpsOrbifold((1, 4, 4)), (1, 2, 2)),
        ("0", "0/1", "0/1"),
        [("0,0/1,0/1", 2, 2), ("0,0/1,1/2", 2, 2)],
    ),
]


def _check_singular_preimage_pins():
    """Each pin through weighted_cardinality, degree(...).preimages and CLI preimages."""
    for f, coords, expected in SINGULAR_PREIMAGE_PINS:
        y = f.target.point(*coords)
        total = sum(weight for _, _, weight in expected)
        assert weighted_cardinality(f, y) == total == degree_closed_form(f)
        result = degree(f, y)
        assert result.weighted_count == total
        records = [(r.point.encode(), r.isotropy_order, r.weight) for r in result.preimages]
        assert records == expected
        out = io.StringIO()
        argv = ["preimages", "--value", ",".join(coords)]
        for flag, weights in zip(("--q", "--r", "--e"), f.descriptor().values()):
            argv += [flag, ",".join(map(str, weights))]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        records = json.loads(out.getvalue())["preimages"]
        assert [(r["isotropy"], r["weight"]) for r in records] == [e[1:] for e in expected]


def test_singular_preimages_are_pinned():
    _check_singular_preimage_pins()


def test_singular_preimage_pins_catch_a_weight_fault(monkeypatch):
    # planted fault: one more than |G_y|/|G_x| whenever |G_x| > 1
    real = degree_module._Fibre.weight.fget

    def faulty(fibre):
        return real(fibre) + (fibre.point_isotropy > 1)

    monkeypatch.setattr(degree_module._Fibre, "weight", property(faulty))
    f = MonomialMap.from_projective((1, 3))  # smooth preimages keep their weights
    assert weighted_cardinality(f, f.target.all_ones()) == 3
    with pytest.raises(AssertionError):
        _check_singular_preimage_pins()


@settings(max_examples=100, deadline=None)
@given(maps_with_values())
def test_count_path_equals_codes_path(data):
    f, y = data
    columns = preimage_columns(f, y)
    count = weighted_cardinality(f, y)
    assert count == degree(f, y, include_preimages=False).weighted_count
    assert count == len(columns) * columns.weight


def test_count_and_codes_paths_refuse_a_cap_with_one_text():
    g = MonomialMap.to_projective((3, 4, 5))  # fibre is 20*15*12 = 3600 tuples
    y = g.target.all_ones()
    texts = set()
    for solve in (
        weighted_cardinality,
        lambda f, y, cap: degree(f, y, cap, include_preimages=False),
        preimage_columns,
    ):
        with pytest.raises(EnumerationCapExceededError) as refusal:
            solve(g, y, 3599)
        texts.add(str(refusal.value))
    assert texts == {"fibre needs 3600 tuples, cap is 3599"}


def test_weighted_cardinality_builds_no_codes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coset codes were built")

    monkeypatch.setattr(degree_module, "coset_minima", refuse)
    f = MonomialMap.to_projective((3, 4, 5))
    assert weighted_cardinality(f, f.target.all_ones()) == 60
    assert _solve_fibre(f, f.target.all_ones(), None).codes is None
    with pytest.raises(AssertionError, match="coset codes"):
        degree(f, include_preimages=False)


def test_not_regular_raises():
    f = MonomialMap.from_projective((1, 1, 5))
    with pytest.raises(NotRegularError):
        preimages(f, f.target.axis_point(0))
    with pytest.raises(NotRegularError):
        degree(f, f.target.axis_point(0))


def test_enumeration_cap():
    g = MonomialMap.to_projective((3, 4, 5))  # fibre is 20*15*12 = 3600 tuples
    with pytest.raises(EnumerationCapExceededError):
        weighted_cardinality(g, g.target.all_ones(), cap=100)
    assert weighted_cardinality(g, g.target.all_ones(), cap=3600) == 60


def test_uncapped_degree_on_a_fibre_of_10_to_12_tuples():
    # N = 10**12 tuples, L = 10**6: the coset construction builds only the
    # 10**6 representatives
    f = MonomialMap(WpsOrbifold((1, 1)), WpsOrbifold((1, 1)), (10**6, 10**6))
    result = degree(f, cap=None, include_preimages=False)
    assert result.oriented == degree_closed_form(f) == 10**6


def test_degree_paper_values():
    assert degree(MonomialMap.from_projective((3, 4, 5))).oriented == 60
    assert degree(MonomialMap.to_projective((1, 2, 3))).oriented == 6
    assert degree(MonomialMap.between((1, 3), (1, 2))).oriented == 2


def test_degree_result_fields():
    f13 = MonomialMap.from_projective((1, 3))
    result = degree(f13)
    assert result.weighted_count == result.oriented == 3
    assert result.mod2 == 1
    assert result.value == f13.target.all_ones()
    assert result.certificate.regular
    assert len(result.preimages) == 3
    data = result.to_json()
    assert set(data) >= {"degree", "mod2", "weighted_count", "value", "preimages"}
    slim = degree(f13, include_preimages=False)
    assert slim.preimages is None and "preimages" not in slim.to_json()


def test_closed_form_examples():
    assert degree_closed_form(MonomialMap.from_projective((1, 3))) == 3
    assert degree_closed_form(MonomialMap.identity(WpsOrbifold((1, 2)))) == 1


def test_closed_form_matches_enumeration_on_random_corpus():
    for f in random_monomial_maps(50, seed=11, max_product=20_000):
        assert weighted_cardinality(f, f.target.all_ones()) == degree_closed_form(f)


def test_value_independence_across_support_classes():
    f = MonomialMap.from_projective((1, 3))
    counts = set()
    # regular supports: full support and {1} (the off-support exponent there is 1)
    for y in (f.target.all_ones(), f.target.axis_point(1),
              f.target.point("1/7", "0/1"), f.target.point("0", "1/4")):
        assert is_regular_value(f, y)
        counts.add(weighted_cardinality(f, y))
    assert counts == {3}
    assert not is_regular_value(f, f.target.axis_point(0))


def test_surjectivity_witness():
    # nonzero degree: every regular support-class value has a nonempty fibre
    for f in random_monomial_maps(10, seed=5, max_product=2_000):
        assert degree_closed_form(f) != 0
        for size in range(1, len(f.target.weights) + 1):
            for sup in itertools.combinations(range(len(f.target.weights)), size):
                coords = tuple("0/1" if i in sup else "0" for i in range(len(f.target.weights)))
                y = f.target.point(*coords)
                if is_regular_value(f, y):
                    assert len(preimages(f, y)) >= 1


def test_stabilizer_uniformity_and_integrality():
    for f in random_monomial_maps(20, seed=7, max_product=5_000):
        records = preimages(f, f.target.all_ones())
        orders = {rec.isotropy_order for rec in records}
        assert len(orders) == 1
        assert all(rec.weight >= 1 for rec in records)
        total = sum(rec.weight for rec in records)
        assert total == weighted_cardinality(f, f.target.all_ones())


def test_multiplicativity_random_pairs():
    for f, g in random_composable_pairs(10, seed=3):
        df = degree(f, include_preimages=False).oriented
        dg = degree(g, include_preimages=False).oriented
        assert degree(compose(f, g), include_preimages=False).oriented == df * dg


def test_preimage_points_map_back_to_value():
    f = MonomialMap.between((1, 2, 3), (1, 1, 2))
    y = f.target.all_ones()
    for rec in preimages(f, y):
        assert underlying_image(f, rec.point) == y
        assert isotropy(rec.point).order == rec.isotropy_order


def test_preimages_of_phased_values_round_trip():
    f = MonomialMap.between((1, 3), (1, 2))
    for encoded in ("1/7,0/1", "0/1,3/5", "0,1/4"):
        y = f.target.point(*encoded.split(","))
        if not is_regular_value(f, y):
            continue
        records = preimages(f, y)
        assert len({rec.point for rec in records}) == len(records)
        for rec in records:
            assert underlying_image(f, rec.point) == y


def test_random_fibres_match_float_oracle():
    # end-to-end check of the coset counting against pairwise-merge dedupe
    checked = 0
    for f in random_monomial_maps(40, seed=21, max_product=60):
        probes = [f.target.all_ones(),
                  f.target.point(*["1/9"] * len(f.target.weights))]
        # one partial-support probe where regularity permits it
        droppable = [j for j, e in enumerate(f.exponents) if e == 1]
        if droppable:
            coords = ["0" if j == droppable[0] else "0/1"
                      for j in range(len(f.target.weights))]
            probes.append(f.target.point(*coords))
        for y in probes:
            count = len(preimages(f, y))
            assert count == oracle_preimage_count(f, y)
            checked += 1
    assert checked >= 80


@settings(max_examples=100, deadline=None)
@given(maps_with_values())
def test_bulk_canonical_numerators_match_loop_oracle(data):
    f, y = data
    q = f.source.weights
    columns = preimage_columns(f, y)
    rows = [
        tuple(Fraction(row[2 * k], row[2 * k + 1]) for k in range(len(columns.support)))
        for row in columns.rows()
    ]
    # every tuple of the fibre, canonicalized by trying all q0 residual scalings
    y_turns = coordinate_turns(y.coords)
    expected = set()
    for digits in itertools.product(*(range(f.exponents[i]) for i in columns.support)):
        turns = [None] * len(q)
        for b, i in zip(digits, columns.support):
            turns[i] = (y_turns[i] + b) / f.exponents[i]
        canonical = loop_canonical_turns(q, turns)
        expected.add(tuple(canonical[i] for i in columns.support))
    assert len(set(rows)) == len(rows)
    assert set(rows) == expected
    # the records are built from the same rows, in the same order
    records = preimages(f, y)
    assert [
        tuple(coordinate_turns(rec.point.coords)[i] for i in columns.support) for rec in records
    ] == rows
    assert all(underlying_image(f, rec.point) == y for rec in records)


@settings(max_examples=100, deadline=None)
@given(maps_with_values())
def test_records_from_columns_equal_constructor_built_records(data):
    f, y = data
    columns = preimage_columns(f, y)
    for row, rec in zip(columns.rows(), columns.records()):
        coords = [ExactCoordinate.zero()] * len(f.source.weights)
        for k, i in enumerate(columns.support):
            coords[i] = ExactCoordinate.unit(row[2 * k], row[2 * k + 1])
        built = PreimageRecord(
            WpsPoint(f.source, tuple(coords)), columns.isotropy_order, columns.weight
        )
        assert rec == built and hash(rec) == hash(built)


def test_single_preimage_with_a_large_first_weight():
    # q0 = 10**5: one point, canonicalized without a loop over the 10**5 scalings
    f = MonomialMap(WpsOrbifold((10**5, 1)), WpsOrbifold((1, 1)), (1, 10**5))
    result = degree(f)
    assert result.oriented == degree_closed_form(f) == 1
    (rec,) = result.preimages
    assert rec.point.encode() == "0/1,0/1"
    assert (rec.weight, rec.isotropy_order) == (1, 1)
    y = f.target.point("1/3", "2/7")
    (rec,) = preimages(f, y)
    # turns 1/3 and (2/7 + b)/10**5; scaling the first to 0 leaves the second
    # (2/7 - 1/3 + k)/10**5, least at (20/21)/10**5
    assert rec.point.encode() == "0/1,1/105000"
    assert underlying_image(f, rec.point) == y


def test_integrality_failures_raise_typed_errors():
    with pytest.raises(NonIntegralWeightError):
        degree_closed_form(SimpleNamespace(exponent_product=3, equivariance_degree=2))
    f = MonomialMap.from_projective((1, 3))
    fibre = _solve_fibre(f, f.target.all_ones(), None)
    with pytest.raises(NonIntegralWeightError):
        replace(fibre, value_isotropy=3, point_isotropy=2).weight
