import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chart_isotropy,
    chart_singular_dimension,
    coordinate_turns,
    loop_canonical_turns,
    scalar_fold,
)
from orbidegree.errors import NotEffectiveError
from orbidegree.roots import ExactCoordinate, RootOfUnity
from orbidegree.spaces import (
    ENDPOINT_TOL,
    CircleQuotient,
    WpsOrbifold,
    WpsPoint,
    isotropy,
    singular_dimension,
    strata,
    strata_supports,
    support_singular_dimension,
)


def coprime_weights(draw_entries):
    return draw_entries.filter(lambda w: math.gcd(*w) == 1)


weight_tuples = coprime_weights(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4).map(tuple)
)


@st.composite
def spaces_with_points(draw):
    weights = draw(weight_tuples)
    coords = []
    for _ in weights:
        if draw(st.booleans()):
            coords.append(ExactCoordinate.zero())
        else:
            order = draw(st.integers(min_value=1, max_value=12))
            coords.append(ExactCoordinate.unit(draw(st.integers(min_value=0, max_value=11)), order))
    if all(c.is_zero for c in coords):
        coords[0] = ExactCoordinate.one()
    space = WpsOrbifold(weights)
    return WpsPoint(space, tuple(coords))


gammas = st.builds(
    RootOfUnity, st.integers(min_value=0, max_value=23), st.integers(min_value=1, max_value=24)
)


def test_wps_construction():
    assert WpsOrbifold((1, 1)).complex_dimension == 1
    assert WpsOrbifold((1, 3)).dimension == 2
    assert WpsOrbifold((1, 2, 3)).lcm == 6
    with pytest.raises(NotEffectiveError):
        WpsOrbifold((2, 4))
    with pytest.raises(ValueError):
        WpsOrbifold((0, 1))
    with pytest.raises(ValueError):
        WpsOrbifold(())


def test_non_integer_weights_are_refused_not_truncated():
    for weights in ((1.5, 2), (1, 2.0), ("1", 2), (None, 1)):
        with pytest.raises(ValueError, match="expected integer weights"):
            WpsOrbifold(weights)


def test_numpy_integer_weights_are_accepted_as_ints():
    space = WpsOrbifold(tuple(np.array([1, 3], dtype=np.int64)))
    assert space == WpsOrbifold((1, 3))
    assert all(type(w) is int for w in space.weights)


def test_json_weights_must_be_integers():
    with pytest.raises(ValueError, match="expected integer weights"):
        WpsOrbifold.from_json({"weights": [2.9, 1]})
    with pytest.raises(ValueError, match="expected integer weights"):
        WpsPoint.from_json({"weights": [1.0, 1], "coords": [{"zero": True}, {"num": 0, "den": 1}]})


def test_rotation_order_must_be_an_integer():
    with pytest.raises(ValueError, match="expected integer rotation order"):
        CircleQuotient.rotation(2.5)
    assert CircleQuotient.rotation(np.int64(3)) == CircleQuotient.rotation(3)


@pytest.mark.parametrize("group, order, message", [
    ("rotation", 0, "rotation order must be >= 1"),
    ("rotation", -3, "rotation order must be >= 1"),
    ("rotation", 2.5, "expected integer rotation order"),
    ("reflection", 5, "reflection group has order 2, got 5"),
    ("reflection", 2.0, "expected integer reflection order"),
    ("rotaton", 3, "circle group 'rotaton' is not 'rotation' or 'reflection'"),
])
def test_a_circle_quotient_is_checked_however_it_is_built(group, order, message):
    # the constructor used to accept these, and a power map on ("rotation", 0)
    # then divided by zero
    with pytest.raises(ValueError, match=message):
        CircleQuotient(group, order)


def test_the_circle_quotient_constructor_equals_its_classmethods():
    assert CircleQuotient("rotation", np.int64(3)) == CircleQuotient.rotation(3)
    assert type(CircleQuotient("rotation", np.int64(3)).order) is int
    assert CircleQuotient("reflection", 2) == CircleQuotient.reflection()


def test_point_validation():
    space = WpsOrbifold((1, 3))
    with pytest.raises(ValueError):
        space.point("0", "0")
    with pytest.raises(ValueError):
        space.point("0/1")


@pytest.mark.parametrize("support", [(), (-1,), (3,), (0, 5), (1, 1), (0, 2, 0)])
def test_support_point_refuses_bad_supports_by_name(support):
    space = WpsOrbifold((1, 2, 3))
    with pytest.raises(ValueError, match=rf"support {re.escape(str(support))} is not"):
        space.support_point(support)


@pytest.mark.parametrize("index", [-1, -3, 3, 7])
def test_axis_point_refuses_indices_out_of_range(index):
    # a negative index used to wrap round to an axis counted from the end
    with pytest.raises(ValueError, match=rf"support \({index},\) is not"):
        WpsOrbifold((1, 2, 3)).axis_point(index)


def test_support_point_refuses_non_integer_indices():
    with pytest.raises(ValueError, match="expected integer support indices"):
        WpsOrbifold((1, 2, 3)).support_point((1.0,))


@settings(deadline=None, max_examples=200)
@given(coprime_weights(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5)))
def test_support_point_equals_the_canonicalized_point(weights):
    space = WpsOrbifold(tuple(weights))
    n = len(weights)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            coords = tuple(
                ExactCoordinate.one() if i in support else ExactCoordinate.zero() for i in range(n)
            )
            point = space.support_point(support)
            assert point == WpsPoint(space, coords)
            assert point.support == support
    assert space.all_ones() == space.support_point(tuple(range(n)))
    assert [space.axis_point(i) for i in range(n)] == [space.support_point((i,)) for i in range(n)]


def test_point_equality_is_orbit_equality():
    # ordinary projective line: [1:1] == [xi:xi] for xi = exp(2*pi*i/3)
    line = WpsOrbifold((1, 1))
    assert line.point("0/1", "0/1") == line.point("1/3", "1/3")
    # weighted: gamma acts with exponents (1, 3)
    space = WpsOrbifold((1, 3))
    base = space.point("0/1", "1/5")
    gamma = RootOfUnity(1, 7)
    acted = space.point(
        base.coords[0].times(gamma**1), base.coords[1].times(gamma**3)
    )
    assert acted == base
    assert space.point("0/1", "1/5") != space.point("0/1", "2/5")


@settings(deadline=None)
@given(spaces_with_points(), gammas)
def test_equality_invariant_under_weighted_action(point, gamma):
    assert point.translated(gamma) == point
    assert hash(point.translated(gamma)) == hash(point)


@settings(deadline=None)
@given(spaces_with_points())
def test_full_support_points_are_smooth(point):
    if len(point.support) == len(point.space.weights):
        assert isotropy(point).order == 1


def test_isotropy_paper_examples():
    assert isotropy(WpsOrbifold((1, 3)).axis_point(1)).order == 3
    for k in (2, 3, 5):
        space = WpsOrbifold((1, 1, 1, k))
        assert isotropy(space.axis_point(3)).order == k
    assert isotropy(WpsOrbifold((1, 3)).all_ones()).order == 1


def _oracle_singular_dimension(point):
    """Independent fixed-subspace oracle: find the stabilizer by float search,
    average the chart action over it, and count eigenvalue-1 directions."""
    weights = point.space.weights
    z = point.cvalues()
    sup = point.support
    modulus = math.prod(weights[i] for i in sup)
    stabilizer = []
    for a in range(modulus):
        gamma = cmath.exp(2j * cmath.pi * a / modulus)
        if all(abs(gamma ** weights[i] * z[i] - z[i]) < 1e-9 for i in sup):
            stabilizer.append(a)
    i0 = sup[0]
    fixed = 0
    for j in range(len(weights)):
        if j == i0:
            continue
        avg = sum(cmath.exp(2j * cmath.pi * a * weights[j] / modulus) for a in stabilizer)
        avg /= len(stabilizer)
        if abs(avg - 1) < 1e-9:
            fixed += 1
    return 2 * fixed


def test_singular_dimension_examples():
    smooth = WpsOrbifold((1, 3)).all_ones()
    assert singular_dimension(smooth) == 2 == WpsOrbifold((1, 3)).dimension
    # frozen from the fixed-subspace oracle below
    vertex13 = WpsOrbifold((1, 3)).axis_point(1)
    assert singular_dimension(vertex13) == 0
    assert _oracle_singular_dimension(vertex13) == 0
    vertex113 = WpsOrbifold((1, 1, 3)).axis_point(2)
    assert singular_dimension(vertex113) == 0
    assert _oracle_singular_dimension(vertex113) == 0


@settings(deadline=None, max_examples=50)
@given(spaces_with_points())
def test_singular_dimension_matches_oracle(point):
    assert singular_dimension(point) == _oracle_singular_dimension(point)


@settings(deadline=None, max_examples=50)
@given(spaces_with_points())
def test_sdim_full_iff_smooth(point):
    full = singular_dimension(point) == point.space.dimension
    assert full == (isotropy(point).order == 1)


@settings(deadline=None, max_examples=200)
@given(spaces_with_points())
def test_support_rules_equal_the_chart_weight_forms(point):
    assert isotropy(point).order == chart_isotropy(point).order
    assert singular_dimension(point) == chart_singular_dimension(point)


@settings(deadline=None, max_examples=50)
@given(weight_tuples)
def test_strata_components_equal_the_chart_weight_forms(weights):
    space = WpsOrbifold(weights)
    for record in strata(space).records:
        for comp in record.components:
            point = space.point(*("0/1" if i in comp.support else "0" for i in range(len(weights))))
            assert comp.isotropy_order == chart_isotropy(point).order
            assert record.sdim == chart_singular_dimension(point)


@settings(deadline=None, max_examples=100)
@given(weight_tuples)
def test_strata_supports_are_the_strata_supports_in_order(weights):
    walk = strata_supports(weights)
    report = strata(WpsOrbifold(weights))
    assert walk == [c.support for r in report.records for c in r.components]
    # every nonempty support once, by descending singular dimension, size, then lexicographically
    keys = [(-support_singular_dimension(weights, sup), len(sup), sup) for sup in walk]
    assert keys == sorted(set(keys)) and len(keys) == 2 ** len(weights) - 1


def test_strata_supports_returns_a_fresh_list_each_call():
    walk = strata_supports((1, 2, 2))
    expected = list(walk)
    walk.clear()
    assert strata_supports((1, 2, 2)) == expected
    assert strata_supports([1, 2, 2]) == expected


def test_strata_reflection_quotient():
    report = strata(CircleQuotient.reflection())
    assert report.codim1_empty is False
    assert report.orientable is False
    endpoint_components = [
        c for r in report.records if r.sdim == 0 for c in r.components
    ]
    assert len(endpoint_components) == 2
    assert all(c.isotropy_order == 2 for c in endpoint_components)
    top = [r for r in report.records if r.sdim == 1]
    assert top and top[0].open_dense


def test_strata_rotation_quotient_is_manifold():
    report = strata(CircleQuotient.rotation(4))
    assert report.codim1_empty is True
    assert report.orientable is True
    assert report.isotropy_orders() == {1}


def test_strata_wps_examples():
    report = strata(WpsOrbifold((1, 3)))
    assert report.codim1_empty is True
    assert report.orientable is True
    singular = [
        c for r in report.records if not r.open_dense for c in r.components
    ]
    assert [(c.support, c.isotropy_order) for c in singular] == [((1,), 3)]

    plain = strata(WpsOrbifold((1, 1)))
    assert plain.isotropy_orders() == {1}
    assert all(r.open_dense for r in plain.records)


@given(weight_tuples)
def test_strata_partition_and_codim1(weights):
    space = WpsOrbifold(weights)
    report = strata(space)
    assert report.codim1_empty is True
    assert report.orientable is True
    supports = [c.support for r in report.records for c in r.components]
    assert len(supports) == len(set(supports)) == 2 ** len(weights) - 1
    top = [r for r in report.records if r.open_dense]
    assert len(top) == 1 and top[0].sdim == space.dimension


def test_circle_quotient_folding():
    refl = CircleQuotient.reflection()
    assert refl.fold(3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert refl.isotropy_order(0.0) == 2
    assert refl.isotropy_order(math.pi) == 2
    assert refl.isotropy_order(1.0) == 1
    rot = CircleQuotient.rotation(3)
    assert rot.fold(2 * math.pi / 3 + 0.1) == pytest.approx(0.1)
    assert rot.isotropy_order(0.0) == 1


quotients = st.one_of(
    st.just(CircleQuotient.reflection()), st.integers(1, 8).map(CircleQuotient.rotation)
)


def _seam_angle(j, k, ulps):
    """2*pi*j/k, moved by one ulp up or down or not at all."""
    angle = 2 * math.pi * j / k
    return float(np.nextafter(angle, math.inf * ulps)) if ulps else angle


# angles on and one ulp either side of the seams, signed zeros, and plain floats
angles = st.one_of(
    st.builds(_seam_angle, st.integers(-16, 16), st.integers(1, 8), st.sampled_from([-1, 0, 1])),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(-1e4, 1e4),
)


@settings(max_examples=300, deadline=None)
@given(quotients, st.lists(angles, min_size=1, max_size=40))
def test_array_fold_equals_the_scalar_fold_bit_for_bit(quotient, thetas):
    expected = np.array([scalar_fold(quotient, t) for t in thetas])
    assert quotient.fold(np.array(thetas)).tobytes() == expected.tobytes()
    assert np.array([quotient.fold(t) for t in thetas]).tobytes() == expected.tobytes()


endpoint_angles = st.one_of(
    angles,
    st.builds(lambda base, off: base + off, st.sampled_from([0.0, math.pi, 2 * math.pi]),
              st.floats(-2e-8, 2e-8)),
)


@settings(max_examples=60, deadline=None)
@given(quotients, st.lists(endpoint_angles, max_size=20))
def test_array_isotropy_equals_the_scalar_isotropy(quotient, thetas):
    folded = [scalar_fold(quotient, t) for t in thetas]
    expected = [
        2 if quotient.is_reflection and (f < ENDPOINT_TOL or abs(f - math.pi) < ENDPOINT_TOL)
        else 1
        for f in folded
    ]
    scalar = [quotient.isotropy_order(t) for t in thetas]
    assert scalar == expected and all(type(order) is int for order in scalar)
    assert quotient.isotropy_order(np.array(thetas)).tolist() == expected


def test_point_json_round_trip():
    space = WpsOrbifold((1, 2, 3))
    point = space.point("0", "1/4", "0/1")
    assert WpsPoint.from_json(point.to_json()) == point
    assert WpsOrbifold.from_json(space.to_json()) == space
    # the wire encoding parses back to the same orbit
    assert space.point(*point.encode().split(",")) == point


@st.composite
def raw_points(draw):
    """Weights up to 30 (so the first support weight is often > 1) and uncanonical coordinates."""
    weights = draw(
        coprime_weights(
            st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4).map(tuple)
        )
    )
    coords = []
    for _ in weights:
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            coords.append(ExactCoordinate.zero())
        else:
            order = draw(st.integers(min_value=1, max_value=40))
            coords.append(ExactCoordinate.unit(draw(st.integers(min_value=0, max_value=39)), order))
    if all(c.is_zero for c in coords):
        coords[-1] = ExactCoordinate.unit(1, 3)
    return weights, tuple(coords)


@settings(max_examples=250, deadline=None)
@given(raw_points())
def test_canonical_form_matches_residual_loop(data):
    weights, coords = data
    point = WpsPoint(WpsOrbifold(weights), coords)
    expected = loop_canonical_turns(weights, coordinate_turns(coords))
    assert coordinate_turns(point.coords) == expected


def test_canonical_form_with_a_large_first_weight():
    # q0 = 10**5 residual scalings; the chain takes one step, not 10**5
    space = WpsOrbifold((10**5, 1))
    point = space.point("1/3", "2/7")
    # tau = -1/(3*10**5) + k/10**5 sends the first turn 1/3 to 0 and the second
    # to 2/7 + tau; since 2/7 = (28571 + 3/7)/10**5, the least is (3/7 - 1/3)/10**5
    assert point.encode() == "0/1,1/1050000"
    assert point == space.point("0/1", "1/1050000")
