import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scalar_circle_degree2
from orbidegree.circle import (
    ANGLE_CLUSTER,
    BOUNDED_RATE,
    TWO_PI,
    CircleMap,
    circle_degree2,
    circle_eval,
    covering_degree,
    flat_bump,
)
from orbidegree.errors import CriticalValueError, NoConvergenceError, NoHomomorphismError


def test_circle_eval_fold_by_substitution():
    fold = CircleMap.fold()
    # (0, 1): x = 0, y^2 = 1 -> angle pi/2
    assert circle_eval(fold, math.pi / 2) == pytest.approx(math.pi / 2)
    # (0, -1): y^2 = 1 regardless of the sign of y -> still (0, 1)
    assert circle_eval(fold, 3 * math.pi / 2) == pytest.approx(math.pi / 2)
    # (1, 0) is fixed by every built-in map
    for m in (fold, CircleMap.flat_even(), CircleMap.flat_odd(), CircleMap.winding(4)):
        assert circle_eval(m, 0.0) == pytest.approx(0.0)


def test_circle_eval_vectorized_matches_scalar():
    thetas = np.linspace(0, 2 * math.pi, 17, endpoint=False)
    for m in (CircleMap.fold(), CircleMap.flat_even(), CircleMap.flat_odd(),
              CircleMap.winding(3)):
        batch = circle_eval(m, thetas)
        singles = [float(circle_eval(m, t)) for t in thetas]
        assert np.allclose(batch, singles)


def test_flat_bump_stable_at_zero():
    values = flat_bump(np.array([0.0, 1e-300, 1e-8, 0.5, -0.5]))
    assert values[0] == 0.0 and values[1] == 0.0 and values[2] == 0.0
    assert values[3] == pytest.approx(math.exp(-4.0))
    assert values[4] == values[3]


def test_counterexample_mod2_depends_on_value():
    fold = CircleMap.fold()
    top = circle_degree2(fold, math.pi / 2)
    assert top.weighted_count == 1
    assert top.mod2 == 1
    assert len(top.preimages.points) == 1
    assert abs(top.preimages.points[0].angle - math.pi / 2) < 1e-10
    assert top.preimages.points[0].isotropy_order == 1

    bottom = circle_degree2(fold, 3 * math.pi / 2)
    assert bottom.weighted_count == 0
    assert bottom.mod2 == 0
    assert not bottom.preimages.points


def test_fold_critical_value_detected():
    with pytest.raises(CriticalValueError):
        circle_degree2(CircleMap.fold(), 0.0)


def test_flat_pair_same_underlying_map():
    even, odd = CircleMap.flat_even(), CircleMap.flat_odd()
    thetas = np.linspace(0, 2 * math.pi, 10_000, endpoint=False)
    fold = np.vectorize(even.domain.fold)
    gap = np.max(np.abs(fold(circle_eval(even, thetas)) - fold(circle_eval(odd, thetas))))
    assert gap < 1e-12
    for value in np.linspace(0.15, math.pi - 0.15, 20):
        a = circle_degree2(even, float(value))
        b = circle_degree2(odd, float(value))
        assert a.mod2 == b.mod2 == 1
        assert a.weighted_count == b.weighted_count == 1


def test_theta_data_stored_per_kind():
    assert CircleMap.fold().theta == "trivial"
    assert CircleMap.flat_even().theta == "trivial"
    assert CircleMap.flat_odd().theta == "identity"
    with pytest.raises(ValueError):
        CircleMap("flat_odd", CircleMap.flat_odd().domain, CircleMap.flat_odd().codomain,
                  theta="trivial")


def test_classical_winding_count():
    result = circle_degree2(CircleMap.winding(4), 1.1)
    assert result.weighted_count == 4
    assert all(p.derivative_sign == 1 for p in result.preimages.points)


def test_covering_projection_degree_equals_group_order():
    for k in range(2, 7):
        result = circle_degree2(CircleMap.covering_projection(k), 0.3 * 2 * math.pi / k)
        assert result.weighted_count == k
        assert all(p.isotropy_order == 1 for p in result.preimages.points)


def test_covering_degree_relation():
    # frozen from the analytic count: theta = (psi + 2*pi*j)/6 in [0, 2*pi/3) for j = 0, 1
    assert covering_degree(3, 6, 1) == 2
    assert covering_degree(5, 5, 1) == 1  # quotient map is a homeomorphism on quotients
    assert covering_degree(1, 7, 1) == 7  # classical winding
    assert covering_degree(2, 4, 3) == 6
    with pytest.raises(NoHomomorphismError):
        covering_degree(4, 3, 2)  # 4 does not divide 3*2


def test_preimage_angles_distinct_and_sorted():
    result = circle_degree2(CircleMap.winding(5), 0.7)
    angles = result.preimages.angles()
    assert angles == sorted(angles)
    for a, b in zip(angles, angles[1:]):
        assert b - a > 1e-8


@pytest.mark.parametrize("k", [1025, 1500, 3000, 4096, 8192, 9000])
def test_winding_past_the_grid_is_refused(k):
    # the grid used to return 1023, 548, 952, 0, 0 and 808 roots here
    with pytest.raises(NoConvergenceError):
        circle_degree2(CircleMap.winding(k), 0.3)


def test_covering_degree_past_the_grid_is_refused():
    with pytest.raises(NoConvergenceError):
        covering_degree(2, 1500, 1)  # 750; the grid used to count 275


# at 0 and pi/2 every grid step turns by pi/2 onto a multiple of pi/2, where
# the old mask |diff| < pi/2 at both ends of a step found 482 of 1024 roots
@pytest.mark.parametrize("value", [0.3, 2.1, 0.0, math.pi / 2])
def test_winding_at_the_grid_limit_is_counted(value):
    result = circle_degree2(CircleMap.winding(1024), value)
    assert result.weighted_count == 1024
    assert all(p.derivative_sign == 1 for p in result.preimages.points)


@pytest.mark.parametrize("k", [922, 1021])
def test_root_on_the_grid_seam_is_counted(k):
    # the root lies within rounding of theta = 0 = 2*pi, where the first and
    # the last grid point are the same point evaluated twice
    assert circle_degree2(CircleMap.winding(k), TWO_PI - 1e-15).weighted_count == k


@pytest.mark.parametrize("m", [CircleMap.fold(), CircleMap.flat_even(), CircleMap.flat_odd()])
def test_fold_and_flat_maps_turn_slower_than_the_bounded_rate(m):
    thetas = np.linspace(0.0, TWO_PI, 2**20 + 1)
    turns = (np.diff(circle_eval(m, thetas)) + math.pi) % TWO_PI - math.pi
    rate = np.max(np.abs(turns)) / (thetas[1] - thetas[0])
    assert 1.0 < rate < BOUNDED_RATE


@pytest.mark.parametrize("power, k, b, expected", [(1, 6, 6, 1), (22, 6, 3, 11), (-5, 7, 7, 5)])
def test_orbit_across_the_period_is_counted_once(power, k, b, expected):
    # at value 0 the roots sit on multiples of the domain period 2*pi/k, and
    # some of them fold to just below the period instead of to 0
    m = CircleMap.quotient_power(power, k, b)
    assert circle_degree2(m, 0.0).weighted_count == expected
    assert scalar_circle_degree2(m, 0.0)[0] == expected + 1  # the old count


def test_orbit_just_below_the_period_is_reported_at_angle_0():
    # one ulp below 2*pi, winding(3) has a root just below the period; its
    # orbit is the orbit of angle 0 and is reported there, first
    m, value = CircleMap.winding(3), 6.2831853071795845
    points = circle_degree2(m, value).preimages.points
    assert [p.angle for p in points][0] == 0.0
    count, mod2, expected = scalar_circle_degree2(m, value)
    assert [p.angle for p in points] == pytest.approx([pt[0] for pt in expected], abs=1e-10)
    assert circle_degree2(m, value).weighted_count == count == 3


def test_orbit_sign_is_read_at_its_smallest_root():
    # theta and 2*pi - theta are one orbit of the reflection, with opposite
    # derivative signs under the even flat map
    even = CircleMap.flat_even()
    for value in np.linspace(0.15, math.pi - 0.15, 8):
        signs = [p.derivative_sign for p in circle_degree2(even, float(value)).preimages.points]
        assert signs == [pt[1] for pt in scalar_circle_degree2(even, float(value))[2]]


def test_circle_degree2_takes_only_a_map_and_a_value():
    assert list(inspect.signature(circle_degree2).parameters) == ["m", "value"]


def _quotient_powers():
    def build(k, b, multiple):
        step = k // math.gcd(k, b)
        return CircleMap.quotient_power(step * multiple, k, b)

    return st.builds(
        build, st.integers(1, 8), st.integers(1, 8),
        st.integers(-12, 12).filter(lambda n: n != 0),
    )


circle_maps = st.one_of(
    st.sampled_from([CircleMap.fold(), CircleMap.flat_even(), CircleMap.flat_odd()]),
    st.integers(-1024, 1024).map(CircleMap.winding),
    st.integers(1, 8).map(CircleMap.covering_projection),
    _quotient_powers(),
)


def _outcome(func, m, value):
    try:
        return func(m, value)
    except (CriticalValueError, NoConvergenceError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(circle_maps, st.floats(0.0, TWO_PI, exclude_max=True))
@example(CircleMap.winding(3), 6.2831853071795845)
@example(CircleMap.winding(1), 6.2831853071795845)
def test_one_pass_matches_the_scalar_root_finder(m, value):
    expected = _outcome(scalar_circle_degree2, m, value)
    result = _outcome(circle_degree2, m, value)
    if isinstance(expected, type):
        assert result is expected
        return
    count, mod2, points = expected
    if m.kind in ("power", "covering"):
        analytic = abs(m.power) * m.codomain.order // m.domain.order
        assert result.weighted_count == analytic
        if count != analytic:
            # the scalar finder miscounts roots on the grid seam, on the period
            # boundary and at the grid limit; see the regression tests above
            return
    assert (result.weighted_count, result.mod2) == (count, mod2)
    if not m.domain.is_reflection:
        # the scalar finder reports an orbit on the period seam on whichever side
        # its root rounded to; the one pass reports it at angle 0
        period = m.domain.period
        points = sorted((0.0 if period - a < ANGLE_CLUSTER else a, *rest) for a, *rest in points)
    got = result.preimages.points
    assert [(p.derivative_sign, p.isotropy_order) for p in got] == [pt[1:] for pt in points]
    assert all(abs(p.angle - pt[0]) < 1e-10 for p, pt in zip(got, points))
