import hashlib
import inspect
import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_brackets, loop_bisect, scalar_circle_degree2
from orbidegree import circle
from orbidegree.circle import (
    ANGLE_CLUSTER,
    BOUNDED_RATE,
    GRID,
    REFINE_TOL,
    SLOPE_STEP,
    TWO_PI,
    CircleMap,
    CirclePreimage,
    circle_degree2,
    circle_degrees,
    circle_eval,
    covering_degree,
    flat_bump,
)
from orbidegree.errors import (
    CriticalValueError,
    NoConvergenceError,
    NoHomomorphismError,
    OrbidegreeError,
    PreconditionViolatedError,
)
from orbidegree.spaces import CircleQuotient


@pytest.fixture
def fresh_grids():
    """An empty grid cache before and after the test, for tests that patch
    circle._image or circle.circle_eval: a grid evaluated through the patch is
    never served to a later test, and a real grid cached by an earlier test
    never stands in for the patched image."""
    circle._grid.cache_clear()
    yield
    circle._grid.cache_clear()


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
        assert batch.tolist() == singles


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
    rotation = CircleMap.winding(1).domain
    for m in (CircleMap.winding(3), CircleMap.covering_projection(4),
              CircleMap.quotient_power(3, 6, 2), CircleMap("power", rotation, rotation, power=2)):
        assert m.theta == "rotation"


def test_fold_and_flat_kinds_refuse_a_power():
    reflection, rotation = CircleMap.fold().domain, CircleMap.winding(1).domain
    for kind, codomain in (("fold", rotation), ("flat_even", reflection), ("flat_odd", reflection)):
        with pytest.raises(ValueError, match="has no power"):
            CircleMap(kind, reflection, codomain, power=9)


def test_flat_odd_descends_only_to_the_reflection_quotient():
    # flat_odd sends theta to -f(theta), which is neither f(theta) nor
    # f(theta) + pi: only the reflection identifies it with f(theta).  Onto
    # S^1 // Z_k it built and counted k at every value.
    reflection = CircleQuotient.reflection()
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="flat_odd requires the reflection quotient"):
            CircleMap("flat_odd", reflection, CircleQuotient.rotation(k))
    assert CircleMap("flat_odd", reflection, reflection) == CircleMap.flat_odd()
    # the trivial homomorphism of fold and flat_even lands in any codomain
    for kind in ("fold", "flat_even"):
        for codomain in (reflection, CircleQuotient.rotation(1), CircleQuotient.rotation(3)):
            assert CircleMap(kind, reflection, codomain).codomain == codomain


def test_a_power_that_is_not_an_integer_is_refused():
    # 2.5 * 2 % 1 == 0 passed the homomorphism check, and the image jumped at
    # the seam: circle_degree2 at 0.3 stalled instead of refusing the map
    for power in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="expected integer power"):
            CircleMap.quotient_power(power, 1, 2)
    m = CircleMap.winding(np.int64(3))
    assert type(m.power) is int and m == CircleMap.winding(3)


def test_the_cached_grid_refuses_writes():
    grid = circle._grid("power", 7)
    for array in (grid.image, grid.low, grid.high, grid.step):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.usefixtures("fresh_grids")
def test_the_grid_cache_stays_within_its_bound():
    for k in range(1, circle._GRID_CACHE + 9):
        assert circle_degree2(CircleMap.winding(k), 0.3).weighted_count == k
        assert circle._grid.cache_info().currsize <= circle._GRID_CACHE
    assert circle._grid.cache_info().currsize == circle._GRID_CACHE


def test_classical_winding_count():
    result = circle_degree2(CircleMap.winding(4), 1.1)
    assert result.weighted_count == 4
    assert all(p.derivative_sign == 1 for p in result.preimages.points)


def test_covering_projection_degree_equals_group_order():
    for k in range(2, 7):
        assert CircleMap.covering_projection(k) == CircleMap.quotient_power(1, 1, k)
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
    if m.kind == "power":
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


def _brackets(m, *values):
    """(target, lo, hi) of every grid bracket circle_degrees finds for m at values,
    in the order it refines them, as Python floats."""
    found = []
    crossings = circle._crossings

    def record(grid, targets):
        crossed = crossings(grid, targets)
        found.append((targets, crossed))
        return crossed

    with mock.patch.object(circle, "_crossings", record):
        _outcome(circle_degrees, m, list(values))
    if not found:  # refused before the grid
        return []
    targets, (bracket_target, bracket_step) = found[0]
    grid = circle._GRID_ANGLES
    return list(zip(targets[bracket_target].tolist(), grid[bracket_step].tolist(),
                    grid[bracket_step + 1].tolist()))


def _evaluations(func, *args, image=circle._image):
    """func(*args), or the NoConvergenceError it raises, and the angles its refinement probes.

    ``image`` stands in for circle._image while func runs, and every angle it
    is given counts: one per float probe, one per lane of an array probe.
    The grid and slope evaluations of circle_degrees go through circle.circle_eval,
    which is patched to bypass the count; the oracles probe the original
    circle_eval, which calls circle._image, so their probes count.
    """
    count = 0

    def counting(m, theta):
        nonlocal count
        count += np.size(theta)
        return image(m, theta)

    def uncounted(m, theta):
        return image(m, np.asarray(theta, dtype=float))

    with mock.patch.object(circle, "_image", counting), \
            mock.patch.object(circle, "circle_eval", uncounted):
        try:
            result = func(*args)
        except NoConvergenceError:
            result = NoConvergenceError
    return result, count


def _refine_lane(m, target, lo, hi):
    """One bracket narrowed as a lane: its root, or NaN where the lane leaves it to _refine."""
    return float(circle._refine_lanes(m, *(np.array([x]) for x in (target, lo, hi)))[0])


def _slope(m, theta):
    return float(circle._wrap(circle_eval(m, theta + SLOPE_STEP)
                              - circle_eval(m, theta - SLOPE_STEP))) / (2.0 * SLOPE_STEP)


refined_maps = st.one_of(
    st.sampled_from([CircleMap.fold(), CircleMap.flat_even(), CircleMap.flat_odd()]),
    st.integers(-1024, 1024).filter(lambda k: k != 0).map(CircleMap.winding),
    _quotient_powers(),
)


@settings(max_examples=40, deadline=None)
@given(refined_maps, st.floats(0.0, TWO_PI, exclude_max=True), st.randoms(use_true_random=False))
def test_refinement_agrees_with_bisection_in_at_most_twice_its_evaluations(m, value, rnd):
    brackets = _brackets(m, value)
    for target, lo, hi in rnd.sample(brackets, min(len(brackets), 8)):
        old, old_calls = _evaluations(loop_bisect, m, target, lo, hi)
        new, new_calls = _evaluations(circle._refine, m, target, lo, hi)
        assert 1 <= new_calls <= 2 * old_calls
        if old is NoConvergenceError:
            assert new is NoConvergenceError
            continue
        # both stop inside a bracket narrower than REFINE_TOL around a sign
        # change of the wrapped difference; its last few ulps of rounding
        # blur the root by their width over the slope
        slope = abs(_slope(m, old))
        blur = 4 * math.ulp(TWO_PI) / slope if slope else math.inf
        gap = abs(new - old)
        assert min(gap, TWO_PI - gap) <= 2 * REFINE_TOL + blur


# at 1.0, 35 of the secant steps land where the difference rounds to exactly 0
@pytest.mark.parametrize("value", [0.3, 1.0])
@pytest.mark.usefixtures("fresh_grids")
def test_winding_roots_take_at_most_six_evaluations(value):
    m = CircleMap.winding(1000)
    result, calls = _evaluations(circle_degree2, m, value)  # its 1000 brackets run as lanes
    assert result.weighted_count == 1000
    assert 1000 <= calls <= 6 * 1000
    # once per bracket too, not only on average: each lane, run alone, probes
    # what the scalar refinement probes, and the lanes of the call add up
    brackets = _brackets(m, value)
    per_root = [_evaluations(circle._refine, m, *b)[1] for b in brackets]
    lanes = [_evaluations(_refine_lane, m, *b) for b in brackets]
    assert not any(math.isnan(root) for root, _ in lanes)  # no lane is left to _refine
    per_lane = [count for _, count in lanes]
    assert per_lane == per_root and sum(per_lane) == calls
    assert len(per_root) == 1000 and 1 <= min(per_root) and max(per_root) <= 6


# Two brackets that are slow for variants of the method.  flat_even at
# pi - 1e-4: a secant step lands within 3e-13 of the root, next to a bracket
# end; taking the midpoint there instead of a closing probe bisects the rest
# (about 45 evaluations with a probe after every step).  fold at 1e-9: the
# root lies 3e-5 from the double root at 0, so secant steps start 6e-7 long
# and grow only as the far end's value is halved; bisecting after every two
# steps that fail to halve the bracket restarts that growth (28 evaluations).
@pytest.mark.parametrize("m, value", [
    (CircleMap.flat_even(), math.pi - 1e-4),
    (CircleMap.fold(), 1e-9),
])
@pytest.mark.usefixtures("fresh_grids")
def test_slow_refinements_cost_no_more_than_bisection(m, value):
    brackets = _brackets(m, value)
    assert brackets
    for target, lo, hi in brackets:
        old, old_calls = _evaluations(loop_bisect, m, target, lo, hi)
        new, new_calls = _evaluations(circle._refine, m, target, lo, hi)
        assert 1 <= new_calls <= old_calls
        assert abs(new - old) <= 2 * REFINE_TOL + 4 * math.ulp(TWO_PI) / abs(_slope(m, old))


# near a critical value the map barely turns, and the difference rounds to 0
# over up to 1e-8 around the root; there the point bisection picks is kept
@pytest.mark.parametrize("m, value", [
    (CircleMap.fold(), 1e-9),
    (CircleMap.fold(), math.pi - 1e-12),
    (CircleMap.flat_even(), 1e-9),
    (CircleMap.flat_odd(), math.pi - 1e-8),
])
def test_a_root_where_the_difference_rounds_to_zero_is_the_bisection_point(m, value):
    brackets = _brackets(m, value)
    assert brackets
    for target, lo, hi in brackets:
        assert circle._refine(m, target, lo, hi) == loop_bisect(m, target, lo, hi)


def test_refinement_of_a_jump_is_refused():
    # across theta = 0 the wrapped difference of winding(1) at pi jumps from
    # pi - delta to -pi + delta: a sign change with no root inside
    m, delta = CircleMap.winding(1), TWO_PI / GRID
    assert circle._wrap(circle_eval(m, -delta) - math.pi) == pytest.approx(math.pi - delta)
    assert circle._wrap(circle_eval(m, delta) - math.pi) == pytest.approx(-math.pi + delta)
    with pytest.raises(NoConvergenceError):
        circle._refine(m, math.pi, -delta, delta)
    with pytest.raises(NoConvergenceError):
        loop_bisect(m, math.pi, -delta, delta)


def _jump_image(target, root):
    """An image whose difference to target is -1e-6 * distance left of root and 1e-7
    right of it."""

    def image(m, theta):
        theta = np.asarray(theta, dtype=float)
        return (target + np.where(theta > root, 1e-7, -1e-6 * (root - theta))) % TWO_PI

    return image


def _zero_stretch_image(target, root):
    """An image whose difference to target is exactly 0 within 1e-11 of root and
    turns at slope 1000 outside."""

    def image(m, theta):
        theta = np.asarray(theta, dtype=float)
        off = theta - root
        return (target + np.where(np.abs(off) <= 1e-11, 0.0, 1000.0 * off)) % TWO_PI

    return image


@pytest.mark.usefixtures("fresh_grids")
def test_a_root_at_a_jump_costs_at_most_twice_bisection():
    # each secant step from the small side only doubles its length, and after
    # crossing the root the next round starts again from the jump
    lo, hi, target = 1.0, 1.0 + TWO_PI / GRID, 1.0
    root = lo + 0.7 * (hi - lo)
    image = _jump_image(target, root)
    m = CircleMap.winding(1)
    old, old_calls = _evaluations(loop_bisect, m, target, lo, hi, image=image)
    new, new_calls = _evaluations(circle._refine, m, target, lo, hi, image=image)
    assert 1 <= new_calls <= 2 * old_calls
    assert abs(new - root) < 1e-9 and abs(old - root) < 1e-9


@pytest.mark.usefixtures("fresh_grids")
def test_a_wide_zero_stretch_under_a_steep_secant_is_found_by_the_probes():
    # slope 1000 on both sides of a stretch 2e-11 wide where the difference is
    # exactly 0: the secant slope calls the stretch narrow, the probes do not
    lo, target, step = 1.0, 1.0, TWO_PI / GRID / 3
    root, hi = lo + step, lo + 3 * step
    image = _zero_stretch_image(target, root)
    m = CircleMap.winding(1)
    old, _ = _evaluations(loop_bisect, m, target, lo, hi, image=image)
    new, _ = _evaluations(circle._refine, m, target, lo, hi, image=image)
    assert abs(old - root) <= 1e-11 and new == old


def _refinement(refine, m, target, lo, hi):
    try:
        return refine(m, target, lo, hi)
    except NoConvergenceError as exc:
        return NoConvergenceError, str(exc)


# the brackets of the zero-stretch and slow-refinement tests above among them
@settings(max_examples=80, deadline=None)
@given(circle_maps, st.floats(0.0, TWO_PI, exclude_max=True), st.randoms(use_true_random=False))
@example(CircleMap.fold(), 1e-9, None)
@example(CircleMap.fold(), math.pi - 1e-12, None)
@example(CircleMap.flat_even(), 1e-9, None)
@example(CircleMap.flat_odd(), math.pi - 1e-8, None)
@example(CircleMap.flat_even(), math.pi - 1e-4, None)
@example(CircleMap.winding(1024), 0.0, None)
@example(CircleMap.winding(-1024), math.pi / 2, None)
def test_float_probes_refine_to_the_array_probe_roots(m, value, rnd):
    # the refinement probed 0-d arrays from numpy-float bracket ends; on
    # Python floats every root and every error must keep its bits
    brackets = _brackets(m, value)
    if rnd is not None:
        brackets = rnd.sample(brackets, min(len(brackets), 64))
    for target, lo, hi in brackets:
        assert type(lo) is type(hi) is type(target) is float
        new = _refinement(circle._refine, m, target, lo, hi)
        old = _refinement(oracles.array_probe_refine, m, target, np.float64(lo), np.float64(hi))
        assert new == old


def _lane_outcomes(m, brackets):
    """Each bracket's outcome on the lane path, as _refinement gives it.

    _refine_each, made to start every call on lanes, returns the roots before
    the first failing bracket and its error; the brackets after it run again
    as lanes of their own."""
    outcomes = []
    with mock.patch.object(circle, "LANE_BRACKETS", 1):
        while brackets:
            columns = (np.array(column) for column in zip(*brackets))
            roots, failure = circle._refine_each(m, *columns)
            outcomes += roots.tolist()
            if failure is None:
                break
            outcomes.append((type(failure), str(failure)))
            brackets = brackets[len(roots) + 1:]
    return outcomes


def _scalar_outcomes(m, brackets):
    return [_refinement(circle._refine, m, *bracket) for bracket in brackets]


# the zero-stretch and slow-refinement brackets among them, each value list a
# batch of lanes
@settings(max_examples=60, deadline=None)
@given(circle_maps, st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=12))
@example(CircleMap.fold(), [1e-9, math.pi - 1e-12, 0.4, 2.9])
@example(CircleMap.flat_even(), [1e-9, math.pi - 1e-4, 1.0])
@example(CircleMap.flat_odd(), [math.pi - 1e-8, 1e-9])
@example(CircleMap.winding(1024), [0.0, 0.3])
@example(CircleMap.winding(-1024), [math.pi / 2, 1.0])
@example(CircleMap.winding(1000), [1.0])  # 35 secant steps land on an exact 0
def test_lanes_refine_each_bracket_as_the_scalar_refinement(m, values):
    brackets = _brackets(m, *values)
    assert _lane_outcomes(m, brackets) == _scalar_outcomes(m, brackets)


def _synthetic_brackets(target, root, width):
    """Brackets of target around root, seeded, one that starts on root, and two
    right of root, whose ends do not differ in sign."""
    rng = np.random.default_rng(2)
    ends = [(0.7 * width, 0.3 * width), *rng.uniform(1e-13, width, size=(200, 2)).tolist(),
            (0.0, 0.5 * width), (-0.1 * width, 0.5 * width), (-0.5 * width, 0.9 * width)]
    return [(target, root - below, root + above) for below, above in ends]


@pytest.mark.parametrize("make_image", [_jump_image, _zero_stretch_image])
@pytest.mark.usefixtures("fresh_grids")
def test_lanes_refine_synthetic_images_as_the_scalar_refinement(make_image):
    target = root = 1.0
    brackets = _synthetic_brackets(target, root, TWO_PI / GRID)
    m = CircleMap.winding(1)
    bisection = mock.patch.object(circle, "_bisection_point", wraps=circle._bisection_point)
    with mock.patch.object(circle, "_image", make_image(target, root)), bisection as fallback:
        lanes = _lane_outcomes(m, brackets)
        lane_fallbacks = fallback.call_count
        assert lanes == _scalar_outcomes(m, brackets)
        left = np.isnan(circle._refine_lanes(m, *map(np.array, zip(*brackets))))
    # both images have a zero stretch wider than REFINE_TOL/2 at the root (the
    # jump image left of it, where 1.0 - 1e-6 * distance rounds to 1.0); a
    # lane that lands on it is left to _refine, which ends in the bisection
    assert left.any() and lane_fallbacks > 0


def _left_lanes_case(name):
    """(image, map, brackets) whose lanes leave some brackets to _refine: on a
    zero stretch wider than REFINE_TOL/2, or with a residual past RESIDUAL_TOL
    where winding(1)'s difference to pi jumps across theta = 0."""
    m, width = CircleMap.winding(1), TWO_PI / GRID
    if name == "zero stretch":
        return _zero_stretch_image(1.0, 1.0), m, _synthetic_brackets(1.0, 1.0, width)
    jumps = _synthetic_brackets(math.pi, 0.0, width)
    regular = _synthetic_brackets(math.pi, math.pi, width)
    return circle._image, m, [bracket for pair in zip(regular, jumps) for bracket in pair]


@pytest.mark.parametrize("name", ["zero stretch", "residual"])
@pytest.mark.usefixtures("fresh_grids")
def test_lanes_leave_their_rare_brackets_to_the_scalar_refinement(name):
    image, m, brackets = _left_lanes_case(name)
    columns = [np.array(column) for column in zip(*brackets)]
    with mock.patch.object(circle, "_image", image):
        scalar = _scalar_outcomes(m, brackets)
        left = np.isnan(circle._refine_lanes(m, *columns)).nonzero()[0].tolist()
        with mock.patch.object(circle, "_refine", wraps=circle._refine) as refine:
            roots, failure = circle._refine_each(m, *columns)  # 204 or 408: on lanes
    assert len(brackets) >= circle.LANE_BRACKETS and left
    # _refine runs on the left lanes in bracket order, up to the first that raises
    failing = [i for i in left if isinstance(scalar[i], tuple)]
    ran = left[: left.index(failing[0]) + 1] if failing else left
    assert [c.args for c in refine.call_args_list] == [(m, *brackets[i]) for i in ran]
    assert all(type(arg) is float for c in refine.call_args_list for arg in c.args[1:])
    # and each bracket's outcome is the scalar refinement's
    assert roots.tolist() == scalar[: len(roots)]
    if failing:
        assert len(roots) == failing[0]
        assert (type(failure), str(failure)) == scalar[failing[0]]
    else:
        assert failure is None and len(roots) == len(brackets)
    # the first left lane ends in a root on a zero stretch, in the error past RESIDUAL_TOL
    assert isinstance(scalar[left[0]], float) == (name == "zero stretch")


@pytest.mark.usefixtures("fresh_grids")
def test_a_refused_bisection_fallback_fails_only_its_lane():
    target = root = 1.0
    width = TWO_PI / GRID
    brackets = _synthetic_brackets(target, root, width)
    bisection_point = circle._bisection_point

    def refusing(g, lo, hi, f_lo, a, b):
        if hi - lo > width:
            raise NoConvergenceError(f"refused on [{lo!r}, {hi!r}]")
        return bisection_point(g, lo, hi, f_lo, a, b)

    with mock.patch.object(circle, "_image", _zero_stretch_image(target, root)), \
            mock.patch.object(circle, "_bisection_point", refusing):
        lanes = _lane_outcomes(CircleMap.winding(1), brackets)
        assert lanes == _scalar_outcomes(CircleMap.winding(1), brackets)
    assert {type(outcome) for outcome in lanes} == {float, tuple}


def test_lanes_refuse_the_brackets_of_a_jump_as_the_scalar_refinement():
    # the wrapped difference of winding(1) at pi jumps across theta = 0; the
    # brackets around pi are regular
    m, width = CircleMap.winding(1), TWO_PI / GRID
    jumps = _synthetic_brackets(math.pi, 0.0, width)
    regular = _synthetic_brackets(math.pi, math.pi, width)
    brackets = [bracket for pair in zip(jumps[::2], regular[::2]) for bracket in pair]
    outcomes = _lane_outcomes(m, brackets)
    assert outcomes == _scalar_outcomes(m, brackets)
    assert all(outcome[0] is NoConvergenceError for outcome in outcomes[::2])
    assert any(isinstance(root, float) for root in outcomes[1::2])


def _covering_degree_case(k, power, b):
    """The map and value covering_degree(k, power, b) solves."""
    m = CircleMap.quotient_power(power, k, b)
    return m, 0.375 * m.codomain.period


# SHA-256 of repr([count, mod2, angle, sign, isotropy, angle, ...]) of each
# single-value result, recorded before circle_degree2 became one value of
# circle_degrees; the grid search, the bookkeeping over (value, root) rows and
# the slope evaluation must leave every bit of these results as it was
PINNED_RESULTS = {
    "fold top": (CircleMap.fold(), math.pi / 2 + 0.3,
                 "7b8195cf1610c46f009c120046de01f4765693e4f3d92a4e2f190f11a338b6fa"),
    "fold bottom": (CircleMap.fold(), 3 * math.pi / 2 - 0.4,
                    "ab395cb4c41927dc03d8d0b9e1de32ba2761d97d7d85b9c89fc54ae3591dc0e1"),
    **{
        f"{m.kind} at {value}": (m, value, digest)
        for value, digest in [
            (0.7, "dcbdadb551be6bd9044ab6a2e7c5cb8308f39975151008e6000ffadf3afd68b5"),
            (1.9, "692b34b711f8ff2b4abaadf70db7aa65633bc543adebda9288c797b987ed48c9"),
            (2.6, "dee56770e9efe90ce2494ce0941d2305f7ff02025a5d775bd2565879268b81d1"),
        ]
        for m in (CircleMap.flat_even(), CircleMap.flat_odd())
    },
    "winding(7)": (CircleMap.winding(7), 0.4,
                   "3af98ef4bd9c6497cd1b3977f3b1fdfb342df17ad1c60951a1ad32078f158183"),
    "winding(50)": (CircleMap.winding(50), 2.2,
                    "cc5f69081fb282d471250c99a16d1cf3053d8d82617726df9430c4b89caa682f"),
    "winding(300)": (CircleMap.winding(300), 4.1,
                     "b87cc0f24adb8893724f3839a1bb1bcf6b0dea760e875d1a3000fe8fe4ed1a9e"),
    "winding(1000)": (CircleMap.winding(1000), 5.9,
                      "015b4c27d12474abb0af1555321ed71f9231cc248996e2396ba417584682c725"),
    **{
        f"covering_projection({k})": (
            CircleMap.covering_projection(k), 0.3 * 2 * math.pi / k, digest
        )
        for k, digest in [
            (2, "ddb4fc9eb9a7f73c0c875e87294f3ae8137fd9468be92b661f4018d1cdf706d4"),
            (3, "6b30207a0ce501011e361d11dde89fe6bf1727c311dae7d02a7b5541c82c2d28"),
            (4, "d26ddd4ca9a2e07e13f97fc0501f6ade66de96b70356ae53f8ad95f2bd83dec7"),
            (5, "8b578bf3a2f88affcb4378b16772c163b04ca7bf29a006af5fddad06a87c9690"),
            (6, "d0244b280f5080c62fa1ca7992c8030ac81970a53e40c4c6bba5356ff7b50793"),
        ]
    },
    **{
        f"covering_degree{case}": (*_covering_degree_case(*case), digest)
        for case, digest in [
            ((2, 2, 1), "63e61ca2aff7481b2884b8a02c22f85acc9df9efa4f2a6cb68f75b5b2e0690b8"),
            ((2, 4, 1), "20ba13d30166723b44306271102f53e239c9c476ef1c250c6a61e76feae3abc0"),
            ((3, 6, 2), "d4ecf5e3948e1e8b95cb17b4f96a7082870ee2c227205507d646c09aa837dcba"),
            ((4, 8, 2), "7318ddff8fc36970d101cd1f3974e260e143519d0ba036b4ddb6140d77a7a90e"),
            ((6, 6, 1), "b4d43752dbb8f787dfd078c0242a5dba059381bf9eb98850d138299bda1e528d"),
        ]
    },
}


def _fingerprint(result):
    fields = [result.weighted_count, result.mod2]
    for p in result.preimages.points:
        fields += [p.angle, p.derivative_sign, p.isotropy_order]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_single_value_results_are_pinned_bit_for_bit(name):
    m, value, digest = PINNED_RESULTS[name]
    assert _fingerprint(circle_degree2(m, value)) == digest


def test_covering_degrees_of_the_pinned_cases():
    cases = [(2, 2, 1), (2, 4, 1), (3, 6, 2), (4, 8, 2), (6, 6, 1)]
    assert [covering_degree(*case) for case in cases] == [1, 2, 4, 4, 1]


def _grid_targets(m):
    """Draws targets: uniform angles, 0, pi, the seam neighbours and values of
    the grid image itself, where a grid step starts exactly on its target."""
    image = circle_eval(m, np.linspace(0.0, TWO_PI, GRID + 1))
    return st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True),
        st.sampled_from([0.0, math.pi, 1e-15, TWO_PI - 1e-15]),
        st.integers(0, GRID).map(lambda i: float(image[i])),
    )


def _with_grid_targets(m):
    return st.tuples(st.just(m), st.lists(_grid_targets(m), min_size=1, max_size=40))


_SEAM_TARGETS = [0.0, math.pi, 1e-15, TWO_PI - 1e-15]
_FLAT_PAIR_VALUES = np.linspace(0.1, math.pi - 0.1, 50).tolist()


@settings(max_examples=80, deadline=None)
@given(circle_maps.flatmap(_with_grid_targets))
# the widest arcs: each grid step turns by pi/2
@example((CircleMap.winding(-1024), _SEAM_TARGETS))
@example((CircleMap.winding(1024), [*_SEAM_TARGETS, 0.3, 2.1]))
# a 50-value flat pair: 100 targets, psi and 2*pi - psi for each value
@example((CircleMap.flat_even(), [t for v in _FLAT_PAIR_VALUES for t in (v, TWO_PI - v)]))
# targets equal to grid image values: steps that start exactly on their target
@example((CircleMap.fold(), circle_eval(CircleMap.fold(), circle._GRID_ANGLES)[
    [0, 1, 1024, 2047, 2048, 3072, 4095]].tolist()))
@example((CircleMap.winding(7), circle_eval(CircleMap.winding(7), circle._GRID_ANGLES)[
    [0, 5, 585, 586, 4096]].tolist()))
def test_sparse_search_finds_the_dense_search_hits_and_brackets(case):
    m, targets = case
    grid = circle._grid(m.kind, m.power)
    bracket_target, bracket_step = circle._crossings(grid, np.array(targets))
    image = circle_eval(m, np.linspace(0.0, TWO_PI, GRID + 1))
    image[-1] = image[0]
    assert image.tobytes() == grid.image.tobytes()
    hits, brackets = dense_brackets(image, targets)
    assert not set(hits) & set(brackets)
    # the steps that start on a target are brackets too, all in the order
    # they are refined: by target, then step
    found = list(zip(bracket_target.tolist(), bracket_step.tolist()))
    assert found == sorted(hits + brackets)


@pytest.mark.parametrize("m, step", [
    (CircleMap.winding(7), 585),
    (CircleMap.winding(-3), 1000),
    (CircleMap.fold(), 1024),
    (CircleMap.flat_odd(), 700),
])
def test_a_value_on_a_grid_image_value_is_found_at_its_grid_angle_in_one_probe(m, step):
    # the step that starts on the target is a bracket like any other; the
    # refinement's first probe, at the bracket's low end, returns that end
    angle = float(circle._GRID_ANGLES[step])
    value = float(circle_eval(m, circle._GRID_ANGLES)[step])
    (bracket,) = [b for b in _brackets(m, value) if b[1] == angle]
    assert _evaluations(circle._refine, m, *bracket) == (angle, 1)
    assert _evaluations(_refine_lane, m, *bracket) == (angle, 1)
    assert angle in circle_degree2(m, value).preimages.angles()


def _loop_outcome(m, values):
    """[circle_degree2(m, v) for v in values], or the type and message of what it raises."""
    try:
        return [circle_degree2(m, value) for value in values]
    except OrbidegreeError as exc:
        return type(exc), str(exc)


def _batch_outcome(m, values):
    try:
        return circle_degrees(m, values)
    except OrbidegreeError as exc:
        return type(exc), str(exc)


def _fields(outcome):
    if isinstance(outcome, tuple):
        return outcome
    return [(r.weighted_count, r.mod2, r.preimages.fundamental_domain,
             [(p.angle, p.derivative_sign, p.isotropy_order) for p in r.preimages.points])
            for r in outcome]


@settings(max_examples=40, deadline=None)
@given(circle_maps, st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=6))
@example(CircleMap.flat_even(), np.linspace(0.1, math.pi - 0.1, 50).tolist())
@example(CircleMap.fold(), [1.0, 0.0, 2.0])
@example(CircleMap.winding(7), [0.4, 0.4, 6.2831853071795845, 0.0])
@example(CircleMap.winding(2), [0.0, TWO_PI - 2e-9])  # roots on either side of the seam
def test_circle_degrees_equals_a_loop_of_circle_degree2(m, values):
    # tuples compare angles with ==, so every angle must be equal bit for bit
    assert _fields(_batch_outcome(m, values)) == _fields(_loop_outcome(m, values))


def _refuse_point_records(monkeypatch):
    def refuse(self, *fields):
        raise AssertionError("a CirclePreimage was built")

    monkeypatch.setattr(CirclePreimage, "__init__", refuse)


def test_results_build_no_point_records_until_points_is_read(monkeypatch):
    winding, values = CircleMap.winding(7), [0.4, 2.0, 5.5]
    expected = [r.preimages.angles() for r in circle_degrees(winding, values)]
    _refuse_point_records(monkeypatch)
    results = circle_degrees(winding, values)
    assert [r.weighted_count for r in results] == [7, 7, 7]
    assert [r.preimages.angles() for r in results] == expected
    assert circle_degree2(CircleMap.fold(), math.pi / 2 + 0.3).weighted_count == 1
    assert covering_degree(2, 4, 1) == 2
    with pytest.raises(AssertionError, match="CirclePreimage was built"):
        results[0].preimages.points


def test_point_columns_refuse_writes():
    for result in circle_degrees(CircleMap.flat_odd(), [0.7, 1.9]):
        preimages = result.preimages
        for column in (preimages.angle, preimages.sign, preimages.isotropy):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
            with pytest.raises(ValueError):
                column.flags.writeable = True


def test_points_are_built_from_the_column_rows_on_each_read():
    preimages = circle_degree2(CircleMap.winding(7), 0.4).preimages
    first, second = preimages.points, preimages.points
    assert first == second and first is not second
    rows = zip(preimages.angle.tolist(), preimages.sign.tolist(), preimages.isotropy.tolist())
    assert [(p.angle, p.derivative_sign, p.isotropy_order) for p in first] == list(rows)
    assert {(type(p.angle), type(p.derivative_sign), type(p.isotropy_order)) for p in first} == {
        (float, int, int)
    }
    assert preimages.angles() == [p.angle for p in first]


def test_circle_degrees_raises_what_the_first_failing_value_raises():
    fold = CircleMap.fold()
    values = [math.pi / 2, 0.0, 3 * math.pi / 2]  # fold is critical at 0
    with pytest.raises(CriticalValueError) as batch:
        circle_degrees(fold, values)
    with pytest.raises(CriticalValueError) as loop:
        [circle_degree2(fold, value) for value in values]
    assert str(batch.value) == str(loop.value)
    with pytest.raises(NoConvergenceError) as refused:
        circle_degrees(CircleMap.winding(2000), values)
    assert "rate 2000" in str(refused.value)


def test_circle_degrees_of_no_values_is_empty():
    assert circle_degrees(CircleMap.fold(), []) == []
    assert circle_degrees(CircleMap.winding(2000), []) == []  # as the loop: nothing to refuse
    assert circle_degrees(CircleMap.fold(), iter([])) == []


@pytest.mark.parametrize("m", [CircleMap.winding(7), CircleMap.fold(), CircleMap.flat_odd()],
                         ids=lambda m: m.kind)
def test_circle_degrees_reads_a_generator_as_its_list(m):
    values = [0.4, 1.9, 5.0]

    def rows(results):
        return [(r.weighted_count, r.mod2, r.preimages.angle.tolist(), r.preimages.sign.tolist(),
                 r.preimages.isotropy.tolist()) for r in results]

    assert rows(circle_degrees(m, (value for value in values))) == rows(circle_degrees(m, values))


@pytest.mark.parametrize("failing, critical", [(1, None), (2, 1), (1, 2)])
def test_a_refinement_failure_is_raised_in_value_order(failing, critical):
    # the refinement of every target of value `failing` raises; value `critical`
    # is the fold's critical value 0
    fold = CircleMap.fold()
    values = [0.5, 1.0, 2.0, 2.5]
    if critical is not None:
        values[critical] = 0.0
    refine = circle._refine

    def failing_refine(m, target, lo, hi):
        if target == values[failing]:
            raise NoConvergenceError(f"stalled at {target}")
        return refine(m, target, lo, hi)

    with mock.patch.object(circle, "_refine", failing_refine):
        expected = _loop_outcome(fold, values)
        assert _batch_outcome(fold, values) == expected
    assert expected[0] is (NoConvergenceError if critical in (None, 2) else CriticalValueError)


def _jump_at(image, target):
    """``image`` with a jump where it crosses target: within 1e-2 of target it is
    target - 1e-3 below and target + 1e-3 above, so a refinement there is refused."""

    def jumped(m, theta):
        angle = image(m, theta)
        near = np.abs(angle - target) < 1e-2
        return np.where(near, target + np.where(angle < target, -1e-3, 1e-3), angle)

    return jumped


@pytest.mark.parametrize("failing, critical", [(20, None), (30, 10), (10, 30), (0, 39)])
@pytest.mark.usefixtures("fresh_grids")
def test_a_lane_failure_is_raised_in_value_order(failing, critical):
    # 40 fold values: 80 brackets, refined as lanes; the refinement of value
    # `failing` crosses a jump, and value `critical` is the critical value 0
    fold = CircleMap.fold()
    values = np.linspace(0.2, math.pi - 0.2, 40).tolist()
    if critical is not None:
        values[critical] = 0.0
    lanes = mock.patch.object(circle, "_refine_lanes", wraps=circle._refine_lanes)
    with mock.patch.object(circle, "_image", _jump_at(circle._image, values[failing])), \
            lanes as lane_path:
        batch = _batch_outcome(fold, values)
        assert lane_path.call_count == 1
        assert len(lane_path.call_args.args[1]) >= circle.LANE_BRACKETS
        assert batch == _loop_outcome(fold, values)
    assert batch[0] is (CriticalValueError if critical is not None and critical < failing
                        else NoConvergenceError)


@pytest.mark.parametrize("m, count, lanes", [
    (CircleMap.winding(1000), 1, True),
    (CircleMap.flat_even(), 50, True),
    (CircleMap.flat_odd(), 50, True),
    (CircleMap.winding(50), 1, False),
    (CircleMap.fold(), 1, False),
    (CircleMap.flat_even(), 1, False),
    (CircleMap.flat_odd(), 1, False),
    (CircleMap.covering_projection(6), 1, False),
])
def test_calls_with_many_brackets_refine_them_as_lanes(m, count, lanes):
    values = np.linspace(0.3, math.pi - 0.3, count).tolist()
    brackets = _brackets(m, *values)
    assert (len(brackets) >= circle.LANE_BRACKETS) == lanes
    with mock.patch.object(circle, "_refine_lanes", wraps=circle._refine_lanes) as lane_path, \
            mock.patch.object(circle, "_refine", wraps=circle._refine) as scalar:
        circle_degrees(m, values)
    # at these regular values the lanes finish every bracket; a smaller call
    # refines each with _refine
    assert lane_path.called == lanes
    assert scalar.call_count == (0 if lanes else len(brackets))


def _grid_evaluations(func, *args):
    """func(*args) and the number of circle_eval calls it makes on the whole grid."""
    calls = 0

    def counting(m, theta):
        nonlocal calls
        calls += np.size(theta) == GRID + 1
        return circle_eval(m, theta)

    with mock.patch.object(circle, "circle_eval", counting):
        result = func(*args)
    return result, calls


@pytest.mark.usefixtures("fresh_grids")
@pytest.mark.parametrize("count", [1, 2, 50])
def test_the_grid_is_evaluated_once_per_kind_and_power(count):
    values = np.linspace(0.1, math.pi - 0.1, count).tolist()
    for m in (CircleMap.flat_odd(), CircleMap.winding(7), CircleMap.covering_projection(3)):
        results, calls = _grid_evaluations(circle_degrees, m, values)
        assert len(results) == count and calls == 1
    # later calls, on new maps of the same kind and power whatever their
    # quotients, evaluate no grid
    for m in (CircleMap.flat_odd(), CircleMap.winding(7), CircleMap.quotient_power(7, 7, 1),
              CircleMap.covering_projection(3), CircleMap.covering_projection(4)):
        results, calls = _grid_evaluations(circle_degrees, m, values)
        assert len(results) == count and calls == 0
    assert _grid_evaluations(covering_degree, 1, 7, 1) == (7, 0)


# within ENDPOINT_TOL of 0 a value is the reflection's endpoint; flat_odd used
# to solve it as the two targets psi and 2*pi - psi, whose roots, blurred by
# rounding where the map barely turns, folded to two points: 53 of these 400
# values gave flat_even 2 and flat_odd 4
def test_flat_maps_agree_at_values_that_count_as_the_endpoint():
    outcomes = []
    for value in np.geomspace(1e-11, 1e-8, 400).tolist():
        pair = []
        for m in (CircleMap.flat_even(), CircleMap.flat_odd()):
            try:
                pair.append(circle_degree2(m, value).weighted_count)
            except CriticalValueError:
                pair.append("critical")
        outcomes.append(tuple(pair))
    assert Counter(outcomes) == {(2, 2): 313, (1, 1): 1, ("critical", "critical"): 86}


def _near(points):
    """Each of ``points``, its negative and their floating-point neighbours."""
    return st.sampled_from(points).flatmap(lambda p: st.sampled_from([
        p, -p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf),
        math.nextafter(-p, -math.inf), math.nextafter(-p, math.inf),
    ]))


# the grid's seam and quarter points, where a wrapped angle can round either way
_seam_angles = _near([0.0, math.pi / 2, math.pi, TWO_PI, 2 * TWO_PI,
                      *circle._GRID_ANGLES[[1, 1024, 2047, 4095]].tolist()])
_angles = st.one_of(_seam_angles, st.floats(-2 * TWO_PI, 2 * TWO_PI), st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(circle_maps, st.one_of(_angles, st.lists(_angles, min_size=1, max_size=30).map(np.array)))
@example(CircleMap.winding(-1024), 1e300)
@example(CircleMap.flat_odd(), np.array([0.0, -0.0, math.pi, -math.pi, 1e-150, -1e-150]))
def test_circle_eval_equals_the_trigonometric_form(m, theta):
    # bit for bit, for 0-d and array angles alike
    expected = oracles.trig_circle_eval(m, theta)
    got = circle_eval(m, theta)
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


_probe_angles = st.one_of(
    _seam_angles,
    st.sampled_from(circle._GRID_ANGLES.tolist()),
    st.sampled_from(circle._GRID_ANGLES.tolist()).map(lambda t: t + SLOPE_STEP),
    st.floats(-2 * TWO_PI, 2 * TWO_PI),
    st.floats(-1e300, 1e300),
)


@settings(max_examples=300, deadline=None)
@given(circle_maps, _probe_angles)
@example(CircleMap.winding(-3), -0.0)
@example(CircleMap.winding(-1024), 1e300)
def test_a_float_probe_equals_circle_eval_of_its_angle(m, theta):
    got = circle._image(m, float(theta))
    expected = circle_eval(m, theta)
    assert got == expected
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# where y*y leaves the normal range, and where e^{-1/y^2} underflows
_bump_inputs = st.one_of(
    _near([0.0, 1e-150, 5e-324, 2.2250738585072014e-308, 1.4916681462400413e-154, 0.0268, 1.0]),
    st.floats(-1e150, 1e150),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_bump_inputs, st.lists(_bump_inputs, min_size=1, max_size=40).map(np.array)))
@example(np.array([0.0, -0.0, 1e-150, -1e-150, 5e-324, math.inf, -math.inf, math.nan]))
def test_flat_bump_equals_the_masked_form(y):
    expected = oracles.masked_flat_bump(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flat_bump(y)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("m", [CircleMap.winding(3), CircleMap.fold(), CircleMap.flat_even(),
                               CircleMap.flat_odd()], ids=lambda m: m.kind)
@pytest.mark.usefixtures("fresh_grids")
def test_non_finite_values_are_refused_before_the_grid(m, bad):
    with mock.patch.object(circle, "circle_eval", side_effect=AssertionError("map evaluated")):
        for values in ([bad], [0.3, bad, 1.0], np.array([0.3, bad]),
                       (value for value in [0.3, bad, 1.0])):
            with pytest.raises(PreconditionViolatedError, match=f"value {bad} is not finite"):
                circle_degrees(m, values)
        with pytest.raises(PreconditionViolatedError, match=f"value {bad} is not finite"):
            circle_degree2(m, bad)
