import inspect
import math
import warnings

import numpy as np
import pytest

from oracles import loop_numeric_jacobian, loop_slice_lift
from orbidegree import slices
from orbidegree.degree import PreimageColumns, preimages
from orbidegree.errors import IrregularPointError, NewtonDivergedError, PreconditionViolatedError
from orbidegree.maps import MonomialMap
from orbidegree.slices import (
    CHART_RADIUS,
    numeric_jacobian,
    ring_values_through_axis,
    slice_chart,
    slice_lift,
    sphere_point,
    weighted_count_profile,
    write_count_profile_csv,
)
from orbidegree.spaces import WpsOrbifold
from orbidegree.verify import random_monomial_maps


def random_sphere_point(rng, n1):
    z = rng.normal(size=n1) + 1j * rng.normal(size=n1)
    return z / np.linalg.norm(z)


def test_slice_chart_orthonormal_and_oriented():
    rng = np.random.default_rng(1)
    for weights in ((1, 1), (1, 3), (2, 3, 5)):
        z = random_sphere_point(rng, len(weights))
        chart = slice_chart(z, weights)
        assert chart.dimension == 2 * (len(weights) - 1)
        gram = chart.frame @ chart.frame.T
        assert np.max(np.abs(gram - np.eye(chart.dimension))) < 1e-12
        tangent = 1j * np.array(weights) * z
        tangent_r = np.empty(2 * len(weights))
        tangent_r[0::2], tangent_r[1::2] = tangent.real, tangent.imag
        assert np.max(np.abs(chart.frame @ tangent_r)) < 1e-11


def test_slice_lift_fixed_point():
    f = MonomialMap.from_projective((1, 3))
    x = sphere_point(f.source.all_ones())
    lift = slice_lift(f, x, x)
    assert lift.phase == 0.0
    expected = x ** np.array(f.exponents)
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(lift.corrected - expected)) < 1e-12


def test_slice_lift_residual_verified_by_substitution():
    rng = np.random.default_rng(42)
    f = MonomialMap.from_projective((1, 3))
    x = random_sphere_point(rng, 2)
    chart = slice_chart(x, f.source.weights)
    y = chart.point([1e-3, -4e-4])
    lift = slice_lift(f, x, y)
    assert abs(lift.residual) < 1e-9
    c = x ** np.array(f.exponents)
    c /= np.linalg.norm(c)
    tangent = 1j * np.array(f.target.weights) * c
    assert abs(np.vdot(tangent, lift.corrected).real) < 1e-9
    assert np.linalg.norm(lift.corrected) == pytest.approx(1.0)


def test_slice_lift_preconditions():
    f = MonomialMap.from_projective((1, 3))
    x = sphere_point(f.source.all_ones())
    far = sphere_point(f.source.point("1/2", "0/1"))
    with pytest.raises(PreconditionViolatedError):
        slice_lift(f, x, far)
    # a nearby point off the slice is rejected too
    off = x * np.exp(1j * 0.01 * np.array(f.source.weights))
    with pytest.raises(PreconditionViolatedError):
        slice_lift(f, x, off)


def test_phase_equivariance_under_isotropy():
    # source points with nontrivial stabilizer: phase is invariant under it
    configs = [
        (MonomialMap.to_projective((1, 3)), WpsOrbifold((1, 3)).axis_point(1), 3),
        (MonomialMap.to_projective((1, 1, 3)), WpsOrbifold((1, 1, 3)).axis_point(2), 3),
        (MonomialMap.to_projective((2, 2, 3)), WpsOrbifold((2, 2, 3)).point("0/1", "0/1", "0"), 2),
    ]
    rng = np.random.default_rng(3)
    for f, x_exact, order in configs:
        x = sphere_point(x_exact)
        chart = slice_chart(x, f.source.weights)
        gamma = np.exp(2j * math.pi / order * np.array(f.source.weights))
        assert np.max(np.abs(gamma * x - x)) < 1e-12  # gamma really stabilizes x
        for _ in range(5):
            s = rng.normal(size=chart.dimension)
            s *= 1e-3 / np.linalg.norm(s)
            y = chart.point(s)
            phase = slice_lift(f, x, y).phase
            phase_acted = slice_lift(f, x, gamma * y).phase
            assert abs(phase - phase_acted) < 1e-9


def test_phase_shrinks_linearly():
    rng = np.random.default_rng(7)
    f = MonomialMap.from_projective((2, 3))
    x = random_sphere_point(rng, 2)
    chart = slice_chart(x, f.source.weights)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    phases = [abs(slice_lift(f, x, chart.point(h * direction)).phase)
              for h in (1e-2, 1e-3, 1e-4)]
    for larger, smaller in zip(phases, phases[1:]):
        assert smaller < 0.2 * larger or smaller < 1e-10


def test_numeric_jacobian_identity():
    ident = MonomialMap.identity(WpsOrbifold((1, 2)))
    cert = numeric_jacobian(ident, sphere_point(ident.source.all_ones()))
    assert cert.sign == 1
    assert cert.smallest_singular_value == pytest.approx(1.0, abs=1e-6)


def test_numeric_jacobian_matches_exact_signs():
    f13 = MonomialMap.from_projective((1, 3))
    for rec in preimages(f13, f13.target.all_ones()):
        cert = numeric_jacobian(f13, sphere_point(rec.point))
        assert cert.sign == 1 == rec.sign
        assert cert.smallest_singular_value > 1e-6


def test_numeric_jacobian_detects_irregular_point():
    for k in (2, 3):
        f = MonomialMap.from_projective((1, 1, k))
        x = sphere_point(f.source.axis_point(0))  # preimage of the critical axis value
        with pytest.raises(IrregularPointError):
            numeric_jacobian(f, x)


def test_numeric_agreement_on_random_corpus():
    # signs and regularity certificates agree with the exact records
    pairs = 0
    for f in random_monomial_maps(50, seed=13, max_product=400):
        for y in (f.target.all_ones(), f.target.point(*["1/5"] * len(f.target.weights))):
            records = preimages(f, y)
            pairs += 1
            for rec in records[:3]:
                cert = numeric_jacobian(f, sphere_point(rec.point))
                assert cert.sign == rec.sign == 1
                assert cert.smallest_singular_value > 1e-6
    assert pairs >= 100


def test_weighted_count_profile_and_csv(tmp_path):
    f13 = MonomialMap.from_projective((1, 3))
    values = ring_values_through_axis(f13.target, axis=1, order=25)
    assert len(values) == 26
    assert len(set(values)) == 26
    samples = weighted_count_profile(f13, values)
    raw = {s.raw_count for s in samples}
    assert raw == {1, 3}
    assert all(s.weighted_count == 3 for s in samples)
    path = tmp_path / "profile.csv"
    write_count_profile_csv(path, samples)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "value,raw_count,weighted_count"
    assert len(lines) == 27
    assert lines[1].endswith(",1,3")  # the axis value: one preimage, weighted count 3


def test_weighted_count_profile_builds_no_records(monkeypatch):
    f13 = MonomialMap.from_projective((1, 3))
    values = ring_values_through_axis(f13.target, axis=1, order=5)
    records = [preimages(f13, y) for y in values]
    expected = [(len(recs), sum(r.weight for r in recs)) for recs in records]

    def refuse(self, row):
        raise AssertionError("a preimage record was built")

    monkeypatch.setattr(PreimageColumns, "record", refuse)
    samples = weighted_count_profile(f13, values)
    assert [(s.raw_count, s.weighted_count) for s in samples] == expected


def test_numeric_engines_take_no_tolerance_arguments():
    assert list(inspect.signature(slice_lift).parameters) == ["f", "x", "y"]
    assert list(inspect.signature(numeric_jacobian).parameters) == ["f", "x"]
    assert list(inspect.signature(slice_chart).parameters) == ["z", "weights"]
    assert not hasattr(slice_chart(np.array([1.0, 0j]), (1, 1)), "radius")


def test_slice_lift_refuses_a_point_outside_the_chart_radius():
    f = MonomialMap.from_projective((1, 3))
    x = np.array([1.0, 1.0 + 0j]) / math.sqrt(2)
    far = np.array([1.0, np.exp(1j * 4 * CHART_RADIUS)]) / math.sqrt(2)
    with pytest.raises(PreconditionViolatedError):
        slice_lift(f, x, far)


def _lift_corpus():
    """(f, x, y) triples: random maps, base points with and without zero coordinates."""
    rng = np.random.default_rng(11)
    maps = random_monomial_maps(40, seed=21, max_product=400, max_n=3)
    maps.append(MonomialMap.from_projective((1, 2, 3, 4)))
    for f in maps:
        n1 = len(f.source.weights)
        for zero in (None, rng.integers(n1)):
            x = random_sphere_point(rng, n1)
            if zero is not None and n1 > 1:
                x[zero] = 0.0
                x /= np.linalg.norm(x)
            chart = slice_chart(x, f.source.weights)
            s = rng.normal(size=chart.dimension)
            y = chart.point(s * 10 ** rng.uniform(-5, -1.2) / np.linalg.norm(s))
            yield f, x, y


def _outcome(func, *args):
    try:
        return func(*args)
    except (IrregularPointError, NewtonDivergedError, PreconditionViolatedError) as exc:
        return type(exc)


def test_slice_lift_equals_the_scalar_newton_loop_bit_for_bit():
    triples = 0
    for f, x, y in _lift_corpus():
        got, expected = _outcome(slice_lift, f, x, y), _outcome(loop_slice_lift, f, x, y)
        triples += 1
        if isinstance(expected, type):
            assert got is expected
            continue
        assert (got.phase, got.residual, got.iterations) == (
            expected.phase, expected.residual, expected.iterations
        )
        assert got.corrected.tobytes() == expected.corrected.tobytes()
    assert triples == 82


def _jacobian_cases():
    for f, x, _ in _lift_corpus():
        yield f, x
    f = MonomialMap.from_projective((1, 2, 3, 4))
    for rec in preimages(f, f.target.point("1/5", "2/7", "1/3", "3/11"))[:4]:
        yield f, sphere_point(rec.point)
    # exponents up to 35 magnify an unnormalized perturbed point past the 1e-9 bound
    g = MonomialMap.to_projective((1, 5, 7))
    for rec in preimages(g, g.target.point("1/13", "2/13", "3/13"))[:5]:
        yield g, sphere_point(rec.point)
    ident = MonomialMap.identity(WpsOrbifold((1, 2, 3, 4)))
    yield ident, sphere_point(ident.source.point("0", "1/5", "0", "2/7"))  # isotropy Z_2
    for k in (2, 3):
        f = MonomialMap.from_projective((1, 1, k))
        yield f, sphere_point(f.source.axis_point(0))  # irregular


def test_numeric_jacobian_agrees_with_the_lift_loop():
    outcomes = []
    for f, x in _jacobian_cases():
        got, expected = _outcome(numeric_jacobian, f, x), _outcome(loop_numeric_jacobian, f, x)
        if isinstance(expected, type):
            assert got is expected
        else:
            assert got.sign == expected[0]
            assert got.smallest_singular_value == pytest.approx(expected[1], rel=1e-9, abs=0)
        outcomes.append(expected if isinstance(expected, type) else "regular")
    assert outcomes.count("regular") > 40 and outcomes.count(IrregularPointError) > 2


def test_newton_iteration_cap_raises(monkeypatch):
    f = MonomialMap.from_projective((1, 2, 3, 4))
    x = sphere_point(f.source.all_ones())
    y = slice_chart(x, f.source.weights).point(np.full(6, 1e-3))
    monkeypatch.setattr(slices, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NewtonDivergedError):
        slice_lift(f, x, y)
    with pytest.raises(NewtonDivergedError):
        numeric_jacobian(f, x)


@pytest.mark.parametrize("turn, why", [
    (1j, "zero slope"),  # Re <w, c> is exactly 0, so the first Newton step has no slope
    (np.exp(1j * (np.pi / 2 - 1e-3)), "phi leaves its window"),  # first step: phi = -tan
])
def test_phase_correction_refuses_a_stalled_newton_step(monkeypatch, turn, why):
    # the image of y, turned by nearly a quarter turn against the image of x,
    # takes Newton from phi = 0 to its two refusals other than the iteration cap
    f = MonomialMap.identity(WpsOrbifold((1, 1)))
    x = sphere_point(f.source.all_ones())
    image, calls = slices.evaluate_upstairs, []

    def turned(f, z):
        calls.append(z)
        return image(f, z) * (turn if len(calls) == 2 else 1.0)  # slice_lift maps x, then y

    monkeypatch.setattr(slices, "evaluate_upstairs", turned)
    with pytest.raises(NewtonDivergedError):
        slice_lift(f, x, x)
    assert len(calls) == 2


def test_a_negatively_oriented_qr_frame_is_flipped(monkeypatch):
    # numpy's QR has not been seen to return a negatively oriented frame, so
    # one is forced: holomorphic maps must still get sign +1
    qr, flips = np.linalg.qr, []

    def negative_qr(a, mode):
        q, r = qr(a, mode=mode)
        if np.linalg.det(np.vstack([a.T, q[:, 2:].T])) > 0:
            q[:, -1] *= -1.0
            flips.append(True)
        return q, r

    maps = [
        MonomialMap.identity(WpsOrbifold((1, 2))),
        MonomialMap.from_projective((1, 3)),
        MonomialMap.to_projective((2, 3, 5)),
    ]
    points = [sphere_point(f.source.all_ones()) for f in maps]
    frames = [slice_chart(x, f.source.weights).frame for f, x in zip(maps, points)]
    monkeypatch.setattr(np.linalg, "qr", negative_qr)
    for f, x, frame in zip(maps, points, frames):
        assert np.array_equal(slice_chart(x, f.source.weights).frame, frame)
        assert numeric_jacobian(f, x).sign == 1
    assert flips


def test_numeric_jacobian_builds_two_charts_and_no_lift(monkeypatch):
    charts = []

    def counting_chart(z, weights):
        charts.append(weights)
        return slice_chart(z, weights)

    def refuse(*args):
        raise AssertionError("numeric_jacobian called slice_lift")

    monkeypatch.setattr(slices, "slice_chart", counting_chart)
    monkeypatch.setattr(slices, "slice_lift", refuse)
    f = MonomialMap.from_projective((1, 2, 3, 4))
    cert = numeric_jacobian(f, sphere_point(f.source.all_ones()))
    assert cert.sign == 1
    assert charts == [f.source.weights, f.target.weights]


def test_slice_lift_builds_no_chart(monkeypatch):
    def refuse(*args):
        raise AssertionError("slice_lift built a slice chart")

    f = MonomialMap.from_projective((1, 2, 3, 4))
    x = sphere_point(f.source.all_ones())
    y = slice_chart(x, f.source.weights).point(np.full(6, 1e-3))
    monkeypatch.setattr(slices, "slice_chart", refuse)
    assert abs(slice_lift(f, x, y).residual) < slices.RESIDUAL_TOL


def test_a_one_weight_space_has_no_slice_frame():
    # CP^0 is a point: the lift is its image, but no chart or Jacobian exists
    f = MonomialMap(WpsOrbifold((1,)), WpsOrbifold((1,)), (3,))
    x = sphere_point(f.source.all_ones())
    with pytest.raises(PreconditionViolatedError, match="no slice frame"):
        slice_chart(x, f.source.weights)
    with pytest.raises(PreconditionViolatedError, match="no slice frame"):
        numeric_jacobian(f, f.source.all_ones())
    assert slice_lift(f, x, x).residual == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_slice_engine_refuses_a_point_that_is_not_finite(where, bad):
    f = MonomialMap.from_projective((1, 2, 3, 4))
    x = sphere_point(f.source.all_ones())
    y = slice_chart(x, f.source.weights).point(np.full(6, 1e-3))
    point = {"x": x, "y": y}
    point[where] = point[where].copy()
    point[where][1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolatedError, match="not finite"):
            slice_lift(f, point["x"], point["y"])
        with pytest.raises(PreconditionViolatedError, match="not finite"):
            numeric_jacobian(f, point[where])


def test_slice_engine_refuses_a_point_of_another_space():
    f = MonomialMap.to_projective((2, 3, 5))
    x = f.source.all_ones()
    for other in (f.target.all_ones(), WpsOrbifold((1, 2, 7)).all_ones()):
        with pytest.raises(ValueError, match="not in the source"):
            numeric_jacobian(f, other)
        with pytest.raises(ValueError, match="not in the source"):
            slice_lift(f, other, x)
        with pytest.raises(ValueError, match="not in the source"):
            slice_lift(f, x, other)
    assert numeric_jacobian(f, x).sign == 1
    assert slice_lift(f, x, x).residual == 0.0


_MALFORMED = {
    "length 2": (np.ones(2), ValueError, "vector of 4 coordinates, got shape \\(2,\\)"),
    "length 5": (np.ones(5), ValueError, "vector of 4 coordinates, got shape \\(5,\\)"),
    "rows": (np.ones((2, 4)), ValueError, "vector of 4 coordinates, got shape \\(2, 4\\)"),
    "float": (1.5, ValueError, "vector of 4 coordinates, got shape \\(\\)"),
    "zero": (np.zeros(4), PreconditionViolatedError, "zero vector"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
@pytest.mark.parametrize("where", ["x", "y"])
def test_slice_engine_refuses_a_malformed_point_before_any_arithmetic(where, name):
    # these used to fail inside numpy: a broadcast, reshape or vstack ValueError,
    # an AxisError, or _normalize's bare ValueError for the zero vector
    bad, error, message = _MALFORMED[name]
    f = MonomialMap.from_projective((1, 2, 3, 4))
    x = sphere_point(f.source.all_ones())
    point = {"x": x, "y": x, where: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as lift:
            slice_lift(f, point["x"], point["y"])
        with pytest.raises(error, match=message) as jacobian:
            numeric_jacobian(f, point[where])
    for raised in (lift, jacobian):
        assert type(raised.value) is error
