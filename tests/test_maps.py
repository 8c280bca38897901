import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import drawn_maps, image_theta_at, points_on
from orbidegree.degree import degree
from orbidegree.errors import NotEquivariantError, WeightMismatchError
from orbidegree.maps import MonomialMap, compose, theta_at, underlying_image
from orbidegree.roots import RootOfUnity
from orbidegree.spaces import WpsOrbifold, isotropy


def test_construction_paper_maps():
    f13 = MonomialMap.from_descriptor({"q": [1, 1], "r": [1, 3], "e": [1, 3]})
    assert f13.equivariance_degree == 1
    assert f13 == MonomialMap.from_projective((1, 3))

    g13 = MonomialMap.from_descriptor({"q": [1, 3], "r": [1, 1], "e": [3, 1]})
    assert g13.equivariance_degree == 3 == WpsOrbifold((1, 3)).lcm
    assert g13 == MonomialMap.to_projective((1, 3))

    with pytest.raises(NotEquivariantError):
        MonomialMap.from_descriptor({"q": [1, 2], "r": [1, 3], "e": [1, 1]})
    with pytest.raises(NotEquivariantError):
        MonomialMap(WpsOrbifold((1, 1)), WpsOrbifold((1, 1)), (0, 1))


def test_compose_paper_examples():
    g = MonomialMap.to_projective((1, 3))
    f = MonomialMap.from_projective((1, 2))
    h = compose(g, f)
    assert h.exponents == (3, 2)
    assert h.equivariance_degree == 3
    assert h == MonomialMap.between((1, 3), (1, 2))

    f13 = MonomialMap.from_projective((1, 3))
    ident = MonomialMap.identity(f13.target)
    assert compose(f13, ident) == f13
    assert compose(MonomialMap.identity(f13.source), f13) == f13

    # g_q after f_q raises every coordinate to lcm(q)
    self_map = compose(f13, MonomialMap.to_projective((1, 3)))
    assert self_map.exponents == (3, 3)

    with pytest.raises(WeightMismatchError):
        compose(f13, f13)


def _small_chain(seed):
    maps = [
        MonomialMap.from_projective((1, 3)),
        MonomialMap.to_projective((1, 3)),
        MonomialMap.from_projective((2, 3)),
        MonomialMap.to_projective((2, 3)),
    ]
    return maps[seed % len(maps)]


def test_compose_associative_and_degree_multiplicative():
    a = MonomialMap.from_projective((1, 3))
    b = MonomialMap.to_projective((1, 3))
    c = MonomialMap.from_projective((2, 5))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left == right
    assert left.equivariance_degree == (
        a.equivariance_degree * b.equivariance_degree * c.equivariance_degree
    )


def _oracle_kernel_order(source_order, power):
    """Float enumeration of the kernel of gamma -> gamma^power on Z_source_order."""
    kernel = 0
    for a in range(source_order):
        if abs(cmath.exp(2j * cmath.pi * a * power / source_order) - 1) < 1e-9:
            kernel += 1
    return kernel


def test_theta_at_examples():
    for k in (2, 3, 5):
        f = MonomialMap.from_projective((1, 1, k))
        hom = theta_at(f, f.source.axis_point(2))
        assert (hom.source_order, hom.target_order) == (1, k)
        assert hom.is_injective

    ident = MonomialMap.identity(WpsOrbifold((1, 3)))
    hom = theta_at(ident, ident.source.axis_point(1))
    assert (hom.source_order, hom.target_order) == (3, 3)
    assert hom(RootOfUnity(1, 3)) == RootOfUnity(1, 3)

    # at the vertex the whole Z_3 dies: the point is critical
    g13 = MonomialMap.to_projective((1, 3))
    hom = theta_at(g13, g13.source.axis_point(1))
    assert (hom.source_order, hom.target_order) == (3, 1)
    assert hom.kernel_order == 3 == _oracle_kernel_order(3, g13.equivariance_degree)
    assert not hom.is_injective


def test_theta_trivial_at_full_support():
    f = MonomialMap.from_projective((2, 3, 5))
    hom = theta_at(f, f.source.all_ones())
    assert hom.source_order == 1 and hom.is_injective


def test_underlying_image_examples():
    f13 = MonomialMap.from_projective((1, 3))
    x = f13.source.point("0/1", "1/3")  # [1 : exp(2*pi*i/3)]
    assert underlying_image(f13, x) == f13.target.all_ones()

    ident = MonomialMap.identity(WpsOrbifold((1, 2)))
    y = ident.source.point("0", "1/4")
    assert underlying_image(ident, y) == y

    h = MonomialMap.between((1, 3), (1, 2))
    assert h(h.source.all_ones()) == h.target.all_ones()

    with pytest.raises(ValueError):
        underlying_image(f13, WpsOrbifold((1, 2)).all_ones())


gammas = st.builds(
    RootOfUnity, st.integers(min_value=0, max_value=23), st.integers(min_value=1, max_value=24)
)

map_choices = st.sampled_from(
    [
        MonomialMap.from_projective((1, 3)),
        MonomialMap.from_projective((2, 3)),
        MonomialMap.to_projective((1, 2, 3)),
        MonomialMap.between((1, 3), (1, 2)),
        MonomialMap.between((2, 3), (1, 5)),
    ]
)


@st.composite
def map_and_point(draw):
    f = draw(map_choices)
    coords = []
    for _ in f.source.weights:
        if draw(st.booleans()):
            coords.append("0")
        else:
            order = draw(st.integers(min_value=1, max_value=8))
            coords.append(f"{draw(st.integers(min_value=0, max_value=7))}/{order}")
    if all(c == "0" for c in coords):
        coords[0] = "0/1"
    return f, f.source.point(*coords)


@settings(deadline=None)
@given(map_and_point(), gammas)
def test_equivariance_of_underlying_map(fp, gamma):
    f, x = fp
    pushed = gamma**f.equivariance_degree
    assert underlying_image(f, x.translated(gamma)) == underlying_image(f, x).translated(pushed)


@settings(deadline=None, max_examples=30)
@given(map_and_point())
def test_theta_well_defined_and_weight_integral(fp):
    f, x = fp
    hom = theta_at(f, x)
    image_order = hom.source_order // hom.kernel_order
    assert hom.target_order % image_order == 0
    assert hom.source_order == isotropy(x).order
    assert hom.exponent == hom.power % hom.target_order


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_theta_at_equals_the_image_point_form(data):
    f = data.draw(drawn_maps())
    x = data.draw(points_on(f.source))
    assert theta_at(f, x) == image_theta_at(f, x)


@pytest.mark.parametrize("weights", [(1, 2), (1, 3), (1, 1, 1)])
def test_theta_at_refuses_a_point_from_another_space(weights):
    f13 = MonomialMap.from_projective((1, 3))
    x = WpsOrbifold(weights).all_ones()
    with pytest.raises(ValueError) as new:
        theta_at(f13, x)
    with pytest.raises(ValueError) as old:
        image_theta_at(f13, x)
    assert str(new.value) == str(old.value)
    assert str(new.value) == f"point lives in {x.space}, not in the source CP1(1,1)"


def test_descriptor_round_trip_excludes_d():
    h = MonomialMap.between((1, 2, 3), (1, 1, 2))
    data = h.descriptor()
    assert set(data) == {"q", "r", "e"}
    assert MonomialMap.from_descriptor(data) == h


def test_non_integer_exponents_are_refused_not_truncated():
    plane = WpsOrbifold((1, 1))
    # int() would make this the map with exponents (2, 2), of degree 2
    with pytest.raises(NotEquivariantError, match="expected integer exponents"):
        degree(MonomialMap(plane, plane, (2.7, 2.2)))
    with pytest.raises(NotEquivariantError, match="expected integer exponents"):
        MonomialMap(plane, plane, (2.0, 2))
    f = MonomialMap(plane, plane, tuple(np.array([2, 2], dtype=np.int64)))
    assert f.exponents == (2, 2) and all(type(e) is int for e in f.exponents)


def test_descriptor_values_must_be_integers():
    with pytest.raises(NotEquivariantError, match="expected integer exponents"):
        MonomialMap.from_descriptor({"q": [1, 1], "r": [1, 1], "e": [2.5, 2]})
    with pytest.raises(ValueError, match="expected integer weights"):
        MonomialMap.from_descriptor({"q": [1, 1], "r": [1, 1.5], "e": [2, 2]})
