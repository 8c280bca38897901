import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbidegree.roots import ExactCoordinate, RootOfUnity

units = st.builds(
    RootOfUnity, st.integers(min_value=-100, max_value=100), st.integers(min_value=1, max_value=24)
)


def test_canonical_form_reduces():
    assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
    assert RootOfUnity(7, 3) == RootOfUnity(1, 3)
    assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)
    assert RootOfUnity(0, 17) == RootOfUnity.one()


def test_canonicalization_is_idempotent_and_inverses_cancel():
    # exhaustive over every order up to 60
    for order in range(1, 61):
        for num in range(order):
            x = RootOfUnity(num, order)
            again = RootOfUnity(x.num, x.order)
            assert again == x
            assert x * x.inverse() == RootOfUnity.one()


def test_identity_and_powers():
    xi = RootOfUnity(1, 3)
    assert xi**3 == RootOfUnity.one()
    assert xi**-1 == xi.inverse()
    assert (xi * RootOfUnity.one()) == xi


@given(units, units, units)
def test_multiplication_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(units, st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_power_laws(a, j, k):
    assert a ** (j + k) == a**j * a**k


@given(units)
def test_complex_value_matches_turns(a):
    expected = cmath.exp(2j * cmath.pi * a.num / a.order)
    assert abs(a.cvalue() - expected) < 1e-12


def test_coordinate_zero_propagates_and_orders():
    zero = ExactCoordinate.zero()
    assert (zero**5).is_zero
    assert zero.times(RootOfUnity(1, 4)).is_zero
    with pytest.raises(ValueError):
        zero**0


def test_coordinate_parse_round_trip():
    assert ExactCoordinate.parse("0").is_zero
    assert ExactCoordinate.parse("2/6") == ExactCoordinate.unit(1, 3)
    assert ExactCoordinate.parse("0/1") == ExactCoordinate.one()
    with pytest.raises(ValueError):
        ExactCoordinate.parse("one")
    for text in ("0", "1/3", "5/7"):
        assert str(ExactCoordinate.parse(text)) == text


def test_json_round_trip():
    for coord in (ExactCoordinate.zero(), ExactCoordinate.unit(2, 5)):
        assert ExactCoordinate.from_json(coord.to_json()) == coord
    assert RootOfUnity.from_json({"num": 4, "den": 6}) == RootOfUnity(2, 3)
    assert ExactCoordinate.zero().to_json() == {"zero": True}
    assert ExactCoordinate.unit(1, 3).to_json() == {"num": 1, "den": 3}


def test_json_num_and_den_must_be_integers():
    for data in ({"num": 1.5, "den": 3}, {"num": 1, "den": 3.0}):
        with pytest.raises(ValueError, match="expected integer num and den"):
            RootOfUnity.from_json(data)
    with pytest.raises(ValueError, match="expected integer num and den"):
        ExactCoordinate.from_json({"num": 1.5, "den": 3})


@given(units, st.integers(min_value=1, max_value=5))
def test_unit_power_is_exact(a, k):
    approx = a.cvalue() ** k
    assert abs((a**k).cvalue() - approx) < 1e-10


def test_turns_fraction():
    root = RootOfUnity(3, 9)
    assert (root.num, root.order) == (1, 3)
    assert Fraction(root.num, root.order) == Fraction(3, 9)


@given(units, units, st.integers(min_value=-30, max_value=30))
def test_integer_arithmetic_matches_turns(a, b, k):
    def turns(root):
        return Fraction(root.num, root.order)

    assert turns(a * b) == (turns(a) + turns(b)) % 1
    assert turns(a**k) == (turns(a) * k) % 1
    assert turns(a.inverse()) == (-turns(a)) % 1
