import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbidegree.errors import EnumerationCapExceededError
from orbidegree.orbits import coset_minima, decode, encode, shift_order, subgroup_digits


def brute_coset_minima(moduli, shift):
    """Set-based oracle: generate the cyclic subgroup by repeated addition and
    take the lexicographic minimum of every coset."""
    k = len(moduli)
    subgroup = []
    current = tuple(0 for _ in range(k))
    while current not in subgroup:
        subgroup.append(current)
        current = tuple((c + s) % m for c, s, m in zip(current, shift, moduli))
    minima = set()
    for tup in itertools.product(*(range(m) for m in moduli)):
        coset = [tuple((t + h) % m for t, h, m in zip(tup, row, moduli)) for row in subgroup]
        minima.add(min(coset))
    def code(tup):
        out = 0
        for t, m in zip(tup, moduli):
            out = out * m + t
        return out
    return sorted(code(t) for t in minima)


cases = [
    ((3,), (1,)),
    ((3, 2), (1, 0)),
    ((6, 3, 2), (1, 1, 1)),
    ((4, 4), (2, 2)),
    ((5, 5), (1, 2)),
    ((2, 2, 2), (1, 1, 0)),
    ((12,), (8,)),
    ((9, 6), (3, 2)),
    # a factor whose only digit is 0 (g_i = 1 < e_i): first, in the middle, last
    ((4, 3), (1, 0)),
    ((3, 4, 2), (0, 1, 0)),
    ((3, 5), (0, 1)),
    ((4, 6, 3), (1, 3, 1)),
    # factors with e_i = 1
    ((1,), (0,)),
    ((1, 4, 1, 3), (0, 2, 0, 1)),
    ((2, 1), (1, 0)),
    # a single coset: the fibre is the orbit of 0
    ((5,), (1,)),
    ((2, 3), (1, 1)),
    # L = 1: every tuple is its own coset
    ((3, 1, 2), (0, 0, 0)),
    ((7,), (0,)),
]


@pytest.mark.parametrize("moduli,shift", cases)
def test_matches_brute_force(moduli, shift):
    codes = coset_minima(moduli, shift)
    assert codes.dtype == np.int64 and codes.ndim == 1
    assert np.all(np.diff(codes) > 0)
    assert codes.tolist() == brute_coset_minima(moduli, shift)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.data(),
)
def test_matches_brute_force_random(moduli, data):
    moduli = tuple(moduli)
    shift = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
    codes = coset_minima(moduli, shift)
    assert codes.dtype == np.int64
    assert codes.tolist() == brute_coset_minima(moduli, shift)


def test_order_72_subgroup_matches_brute_force():
    moduli, shift = (8, 9, 2), (1, 1, 1)
    assert shift_order(moduli, shift) == 72
    assert coset_minima(moduli, shift).tolist() == brute_coset_minima(moduli, shift)


@pytest.mark.parametrize("e", [64, 65])
def test_subgroup_order_boundary(e):
    # L = 64 and L = 65 go through the same construction: N/L sorted codes
    moduli, shift = (e, e, e), (1, 1, 1)
    codes = coset_minima(moduli, shift)
    assert codes.dtype == np.int64
    assert len(codes) == math.prod(moduli) // shift_order(moduli, shift) == e * e
    assert np.all(np.diff(codes) > 0)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=3).filter(
        lambda moduli: math.prod(moduli) <= 40_000
    ),
    st.data(),
)
def test_representatives_are_distinct_coset_minima(moduli, data):
    moduli = tuple(moduli)
    shift = tuple(data.draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli)
    codes = coset_minima(moduli, shift)
    sub = subgroup_digits(moduli, shift)
    # row j holds the whole coset of representative j
    cosets = encode((decode(codes, moduli)[:, None, :] + sub) % np.asarray(moduli), moduli)
    assert np.array_equal(cosets.min(axis=1), codes)
    # pairwise distinct cosets that together cover every tuple exactly once
    assert np.array_equal(np.sort(cosets, axis=None), np.arange(math.prod(moduli)))


def test_place_value_overflow_raises():
    # 4 * 2**62 * 4 = 2**66 tuples: the int64 place values would wrap
    with pytest.raises(EnumerationCapExceededError, match="int64"):
        coset_minima((4, 2**62, 4), (1, 1, 1))
    # exactly 2**63 - 1 tuples still fits; the codes decode to valid digits
    moduli = (7, (2**63 - 1) // 7)
    codes = coset_minima(moduli, (1, 1))
    assert len(codes) == 7
    assert decode(codes, moduli).tolist() == [[0, b] for b in range(7)]


def test_trivial_shift_enumerates_everything():
    assert coset_minima((4, 3), (0, 0)).tolist() == list(range(12))


def test_cap_enforced():
    with pytest.raises(EnumerationCapExceededError):
        coset_minima((100, 100), (1, 1), cap=5000)
    # at the cap it still runs
    assert len(coset_minima((70, 70), (0, 1), cap=4900)) == 70


def test_encode_decode_round_trip():
    moduli = (5, 3, 2)
    codes = np.arange(math.prod(moduli))
    digits = decode(codes, moduli)
    assert np.array_equal(encode(digits, moduli), codes)
    # first coordinate is most significant: lexicographic order == numeric order
    tuples = [tuple(row) for row in digits]
    assert tuples == sorted(tuples)


def test_subgroup_digits_order():
    sub = subgroup_digits((6, 4), (2, 2))
    assert len(sub) == shift_order((6, 4), (2, 2)) == 6
    assert sub[0].tolist() == [0, 0]
