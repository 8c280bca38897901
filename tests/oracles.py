"""Reference implementations and input strategies shared by the tests.

``loop_canonical_turns`` is the residual loop the library used before its
stabilizer chain: scale the first nonzero coordinate to turn 0, try each of
the q0 residual scalings, and keep the lexicographically least tuple of
turns (a zero coordinate sorts first).  It costs O(q0) Fraction operations
per point, so tests use it only with small weights.
"""

import math
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from orbidegree.maps import MonomialMap
from orbidegree.spaces import WpsOrbifold


def loop_canonical_turns(weights, turns):
    """Canonical turns of the point whose coordinate i has turn ``turns[i]`` (None for zero)."""
    i0 = next(i for i, t in enumerate(turns) if t is not None)
    q0 = weights[i0]
    best_key = best = None
    for k in range(q0):
        tau = (k - turns[i0]) / q0  # gamma = exp(2*pi*i*tau) with gamma^q0 * z_i0 = 1
        cand = tuple(None if t is None else (t + w * tau) % 1 for t, w in zip(turns, weights))
        key = tuple(Fraction(-1) if t is None else t for t in cand)
        if best_key is None or key < best_key:
            best_key, best = key, cand
    return best


def coordinate_turns(coords):
    """Turns of ExactCoordinates, None for zero."""
    return tuple(None if c.is_zero else c.root.turns for c in coords)


def _divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


@st.composite
def maps_with_values(draw, max_fibre=400):
    """An equivariant map and a regular value, often with partial support and q0 > 1.

    Target weights r and the degree d are drawn first; each source weight is a
    divisor of d*r_i, so e_i = d*r_i/q_i.  Coordinates with e_i = 1 may be
    left off the support (any larger exponent there makes the value critical).
    """
    size = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=size, max_size=size))
    assume(math.gcd(*r) == 1)
    d = draw(st.integers(min_value=1, max_value=12))
    q = [draw(st.sampled_from(_divisors(d * ri))) for ri in r]
    assume(math.gcd(*q) == 1)
    e = [d * ri // qi for qi, ri in zip(q, r)]
    assume(math.prod(e) <= max_fibre)
    f = MonomialMap(WpsOrbifold(tuple(q)), WpsOrbifold(tuple(r)), tuple(e))
    coords = []
    for ei in e:
        if ei == 1 and draw(st.booleans()):
            coords.append("0")
        else:
            order = draw(st.integers(min_value=1, max_value=12))
            coords.append(f"{draw(st.integers(min_value=0, max_value=order - 1))}/{order}")
    assume(any(c != "0" for c in coords))
    return f, f.target.point(*coords)
