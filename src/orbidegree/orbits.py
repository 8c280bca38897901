"""Coset enumeration for cyclic translation actions on products of cyclic groups.

A preimage fibre is indexed by tuples b in Z_{e_1} x ... x Z_{e_k}; the
residual symmetry translates b by integer multiples of a fixed shift vector
w, so the fibre's points are the cosets of the cyclic subgroup <w>.  This
module enumerates one lexicographically minimal representative per coset.

Tuples are encoded as mixed-radix integers with the first factor most
significant, so lexicographic order on tuples is numeric order on codes.

The representatives are built directly from a stabilizer chain of <w> (the
cyclic case of Schreier-Sims).  Walking the factors in order with stab = 1,
the part of <w> that fixes the digits before factor i is generated by
stab*w, and it moves digit i through the multiples of
g_i = gcd(e_i, stab*w_i); so a coset's minimal digit there is below g_i,
and the elements that also fix it are multiples of stab * e_i/g_i.  The
minimal representatives are therefore exactly the tuples with b_i < g_i.
Their codes are built from one run of place-value multiples per factor with
g_i > 1, each added to the codes so far in one outer sum; a factor with
g_i = 1 adds nothing.  They come out sorted, in O(N/L) time and memory for
N = prod(e) tuples and a subgroup of order L.  Every code is below N, so the
codes are int32 when N <= 2**31 - 1, which halves the bytes of the outer
sums, and int64 up to N <= 2**63 - 1; a larger fibre is refused.  The
number of cosets is prod(g_i) (the order formula of a stabilizer chain), so
chain_bounds counts a fibre of any size without building any code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnumerationCapExceededError, OrbidegreeError

_INT32_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1


def shift_order(moduli: tuple[int, ...], shift: tuple[int, ...]) -> int:
    """Order of the shift vector in Z_{e_1} x ... x Z_{e_k}."""
    return math.lcm(*(e // math.gcd(e, v % e) for e, v in zip(moduli, shift)))


def _places(moduli: tuple[int, ...]) -> list[int]:
    """Place value of each factor, as Python ints: the product of the later moduli."""
    places = [1] * len(moduli)
    for i in range(len(moduli) - 2, -1, -1):
        places[i] = places[i + 1] * moduli[i + 1]
    return places


def decode(codes: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix digits of shape (len(codes), k), as int64 for int32 or int64 codes.

    Dividing by the int64 place values promotes int32 codes; they are not
    first copied to int64.
    """
    places = np.array(_places(moduli), dtype=np.int64)
    return (codes[:, None] // places) % np.asarray(moduli)


def chain_bounds(
    moduli: tuple[int, ...], shift: tuple[int, ...], cap: int | None = None
) -> tuple[int, ...]:
    """The stabilizer-chain bound g_i of every factor; the fibre has prod(g_i) cosets.

    This is the order formula of the chain: counting the cosets needs no
    representative.

    Raises EnumerationCapExceededError when the fibre size prod(moduli) exceeds ``cap``.
    """
    size = math.prod(moduli)
    if cap is not None and size > cap:
        raise EnumerationCapExceededError(f"fibre needs {size} tuples, cap is {cap}")
    bounds = []
    stab = 1
    for e, v in zip(moduli, shift):
        g = math.gcd(e, stab * v)
        bounds.append(g)
        stab *= e // g
    if math.prod(bounds) * shift_order(moduli, shift) != size:
        raise OrbidegreeError(
            f"cosets of <{shift}> in moduli {moduli} do not tile the fibre; this is a bug"
        )
    return tuple(bounds)


def coset_minima(
    moduli: tuple[int, ...], shift: tuple[int, ...], cap: int | None = None
) -> np.ndarray:
    """Sorted codes of the lexicographically minimal element of every coset of <shift>.

    The codes are the outer sum of one run 0, p_i, ..., (g_i - 1)*p_i per
    factor with chain bound g_i > 1 and place value p_i; a fibre of one coset
    is the single code 0.  They are int32 when the fibre has at most
    2**31 - 1 tuples and int64 otherwise.

    Raises as chain_bounds does, and also when the fibre does not fit the int64 codes.
    """
    bounds = chain_bounds(moduli, shift, cap)
    size = math.prod(moduli)
    if size > _INT64_MAX:
        raise EnumerationCapExceededError(
            f"fibre of {size} tuples overflows the int64 tuple codes (at most 2**63 - 1)"
        )
    dtype = np.int32 if size <= _INT32_MAX else np.int64  # every code is below size
    codes = None
    for g, place in zip(bounds, _places(moduli)):
        if g == 1:
            continue  # the factor's only digit is 0
        run = np.arange(0, g * place, place, dtype=dtype)
        codes = run if codes is None else np.add.outer(codes, run).reshape(-1)
    return np.zeros(1, dtype=dtype) if codes is None else codes
