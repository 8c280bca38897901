"""Reference implementations and input strategies shared by the tests.

``loop_canonical_turns`` is the residual loop the library used before its
stabilizer chain: scale the first nonzero coordinate to turn 0, try each of
the q0 residual scalings, and keep the lexicographically least tuple of
turns (a zero coordinate sorts first).  It costs O(q0) Fraction operations
per point, so tests use it only with small weights.

``scalar_circle_degree2`` is the circle root finder the library used before
its single vectorized pass: a Python loop over every grid step, bisection
plus Newton polish per bracket, a per-root derivative, and orbit grouping by
a scan over the groups found so far, tallied with Fraction.  It costs a few
milliseconds per target, so tests use it only on maps the grid resolves.
``scalar_fold`` is the Python-float fold of ``CircleQuotient`` before it took
arrays.  ``loop_bisect`` is the root refinement of the one pass before its
Illinois steps: plain bisection of a grid bracket down to REFINE_TOL, about
33 evaluations per root.

``loop_slice_lift`` is the scalar Newton iteration the slice engine used
before its array kernel: one point, a residual-and-slope closure, Python
floats.  ``loop_numeric_jacobian`` is the Jacobian loop of that time, one
lift per (frame vector, sign) pair, each re-checking its input and
rebuilding the source chart.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from orbidegree import slices
from orbidegree.circle import REFINE_TOL, RESIDUAL_TOL, TWO_PI, circle_eval
from orbidegree.errors import (
    CriticalValueError,
    IrregularPointError,
    NewtonDivergedError,
    NoConvergenceError,
    NonIntegralWeightError,
    PreconditionViolatedError,
)
from orbidegree.maps import MonomialMap
from orbidegree.slices import LiftEvaluation, evaluate_upstairs, orbit_direction, slice_chart
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


def _wrap(delta):
    return (np.asarray(delta) + math.pi) % TWO_PI - math.pi


def _refine_root(func, target, lo, hi, tol):
    def g(t):
        return float(_wrap(func(t) - target))

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    h = 1e-7
    for _ in range(5):
        slope = float(_wrap(func(theta + h) - func(theta - h))) / (2.0 * h)
        if slope == 0.0:
            break
        step = g(theta) / slope
        if not math.isfinite(step):
            break
        theta -= step
    if abs(g(theta)) > 1e-6:
        raise NoConvergenceError(f"root refinement stalled near theta={theta:.6f}")
    return theta % TWO_PI


def loop_bisect(m, target, lo, hi):
    """Shrink the bracket [lo, hi] around the zero of wrap(circle_eval(theta) - target)."""

    def g(t: float) -> float:
        return float(_wrap(circle_eval(m, t) - target))

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    while hi - lo >= REFINE_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    if abs(g(theta)) > RESIDUAL_TOL:
        raise NoConvergenceError(f"root refinement stalled near theta={theta:.6f}")
    return theta % TWO_PI


def _scalar_upstairs_roots(m, targets, seeds=4096, tol=1e-12, cluster=1e-8):
    grid = np.linspace(0.0, TWO_PI, seeds + 1)
    values = circle_eval(m, grid)

    def func(t):
        return circle_eval(m, t)

    roots = []
    for target in targets:
        diff = _wrap(values - target)
        small = np.abs(diff) < 0.5 * math.pi
        for i in range(seeds):
            if diff[i] == 0.0:
                roots.append(float(grid[i]) % TWO_PI)
                continue
            if small[i] and small[i + 1] and diff[i] * diff[i + 1] < 0:
                roots.append(_refine_root(func, target, float(grid[i]), float(grid[i + 1]), tol))
    roots.sort()
    deduped = []
    for t in roots:
        if deduped and (t - deduped[-1] < cluster or (TWO_PI - t) + deduped[0] < cluster):
            continue
        deduped.append(t)
    return deduped


def scalar_circle_degree2(m, value, threshold=1e-8, cluster=1e-8):
    """(weighted count, mod2, [(angle, derivative sign, isotropy)]) of m at value."""
    psi = value % TWO_PI
    if m.codomain.is_reflection:
        targets = sorted({psi, (TWO_PI - psi) % TWO_PI})
    else:
        period = m.codomain.period
        targets = [(psi % period) + j * period for j in range(m.codomain.order)]
    roots = _scalar_upstairs_roots(m, targets)
    slopes = {}
    for theta in roots:
        h = 1e-6
        slope = float(_wrap(circle_eval(m, theta + h) - circle_eval(m, theta - h))) / (2.0 * h)
        if abs(slope) <= threshold:
            raise CriticalValueError(f"preimage at theta={theta:.6f} has derivative {slope:.3g}")
        slopes[theta] = slope
    groups = {}
    for theta in roots:
        folded = m.domain.fold(theta)
        for rep in groups:
            if abs(folded - rep) < cluster:
                groups[rep].append(theta)
                break
        else:
            groups[folded] = [theta]
    value_isotropy = m.codomain.isotropy_order(psi)
    points = []
    total = Fraction(0)
    for rep in sorted(groups):
        point_isotropy = m.domain.isotropy_order(rep)
        points.append((rep, 1 if slopes[groups[rep][0]] > 0 else -1, point_isotropy))
        total += Fraction(value_isotropy, point_isotropy)
    if total.denominator != 1:
        raise NonIntegralWeightError(f"weighted count {total} is not an integer")
    return int(total), int(total) % 2, points


def scalar_fold(quotient, theta):
    two_pi = 2.0 * math.pi
    theta = theta % two_pi
    if quotient.is_reflection:
        return min(theta, two_pi - theta)
    return theta % quotient.period


def loop_slice_lift(f, x, y):
    """slice_lift with the scalar Newton closure; same checks, same arithmetic."""
    x = slices._as_sphere(x)
    y = slices._as_sphere(y)
    if np.linalg.norm(y - x) > slices.CHART_RADIUS:
        raise PreconditionViolatedError("y lies outside the chart radius")
    tangent_src = orbit_direction(x, f.source.weights)
    if abs(np.vdot(tangent_src, y).real) / np.linalg.norm(tangent_src) > 1e-6:
        raise PreconditionViolatedError("y does not lie in the slice at x")

    r = np.array(f.target.weights)
    c = evaluate_upstairs(f, x)
    w = evaluate_upstairs(f, y)
    inner = w * np.conj(c)

    def residual_and_slope(phi):
        rot = np.exp(1j * r * phi) * inner
        return float(np.sum(r * rot.imag)), float(np.sum(r * r * rot.real))

    support = np.abs(c) > 1e-12
    g_image = int(np.gcd.reduce(r[support]))
    window = np.pi / g_image

    phi = 0.0
    res, slope = residual_and_slope(phi)
    iterations = 0
    while abs(res) >= slices.RESIDUAL_TOL:
        if iterations >= slices.NEWTON_MAX_ITER or slope == 0.0 or abs(phi) >= window:
            raise NewtonDivergedError(f"phase correction stalled at phi={phi:.3g}")
        phi -= res / slope
        res, slope = residual_and_slope(phi)
        iterations += 1
    if abs(phi) >= window:
        raise NewtonDivergedError(f"phase {phi:.3g} left the uniqueness window {window:.3g}")

    corrected = np.exp(1j * r * phi) * w
    src_chart = slice_chart(x, f.source.weights)
    return LiftEvaluation(src_chart.coords(y), corrected, phi, res, iterations)


def loop_numeric_jacobian(f, x):
    """(sign, smallest singular value) from one loop_slice_lift per perturbed point."""
    x = slices._as_sphere(x)
    src = slice_chart(x, f.source.weights)
    c = evaluate_upstairs(f, x)
    tgt = slice_chart(c, f.target.weights)
    dim = src.dimension
    jac = np.empty((dim, dim))
    for k in range(dim):
        cols = []
        for s in (slices.FD_STEP, -slices.FD_STEP):
            coeffs = np.zeros(dim)
            coeffs[k] = s
            lift = loop_slice_lift(f, x, src.point(coeffs))
            cols.append(tgt.frame @ (slices._to_real(lift.corrected) - slices._to_real(c)))
        jac[:, k] = (cols[0] - cols[1]) / (2.0 * slices.FD_STEP)
    smallest = float(np.linalg.svd(jac, compute_uv=False)[-1])
    if smallest <= slices.SV_THRESHOLD:
        raise IrregularPointError(f"smallest singular value {smallest:.3g}")
    return (1 if np.linalg.det(jac) > 0 else -1), smallest
