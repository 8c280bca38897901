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
``dense_brackets`` is the bracket search of the one pass before it took many
values: every target tested against the whole grid image, O(GRID) per
target.  ``scalar_fold`` is the Python-float fold of ``CircleQuotient``
before it took arrays.  ``loop_bisect`` is the root refinement of the one pass before its
Illinois steps: plain bisection of a grid bracket down to REFINE_TOL, about
33 evaluations per root.

``array_probe_refine`` is the Illinois refinement before its probes took
Python floats: _refine, _bisection_point and _checked_root verbatim, each
probe a circle_eval of a 0-d angle (wrapped by this module's _wrap, same
bits), called with the grid's numpy-float bracket ends.

``trig_circle_eval`` and ``masked_flat_bump`` are the map evaluation before
it branched on the kind: cos and sin of every angle, also for power maps that
discard them, and the bump e^{-1/y^2} computed under a mask and scattered
into zeros.

``loop_slice_lift`` is the scalar Newton iteration the slice engine used
before its array kernel: one point, a residual-and-slope closure, Python
floats.  ``loop_numeric_jacobian`` is the Jacobian loop of that time, one
lift per (frame vector, sign) pair, each re-checking its input.

``chart_isotropy``, ``chart_singular_dimension``, ``image_theta_at`` and
``strata_regular_support_values`` are the support rules before they moved
behind spaces.support_isotropy_order, spaces.support_singular_dimension and
degree.support_regularity: isotropy carried the chart weights q_j mod order
and the singular dimension counted their zeros; theta_at built and
canonicalized the image point f(x) to read its isotropy; and the regular
support values built a point for every support of strata(), deduplicated by
a set, and tested each point's regularity with a set of support indices
(``set_regularity_violations``).
"""

import math
from dataclasses import dataclass
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
from orbidegree.maps import MonomialMap, ThetaHom, underlying_image
from orbidegree.roots import ExactCoordinate
from orbidegree.slices import LiftEvaluation, evaluate_upstairs, orbit_direction, slice_chart
from orbidegree.spaces import WpsOrbifold, WpsPoint, strata
from orbidegree.verify import random_monomial_maps


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
    return tuple(None if c.is_zero else Fraction(c.root.num, c.root.order) for c in coords)


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


def array_probe_refine(m, target, lo, hi):
    """Shrink the bracket [lo, hi] around the zero of wrap(circle_eval(theta) - target).

    Illinois regula falsi: each step evaluates the secant point of the
    bracket, where the value kept at an end that survived two steps in a
    row is halved.  A secant point closer than REFINE_TOL/2 to an end is
    moved to REFINE_TOL/2 inside it; that closing probe ends the refinement
    one step after a step lands within REFINE_TOL/2 of the root.  The
    midpoint is taken instead when the two end values do not differ in sign
    (an end evaluated on the 0 = 2*pi seam can round to the wrong side), and
    for every step after as many secant steps as bisection would need, so
    the steps cost at most twice what bisection's do.

    Where the map barely turns, the difference rounds to exactly 0 on a
    stretch around the root.  A step that lands on a stretch wider than
    REFINE_TOL/2 returns the point of it that bisection of [lo, hi] returns,
    evaluating only bisection's midpoints inside the last bracket.
    """

    def g(t: float) -> float:
        return float(_wrap(circle_eval(m, t) - target))

    f_lo = g(lo)
    if f_lo == 0.0:
        return lo
    a, b, f_a, f_b = lo, hi, f_lo, g(hi)
    half = 0.5 * REFINE_TOL
    secant_steps = math.ceil(math.log2((hi - lo) / REFINE_TOL))  # bisection's step count
    kept = 0  # the end that survived the last step: 1 for b, -1 for a
    while b - a >= REFINE_TOL:
        if secant_steps > 0 and (f_a < 0) != (f_b < 0):
            secant_steps -= 1
            theta = a - f_a * (b - a) / (f_b - f_a)
            theta = min(max(theta, a + half), b - half)
        else:
            theta = 0.5 * (a + b)
        f_theta = g(theta)
        if f_theta == 0.0:
            # the difference rounds to 0 over about ulp(2*pi) / slope; the
            # secant slope says whether that may pass REFINE_TOL/2, and two
            # probes confirm it does not
            narrow = (b - a) * math.ulp(TWO_PI) < half * abs(f_b - f_a)
            if narrow and g(theta - half) != 0.0 and g(theta + half) != 0.0:
                return theta
            return _array_probe_bisection_point(g, lo, hi, f_lo, a, b)
        if (f_theta < 0) == (f_a < 0):
            a, f_a = theta, f_theta
            if kept == 1:
                f_b *= 0.5
            kept = 1
        else:
            b, f_b = theta, f_theta
            if kept == -1:
                f_a *= 0.5
            kept = -1
    return _array_probe_checked_root(g, 0.5 * (a + b))


def _array_probe_bisection_point(g, lo, hi, f_lo, a, b):
    """The root bisection of [lo, hi] returns, where g has the sign of f_lo up to a and
    the other sign from b: only the midpoints between a and b are evaluated."""
    while hi - lo >= REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            f_mid = g(mid)
            if f_mid == 0.0:
                return mid
            below = (f_mid < 0) == (f_lo < 0)  # the root lies above mid
        else:
            below = mid <= a
        if below:
            lo = mid
        else:
            hi = mid
    return _array_probe_checked_root(g, 0.5 * (lo + hi))


def _array_probe_checked_root(g, theta):
    if abs(g(theta)) > RESIDUAL_TOL:
        raise NoConvergenceError(f"root refinement stalled near theta={theta:.6f}")
    return theta % TWO_PI


def masked_flat_bump(y):
    """e^{-1/y^2} continued by 0 at y = 0, in a form immune to overflow warnings."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    mask = np.abs(y) > 1e-150  # below this y*y underflows; the true value is 0 anyway
    yy = y[mask]
    out[mask] = np.exp(-1.0 / (yy * yy))
    return out


def trig_circle_eval(m, theta):
    """Angle of the image point on the codomain covering circle, in [0, 2*pi).

    The image is renormalized to the unit circle, which its angle encodes;
    vectorized over array input.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.cos(theta)
    y = np.sin(theta)
    if m.kind == "fold":
        second = y * y
    elif m.kind == "flat_even":
        second = masked_flat_bump(y)
    elif m.kind == "flat_odd":
        second = np.sign(y) * masked_flat_bump(y)
    else:
        return (m.power * theta) % TWO_PI
    return np.arctan2(second, x) % TWO_PI


def dense_brackets(image, targets):
    """(target, step) index pairs of the exact grid hits and of the brackets in a
    grid image, found by testing the whole grid once per target."""
    hits, brackets = [], []
    for t, target in enumerate(targets):
        diff = _wrap(image - target)
        hits += [(t, i) for i in np.flatnonzero(diff[:-1] == 0.0).tolist()]
        # sign flips across the wrap are not roots
        found = np.flatnonzero((diff[:-1] * diff[1:] < 0) & (np.abs(np.diff(diff)) < math.pi))
        brackets += [(t, i) for i in found.tolist()]
    return hits, brackets


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
    if m.codomain.is_reflection and m.codomain.isotropy_order(psi) == 2:
        targets = [psi]  # an endpoint is its own mirror image
    elif m.codomain.is_reflection:
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
    x = slices._as_sphere(x, f.source)
    y = slices._as_sphere(y, f.source)
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

    return LiftEvaluation(np.exp(1j * r * phi) * w, phi, res, iterations)


def loop_numeric_jacobian(f, x):
    """(sign, smallest singular value) from one loop_slice_lift per perturbed point."""
    x = slices._as_sphere(x, f.source)
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


@dataclass(frozen=True)
class ChartIsotropy:
    """Cyclic isotropy Z_order, acting on a centered chart with the given weights mod order."""

    order: int
    chart_weights: tuple[int, ...]


def chart_isotropy(x):
    """Isotropy group of x: cyclic of order gcd{q_i : i in support(x)}.

    Chart weights are q_j mod order for every j other than the slicing
    coordinate (the first support index).
    """
    sup = x.support
    q = x.space.weights
    order = math.gcd(*(q[i] for i in sup))
    i0 = sup[0]
    chart = tuple(q[j] % order for j in range(len(q)) if j != i0)
    return ChartIsotropy(order, chart)


def chart_singular_dimension(x):
    """Real dimension of the chart subspace fixed by the isotropy action.

    Each chart coordinate with weight divisible by the isotropy order
    contributes one fixed complex line (two real dimensions).
    """
    iso = chart_isotropy(x)
    return 2 * sum(1 for w in iso.chart_weights if w == 0)


def image_theta_at(f, x):
    """Isotropy homomorphism of f at x, from Z_{|G_x|} to Z_{|G_{f(x)}|}."""
    mx = chart_isotropy(x).order
    my = chart_isotropy(underlying_image(f, x)).order
    return ThetaHom(mx, my, f.equivariance_degree)


def set_regularity_violations(f, y):
    """(index, exponent) of every coordinate off the support of y with exponent > 1."""
    sup = y.support
    in_support = set(sup)
    return tuple((j, e) for j, e in enumerate(f.exponents) if j not in in_support and e > 1)


def strata_regular_support_values(f):
    """One value per regular support class of the target, ones on the support."""
    values = []
    report = strata(f.target)
    seen = set()
    for record in report.records:
        for comp in record.components:
            sup = comp.support
            if sup is None or sup in seen:
                continue
            seen.add(sup)
            coords = tuple(
                ExactCoordinate.one() if i in sup else ExactCoordinate.zero()
                for i in range(len(f.target.weights))
            )
            y = WpsPoint(f.target, coords)
            if not set_regularity_violations(f, y):
                values.append(y)
    return values


def drawn_maps():
    """Maps from random_monomial_maps(max_n=3) by drawn seed, and maps with drawn weights."""
    seeded = st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random_monomial_maps(1, seed=seed, max_n=3)[0]
    )
    return st.one_of(seeded, maps_with_values().map(lambda pair: pair[0]))


@st.composite
def points_on(draw, space):
    """A point of ``space`` whose coordinates are each zero or a drawn root of unity."""
    coords = []
    for _ in space.weights:
        if draw(st.booleans()):
            coords.append("0")
        else:
            order = draw(st.integers(min_value=1, max_value=12))
            coords.append(f"{draw(st.integers(min_value=0, max_value=order - 1))}/{order}")
    if all(c == "0" for c in coords):
        coords[draw(st.integers(min_value=0, max_value=len(coords) - 1))] = "0/1"
    return space.point(*coords)
