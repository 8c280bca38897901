"""Floating-point cross-validation of the exact engine via slice charts.

The sphere S^{2n+1} in C^{n+1} carries the weighted circle action
e^{i t} . z = (e^{i q_0 t} z_0, ..., e^{i q_n t} z_n) whose orbit direction at
z is i*(q_0 z_0, ..., q_n z_n).  A slice at z is the piece of the sphere
orthogonal to that direction; the coordinate-power map does not respect
slices, but a unique small rotation k(y) = e^{i phi} pushes the image back
into the target slice.  phi solves a one-real-unknown orthogonality equation
by Newton iteration (the acting group is a circle, so one parameter
suffices, and the correction is unique in the window |phi| < pi/|G_image|).
slice_lift returns that corrected image with its phase, residual and
iteration count; it needs no slice frame, so it builds no chart.

Finite differences of the corrected lift across orthonormal slice frames,
all 2*dim perturbed points lifted in one Newton kernel call, give the
Jacobian whose determinant sign and smallest singular value certify
orientation behaviour and regularity.  Frames are oriented so that (base
point, orbit rotation direction, frame) is positively oriented in the ambient
complex coordinates, which induces the complex orientation on the quotient
uniformly in the weights; holomorphic chart lifts then have sign +1.  A
one-weight space is a point and has no slice frame.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .degree import DEFAULT_ENUMERATION_CAP, preimage_columns
from .errors import IrregularPointError, NewtonDivergedError, PreconditionViolatedError
from .maps import MonomialMap
from .roots import ExactCoordinate, RootOfUnity
from .spaces import WpsOrbifold, WpsPoint

CHART_RADIUS = 0.1  # slice_lift accepts |y - x| up to this
RESIDUAL_TOL = 1e-9  # Newton stops once the slice residual is below this
NEWTON_MAX_ITER = 50
FD_STEP = 1e-5  # central-difference step of numeric_jacobian
SV_THRESHOLD = 1e-6  # a smaller singular value makes the point irregular
FRAME_TOL = 1e-12


def sphere_point(x: WpsPoint) -> np.ndarray:
    """Unit-norm complex representative of an exact point."""
    return _normalize(np.array(x.cvalues(), dtype=complex))


# _to_real, _to_complex and _normalize act along the last axis: on one vector or on rows
def _to_real(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def _to_complex(v: np.ndarray) -> np.ndarray:
    return v[..., 0::2] + 1j * v[..., 1::2]


def _normalize(z: np.ndarray) -> np.ndarray:
    # one vector keeps np.linalg.norm's 1-D path, whose rounding differs from the row-wise one
    norm = np.linalg.norm(z) if z.ndim == 1 else np.linalg.norm(z, axis=-1, keepdims=True)
    if (norm == 0.0).any():
        raise ValueError("cannot normalize the zero vector")
    return z / norm


def evaluate_upstairs(f: MonomialMap, z: np.ndarray) -> np.ndarray:
    """Sphere-normalized coordinate powers z_i -> z_i^{e_i}."""
    w = np.asarray(z, dtype=complex) ** np.array(f.exponents)
    return _normalize(w)


@dataclass(eq=False)
class SliceChart:
    """Orthonormal frame for the slice at ``base`` under the given weights."""

    base: np.ndarray  # complex, unit norm
    weights: tuple[int, ...]
    frame: np.ndarray  # (2n, 2n+2) real rows, orthonormal

    @property
    def dimension(self) -> int:
        return self.frame.shape[0]

    def point(self, coeffs: np.ndarray) -> np.ndarray:
        """Slice point with the given frame coefficients (or one per row), on the sphere."""
        v = _to_real(self.base) + np.asarray(coeffs, dtype=float) @ self.frame
        return _normalize(_to_complex(v))


def orbit_direction(z: np.ndarray, weights: tuple[int, ...]) -> np.ndarray:
    return 1j * np.array(weights) * np.asarray(z, dtype=complex)


def slice_chart(z: np.ndarray, weights: tuple[int, ...]) -> SliceChart:
    if len(weights) == 1:
        raise PreconditionViolatedError("a one-weight space is a point, which has no slice frame")
    z = _normalize(np.asarray(z, dtype=complex))
    base_r = _to_real(z)
    tangent = _to_real(orbit_direction(z, weights))
    tangent /= np.linalg.norm(tangent)
    seed = np.stack([base_r, tangent])
    q_full, _ = np.linalg.qr(seed.T, mode="complete")
    frame = q_full[:, 2:].T.copy()
    # orient: (base, rotation, frame) positively oriented in ambient coordinates
    if np.linalg.det(np.vstack([base_r, tangent, frame])) < 0:
        frame[-1] *= -1.0
    for what, error in (
        ("orthonormal", frame @ frame.T - np.eye(len(frame))),
        ("orthogonal to the base point", frame @ base_r),
        ("orthogonal to the orbit direction", frame @ tangent),
    ):
        # written so that a NaN error also fails
        if not np.max(np.abs(error)) < FRAME_TOL:
            raise PreconditionViolatedError(
                f"slice frame at {z} is not {what} within {FRAME_TOL}; "
                "the point must be finite and nonzero"
            )
    return SliceChart(z, tuple(weights), frame)


@dataclass(eq=False)
class LiftEvaluation:
    corrected: np.ndarray
    phase: float
    residual: float
    iterations: int


def _as_sphere(x, space: WpsOrbifold) -> np.ndarray:
    """Unit-norm representative of x: a WpsPoint of ``space``, or a vector of finite
    coordinates, one per weight of ``space``, not all zero."""
    if isinstance(x, WpsPoint):
        if x.space != space:
            raise ValueError(f"point lives in {x.space}, not in the source {space}")
        return sphere_point(x)
    z = np.asarray(x, dtype=complex)
    n = len(space.weights)
    if z.shape != (n,):
        raise ValueError(f"a point of {space} is a vector of {n} coordinates, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise PreconditionViolatedError(f"point {z} is not finite")
    if not z.any():
        raise PreconditionViolatedError("point is the zero vector, which lies over no point")
    return _normalize(z)


def _corrected(f: MonomialMap, c: np.ndarray, w: np.ndarray):
    """Push each row of w (images f(y), shape m x (n+1)) into the slice at the image c.

    Row b gets the phase phi_b with e^{i phi_b r} . w_b orthogonal to the
    orbit direction at c: one Newton iteration over all rows, from phi = 0,
    until every residual is below RESIDUAL_TOL (a row already below it keeps
    its phase).  Returns (corrected rows, phases, residuals, iterations).
    """
    r = np.array(f.target.weights)
    # alternative corrections differ by 2*pi/g for g the image stabilizer order
    window = np.pi / int(np.gcd.reduce(r[np.abs(c) > 1e-12]))
    # residual(phi) = <e^{i phi r} . w, i*r*c>_R = Im sum_i r_i e^{i r_i phi} w_i conj(c_i)
    inner = w * np.conj(c)
    phi = np.zeros(len(w))
    for iterations in range(NEWTON_MAX_ITER + 1):
        rot = np.exp(1j * r * phi[:, None]) * inner
        res = (r * rot.imag).sum(axis=-1)
        todo = np.abs(res) >= RESIDUAL_TOL
        if not np.abs(phi).max() < window:
            break
        if not todo.any():
            return np.exp(1j * r * phi[:, None]) * w, phi, res, iterations
        slope = (r * r * rot.real).sum(axis=-1)
        if not slope.all(where=todo):
            break
        phi -= np.divide(res, slope, out=np.zeros_like(res), where=todo)
    raise NewtonDivergedError(
        f"phase correction stalled at |phi| up to {np.abs(phi).max():.3g} (window "
        f"{window:.3g}), residual up to {np.abs(res).max():.3g}; retry with y closer to x"
    )


def slice_lift(f: MonomialMap, x, y) -> LiftEvaluation:
    """Correct the image of y into the slice at the image of x.

    Finds the unique phase phi with e^{i phi} . f(y) orthogonal to the orbit
    direction at f(x), by Newton iteration on one real unknown starting at 0,
    down to RESIDUAL_TOL; y must lie within CHART_RADIUS of x.  Both are
    points of f.source: WpsPoints of it or finite coordinate vectors.
    """
    x = _as_sphere(x, f.source)
    y = _as_sphere(y, f.source)
    if np.linalg.norm(y - x) > CHART_RADIUS:
        raise PreconditionViolatedError(
            f"|y - x| = {np.linalg.norm(y - x):.3g} exceeds the chart radius {CHART_RADIUS}"
        )
    tangent_src = orbit_direction(x, f.source.weights)
    if abs(np.vdot(tangent_src, y).real) / np.linalg.norm(tangent_src) > 1e-6:
        raise PreconditionViolatedError("y does not lie in the slice at x")

    corrected, phase, residual, iterations = _corrected(
        f, evaluate_upstairs(f, x), evaluate_upstairs(f, y)[None]
    )
    return LiftEvaluation(corrected[0], float(phase[0]), float(residual[0]), iterations)


@dataclass(frozen=True)
class JacobianCertificate:
    sign: int
    smallest_singular_value: float


def numeric_jacobian(f: MonomialMap, x) -> JacobianCertificate:
    """Central-difference Jacobian (step FD_STEP) of the corrected lift across the slice frames.

    The 2*dim points x +- FD_STEP * frame_k are lifted together.  Returns the
    determinant sign together with the smallest singular value; raises
    IrregularPointError when the latter is at or below SV_THRESHOLD.  x is a
    point of f.source, as in slice_lift.
    """
    x = _as_sphere(x, f.source)
    src = slice_chart(x, f.source.weights)
    c = evaluate_upstairs(f, x)
    tgt = slice_chart(c, f.target.weights)
    steps = FD_STEP * np.eye(src.dimension)  # row k: a step along frame_k
    points = src.point(np.vstack([steps, -steps]))
    plus, minus = np.split(_corrected(f, c, evaluate_upstairs(f, points))[0], 2)
    jac = tgt.frame @ _to_real(plus - minus).T / (2.0 * FD_STEP)
    smallest = float(np.linalg.svd(jac, compute_uv=False)[-1])
    if smallest <= SV_THRESHOLD:
        raise IrregularPointError(
            f"smallest singular value {smallest:.3g} is below the threshold {SV_THRESHOLD:.3g}"
        )
    sign = 1 if np.linalg.det(jac) > 0 else -1
    return JacobianCertificate(sign, smallest)


@dataclass(frozen=True)
class ArcSample:
    value: WpsPoint
    raw_count: int
    weighted_count: int


def ring_values_through_axis(space: WpsOrbifold, axis: int, order: int) -> list[WpsPoint]:
    """The axis point plus a ring of full-support values around it.

    Ring members put exp(2*pi*i*j/order) in every non-axis coordinate; choose
    ``order`` coprime to the weights to keep the points pairwise distinct.
    """
    values = [space.axis_point(axis)]
    for j in range(order):
        coords = [
            ExactCoordinate.one() if i == axis else ExactCoordinate(RootOfUnity(j, order))
            for i in range(len(space.weights))
        ]
        values.append(WpsPoint(space, tuple(coords)))
    return values


def weighted_count_profile(
    f: MonomialMap, values: list[WpsPoint], cap: int | None = DEFAULT_ENUMERATION_CAP
) -> list[ArcSample]:
    """Raw and weighted preimage counts at each sampled regular value."""
    samples = []
    for y in values:
        columns = preimage_columns(f, y, cap)
        samples.append(ArcSample(y, len(columns), len(columns) * columns.weight))
    return samples


def write_count_profile_csv(path, samples: list[ArcSample]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value", "raw_count", "weighted_count"])
        for s in samples:
            writer.writerow([s.value.encode(), s.raw_count, s.weighted_count])
