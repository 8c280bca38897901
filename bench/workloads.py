"""Seeded operation lists for the four benchmark workloads.

Everything here is plain data: the benchmark process and the correctness
checks use the same specs without importing orbidegree.  A spec is a dict
with a ``kind`` (which program call the operation makes), a ``label`` and
the call's arguments.  The seed only varies inputs whose cost does not
depend on them (probed values, angles, points, ``verify`` seeds), so every
seed gives the same mix of work and the figures of two seeds compare.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("fibre-count", "preimage-json", "numeric", "verify-all")

# (q, r, e) of coordinate-power maps CP^n(q) -> CP^n(r).  Fibre sizes
# N = prod(e) run from 2550 to 8e6; the residual subgroup order L (noted in
# the comment) falls on both sides of the small/large split at 64 in
# orbits.coset_minima, with L = 1 at both ends of the size range.
FIBRE_SHAPES = (
    ((1, 1, 1), (1, 1, 1), (200, 200, 200)),  # N 8e6, L 200
    ((1, 1, 1), (1, 1, 1), (60, 60, 60)),  # N 216000, L 60
    ((1, 1), (1, 1), (1000, 1000)),  # N 1e6, L 1000
    ((1, 1, 1), (1, 1, 1), (64, 64, 64)),  # N 262144, L 64 (small side)
    ((1, 1, 1), (1, 1, 1), (65, 65, 65)),  # N 274625, L 65 (large side)
    ((1, 1, 1), (1, 2000, 2001), (1, 2000, 2001)),  # N 4002000, L 1
    ((1, 1, 1), (1, 50, 51), (1, 50, 51)),  # N 2550, L 1
    ((1, 2, 3), (1, 1, 1), (60, 30, 20)),  # N 36000, L 60
    ((1, 1, 1), (1, 2, 3), (10, 20, 30)),  # N 6000, L 10
    ((1, 1), (1, 1), (100, 100)),  # N 10000, L 100
    ((1, 1, 1), (1, 1, 1), (20, 20, 20)),  # N 8000, L 20
)

# Fibres up to this many tuples are also counted by brute force.
BRUTE_FORCE_MAX = 10_000

# (q, r, e, support) for the CLI `preimages` command: small L, 800 to 10100
# points, values with full and with partial support.
PREIMAGE_SHAPES = (
    ((1, 1, 1), (1, 50, 51), (1, 50, 51), (0, 1, 2)),
    ((1, 1, 1), (1, 50, 51), (1, 50, 51), (1, 2)),
    ((1, 1, 1, 1), (1, 1, 40, 41), (1, 1, 40, 41), (0, 2, 3)),
    ((1, 1, 1, 1), (1, 1, 40, 41), (1, 1, 40, 41), (0, 1, 2, 3)),
    ((1, 1, 2), (1, 1, 1), (40, 40, 20), (0, 1, 2)),
    ((2, 3, 5), (2, 3, 5), (30, 30, 30), (0, 1, 2)),
    ((1, 1, 1), (1, 100, 101), (1, 100, 101), (1, 2)),
)

VALUE_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)

WINDING_ORDERS = (7, 50, 300, 1000)
# circle._upstairs_roots samples a fixed 4096-point grid and drops roots once
# a grid step turns by pi/2 or more, so winding(k) undercounts for k > 1024.
# These operations fail every time on fixed inputs until that is mended.
UNDERCOUNTED_WINDINGS = (1500, 3000, 9000)
UNDERCOUNT_VALUE = 0.3
COVERING_ORDERS = (2, 3, 4, 5, 6)
# (group order k, power m, target group order b) with k | m*b
COVERING_DEGREE_CASES = ((2, 2, 1), (2, 4, 1), (3, 6, 2), (4, 8, 2), (6, 6, 1))
FLAT_PAIRS = 3
# Holomorphic maps given as (q, r, e) for numeric_jacobian and slice_lift.
NUMERIC_MAPS = (
    ((1, 1), (1, 3), (1, 3)),
    ((1, 1, 1), (1, 2, 3), (1, 2, 3)),
    ((1, 2), (1, 3), (2, 3)),
)
JACOBIANS_PER_MAP = 2
LIFTS_PER_MAP = 4
LIFT_STEP = 0.03

VERIFY_SEEDS_PER_PASS = 6


def make_specs(workload: str, seed: int) -> list[dict]:
    """The fixed operation list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fibre-count":
        return [_degree_spec(rng, q, r, e) for q, r, e in FIBRE_SHAPES]
    if workload == "preimage-json":
        return [_preimage_spec(rng, *shape) for shape in PREIMAGE_SHAPES]
    if workload == "numeric":
        return _numeric_specs(rng)
    if workload == "verify-all":
        seeds = rng.sample(range(1_000_000), VERIFY_SEEDS_PER_PASS)
        return [
            {"kind": "verify", "label": f"verify all --seed {s}",
             "argv": ["verify", "all", "--seed", str(s)]}
            for s in seeds
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _root(rng: random.Random) -> str:
    den = rng.choice(VALUE_DENOMINATORS)
    return f"{rng.randrange(den)}/{den}"


def _degree_spec(rng, q, r, e) -> dict:
    value = [_root(rng) for _ in q]
    return {
        "kind": "degree",
        "label": "e=" + "x".join(map(str, e)),
        "q": list(q), "r": list(r), "e": list(e), "value": value,
        "brute_force": math.prod(e) <= BRUTE_FORCE_MAX,
    }


def _preimage_spec(rng, q, r, e, support) -> dict:
    value = [_root(rng) if i in support else "0" for i in range(len(q))]
    argv = ["preimages", "--q", _csv(q), "--r", _csv(r), "--e", _csv(e), "--value", ",".join(value)]
    return {
        "kind": "preimages",
        "label": f"e={'x'.join(map(str, e))} support={''.join(map(str, support))}",
        "q": list(q), "r": list(r), "e": list(e), "value": value, "argv": argv,
    }


def _csv(values) -> str:
    return ",".join(map(str, values))


def _unit_vector(rng: random.Random, n: int) -> list[list[float]]:
    """A sphere point in C^n with every modulus bounded away from zero."""
    moduli = [rng.uniform(0.5, 1.0) for _ in range(n)]
    norm = math.sqrt(sum(m * m for m in moduli))
    out = []
    for m in moduli:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out.append([m / norm * math.cos(phase), m / norm * math.sin(phase)])
    return out


def _numeric_specs(rng: random.Random) -> list[dict]:
    two_pi = 2.0 * math.pi
    specs = []
    for base in (0.5 * math.pi, 1.5 * math.pi):
        specs.append({"kind": "circle", "label": f"fold at {base:.3f}+d", "map": ["fold"],
                      "value": base + rng.uniform(-0.5, 0.5), "group": "fold"})
    for pair in range(FLAT_PAIRS):
        value = rng.uniform(0.3, math.pi - 0.3)
        for name in ("flat_even", "flat_odd"):
            specs.append({"kind": "circle", "label": f"{name} pair {pair}", "map": [name],
                          "value": value, "group": f"flat{pair}"})
    for k in WINDING_ORDERS:
        specs.append({"kind": "circle", "label": f"winding({k})", "map": ["winding", k],
                      "value": rng.uniform(0.0, two_pi), "expect": k})
    for k in UNDERCOUNTED_WINDINGS:
        specs.append({"kind": "circle", "label": f"winding({k})", "map": ["winding", k],
                      "value": UNDERCOUNT_VALUE, "expect": k, "known_fault": True})
    for k in COVERING_ORDERS:
        specs.append({"kind": "circle", "label": f"covering_projection({k})",
                      "map": ["covering_projection", k],
                      "value": rng.uniform(0.05, 0.95) * two_pi / k, "expect": k})
    for k, m, b in COVERING_DEGREE_CASES:
        specs.append({"kind": "covering_degree", "label": f"covering_degree({k},{m},{b})",
                      "args": [k, m, b], "value": rng.uniform(0.05, 0.95) * two_pi / b,
                      "expect": m * b // k})
    for q, r, e in NUMERIC_MAPS:
        for _ in range(JACOBIANS_PER_MAP):
            specs.append({"kind": "jacobian", "label": f"numeric_jacobian e={e}",
                          "q": list(q), "r": list(r), "e": list(e),
                          "x": _unit_vector(rng, len(q))})
        for _ in range(LIFTS_PER_MAP):
            x = _unit_vector(rng, len(q))
            specs.append({"kind": "lift", "label": f"slice_lift e={e}",
                          "q": list(q), "r": list(r), "e": list(e),
                          "x": x, "y": _slice_neighbour(rng, x, q)})
    return specs


def _slice_neighbour(rng: random.Random, x: list[list[float]], q) -> list[list[float]]:
    """A point LIFT_STEP away from x in the slice at x.

    The step is a random real vector made orthogonal (real inner product) to
    x and to the orbit direction i*q*x, then renormalized onto the sphere.
    """
    xr = [c for pair in x for c in pair]
    tangent = []
    for (re, im), w in zip(x, q):
        tangent += [-w * im, w * re]  # i*w*(re + i*im)
    step = [rng.gauss(0.0, 1.0) for _ in xr]
    for axis in (xr, _normalized(tangent)):
        dot = sum(a * b for a, b in zip(step, axis))
        step = [s - dot * a for s, a in zip(step, axis)]
    step = [LIFT_STEP * s for s in _normalized(step)]
    y = _normalized([a + s for a, s in zip(xr, step)])
    return [[y[2 * i], y[2 * i + 1]] for i in range(len(x))]


def _normalized(v: list[float]) -> list[float]:
    norm = math.sqrt(sum(a * a for a in v))
    return [a / norm for a in v]
