"""Correctness checks on the program's outputs, computed apart from the program.

Nothing here imports orbidegree.  Exact checks use integer arithmetic on
(numerator, denominator) pairs: a coordinate with turn fraction t stands for
exp(2*pi*i*t), and all fractions of one fibre are written over one common
denominator so that orbit questions become congruences.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

SV_THRESHOLD = 1e-6  # numeric_jacobian's documented regularity threshold
RESIDUAL_TOL = 1e-9  # slice_lift's documented Newton residual tolerance
ROTATION_TOL = 1e-12


def closed_form_degree(q, r, e) -> int:
    """prod(e)/d with d = q_0*e_0/r_0, from the map descriptor alone."""
    d, rem = divmod(q[0] * e[0], r[0])
    if rem or any(qi * ei != d * ri for qi, ei, ri in zip(q, e, r)):
        raise ValueError(f"q={q} r={r} e={e} is not an equivariant coordinate-power map")
    total, rem = divmod(math.prod(e), d)
    if rem:
        raise ValueError(f"prod(e)/d = {math.prod(e)}/{d} is not an integer")
    return total


def parse_turns(text: str):
    """'0' -> None, 'a/m' -> (a, m)."""
    if text == "0":
        return None
    num, den = text.split("/")
    return int(num), int(den)


def _json_turns(coord: dict):
    return None if coord.get("zero") else (int(coord["num"]), int(coord["den"]))


def canonical(weights, support, numerators, denominator) -> tuple[int, ...]:
    """Orbit key of a point under gamma . z_i = gamma^{q_i} z_i.

    The point has turns numerators[k]/denominator on coordinate support[k];
    the denominator must be a multiple of q_{i0} times every coordinate's own
    denominator, i0 = support[0].  The action by exp(2*pi*i*S/denominator)
    adds q_i*S; the S that send coordinate i0 to 1 differ by multiples of
    denominator/q_{i0}, and the key is the least resulting tuple.
    """
    q0 = weights[support[0]]
    best = None
    for k in range(q0):
        shift = (k * denominator - numerators[0]) // q0
        cand = tuple((t + weights[i] * shift) % denominator for t, i in zip(numerators, support))
        if best is None or cand < best:
            best = cand
    return best


def brute_force_count(q, r, e, value) -> int:
    """Weighted preimage count of ``value`` by enumerating Z_{e_1} x ... x Z_{e_k}.

    Every preimage orbit holds a z with z_i^{e_i} = y_i exactly, so the
    preimage points are the distinct source orbits of the tuples
    z_i = exp(2*pi*i*(u_i + b_i)/e_i), b_i in Z_{e_i}, on the support of y.
    Each counts with weight gcd(r_S)/gcd(q_S).
    """
    turns = [parse_turns(v) for v in value]
    support = [i for i, t in enumerate(turns) if t is not None]
    denominator = q[support[0]] * math.lcm(*(turns[i][1] * e[i] for i in support))
    keys = set()
    for digits in itertools.product(*(range(e[i]) for i in support)):
        numerators = [
            (turns[i][0] + b * turns[i][1]) * (denominator // (turns[i][1] * e[i]))
            for b, i in zip(digits, support)
        ]
        keys.add(canonical(q, support, numerators, denominator))
    weight, rem = divmod(math.gcd(*(r[i] for i in support)), math.gcd(*(q[i] for i in support)))
    if rem:
        raise ValueError("isotropy ratio is not an integer")
    return len(keys) * weight


def check_degree(spec: dict, text: str) -> list[str]:
    out = json.loads(text)
    expected = closed_form_degree(spec["q"], spec["r"], spec["e"])
    errors = []
    if out["degree"] != expected or out["weighted_count"] != expected:
        errors.append(f"degree {out['degree']} (weighted count {out['weighted_count']}), "
                      f"closed form prod(e)/d = {expected}")
    if out["mod2"] != expected % 2:
        errors.append(f"mod2 {out['mod2']} for degree {expected}")
    if spec["brute_force"]:
        brute = brute_force_count(spec["q"], spec["r"], spec["e"], spec["value"])
        if out["degree"] != brute:
            errors.append(f"degree {out['degree']}, brute-force orbit count {brute}")
    return errors


def _cli_output(text: str, errors: list[str]):
    code, _, body = text.partition("\n")
    if code != "0":
        errors.append(f"exit code {code}")
        return None
    try:
        return json.loads(body)
    except json.JSONDecodeError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


def check_preimages(spec: dict, text: str) -> list[str]:
    """Exit code 0, parsable JSON, weights summing to prod(e)/d, every point
    mapped onto the value up to the target action, points pairwise distinct."""
    errors: list[str] = []
    data = _cli_output(text, errors)
    if data is None:
        return errors
    q, r, e = spec["q"], spec["r"], spec["e"]
    if data["map"] != {"q": q, "r": r, "e": e}:
        errors.append(f"map descriptor {data['map']}")
    value = [parse_turns(v) for v in spec["value"]]
    support = [i for i, t in enumerate(value) if t is not None]
    point_isotropy = math.gcd(*(q[i] for i in support))
    weight = math.gcd(*(r[i] for i in support)) // point_isotropy
    records = data["preimages"]
    expected = closed_form_degree(q, r, e)
    total = sum(rec["weight"] for rec in records)
    if total != expected:
        errors.append(f"weights sum to {total}, prod(e)/d = {expected}")

    points = []
    for rec in records:
        coords = [_json_turns(c) for c in rec["point"]["coords"]]
        if [i for i, c in enumerate(coords) if c is not None] != support:
            errors.append(f"point {rec['point']} has another support than the value")
            return errors
        if rec["weight"] != weight or rec["isotropy"] != point_isotropy:
            errors.append(f"record weight {rec['weight']} isotropy {rec['isotropy']}, "
                          f"expected {weight} and {point_isotropy}")
        points.append(coords)
    if not points:
        return errors + ["no preimage points"]

    dens = [c[1] for coords in points for c in coords if c is not None]
    dens += [value[i][1] for i in support]
    lcm = math.lcm(*dens)

    # image check: e_i*t_i + r_i*s = u_i (mod 1) on the support, for some s
    r0 = r[support[0]]
    big = r0 * lcm
    target = [value[i][0] * (big // value[i][1]) % big for i in support]
    for coords in points:
        image = [coords[i][0] * e[i] * (big // coords[i][1]) % big for i in support]
        base = target[0] - image[0]
        if not any(
            all((a + r[i] * ((base + k * big) // r0) - u) % big == 0
                for a, u, i in zip(image, target, support))
            for k in range(r0)
        ):
            errors.append(f"point {coords} raised to e={e} is not in the orbit of the value")
            break

    # distinctness as points of CP^n(q), by an orbit key computed here
    q0 = q[support[0]]
    den = q0 * lcm
    keys = {
        canonical(q, support, [coords[i][0] * (den // coords[i][1]) for i in support], den)
        for coords in points
    }
    if len(keys) != len(points):
        errors.append(f"{len(points) - len(keys)} of {len(points)} points repeat an orbit")
    return errors


def check_verify(spec: dict, text: str) -> list[str]:
    errors: list[str] = []
    reports = _cli_output(text, errors)
    if reports is None:
        return errors
    if not reports:
        errors.append("no reports")
    for report in reports:
        if not report["passed"] or report["failures"] or report["cases"] <= 0:
            errors.append(f"report {report['name']}: passed={report['passed']} "
                          f"cases={report['cases']} failures={len(report['failures'])}")
    return errors


def check_circle(spec: dict, text: str) -> list[str]:
    out = json.loads(text)
    errors = []
    if out["mod2"] != out["count"] % 2:
        errors.append(f"mod2 {out['mod2']} for count {out['count']}")
    if "expect" in spec and out["count"] != spec["expect"]:
        errors.append(f"count {out['count']}, expected {spec['expect']}")
    return errors


def check_covering_degree(spec: dict, text: str) -> list[str]:
    count = int(text)
    return [] if count == spec["expect"] else [f"degree {count}, expected m*b/k = {spec['expect']}"]


def check_jacobian(spec: dict, text: str) -> list[str]:
    out = json.loads(text)
    errors = []
    if out["sign"] != 1:
        errors.append(f"sign {out['sign']} on a holomorphic map")
    if not float(out["sv"]) > SV_THRESHOLD:
        errors.append(f"smallest singular value {out['sv']} not above {SV_THRESHOLD}")
    return errors


def _sphere_power(pairs, e) -> list[complex]:
    z = [complex(re, im) ** k for (re, im), k in zip(pairs, e)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in z))
    return [c / norm for c in z]


def check_lift(spec: dict, text: str) -> list[str]:
    """The corrected image is e^{i r phase} . f(y) and lies in the target slice
    at f(x): Im sum_i r_i corrected_i conj(f(x)_i) vanishes."""
    out = json.loads(text)
    r = spec["r"]
    corrected = [complex(float(re), float(im)) for re, im in out["corrected"]]
    c = _sphere_power(spec["x"], spec["e"])
    w = _sphere_power(spec["y"], spec["e"])
    phase = float(out["phase"])
    errors = []
    slice_residual = sum(ri * (z * b.conjugate()).imag for ri, z, b in zip(r, corrected, c))
    if not abs(slice_residual) < RESIDUAL_TOL:
        errors.append(f"corrected point is {slice_residual:.3g} off the target slice")
    rotated = [cmath.exp(1j * ri * phase) * b for ri, b in zip(r, w)]
    gap = max(abs(a - b) for a, b in zip(corrected, rotated))
    if not gap < ROTATION_TOL:
        errors.append(f"corrected point is {gap:.3g} away from e^(i r phase) f(y)")
    if not abs(float(out["residual"])) < RESIDUAL_TOL:
        errors.append(f"reported residual {out['residual']} not under {RESIDUAL_TOL}")
    return errors


CHECKS = {
    "degree": check_degree,
    "preimages": check_preimages,
    "verify": check_verify,
    "circle": check_circle,
    "covering_degree": check_covering_degree,
    "jacobian": check_jacobian,
    "lift": check_lift,
}


def check_op(spec: dict, text: str) -> list[str]:
    try:
        return CHECKS[spec["kind"]](spec, text)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_groups(specs: list[dict], texts: list[str | None]) -> list[str]:
    """Properties across operations: the fold's mod-2 degree differs at the two
    probed values; flat_even and flat_odd agree at each common value."""
    groups: dict[str, list[dict]] = {}
    for spec, text in zip(specs, texts):
        if "group" in spec and text is not None:
            try:
                groups.setdefault(spec["group"], []).append(json.loads(text))
            except ValueError:
                return [f"{spec['label']}: unreadable output"]
    errors = []
    for name, outs in sorted(groups.items()):
        if len(outs) != 2:
            errors.append(f"{name}: {len(outs)} results, expected 2")
        elif name == "fold" and outs[0]["mod2"] == outs[1]["mod2"]:
            errors.append(f"fold: mod2 {outs[0]['mod2']} at both values")
        elif name != "fold" and outs[0]["count"] != outs[1]["count"]:
            errors.append(f"{name}: flat_even count {outs[0]['count']}, "
                          f"flat_odd count {outs[1]['count']}")
    return errors
