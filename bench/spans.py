"""Spans recorded around calls into orbidegree's public functions.

Tracing is installed from outside the program: for the length of a traced
run, each traced function or method is replaced in every orbidegree module
that holds it by a wrapper that records a span (name, start, end, parent).
Calls made per item (one per point or per map) are folded into one span per
parent that counts its calls and sums their time, so a 10^4-point fibre adds
a handful of spans, not 10^4.  Spans stay in memory and are written out when
the run ends.

A span's self time is its busy time minus the busy time of its children; a
layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields, in order
FIELDS = ("id", "parent", "name", "start", "end", "calls", "busy")

# layers reported as <layer>.self_ms; the cli layer's self time is reported
# split, as cli.overhead_ms plus cli.dumps_ms
SELF_TIME_LAYERS = ("orbits", "degree", "spaces", "maps", "circle", "slices", "verify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._folded: dict[tuple[int, str], list] = {}

    def _enter(self, name: str, fold: bool) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = self._folded.get((parent, name)) if fold else None
        if span is None:
            span = [len(self.spans), parent, name, 0.0, 0.0, 0, 0.0]
            self.spans.append(span)
            if fold:
                self._folded[(parent, name)] = span
        self._stack.append(span)
        return span

    def _exit(self, span: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        if not span[5]:
            span[3] = start
        span[4] = end
        span[5] += 1
        span[6] += end - start

    @contextmanager
    def span(self, name: str):
        span = self._enter(name, False)
        start = time.perf_counter()
        try:
            yield span
        finally:
            self._exit(span, start)

    def wrap(self, name: str, fn, fold: bool = False, on_result=None):
        def traced(*args, **kwargs):
            span = self._enter(name, fold)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span, start)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [span[6] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[6]
        return own

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans, **extra}, handle)


def _replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Point every orbidegree module global bound to ``original`` at ``replacement``."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "orbidegree" and not mod_name.startswith("orbidegree."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def _count_coset_minima(tracer, args, result) -> None:
    tracer.counters["orbits.tuples"] += math.prod(args[0])
    tracer.counters["orbits.representatives"] += len(result)


def _count_preimages(tracer, args, result) -> None:
    tracer.counters["degree.points"] += len(result)


def _count_cases(tracer, args, result) -> None:
    tracer.counters["verify.cases"] += sum(report.cases for report in result)


def _count_newton(tracer, args, result) -> None:
    tracer.counters["slices.newton_iterations"] += result.iterations


class _TracedJson:
    """Stands in for the json module inside orbidegree.cli, timing dumps."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap("cli.dumps", json.dumps)

    def __getattr__(self, attr):
        return getattr(json, attr)


def _degree_span(tracer: Tracer, fn):
    def traced(*args, **kwargs):
        # degree(..., include_preimages=False) only solves the fibre
        with_points = kwargs.get("include_preimages", args[3] if len(args) > 3 else True)
        with tracer.span("degree.degree" if with_points else "degree.solve"):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Trace orbidegree's public calls until the block ends, then restore them."""
    # the package re-exports functions named like its modules (orbidegree.degree
    # is the function), so take the modules from sys.modules
    circle, cli, degree, maps, orbits, slices, spaces, verify = (
        sys.modules[f"orbidegree.{name}"]
        for name in ("circle", "cli", "degree", "maps", "orbits", "slices", "spaces", "verify")
    )
    undo: list[tuple[object, str, object]] = []

    def patch_function(module, attr, replacement):
        undo.extend(_replace_everywhere(getattr(module, attr), replacement))

    def patch_attribute(owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        patch_function(orbits, "coset_minima",
                       tracer.wrap("orbits.coset_minima", orbits.coset_minima,
                                   on_result=_count_coset_minima))
        patch_function(degree, "degree", _degree_span(tracer, degree.degree))
        patch_function(degree, "weighted_cardinality",
                       tracer.wrap("degree.solve", degree.weighted_cardinality))
        patch_function(degree, "preimages",
                       tracer.wrap("degree.preimages", degree.preimages,
                                   on_result=_count_preimages))
        for cls in (degree.PreimageRecord, degree.DegreeResult):
            patch_attribute(cls, "to_json", tracer.wrap("degree.to_json", cls.to_json, fold=True))
        patch_attribute(spaces.WpsPoint, "__post_init__",
                        tracer.wrap("spaces.WpsPoint", spaces.WpsPoint.__post_init__, fold=True))
        patch_attribute(maps.MonomialMap, "__post_init__",
                        tracer.wrap("maps.MonomialMap", maps.MonomialMap.__post_init__, fold=True))
        patch_function(cli, "main", tracer.wrap("cli.main", cli.main))
        patch_attribute(cli, "json", _TracedJson(tracer))
        for suite, fn in list(verify.SUITES.items()):
            undo.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = tracer.wrap(f"verify.{suite}", fn, on_result=_count_cases)
        patch_function(verify, "reports_to_json",
                       tracer.wrap("verify.reports_to_json", verify.reports_to_json))
        patch_function(circle, "circle_degree2",
                       tracer.wrap("circle.circle_degree2", circle.circle_degree2))
        patch_function(circle, "covering_degree",
                       tracer.wrap("circle.covering_degree", circle.covering_degree))
        patch_function(slices, "slice_lift",
                       tracer.wrap("slices.slice_lift", slices.slice_lift,
                                   on_result=_count_newton))
        patch_function(slices, "numeric_jacobian",
                       tracer.wrap("slices.numeric_jacobian", slices.numeric_jacobian))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, each a total over the run divided by the passes made."""
    own = tracer.self_times()
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own_by_name: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    # busy time of coset_minima nested directly in a solve or preimages span
    nested_cosets: dict[str, float] = defaultdict(float)
    names = [span[2] for span in tracer.spans]
    for span, self_s in zip(tracer.spans, own):
        name = span[2]
        busy[name] += span[6]
        calls[name] += span[5]
        own_by_name[name] += self_s
        self_time[name.split(".", 1)[0]] += self_s
        if name == "orbits.coset_minima" and span[1] >= 0:
            nested_cosets[names[span[1]]] += span[6]

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / passes

    def per_call_us(name: str) -> float:
        return 1e6 * busy[name] / calls[name] if calls[name] else 0.0

    counters = tracer.counters
    points = counters["degree.points"]
    materialize = busy["degree.preimages"] - nested_cosets["degree.preimages"]
    out = {
        "orbits.coset_minima_ms": ms(busy["orbits.coset_minima"]),
        "orbits.tuples": counters["orbits.tuples"] / passes,
        "orbits.representatives": counters["orbits.representatives"] / passes,
        "orbits.reps_per_tuple": (counters["orbits.representatives"] / counters["orbits.tuples"]
                                  if counters["orbits.tuples"] else 0.0),
        "degree.solve_ms": ms(busy["degree.solve"] - nested_cosets["degree.solve"]),
        "degree.materialize_ms": ms(materialize),
        "degree.materialize_us_per_point": 1e6 * materialize / points if points else 0.0,
        "degree.points": points / passes,
        # DegreeResult.to_json nests PreimageRecord.to_json: sum self times
        "degree.to_json_ms": ms(own_by_name["degree.to_json"]),
        "spaces.wpspoint_us": per_call_us("spaces.WpsPoint"),
        "spaces.points_built": calls["spaces.WpsPoint"] / passes,
        "cli.main_ms": ms(busy["cli.main"]),
        "cli.dumps_ms": ms(busy["cli.dumps"]),
        "cli.stdout_bytes": counters["cli.stdout_bytes"] / passes,
        "cli.overhead_ms": ms(self_time["cli"] - busy["cli.dumps"]),
        "maps.construct_us": per_call_us("maps.MonomialMap"),
        "circle.circle_degree2_ms": ms(busy["circle.circle_degree2"]),
        "circle.covering_degree_ms": ms(busy["circle.covering_degree"]),
        "circle.roots": counters["circle.roots"] / passes,
        "circle.roots_expected": counters["circle.roots_expected"] / passes,
        "slices.slice_lift_us": per_call_us("slices.slice_lift"),
        "slices.numeric_jacobian_ms": ms(busy["slices.numeric_jacobian"]),
        "slices.lifts": calls["slices.slice_lift"] / passes,
        "slices.newton_iterations": counters["slices.newton_iterations"] / passes,
    }
    for suite in sorted(sys.modules["orbidegree.verify"].SUITES):
        out[f"verify.{suite}_ms"] = ms(busy[f"verify.{suite}"])
    out["verify.cases"] = counters["verify.cases"] / passes
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ms"] = ms(self_time[layer])
    return out
