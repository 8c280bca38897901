"""The process that runs one workload; started by run.py, one per run.

    python3 bench/worker.py --workload W --seed S --setup-only
        import orbidegree, build the workload's inputs, print the two times
    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR
        run whole passes of the operation list for about T seconds (two at least)

A measuring run writes the first pass's outputs to DIR/outputs.jsonl for
run.py to check, keeps only their digests, and prints one JSON line with
per-operation wall times, per-pass digests and its own peak resident memory.
With --trace 1 it also records spans (spans.py) and writes them to
DIR/../trace-W-seedS.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def import_program():
    """Import orbidegree from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC_DIR))
    import orbidegree

    origin = Path(orbidegree.__file__).resolve()
    if origin.parent.parent != SRC_DIR:
        raise SystemExit(f"orbidegree was imported from {origin}, not from {SRC_DIR}")
    return {name: importlib.import_module(f"orbidegree.{name}")
            for name in ("circle", "cli", "degree", "maps", "slices", "spaces")}


def _complex(pairs):
    import numpy as np

    return np.array([complex(re, im) for re, im in pairs])


def _monomial_map(mod, spec):
    spaces = mod["spaces"]
    return mod["maps"].MonomialMap(
        spaces.WpsOrbifold(tuple(spec["q"])), spaces.WpsOrbifold(tuple(spec["r"])),
        tuple(spec["e"]))


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _cli_call(mod, argv):
    cli = mod["cli"]

    def call():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        return code, captured.getvalue()

    return call, lambda result: f"{result[0]}\n{result[1]}"


def build_op(mod, spec):
    """(call, render) for one spec: call() is the timed program call and
    render(result) turns its result into the text that is digested and checked."""
    kind = spec["kind"]
    if kind == "degree":
        f = _monomial_map(mod, spec)
        y = f.target.point(*spec["value"])
        degree = mod["degree"]

        def render(res):
            return json.dumps({"degree": res.oriented, "mod2": res.mod2,
                               "weighted_count": res.weighted_count, "value": res.value.encode()})

        return (lambda: degree.degree(f, y, include_preimages=False)), render
    if kind in ("preimages", "verify"):
        return _cli_call(mod, spec["argv"])
    if kind == "circle":
        circle = mod["circle"]
        name, *args = spec["map"]
        m = getattr(circle.CircleMap, name)(*args)
        value = spec["value"]

        def render(res):
            points = [[repr(p.angle), p.derivative_sign, p.isotropy_order]
                      for p in res.preimages.points]
            return json.dumps({"count": res.weighted_count, "mod2": res.mod2, "points": points})

        return (lambda: circle.circle_degree2(m, value)), render
    if kind == "covering_degree":
        circle = mod["circle"]
        args, value = tuple(spec["args"]), spec["value"]
        return (lambda: circle.covering_degree(*args, value=value)), str
    if kind == "jacobian":
        slices = mod["slices"]
        f, x = _monomial_map(mod, spec), _complex(spec["x"])

        def render(cert):
            return json.dumps({"sign": cert.sign, "sv": repr(cert.smallest_singular_value)})

        return (lambda: slices.numeric_jacobian(f, x)), render
    if kind == "lift":
        slices = mod["slices"]
        f, x, y = _monomial_map(mod, spec), _complex(spec["x"]), _complex(spec["y"])

        def render(lift):
            return json.dumps({
                "phase": repr(lift.phase), "residual": repr(lift.residual),
                "iterations": lift.iterations,
                "corrected": [_floats((c.real, c.imag)) for c in lift.corrected],
            })

        return (lambda: slices.slice_lift(f, x, y)), render
    raise ValueError(f"unknown operation kind {kind!r}")


def _count_result(tracer, spec, result) -> None:
    """Counters only the benchmark can see: expected root counts and stdout size."""
    if spec["kind"] in ("preimages", "verify"):
        tracer.counters["cli.stdout_bytes"] += len(result[1].encode())
    elif "expect" in spec:
        found = result if spec["kind"] == "covering_degree" else len(result.preimages.points)
        tracer.counters["circle.roots"] += found
        tracer.counters["circle.roots_expected"] += spec["expect"]


def _another_pass(rows: list, elapsed: float, seconds: float) -> bool:
    """Stop at the pass boundary nearest to ``seconds``, after two passes at least."""
    return len(rows) < 2 or elapsed + 0.5 * elapsed / len(rows) < seconds


def run_passes(ops, specs, seconds: float, out_path: Path, tracer):
    """Whole passes for about ``seconds``; a pass is never cut short."""
    rows = []  # one list per pass of [wall seconds, ok, sha256 of the output text]
    start = time.perf_counter()
    with open(out_path, "w") as first_pass:
        while _another_pass(rows, time.perf_counter() - start, seconds):
            row = []
            for index, ((call, render), spec) in enumerate(zip(ops, specs)):
                span = tracer.span(f"bench.{spec['kind']}") if tracer else contextlib.nullcontext()
                with span:
                    began = time.perf_counter()
                    try:
                        result = call()
                        ok = True
                    except Exception as exc:  # the run goes on; the operation counts as failed
                        ok = False
                        error = f"error: {type(exc).__name__}: {exc}"
                        if not rows:
                            traceback.print_exc(file=sys.stderr)
                    wall = time.perf_counter() - began
                if ok:
                    text = render(result)
                    if tracer:
                        _count_result(tracer, spec, result)
                    result = None
                else:
                    text = error
                row.append([wall, ok, hashlib.sha256(text.encode()).hexdigest()])
                if not rows:
                    first_pass.write(json.dumps({"index": index, "ok": ok, "text": text}) + "\n")
            rows.append(row)
    return rows, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    from workloads import make_specs

    began = time.perf_counter()
    mod = import_program()
    imported = time.perf_counter()
    specs = make_specs(args.workload, args.seed)
    ops = [build_op(mod, spec) for spec in specs]
    built = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"import_s": imported - began, "inputs_s": built - imported}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        with spans.installed(tracer):
            rows, elapsed = run_passes(ops, specs, args.seconds, args.out / "outputs.jsonl", tracer)
    else:
        rows, elapsed = run_passes(ops, specs, args.seconds, args.out / "outputs.jsonl", None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"rows": rows, "elapsed_s": elapsed, "peak_rss_mb": peak_rss_mb}
    if tracer:
        report["layers"] = spans.layer_metrics(tracer, len(rows))
        trace_path = args.out.parent / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "passes": len(rows), "metrics": report["layers"]})
        report["trace_file"] = str(trace_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
