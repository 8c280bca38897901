"""Benchmark for orbidegree's exact and numeric degree engines.

    python3 bench/run.py --workload fibre-count --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout that holds src/orbidegree.  Set-up time is
the median of several cold starts, each a fresh interpreter that imports
orbidegree and builds the workload's inputs (bench/worker.py --setup-only).
The measured run is one more process that runs only this workload, in one
thread with BLAS threads held to one, for whole passes of the workload's
seeded operation list.  Every output of the first pass is checked against
computations made apart from the program (bench/checks.py), and every later
pass must reproduce the first pass's SHA-256 digests.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  Spans of a traced run are written to
.bench_out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_groups, check_op
from workloads import WORKLOADS, make_specs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH_DIR / "worker.py"

COLD_STARTS = 9
WORKER_TIMEOUT_S = 150
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
}


def _worker(args: list[str], env: dict, timeout: float) -> str:
    done = subprocess.run([sys.executable, str(WORKER), *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with code {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def cold_start(workload: str, seed: int, env: dict) -> tuple[float, float, float]:
    """(wall, import, inputs) seconds of one fresh interpreter that imports
    orbidegree and builds the workload's inputs."""
    began = time.perf_counter()
    line = _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], env, 60)
    wall = time.perf_counter() - began
    child = json.loads(line)
    return wall, child["import_s"], child["inputs_s"]


def setup_metrics(starts: list[tuple[float, float, float]]) -> dict[str, float]:
    walls, imports, inputs = zip(*starts)
    return {"setup_s": statistics.median(walls), "setup.import_s": statistics.median(imports),
            "setup.inputs_s": statistics.median(inputs)}


def check_run(specs: list[dict], report: dict, first_pass: Path):
    """(attempted, failed, problems) of a finished run.

    An operation fails when it raises, or when it is one of the known-fault
    operations and its check fails.  Any other failed check, and any pass
    whose digest differs from the first pass's, is a problem: the run is
    incorrect.
    """
    rows = report["rows"]
    problems = []
    texts: list[str | None] = []
    failing = [False] * len(specs)
    with open(first_pass) as handle:
        outputs = [json.loads(line) for line in handle]
    for spec, out in zip(specs, outputs):
        if not out["ok"]:
            texts.append(None)
            failing[out["index"]] = True
            continue
        texts.append(out["text"])
        errors = check_op(spec, out["text"])
        if errors and spec.get("known_fault"):
            failing[out["index"]] = True
        elif errors:
            problems.extend(f"{spec['label']}: {error}" for error in errors)
    problems.extend(check_groups(specs, texts))

    failed = 0
    for number, row in enumerate(rows):
        for index, (_, ok, digest) in enumerate(row):
            if digest != rows[0][index][2]:
                problems.append(f"pass {number}: {specs[index]['label']} output differs from pass 0")
            failed += (not ok) or failing[index]
    return len(rows) * len(specs), failed, problems


def pass_digest(row) -> str:
    return hashlib.sha256("".join(digest for _, _, digest in row).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbidegree benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbidegree" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'orbidegree'} not found; run from an orbidegree checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, **SINGLE_THREAD}
    env.pop("PYTHONPATH", None)

    # one discarded start fills the page cache and writes the bytecode caches;
    # the measured starts are split around the run so that they sample the
    # machine at more than one moment
    cold_start(args.workload, args.seed, env)
    starts = [cold_start(args.workload, args.seed, env) for _ in range(COLD_STARTS // 2)]
    run_dir = OUT_DIR / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        line = _worker(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--out", str(run_dir)], env, WORKER_TIMEOUT_S)
        report = json.loads(line)
        specs = make_specs(args.workload, args.seed)
        attempted, failed, problems = check_run(specs, report, run_dir / "outputs.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    starts += [cold_start(args.workload, args.seed, env)
               for _ in range(COLD_STARTS - COLD_STARTS // 2)]
    setup = setup_metrics(starts)

    rows = report["rows"]
    walls = [wall for row in rows for wall, _, _ in row]
    digests = {pass_digest(row) for row in rows}
    print(f"workload {args.workload} seed {args.seed}: {len(rows)} passes of {len(specs)} "
          f"operations in {report['elapsed_s']:.1f} s, {attempted} attempted, {failed} failed")
    print(f"digest {args.workload} seed {args.seed} sha256:{pass_digest(rows[0])} "
          f"({'same' if len(digests) == 1 else 'DIFFERENT'} in all {len(rows)} passes)")
    for problem in problems:
        print(f"INCORRECT {problem}")

    throughput = (attempted - failed) / sum(walls)
    if args.trace:
        print(f"traced throughput {throughput:.4f} ops/s; spans in {report['trace_file']}")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in {**report["layers"], "setup.import_s": setup["setup.import_s"],
                                       "setup.inputs_s": setup["setup.inputs_s"]}.items()}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(walls), "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_bytes", "B"),
                         ("_per_point", "us"), ("_per_tuple", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
