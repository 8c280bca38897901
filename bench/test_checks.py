"""The benchmark's correctness checks accept real outputs and reject corrupted ones.

    python3 -m pytest -q bench/test_checks.py

Each test makes a genuine output with the program, checks that it passes,
then corrupts it the way a broken engine might and checks that it is caught.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import make_specs  # noqa: E402

MOD = worker.import_program()


def produce(spec: dict) -> str:
    call, render = worker.build_op(MOD, spec)
    return render(call())


def degree_spec(q, r, e, value) -> dict:
    return {"kind": "degree", "label": "test", "q": q, "r": r, "e": e, "value": value,
            "brute_force": True}


def preimage_spec(q, r, e, value) -> dict:
    argv = ["preimages", "--q", ",".join(map(str, q)), "--r", ",".join(map(str, r)),
            "--e", ",".join(map(str, e)), "--value", ",".join(value)]
    return {"kind": "preimages", "label": "test", "q": q, "r": r, "e": e, "value": value,
            "argv": argv}


def with_json(text: str, change) -> str:
    code, _, body = text.partition("\n")
    data = json.loads(body)
    change(data)
    return f"{code}\n{json.dumps(data)}"


@pytest.mark.parametrize("q,r,e", [((1, 1, 1), (1, 2, 3), (10, 20, 30)),
                                   ((1, 2, 3), (1, 1, 1), (6, 3, 2)),
                                   ((2, 3, 5), (2, 3, 5), (6, 6, 6))])
def test_brute_force_count_matches_closed_form(q, r, e):
    value = ["1/2", "2/3", "3/4"]
    assert checks.brute_force_count(q, r, e, value) == checks.closed_form_degree(q, r, e)


def test_degree_check_rejects_a_wrong_count():
    spec = degree_spec([1, 1, 1], [1, 2, 3], [10, 20, 30], ["1/2", "0/1", "2/5"])
    text = produce(spec)
    assert checks.check_degree(spec, text) == []
    out = json.loads(text)
    out["degree"] += 1
    errors = checks.check_degree(spec, json.dumps(out))
    assert any("closed form" in err for err in errors)
    assert any("brute-force" in err for err in errors)
    out = json.loads(text)
    out["mod2"] ^= 1
    assert checks.check_degree(spec, json.dumps(out))


PREIMAGE = preimage_spec([1, 1, 2], [1, 1, 1], [4, 4, 2], ["1/3", "2/5", "0/1"])
PARTIAL = preimage_spec([1, 1, 1], [1, 5, 6], [1, 5, 6], ["0", "1/4", "2/3"])


@pytest.mark.parametrize("spec", [PREIMAGE, PARTIAL])
def test_preimage_check_accepts_the_program_output(spec):
    assert checks.check_preimages(spec, produce(spec)) == []


def test_preimage_check_rejects_exit_code_and_broken_json():
    text = produce(PREIMAGE)
    assert checks.check_preimages(PREIMAGE, "3" + text[1:])
    assert checks.check_preimages(PREIMAGE, text[: len(text) // 2])


def test_preimage_check_rejects_a_missing_point():
    text = with_json(produce(PREIMAGE), lambda d: d["preimages"].pop())
    assert any("weights sum" in err for err in checks.check_preimages(PREIMAGE, text))


def test_preimage_check_rejects_a_point_off_the_fibre():
    def nudge(data):
        coord = data["preimages"][0]["point"]["coords"][1]
        coord["num"], coord["den"] = coord["num"] * 7 + 1, coord["den"] * 7

    text = with_json(produce(PREIMAGE), nudge)
    assert any("not in the orbit" in err for err in checks.check_preimages(PREIMAGE, text))


def test_preimage_check_rejects_a_repeated_orbit():
    # replace point 1 by point 0 moved along the source circle action by
    # gamma = exp(2*pi*i/5): the same orbit, written another way
    def repeat(data):
        first = data["preimages"][0]["point"]
        coords = []
        for coord, weight in zip(first["coords"], first["weights"]):
            if coord.get("zero"):
                coords.append(coord)
                continue
            den = coord["den"] * 5
            num = (coord["num"] * 5 + weight * coord["den"]) % den
            g = math.gcd(num, den)
            coords.append({"num": num // g, "den": den // g})
        data["preimages"][1]["point"] = {"weights": first["weights"], "coords": coords}

    text = with_json(produce(PREIMAGE), repeat)
    errors = checks.check_preimages(PREIMAGE, text)
    assert errors and all("repeat an orbit" in err for err in errors)


def test_verify_check_rejects_failures_and_empty_reports():
    spec = {"kind": "verify", "label": "test", "argv": ["verify", "counterexample"]}
    text = produce(spec)
    assert checks.check_verify(spec, text) == []
    assert checks.check_verify(spec, "1" + text[1:])

    def fail(data):
        data[0]["passed"] = False

    def empty(data):
        data[0]["cases"] = 0

    assert checks.check_verify(spec, with_json(text, fail))
    assert checks.check_verify(spec, with_json(text, empty))


def numeric_specs() -> dict[str, dict]:
    specs = {}
    for spec in make_specs("numeric", 3):
        specs.setdefault(spec["label"].split(" pair")[0], spec)
    return specs


def test_circle_check_rejects_a_wrong_count():
    spec = numeric_specs()["winding(50)"]
    out = json.loads(produce(spec))
    assert checks.check_circle(spec, json.dumps(out)) == []
    out["count"] -= 2
    assert checks.check_circle(spec, json.dumps(out))
    out["count"] += 1
    assert checks.check_circle(spec, json.dumps(out))


def test_known_undercount_fails_its_check():
    spec = numeric_specs()["winding(1500)"]
    assert spec["known_fault"] and checks.check_circle(spec, produce(spec))


def test_covering_degree_check_rejects_a_wrong_degree():
    spec = numeric_specs()["covering_degree(3,6,2)"]
    assert checks.check_covering_degree(spec, produce(spec)) == []
    assert checks.check_covering_degree(spec, str(spec["expect"] + 1))


def test_jacobian_check_rejects_sign_and_singular_value():
    spec = next(s for s in make_specs("numeric", 3) if s["kind"] == "jacobian")
    out = json.loads(produce(spec))
    assert checks.check_jacobian(spec, json.dumps(out)) == []
    assert checks.check_jacobian(spec, json.dumps({**out, "sign": -1}))
    assert checks.check_jacobian(spec, json.dumps({**out, "sv": "1e-9"}))


def test_lift_check_rejects_a_point_off_the_slice():
    spec = next(s for s in make_specs("numeric", 3) if s["kind"] == "lift")
    out = json.loads(produce(spec))
    assert checks.check_lift(spec, json.dumps(out)) == []
    moved = [list(pair) for pair in out["corrected"]]
    moved[0][1] = repr(float(moved[0][1]) + 1e-6)
    assert checks.check_lift(spec, json.dumps({**out, "corrected": moved}))
    assert checks.check_lift(spec, json.dumps({**out, "phase": repr(float(out["phase"]) + 1e-6)}))
    assert checks.check_lift(spec, json.dumps({**out, "residual": "1e-6"}))


def test_group_checks_reject_fold_and_flat_disagreements():
    specs = [s for s in make_specs("numeric", 3) if "group" in s]
    texts = [produce(s) for s in specs]
    assert checks.check_groups(specs, texts) == []
    for target in ("fold", "flat0"):
        index = next(i for i, s in enumerate(specs) if s["group"] == target)
        out = json.loads(texts[index])
        out["count"] += 1
        out["mod2"] ^= 1
        corrupted = texts[:index] + [json.dumps(out)] + texts[index + 1:]
        assert checks.check_groups(specs, corrupted)


def test_run_check_counts_known_faults_and_rejects_changed_digests(tmp_path):
    specs = [s for s in make_specs("numeric", 3) if s["label"] in ("winding(50)", "winding(1500)")]
    texts = [produce(s) for s in specs]
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
    first = tmp_path / "outputs.jsonl"
    first.write_text("".join(json.dumps({"index": i, "ok": True, "text": t}) + "\n"
                             for i, t in enumerate(texts)))
    rows = [[[0.01, True, d] for d in digests] for _ in range(3)]
    assert run.check_run(specs, {"rows": rows}, first) == (6, 3, [])
    rows[2][0][2] = "0" * 64
    attempted, failed, problems = run.check_run(specs, {"rows": rows}, first)
    assert problems and "differs" in problems[0]
