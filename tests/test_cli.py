import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oracles import coordinate_turns, loop_canonical_turns, maps_with_values
from orbidegree.cli import main
from orbidegree.degree import degree, degree_closed_form, preimages
from orbidegree.maps import MonomialMap


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_strata_wps(capsys):
    code, out, _ = run_cli(capsys, "strata", "--wps", "1,3")
    assert code == 0
    data = json.loads(out)
    assert data["codim1_empty"] is True
    assert data["orientable"] is True
    singular = [
        comp
        for rec in data["strata"]
        if not rec["open_dense"]
        for comp in rec["components"]
    ]
    assert singular == [
        {"support": [1], "isotropy": 3, "description": "points with support {1}"}
    ]


def test_strata_circle_reflection(capsys):
    code, out, _ = run_cli(capsys, "strata", "--circle", "reflection")
    assert code == 0
    data = json.loads(out)
    assert data["codim1_empty"] is False
    orders = [c["isotropy"] for rec in data["strata"] for c in rec["components"]]
    assert orders.count(2) == 2


def test_strata_trivial_weights(capsys):
    code, out, _ = run_cli(capsys, "strata", "--wps", "1,1")
    data = json.loads(out)
    assert code == 0
    assert all(c["isotropy"] == 1 for rec in data["strata"] for c in rec["components"])


def test_strata_invalid_weights_exit_2(capsys):
    code, _, err = run_cli(capsys, "strata", "--wps", "2,4")
    assert code == 2
    assert "gcd" in err


def test_degree_examples(capsys):
    for q, r, e, expected in (
        ("1,1", "1,3", "1,3", 3),
        ("1,2,3", "1,1,1", "6,3,2", 6),
        ("1,1", "1,1", "1,1", 1),
    ):
        code, out, _ = run_cli(capsys, "degree", "--q", q, "--r", r, "--e", e)
        assert code == 0
        assert json.loads(out)["degree"] == expected


def test_degree_not_regular_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "degree", "--q", "1,1,1", "--r", "1,1,5", "--e", "1,1,5",
        "--value", "0/1,0,0",
    )
    assert code == 3
    assert "critical" in err


def test_degree_not_equivariant_exit_4(capsys):
    code, _, _ = run_cli(capsys, "degree", "--q", "1,2", "--r", "1,3", "--e", "1,1")
    assert code == 4


def test_degree_cap_exit_5(capsys):
    code, _, _ = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--cap", "2"
    )
    assert code == 5


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ORBIDEGREE_ENUM_CAP", "2")
    code, _, _ = run_cli(capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3")
    assert code == 5
    # explicit flag beats the environment
    code, out, _ = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--cap", "100"
    )
    assert code == 0 and json.loads(out)["degree"] == 3


def test_raised_cap_on_a_fibre_of_4e12_tuples(capsys, monkeypatch):
    # N = 4*10**12 tuples, far past the default cap, with two representatives
    monkeypatch.setenv("ORBIDEGREE_ENUM_CAP", str(10**15))
    code, out, err = run_cli(
        capsys, "degree", "--q", f"1,{10**12}", "--r", "1,1", "--e", f"{2 * 10**12},2"
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["degree"] == 2 and len(data["preimages"]) == 2


def test_memory_error_exit_5(capsys, monkeypatch):
    import orbidegree.cli as cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "degree", out_of_memory)
    code, out, err = run_cli(capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3")
    assert code == 5
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_preimages_nonsmooth_regular(capsys):
    code, out, _ = run_cli(
        capsys, "preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3",
        "--value", "0,0/1",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["preimages"]) == 1
    assert data["preimages"][0]["weight"] == 3
    assert data["preimages"][0]["sign"] == 1


def test_preimages_requires_value(capsys):
    code, _, _ = run_cli(capsys, "preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3")
    assert code == 2


def test_bad_value_encoding_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "x,1"
    )
    assert code == 2


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["passed"]


def test_verify_multiplicativity_seeded(capsys):
    code, out, _ = run_cli(capsys, "verify", "multiplicativity", "--seed", "7")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out))


def test_verify_output_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "covering", "--seed", "0")
    _, second, _ = run_cli(capsys, "verify", "covering", "--seed", "0")
    assert first == second
    _, d1, _ = run_cli(capsys, "degree", "--q", "2,3", "--r", "1,1", "--e", "3,2")
    _, d2, _ = run_cli(capsys, "degree", "--q", "2,3", "--r", "1,1", "--e", "3,2")
    assert d1 == d2


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--format", "text"
    )
    assert code == 0
    assert "degree 3" in out
    code, out, _ = run_cli(capsys, "verify", "counterexample", "--format", "text")
    assert code == 0
    assert "PASS" in out


def test_config_file(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cap": 2, "format": "json"}))
    code, _, _ = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3",
        "--config", str(config),
    )
    assert code == 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"caps": 2}))
    code, _, err = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--config", str(bad)
    )
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("text", [
    '{"cap": "abc"}',
    '{"cap": 2.5}',
    '{"cap": true}',
    '{"seed": "7"}',
    '{"seed": null}',
    '{"format": "yaml"}',
    '"rst"',
    '[1, 2]',
    '{"residual_tol": 1e-9}',
    '{"derivative_threshold": 1e-8}',
    '{"fd_step": 1e-5}',
    '{"cap": ',
])
def test_invalid_config_exits_2(capsys, tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run_cli(
        capsys, "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--config", str(config)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_config_cap_null_means_no_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ORBIDEGREE_ENUM_CAP", raising=False)
    argv = ["degree", "--q", "1,1", "--r", "1,1", "--e", "4000,4000", "--format", "text"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 5  # 1.6e7 tuples exceed the default cap of 10^7
    config = tmp_path / "config.json"
    config.write_text('{"cap": null, "seed": 3}')
    code, out, _ = run_cli(capsys, *argv, "--config", str(config))
    assert code == 0
    assert out.startswith("degree 4000 ")


def test_unknown_suite_exit_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "nope")
    assert code == 2


def test_verify_failure_exit_1(capsys, monkeypatch):
    import orbidegree.verify as verify_mod
    from orbidegree.verify import PropertyReport

    def failing_suite(seed):
        report = PropertyReport("broken", "a deliberately failing suite")
        report.record(False, {"witness": "injected"})
        return [report]

    monkeypatch.setitem(verify_mod.SUITES, "broken", failing_suite)
    code, out, _ = run_cli(capsys, "verify", "broken")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["failures"] == [{"witness": "injected"}]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _map_args(f, y):
    q, r, e = (",".join(map(str, v)) for v in (f.source.weights, f.target.weights, f.exponents))
    return ["--q", q, "--r", r, "--e", e, "--value", y.encode()]


@settings(max_examples=100, deadline=None)
@given(maps_with_values())
def test_json_written_from_columns_matches_scalar_records(data):
    f, y = data
    records = preimages(f, y)
    payload = {
        "map": f.descriptor(),
        "value": y.to_json(),
        "preimages": [rec.to_json() for rec in records],
    }
    assert _stdout(["preimages", *_map_args(f, y)]) == json.dumps(payload, indent=2) + "\n"
    assert _stdout(["degree", *_map_args(f, y)]) == json.dumps(
        degree(f, y).to_json(), indent=2
    ) + "\n"


def test_denominators_past_int64_do_not_wrap():
    # canonical denominators near 2*10**24: the columns fall back to Python ints
    argv = ["preimages", "--q", "2,3,5", "--r", "2,3,5", "--e", "6,6,6",
            "--value", "1/999999999989,5/999999999959,7/999999999961"]
    text = _stdout(argv)
    f = MonomialMap.from_descriptor({"q": [2, 3, 5], "r": [2, 3, 5], "e": [6, 6, 6]})
    y = f.target.point(*argv[-1].split(","))
    assert max(c.root.order for c in y.coords) > 2**63
    records = preimages(f, y)
    assert len(records) == degree_closed_form(f) == 36
    payload = {"map": f.descriptor(), "value": y.to_json(),
               "preimages": [rec.to_json() for rec in records]}
    assert text == json.dumps(payload, indent=2) + "\n"
    printed = [
        tuple(Fraction(c["num"], c["den"]) for c in rec["point"]["coords"])
        for rec in json.loads(text)["preimages"]
    ]
    assert max(t.denominator for point in printed for t in point) > 2**63
    # the residual loop (q0 = 2 scalings) over all 216 tuples gives the same 36 points
    y_turns = coordinate_turns(y.coords)
    expected = {
        loop_canonical_turns(f.source.weights, [(t + b) / 6 for t, b in zip(y_turns, digits)])
        for digits in itertools.product(range(6), repeat=3)
    }
    assert len(set(printed)) == len(printed) and set(printed) == expected


def test_preimages_text_format(capsys):
    code, out, _ = run_cli(capsys, "preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3",
                           "--value", "1/2,1/5", "--format", "text")
    assert code == 0
    assert out == "3 preimage points\n"
