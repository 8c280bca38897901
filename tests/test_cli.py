import contextlib
import importlib
import io
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _divisors, coordinate_turns, loop_canonical_turns, maps_with_values
from orbidegree import verify as verify_mod
from orbidegree.cli import build_parser, main
from orbidegree.degree import degree, degree_closed_form, preimages
from orbidegree.maps import MonomialMap
from orbidegree.orbits import coset_minima


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (("degree", "--q", "1,1", "--r", "1,3", "--e", "x"), "--e"),
        (("degree", "--q", "1,y", "--r", "1,3", "--e", "1,3"), "--q"),
        (("preimages", "--q", "1,1", "--r", "1,", "--e", "1,3", "--value", "0,1/3"), "--r"),
        (("strata", "--wps", "1,a"), "--wps"),
        (("strata", "--circle", "rotation:x"), "--circle"),
        (("degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "1/,0"), "'1/'"),
        (("preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "0,a/3"), "'a/3'"),
        (("degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "1/0,1"), "'1/0'"),
        (("degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "1/-3,0"), "'1/-3'"),
        (("ORBIDEGREE_ENUM_CAP=abc", "degree", "--q", "1,1", "--r", "1,3", "--e", "1,3"),
         "ORBIDEGREE_ENUM_CAP"),
        (("strata", "--circle", "rotation3"), "--circle"),
        (("strata", "--circle", "rotationfoo"), "--circle"),
        (("strata", "--circle", "rotation:"), "--circle"),
        (("strata", "--circle", "rotation:0"), "rotation order must be >= 1"),
    ],
)
def test_input_errors_name_the_bad_field(capsys, monkeypatch, argv, named):
    # leading NAME=value items set environment variables, as on a shell line
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "invalid literal" not in err and "weights must" not in err


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


@pytest.mark.parametrize("source, named", [
    ("flag", "--cap"),
    ("env", "ORBIDEGREE_ENUM_CAP"),
    ("file", "config cap"),
])
def test_negative_cap_is_invalid_at_every_source(capsys, monkeypatch, tmp_path, source, named):
    # a negative cap is refused as input naming its source; a cap of 0 is exceeded
    monkeypatch.delenv("ORBIDEGREE_ENUM_CAP", raising=False)
    for cap, expected in ((-5, 2), (0, 5)):
        argv = ["degree", "--q", "1,1", "--r", "1,3", "--e", "1,3"]
        if source == "flag":
            argv += ["--cap", str(cap)]
        elif source == "env":
            monkeypatch.setenv("ORBIDEGREE_ENUM_CAP", str(cap))
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"cap": cap}))
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (expected, "")
        assert err.startswith("error: ") and (named in err) == (cap < 0)


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_verify_holds_its_fibres_to_the_cap(capsys, monkeypatch, tmp_path, source):
    # the suites that enumerate fibres stop at the cap; the circle suites count none
    monkeypatch.delenv("ORBIDEGREE_ENUM_CAP", raising=False)
    for suite, cap, expected in (("value-independence", 1, 5), ("counterexample", 0, 0)):
        argv = ["verify", suite]
        if source == "flag":
            argv += ["--cap", str(cap)]
        elif source == "env":
            monkeypatch.setenv("ORBIDEGREE_ENUM_CAP", str(cap))
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"cap": cap}))
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert code == expected
        if expected:
            assert out == ""
            assert re.fullmatch(r"error: fibre needs \d+ tuples, cap is 1\n", err)
        else:
            assert json.loads(out)[0]["passed"]


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
    from orbidegree.verify import PropertyReport

    def failing_suite(seed, cap):
        report = PropertyReport("broken", "a deliberately failing suite")
        report.record(False, lambda: {"witness": "injected"})
        return [report]

    monkeypatch.setitem(verify_mod.SUITES, "broken", failing_suite)
    code, out, _ = run_cli(capsys, "verify", "broken")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["failures"] == [{"witness": "injected"}]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("suite", sorted(verify_mod.SUITES) + ["all"])
def test_verify_report_writer_equals_json_dumps(capsys, suite, seed):
    code, out, _ = run_cli(capsys, "verify", suite, "--seed", str(seed))
    reports = verify_mod.run_suite(suite, seed=seed)
    assert code == (0 if all(r.passed for r in reports) else 1)
    assert out == json.dumps(verify_mod.reports_to_json(reports), indent=2) + "\n"


def test_verify_report_writer_equals_json_dumps_on_failures(capsys, monkeypatch):
    # the injected miscount of test_verify: nested witnesses in two failing reports
    f = MonomialMap.from_projective((1, 1, 5))
    real = verify_mod.weighted_cardinality
    wrong = {f.target.axis_point(2), f.target.point("3/5", "1/5", "4/5")}

    def miscount(f, y, cap):
        return real(f, y, cap) + (y in wrong)

    monkeypatch.setattr(verify_mod, "weighted_cardinality", miscount)
    reports = [
        verify_mod.check_value_independence(f),
        verify_mod.check_local_constancy(f, f.target.all_ones(), perturbations=4),
        verify_mod.check_value_independence(MonomialMap.from_projective((2, 3, 5))),
    ]
    assert [r.passed for r in reports] == [False, False, True]
    monkeypatch.setattr(verify_mod, "run_suite", lambda *args, **kwargs: reports)
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out == json.dumps(verify_mod.reports_to_json(reports), indent=2) + "\n"


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


class _LengthOnly:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


def test_preimage_json_is_held_once():
    # 10100 points at a support-{1,2} value, 3.9 MB of JSON: the writer must
    # not hold a second copy of it while joining
    argv = ["preimages", "--q", "1,1,1", "--r", "1,100,101", "--e", "1,100,101",
            "--value", "0,1/3,2/7"]
    with contextlib.redirect_stdout(_LengthOnly()):
        main(argv)  # warm caches, so only the command's own memory is traced
    out = _LengthOnly()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.length > 3_000_000
    assert peak < 2 * out.length


def test_preimages_text_format(capsys):
    code, out, _ = run_cli(capsys, "preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3",
                           "--value", "1/2,1/5", "--format", "text")
    assert code == 0
    assert out == "3 preimage points\n"


def test_degree_json_solves_the_fibre_once(monkeypatch):
    degree_mod = importlib.import_module("orbidegree.degree")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return coset_minima(*args, **kwargs)

    monkeypatch.setattr(degree_mod, "coset_minima", counting)
    text = _stdout(["degree", "--q", "1,2,3", "--r", "1,1,1", "--e", "6,3,2", "--value", "1/3,0/1,2/5"])
    assert len(calls) == 1
    assert len(json.loads(text)["preimages"]) == 6


def _isolated(argv):
    """(exit code, stdout) of one main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _fresh_parser(argv):
    """(exit code, stdout) of one main call with a newly built parser."""
    build_parser.cache_clear()
    return _isolated(argv)


@pytest.mark.parametrize("first, second", [
    (["degree", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--format", "text"],
     ["degree", "--q", "1,1", "--r", "1,3", "--e", "1,3"]),
    (["degree", "--q", "1,1", "--r", "1,5", "--e", "1,5", "--cap", "4"],
     ["degree", "--q", "1,1", "--r", "1,5", "--e", "1,5"]),
    (["preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "1/2,1/5",
      "--format", "text", "--cap", "2"],
     ["preimages", "--q", "1,1", "--r", "1,3", "--e", "1,3", "--value", "1/2,1/5"]),
])
def test_flags_do_not_carry_over_between_calls(monkeypatch, first, second):
    monkeypatch.delenv("ORBIDEGREE_ENUM_CAP", raising=False)
    separate = [_fresh_parser(first), _fresh_parser(second)]
    in_a_row = [_isolated(first), _isolated(second)]
    assert in_a_row == separate
    assert in_a_row[0] != in_a_row[1]


_BAD_CSV = st.text(alphabet="0123456789,-/x ", max_size=12)


def _csv(values):
    return ",".join(map(str, values))


def _csv_of(values):
    return st.lists(values, min_size=1, max_size=4).map(_csv)


@st.composite
def _equivariant_triple(draw):
    """(q, r, e) with q_0 = r_0 = 1 and e_i = d * r_i / q_i."""
    r = [1, *draw(st.lists(st.integers(1, 6), max_size=2))]
    d = draw(st.integers(1, 12))
    q = [1, *(draw(st.sampled_from(_divisors(d * ri))) for ri in r[1:])]
    return q, r, [d * ri // qi for qi, ri in zip(q, r)]


_COORD = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 11), st.integers(1, 12)),
    st.builds("{}/{}".format, st.integers(0, 10**20), st.integers(1, 10**20)),
)
_BAD_COORD = st.one_of(st.just("0"), st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 0)))
_WEIGHTS = _csv_of(st.integers(-2, 40))
_MALFORMED = {
    "q": st.one_of(_WEIGHTS, _BAD_CSV),
    "r": st.one_of(_WEIGHTS, _BAD_CSV),
    "e": st.one_of(_csv_of(st.integers(-2, 10**12)), _BAD_CSV),
    "value": st.one_of(_csv_of(st.one_of(_COORD, _BAD_COORD)), _BAD_CSV),
    "cap": st.one_of(st.integers(-2, 10000).map(str), _BAD_CSV),
    "format": st.sampled_from(["xml", ""]),
    "seed": st.sampled_from(["x", "-1", "1.5"]),
}


@st.composite
def _cli_argv(draw):
    """argv for one command, with at most two of its fields drawn malformed."""
    command = draw(st.sampled_from(["strata", "degree", "preimages", "verify"]))
    broken = draw(st.sets(st.sampled_from(sorted(_MALFORMED)), max_size=2))

    def field(name, good):
        return draw(_MALFORMED[name]) if name in broken else good

    if command == "strata":
        args = draw(st.one_of(
            st.one_of(_WEIGHTS, _BAD_CSV).map(lambda w: ["--wps", w]),
            st.sampled_from(["reflection", "rotation", "rotation:3", "rotation:0",
                             "rotation:-2", "rotation:x", "circle"]).map(lambda c: ["--circle", c]),
            st.just([]),
        ))
    elif command == "verify":
        args = [draw(st.sampled_from(["counterexample", "counterexample", "counterexamples"]))]
    else:
        q, r, e = draw(_equivariant_triple())
        value = ",".join(draw(st.lists(_COORD, min_size=len(q), max_size=len(q))))
        args = ["--q", field("q", _csv(q)), "--r", field("r", _csv(r)), "--e", field("e", _csv(e))]
        if command == "preimages" or draw(st.booleans()):
            args += ["--value", field("value", value)]
    if command != "strata":  # each command is given only the options it reads
        args += ["--cap", field("cap", "10000")]
    for flag, good in (("format", draw(st.sampled_from(["json", "text"]))), ("seed", "3")):
        if (flag in broken or draw(st.booleans())) and (flag != "seed" or command == "verify"):
            args += ["--" + flag, field(flag, good)]
    return [command, *args]


@settings(max_examples=150, deadline=None)
@given(_cli_argv())
def test_cli_fuzz_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert 0 <= code <= 5, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and "text" not in argv:
        json.loads(out.getvalue())
