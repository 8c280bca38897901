import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import drawn_maps, strata_regular_support_values
from orbidegree import spaces, verify
from orbidegree.circle import CircleMap, CirclePreimage, covering_degree
from orbidegree.errors import EnumerationCapExceededError
from orbidegree.maps import MonomialMap
from orbidegree.verify import (
    check_covering,
    check_local_constancy,
    check_multiplicativity,
    check_same_underlying,
    check_value_independence,
    random_composable_pairs,
    random_monomial_maps,
    regular_support_values,
    reports_to_json,
    run_all,
    run_suite,
    summarize,
)


def test_local_constancy_paper_case():
    f13 = MonomialMap.from_projective((1, 3))
    report = check_local_constancy(f13, f13.target.axis_point(1))
    assert report.passed and report.cases == 8


def test_value_independence_wps():
    report = check_value_independence(MonomialMap.from_projective((1, 3)))
    assert report.passed
    # regular classes: the full support and {1} (off-support exponent 1 there)
    assert report.cases == 2


@settings(deadline=None, max_examples=200)
@given(drawn_maps())
def test_regular_support_values_equal_the_point_first_walk(f):
    assert regular_support_values(f) == strata_regular_support_values(f)


def test_regular_support_values_build_points_only_for_regular_supports(monkeypatch):
    # from CP2 onto CP2(1,1,5): a value is regular iff its support holds index 2
    f = MonomialMap.from_projective((1, 1, 5))
    built = []
    real = verify.WpsPoint

    def counted(space, coords):
        built.append(coords)
        return real(space, coords)

    monkeypatch.setattr(verify, "WpsPoint", counted)
    values = regular_support_values(f)
    # strata order: singular dimension 4 (supports by size, then lexicographic), then 0
    assert [y.support for y in values] == [(0, 2), (1, 2), (0, 1, 2), (2,)]
    assert len(built) == len(values)


def test_value_independence_builds_no_strata_report(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a StrataReport was built")

    monkeypatch.setattr(verify, "strata", refuse, raising=False)
    monkeypatch.setattr(spaces, "StrataReport", refuse)
    report = check_value_independence(MonomialMap.from_projective((1, 1, 5)))
    assert report.passed and report.cases == 4


def test_value_independence_counterexample_required():
    report = check_value_independence(CircleMap.fold())
    assert report.passed
    assert "codimension-1" in report.statement


def test_multiplicativity_check():
    f = MonomialMap.to_projective((1, 3))
    g = MonomialMap.from_projective((1, 2))
    assert check_multiplicativity(f, g).passed


def test_same_underlying_circle_pair():
    report = check_same_underlying(CircleMap.flat_even(), CircleMap.flat_odd(), samples=10)
    assert report.passed
    assert report.cases == 11  # pointwise agreement plus the sampled values


def test_same_underlying_detects_mismatch_with_witness():
    report = check_same_underlying(CircleMap.fold(), CircleMap.flat_even(), samples=3)
    assert not report.passed
    assert report.failures
    # the witness is replayable: it names the offending comparison
    assert any("pointwise_gap" in w or "value" in w for w in report.failures)


def test_same_underlying_monomial_checks_enumeration_against_closed_form(monkeypatch):
    f13 = MonomialMap.from_projective((1, 3))
    report = check_same_underlying(f13, MonomialMap.from_descriptor(f13.descriptor()))
    assert report.passed and report.cases == 1
    assert not check_same_underlying(f13, MonomialMap.from_projective((1, 2))).passed
    # a closed form that enumeration does not meet fails, even for one map against itself
    import orbidegree.verify as verify_mod

    monkeypatch.setattr(verify_mod, "degree_closed_form", lambda f: 4)
    report = check_same_underlying(f13, f13)
    assert not report.passed
    assert report.failures[0]["counts"] == [[3, 3], [3, 3]]


def test_covering_check():
    report = check_covering()
    assert report.passed
    assert report.cases == 15  # five projections plus the ten-case grid


def test_covering_check_solves_each_map_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return covering_degree(*args)

    monkeypatch.setattr(verify, "covering_degree", counting)
    report = check_covering()
    assert report.passed and report.cases == 15
    # ten grid cases and the four upstairs powers 3, 4, 6, 8 not already among them
    assert len(calls) == len(set(calls)) == 14


def test_corpus_generators_deterministic():
    a = [f.descriptor() for f in random_monomial_maps(10, seed=4)]
    b = [f.descriptor() for f in random_monomial_maps(10, seed=4)]
    assert a == b
    c = [f.descriptor() for f in random_monomial_maps(10, seed=5)]
    assert a != c
    pairs = random_composable_pairs(5, seed=4)
    assert all(f.target == g.source for f, g in pairs)


def test_corpus_respects_exponent_bound():
    for f in random_monomial_maps(25, seed=9, max_product=1_000):
        assert f.exponent_product <= 1_000


def test_run_all_green_and_deterministic():
    first = reports_to_json(run_all(seed=0))
    second = reports_to_json(run_all(seed=0))
    assert first == second
    assert all(r["passed"] for r in first)
    assert json.dumps(first) == json.dumps(second)


def test_run_suite_selectors():
    reports = run_suite("counterexample", seed=0)
    assert len(reports) == 1 and reports[0].passed
    try:
        run_suite("unknown-suite")
    except ValueError as exc:
        assert "unknown suite" in str(exc)
    else:
        raise AssertionError("bad selector must raise")


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_suite_holds_its_fibres_to_the_cap(suite):
    if suite in ("covering", "counterexample"):  # circle maps: no fibre is enumerated
        assert run_suite(suite, seed=0, cap=0) == run_suite(suite, seed=0)
        return
    with pytest.raises(EnumerationCapExceededError, match="cap is 1$"):
        run_suite(suite, seed=0, cap=1)


def test_same_underlying_monomial_maps_are_held_to_the_cap():
    f13 = MonomialMap.from_projective((1, 3))
    assert check_same_underlying(f13, f13, cap=3).passed  # the fibre holds 3 tuples
    with pytest.raises(EnumerationCapExceededError, match="needs 3 tuples, cap is 2"):
        check_same_underlying(f13, f13, cap=2)


def test_summary_mentions_failures():
    reports = run_suite("covering", seed=0)
    text = summarize(reports)
    assert "PASS" in text and "0 failing" in text


def test_verify_all_builds_no_circle_point_records(monkeypatch):
    expected = reports_to_json(run_all(seed=1))

    def refuse(self, *fields):
        raise AssertionError("a CirclePreimage was built")

    monkeypatch.setattr(CirclePreimage, "__init__", refuse)
    assert reports_to_json(run_all(seed=1)) == expected
