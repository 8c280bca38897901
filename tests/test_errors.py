"""Invariant checks raise typed errors, so they also hold under ``python -O``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import orbidegree
from orbidegree.circle import covering_degree
from orbidegree.errors import PreconditionViolatedError
from orbidegree.slices import slice_chart


def test_package_has_no_assert_statements():
    package = Path(orbidegree.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_covering_degree_rejects_orientation_reversal():
    with pytest.raises(PreconditionViolatedError):
        covering_degree(1, -3, 1)


def test_slice_chart_rejects_a_non_finite_point():
    with np.errstate(invalid="ignore"), pytest.raises(PreconditionViolatedError):
        slice_chart(np.array([np.nan, 1.0 + 0j]), (1, 1))
