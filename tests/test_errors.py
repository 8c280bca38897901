"""Invariant checks raise typed errors, so they also hold under ``python -O``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import orbidegree
from orbidegree.circle import CircleMap, covering_degree
from orbidegree.degree import degree
from orbidegree.errors import NotEquivariantError, PreconditionViolatedError
from orbidegree.maps import MonomialMap, ThetaHom
from orbidegree.roots import RootOfUnity
from orbidegree.slices import slice_chart
from orbidegree.spaces import CircleQuotient, WpsOrbifold


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


_REFLECTION, _CIRCLE = CircleQuotient.reflection(), CircleQuotient.rotation(1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: CircleMap("spiral", _REFLECTION, _CIRCLE), ValueError, "unknown kind"),
    (lambda: CircleMap("fold", _CIRCLE, _CIRCLE), ValueError, "requires the reflection"),
    (lambda: CircleMap("power", _REFLECTION, _CIRCLE), ValueError, "between rotation quotients"),
    (lambda: degree(MonomialMap.from_projective((1, 3)), WpsOrbifold((1, 2)).all_ones()),
     ValueError, "not in the target"),
    (lambda: MonomialMap(WpsOrbifold((1, 1)), WpsOrbifold((2, 1)), (1, 2)),
     NotEquivariantError, "is not an integer"),
    (lambda: ThetaHom(2, 3, 1), ValueError, "does not define a homomorphism"),
    (lambda: RootOfUnity(1, 0), ValueError, "order must be positive"),
    (lambda: RootOfUnity.from_json({"num": 1, "den": 0}), ValueError, "order must be positive"),
], ids=["unknown-kind", "fold-on-rotation", "power-on-reflection", "value-of-another-space",
        "q0-e0-over-r0", "theta-hom", "root-order-0", "root-json-den-0"])
def test_inputs_are_refused_with_a_typed_error(build, error, message):
    with pytest.raises(error, match=message):
        build()
