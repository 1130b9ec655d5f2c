"""The memoized pure functions, `qforms.invariants` and
`numfields.field_invariants`: inputs built from lists still work, and
errors are raised again on every call instead of being cached."""

import pytest

from traceforms.exact import FactorizationBudgetError, SquareClass
from traceforms.numfields import (
    IN,
    DescriptorError,
    GeneralCM,
    GeneralTotallyReal,
    RealQuadratic,
    field_invariants,
    in_SE,
)
from traceforms.qforms import QuadraticForm, invariants


def test_form_from_a_list_is_a_cache_key():
    f = QuadraticForm([1, -1, 2])
    assert f == QuadraticForm.make([1, -1, 2])
    fi = invariants(f)
    assert fi == invariants(QuadraticForm.make([1, -1, 2]))
    assert fi.dim == 3 and fi.det == SquareClass(-2)


def test_budget_error_is_not_cached():
    # 1009 * 1013: factored under the default budget, beyond a budget of 1000
    f = QuadraticForm.make([1009 * 1013, 1])
    assert invariants(f).det == SquareClass(1009 * 1013)
    for _ in range(2):
        with pytest.raises(FactorizationBudgetError):
            invariants(f, budget=1000)


def test_general_descriptors_from_lists():
    tr = GeneralTotallyReal(minpoly=[-1, -1, 1])
    assert tr == GeneralTotallyReal((-1, -1, 1))
    assert field_invariants(tr) == field_invariants(tr)
    assert field_invariants(tr).disc_class == SquareClass(5)

    cm = GeneralCM(real_minpoly=[-2, 0, 1], disc_class=8,
                   se_assertions=[[7, True]])
    assert cm.se_assertions == ((7, True),)
    fi = field_invariants(cm)
    assert fi.degree == 4 and fi.is_cm and fi == field_invariants(cm)
    assert in_SE(cm, 7) == IN


@pytest.mark.parametrize("desc", [
    RealQuadratic(4),                       # not squarefree
    RealQuadratic(1),
    GeneralTotallyReal([2, 0, 1]),          # x^2 + 2 has no real root
    {"kind": "real_quadratic", "d": 5},     # not a descriptor, unhashable
])
def test_descriptor_errors_are_not_cached(desc):
    for _ in range(2):
        with pytest.raises(DescriptorError):
            field_invariants(desc)
