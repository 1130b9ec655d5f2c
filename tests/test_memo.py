"""The memoized pure functions, `qforms.invariants`,
`qforms.form_from_invariants`, `k3hk.ambient` and
`numfields.field_invariants`: inputs built from lists or sets still work,
memoized answers equal fresh ones, errors are raised again on every call
instead of being cached, and a form hashes as its diagonal."""

import pytest
from sympy import factorint

from traceforms.exact import INF, FactorizationBudgetError, SquareClass
from traceforms.k3hk import ambient
from traceforms.numfields import (
    IN,
    DescriptorError,
    GeneralCM,
    GeneralTotallyReal,
    RealQuadratic,
    field_invariants,
    in_SE,
)
from traceforms.qforms import (
    FormInvariants,
    InvariantContradiction,
    QuadraticForm,
    form_from_invariants,
    invariants,
)


def test_form_from_a_list_is_a_cache_key():
    f = QuadraticForm([1, -1, 2])
    assert f == QuadraticForm.make([1, -1, 2])
    fi = invariants(f)
    assert fi == invariants(QuadraticForm.make([1, -1, 2]))
    assert fi.dim == 3 and fi.det == SquareClass(-2)


def test_budget_error_is_not_cached():
    # 1009 * 1013 was beyond a budget of 1000 while trial division was the
    # only route; Brent's rho splits it within that budget now
    f = QuadraticForm.make([1009 * 1013, 1])
    assert invariants(f).det == SquareClass(1009 * 1013)
    assert invariants(f, budget=1000).det == SquareClass(1009 * 1013)
    assert factorint(1009 * 1013) == {1009: 1, 1013: 1}
    # 10000019 * 10000079: factored under the default budget, beyond trial
    # division and rho's cap under a budget of 1000
    g = QuadraticForm.make([10000019 * 10000079, 1])
    assert invariants(g).det == SquareClass(10000019 * 10000079)
    assert factorint(10000019 * 10000079) == {10000019: 1, 10000079: 1}
    for _ in range(2):
        with pytest.raises(FactorizationBudgetError):
            invariants(g, budget=1000)


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


def test_invariants_from_a_set_and_a_list_are_a_cache_key():
    fi = FormInvariants(3, SquareClass(-15), [2, 1], {2, 5})
    assert fi.signature == (2, 1) and fi.hasse == frozenset({2, 5})
    assert fi == FormInvariants(3, SquareClass(-15), (2, 1), frozenset({2, 5}))
    f = form_from_invariants(fi)
    assert f == QuadraticForm.make([1, -2, 30])
    assert invariants(f) == fi


@pytest.mark.parametrize("fi", [
    FormInvariants(1, SquareClass(-3), (0, 1), frozenset()),
    FormInvariants(3, SquareClass(-15), (2, 1), frozenset({2, 5})),
    FormInvariants(4, SquareClass(7), (2, 2), frozenset({3, INF})),
    invariants(QuadraticForm.make([1, -1] * 3 + [-1] * 16)),
])
def test_form_from_invariants_equals_a_fresh_construction(fi):
    assert form_from_invariants(fi) == form_from_invariants.__wrapped__(fi)


@pytest.mark.parametrize("family, n", [
    ("k3", None), ("kummer", 2), ("og6", None), ("hilbk3", 3),
    ("og10", None), (" K3 ", None),
])
def test_ambient_equals_a_fresh_construction(family, n):
    assert ambient(family, n) == ambient.__wrapped__(family, n)


def test_contradictions_are_not_cached():
    odd = FormInvariants(3, SquareClass(-15), (2, 1), frozenset({5}))
    for _ in range(2):
        with pytest.raises(InvariantContradiction) as err:
            form_from_invariants(odd)
        assert err.value.condition == "reciprocity"


@pytest.mark.parametrize("family, n", [("kummer", None), ("k3", 2)])
def test_ambient_errors_are_not_cached(family, n):
    for _ in range(2):
        with pytest.raises(ValueError):
            ambient(family, n)


def test_form_hash_is_the_diagonal_hash():
    g = form_from_invariants(invariants(QuadraticForm.make([3, -5, 7, 11])))
    bare = QuadraticForm.make(g.diagonal)
    assert g.known_classes != bare.known_classes
    assert g == bare
    assert hash(g) == hash(bare) == hash(g.diagonal)
