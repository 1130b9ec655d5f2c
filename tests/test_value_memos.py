"""The memos of a warm grid pass: `numfields.field_invariants` and
`numfields.in_SE` keyed by a field's class and values, and
`qforms.hyperbolic_invariants`; and `qforms.form_to_json`, which keeps
nothing and renders each form's own diagonal.  Fields of different classes
never share an entry, equal fresh descriptors do, errors are raised on
every call, and what a caller gets to mutate is built fresh."""

from fractions import Fraction

import pytest

from traceforms.exact import rational_str
from traceforms.numfields import (
    IN,
    OUT,
    UNKNOWN,
    Cyclotomic,
    DescriptorError,
    GeneralCM,
    ImagQuadratic,
    RealQuadratic,
    _field_invariants,
    _in_SE,
    field_invariants,
    in_SE,
)
from traceforms.qforms import (
    QuadraticForm,
    form_to_json,
    hyperbolic_invariants,
    hyperbolic_sum,
    invariants,
)


def test_fields_of_one_value_and_three_classes_get_three_entries():
    # all three hash as (3,); the class in the key keeps them apart
    fields = (RealQuadratic(3), ImagQuadratic(3), Cyclotomic(3))
    assert len({hash(E) for E in fields}) == 1
    _field_invariants.cache_clear()
    answers = [field_invariants(E) for E in fields]
    assert _field_invariants.cache_info().currsize == 3
    assert [(fi.degree, fi.disc_class.n, fi.is_cm) for fi in answers] == [
        (2, 3, False), (2, -3, True), (2, -3, True)]
    again = [field_invariants(E) for E in (RealQuadratic(3), ImagQuadratic(3),
                                           Cyclotomic(6))]
    info = _field_invariants.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
    assert all(a is b for a, b in zip(answers, again))


def test_equal_fresh_general_descriptors_hit_the_memo():
    _field_invariants.cache_clear()
    first = field_invariants(GeneralCM([-2, 0, 1], 8, [[7, True]]))
    second = field_invariants(GeneralCM((-2, 0, 1), 8, ((7, True),)))
    assert first is second
    assert _field_invariants.cache_info().misses == 1


def test_field_errors_are_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(DescriptorError, match="squarefree"):
            field_invariants(RealQuadratic(4))
    with pytest.raises(DescriptorError, match="unknown field descriptor"):
        field_invariants((RealQuadratic, (5,)))


@pytest.mark.parametrize("field, p, error", [
    (RealQuadratic(2), 3, "only make sense for CM fields"),
    (Cyclotomic(5), 4, "not a finite prime: 4"),
    ({"kind": "imag_quadratic", "D": 1}, 5, "only make sense for CM fields"),
    (ImagQuadratic(4), 5, "squarefree"),
])
def test_split_set_errors_are_raised_on_every_call(field, p, error):
    for _ in range(3):
        with pytest.raises(ValueError, match=error):
            in_SE(field, p)


def test_split_set_memo_keeps_classes_apart():
    _in_SE.cache_clear()
    # 7 splits in Q(sqrt -3) and in Q(zeta_3), the same field
    assert in_SE(ImagQuadratic(3), 7) == in_SE(Cyclotomic(3), 7) == IN
    assert in_SE(ImagQuadratic(3), 5) == in_SE(Cyclotomic(3), 5) == OUT
    cm = GeneralCM((-2, 0, 1), 8, ((3, True),))
    assert (in_SE(cm, 3), in_SE(cm, 5)) == (IN, UNKNOWN)
    assert _in_SE.cache_info().currsize == 6
    assert in_SE(GeneralCM([-2, 0, 1], 8, [[3, True]]), 3) == IN
    assert in_SE(Cyclotomic(6), 7) == IN
    info = _in_SE.cache_info()
    assert (info.hits, info.currsize) == (2, 6)


@pytest.mark.parametrize("diagonal", [
    (1, -1, 1, -1),
    (-3, 5, -7000021),
    (Fraction(-3, 2), Fraction(6, 3), Fraction(1, 7)),
])
def test_form_to_json_returns_a_new_list_on_every_call(diagonal):
    f = QuadraticForm.make(diagonal)
    expected = [rational_str(e) for e in f.diagonal]
    first = form_to_json(f)
    assert first == {"diagonal": expected}
    first["diagonal"].append("0")
    assert form_to_json(f) == {"diagonal": expected}
    second = form_to_json(QuadraticForm.make(diagonal))
    assert second == {"diagonal": expected}
    assert second["diagonal"] is not first["diagonal"]


def test_forms_whose_hashes_collide_render_their_own_diagonal():
    # hash(-1) == hash(-2) in CPython, so these two forms hash alike
    minus_one, minus_two = (QuadraticForm.make([1, e]) for e in (-1, -2))
    assert hash(minus_one) == hash(minus_two) and minus_one != minus_two
    assert form_to_json(minus_one) == {"diagonal": ["1", "-1"]}
    assert form_to_json(minus_two) == {"diagonal": ["1", "-2"]}
    assert form_to_json(minus_one) == {"diagonal": ["1", "-1"]}


@pytest.mark.parametrize("x, text", [
    (7, "7"), (-12, "-12"), (True, "1"), (False, "0"),
    (Fraction(-6, 4), "-3/2"), (Fraction(6, 3), "2"), (Fraction(0), "0"),
])
def test_rational_str(x, text):
    assert rational_str(x) == text


def test_memoized_hyperbolic_invariants_are_those_of_the_sum():
    for t in range(1, 13):
        assert hyperbolic_invariants(t) == invariants(hyperbolic_sum(t))
        assert hyperbolic_invariants(t) is hyperbolic_invariants(t)
    for _ in range(2):
        with pytest.raises(ValueError, match="at least one plane"):
            hyperbolic_invariants(0)
