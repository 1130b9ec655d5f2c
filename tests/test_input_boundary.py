"""One boundary between outside input and the engines.

In the CLI, `cli.read` is the one gate that turns a reader's KeyError,
TypeError or ValueError into a schema error naming what was read, and every
JSON rational, the `--entries` and `--witness` coefficients included, is
read by `exact.rational_from`.  In the library, the fixed-form criteria take
their field-kind check from `transfer.check_mode`, and accept a form or its
invariants.  Each output that this boundary changed has a case here."""

import json
from fractions import Fraction

import pytest

from traceforms.cli import (
    EXIT_CRITERION, EXIT_SCHEMA, SchemaError, main, read,
)
from traceforms.exact import FactorizationBudgetError
from traceforms.k3hk import ambient, picard_compatible
from traceforms.numfields import (
    Cyclotomic, GeneralCM, GeneralTotallyReal, ImagQuadratic, RealQuadratic,
    desc_from_values,
)
from traceforms.qforms import (
    QuadraticForm, complement_invariants, form_from_invariants, form_to_json,
    invariants,
)
from traceforms.transfer import (
    QuadFieldElement, check_mode, cm_transfer_feasible, rm_transfer_feasible,
    transfer_hermitian_imagquad, transfer_quadratic,
    validate_cm_rank2_complement,
)

RQ5 = '{"kind": "real_quadratic", "d": 5}'
IQ5 = '{"kind": "imag_quadratic", "D": 5}'
RQ2 = '{"kind": "real_quadratic", "d": 2}'
SEXTIC = '{"kind": "general_tr", "minpoly": [-1, 3, 6, -4, -5, 1, 1]}'
U6 = '{"diagonal": [1, 1, -1, -1, -1, -1]}'


def _error(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc["kind"], doc["error"]


# ---------------------------------------------------------------------------
# the gate


def test_read_names_what_it_read():
    for err in (KeyError("name"), TypeError("t"), ValueError("v")):
        def reader(obj, err=err):
            raise err
        with pytest.raises(SchemaError) as info:
            read("thing", reader, None)
        assert str(info.value) == f"thing: {err}"
        assert info.value.__cause__ is err


@pytest.mark.parametrize("err", [SchemaError("entries: bad"),
                                 FactorizationBudgetError("too big")])
def test_read_passes_schema_and_budget_errors_through(err):
    def reader(obj):
        raise err
    with pytest.raises(type(err)) as info:
        read("thing", reader, None)
    assert info.value is err


def test_read_returns_what_the_reader_gives():
    assert read("n", int, "7") == 7


# ---------------------------------------------------------------------------
# the outputs this boundary changed


@pytest.mark.parametrize("argv, error", [
    (["transfer-compute", "--field", RQ5, "--entries", "[1]"],
     "entries: expected an [a, b] pair, got 1"),
    (["transfer-compute", "--field", RQ5, "--entries", "[[1, 2, 3]]"],
     "entries: expected an [a, b] pair, got [1, 2, 3]"),
    (["transfer-feasible", "--field", RQ2, "--form", U6, "--mode", "rm",
      "--witness", "[1]"], "witness: expected an [a, b] pair, got [1]"),
    (["picard", "--form", '{"diagonal": [1, -1, -1, -1]}', "--field", RQ2,
      "--m", "3", "--mode", "rm", "--witness", "[1, 2, 3]"],
     "witness: expected an [a, b] pair, got [1, 2, 3]"),
])
def test_entries_and_witness_prefixes_print_once(capsys, argv, error):
    assert _error(capsys, argv) == (EXIT_SCHEMA, "schema", error)


@pytest.mark.parametrize("argv, error", [
    (["transfer-compute", "--field", RQ5, "--entries", "[[1.5, 0]]"],
     "entries: not a rational: 1.5"),
    (["transfer-compute", "--field", RQ5, "--entries", "[[1, 2e0]]"],
     "entries: not a rational: 2.0"),
    (["transfer-compute", "--field", IQ5, "--entries", "[1, 1.5]"],
     "entries: not a rational: 1.5"),
    (["transfer-feasible", "--field", RQ2, "--form", U6, "--mode", "rm",
      "--witness", "[3.0, 1]"], "witness: not a rational: 3.0"),
    (["picard", "--form", '{"diagonal": [1, -1, -1, -1]}', "--field", SEXTIC,
      "--m", "3", "--mode", "rm", "--witness", "[2, -1.0]"],
     "witness: not a rational: -1.0"),
])
def test_json_floats_in_entries_and_witness_exit_2(capsys, argv, error):
    assert _error(capsys, argv) == (EXIT_SCHEMA, "schema", error)


def test_p_over_q_strings_are_the_rationals_they_name(capsys):
    main(["transfer-compute", "--field", RQ5, "--entries", '[["3/2", "-1/3"]]'])
    real = json.loads(capsys.readouterr().out)["transfer"]
    want = transfer_quadratic(5, [QuadFieldElement(Fraction(3, 2),
                                                   Fraction(-1, 3))])
    assert real == form_to_json(want)
    main(["transfer-compute", "--field", IQ5, "--entries", '["1/2", -7]'])
    imag = json.loads(capsys.readouterr().out)["transfer"]
    assert imag == form_to_json(
        transfer_hermitian_imagquad(5, [Fraction(1, 2), Fraction(-7)]))


@pytest.mark.parametrize("field, mode, error", [
    (RQ2, "cm", "cm mode needs a CM field"),
    (IQ5, "rm", "rm mode needs a totally real field"),
])
def test_transfer_feasible_with_a_field_of_the_wrong_kind(capsys, field, mode,
                                                          error):
    argv = ["transfer-feasible", "--field", field, "--form", U6,
            "--mode", mode]
    assert _error(capsys, argv) == (EXIT_CRITERION, "criterion", error)


@pytest.mark.parametrize("flag, what", [("--form", "form"), ("--a", "a")])
def test_a_form_with_an_unknown_key_exits_2(capsys, flag, what):
    form = '{"diagonal": [1, 2], "extra": 1}'
    argv = (["form-invariants", "--form", form] if flag == "--form" else
            ["form-isomorphic", "--a", form, "--b", '{"diagonal": [1, 2]}'])
    assert _error(capsys, argv) == (EXIT_SCHEMA, "schema",
                                    f"{what}: unknown key 'extra'")


def test_a_misspelled_form_key_is_named_before_the_missing_one(capsys):
    argv = ["form-invariants", "--form", '{"Diagonal": [1, 2]}']
    assert _error(capsys, argv) == (EXIT_SCHEMA, "schema",
                                    "form: unknown key 'Diagonal'")


def test_the_form_keys_still_answer(capsys):
    for form in ('{"diagonal": [1, 2]}', '{"gram": [[1, 0], [0, 2]]}'):
        assert main(["form-invariants", "--form", form]) == 0
        assert json.loads(capsys.readouterr().out)["det"] == "2"


def test_an_elliptic_verdict_error_stays_a_criterion_error(capsys):
    # the context parses; the verdict's own precondition refuses it
    context = {"case": "degree-20", "field": {"kind": "cyclotomic", "n": 5}}
    assert _error(capsys, ["elliptic", "--context", json.dumps(context)]) == (
        EXIT_CRITERION, "criterion",
        "degree-20 case needs a CM field of degree 20")
    assert _error(capsys, ["elliptic", "--context",
                           '{"case": "small-degree"}']) == (
        EXIT_SCHEMA, "schema", "context: 'degree'")


# ---------------------------------------------------------------------------
# the library: one field-kind check, a form or its invariants


CRITERIA = [
    (lambda E: cm_transfer_feasible(E, QuadraticForm.make([1, 1])), "cm"),
    (lambda E: validate_cm_rank2_complement(E, 1, False), "cm"),
    (lambda E: rm_transfer_feasible(E, QuadraticForm.make([1] * 2 + [-1] * 4)),
     "rm"),
]


@pytest.mark.parametrize("criterion, mode", CRITERIA)
def test_criteria_raise_check_modes_error(criterion, mode):
    wrong = RealQuadratic(2) if mode == "cm" else Cyclotomic(5)
    with pytest.raises(ValueError) as mine:
        criterion(wrong)
    with pytest.raises(ValueError) as checked:
        check_mode(mode, wrong)
    assert str(mine.value) == str(checked.value)


@pytest.mark.parametrize("E, diagonal", [
    (RealQuadratic(2), [1, 1, -1, -1, -1, -1]),
    (RealQuadratic(3), [1, 1, -1, -1, -1, -1]),
    (GeneralTotallyReal((-1, -3, 0, 1)), [1, 1, -1, -1, -1, -1, -1, -1, -1]),
])
def test_rm_criterion_reads_a_form_or_its_invariants(E, diagonal):
    U = QuadraticForm.make(diagonal)
    assert rm_transfer_feasible(E, invariants(U)) == rm_transfer_feasible(E, U)


def test_picard_rm_builds_no_form():
    """The rm branch hands the complement's invariants to the criterion,
    with the verdict that the complement form built from them gets."""
    L = QuadraticForm.make([1] + [-1] * 15)
    ci = complement_invariants(invariants(ambient("k3").rational_form),
                               invariants(L))
    U = form_from_invariants(ci)
    for d in (2, 3, 5, 7):
        want = rm_transfer_feasible(RealQuadratic(d), U)
        info = form_from_invariants.cache_info()
        v = picard_compatible(L, RealQuadratic(d), 3, "rm")
        after = form_from_invariants.cache_info()
        assert (after.hits, after.misses) == (info.hits, info.misses)
        assert v.status == want.status
        assert (v.certificate or {}).get("norm_class") == \
            (want.certificate or {}).get("norm_class")


def test_the_value_key_rebuilds_each_descriptor():
    for E in (RealQuadratic(5), ImagQuadratic(3), Cyclotomic(12),
              GeneralTotallyReal((-1, -3, 0, 1)),
              GeneralCM((-2, 0, 1), 8, ((7, True),))):
        assert desc_from_values(E.__class__, E._get(E)) == E
