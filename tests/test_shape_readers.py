"""Inputs that one reader per JSON shape now refuses (exit 2, `kind:
schema`), each of which got through before:

- D1: a catalog `higher` entry whose `name` is not a string became the
  grid's `field` label, or a TypeError traceback when sorted;
- D2: an elliptic context whose `field` is not an object exited 3 with
  "unknown field descriptor";
- D3: `tf hk` with a family and `--n` that do not fit exited 3, where
  `tabulate --families` already exited 2;
- D4: a form with both `diagonal` and `gram` was read from `diagonal`;
- D5: a catalog key other than `version`, `comment`, `totally_real` and
  `cm` was ignored;
- D6: a `general_cm` descriptor whose `se` is an object or a string was
  read as an empty assertion table.

The library readers stay idempotent on a value already read."""

import json

import pytest

from conftest import run_cli_json
from traceforms.cli import EXIT_OK, EXIT_SCHEMA
from traceforms.k3hk import elliptic_context, elliptic_fibration_verdict
from traceforms.numfields import Cyclotomic, desc_from_json
from traceforms.qforms import QuadraticForm, form_from_json


def _schema_error(argv):
    code, doc = run_cli_json(argv)
    assert (code, doc["status"], doc["kind"]) == (EXIT_SCHEMA, "error",
                                                  "schema"), doc
    return doc["error"]


def _tabulate(tmp_path, catalog, mode="rm"):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    return ["tabulate", "--mode", mode, "--md-bound", "6", "--catalog",
            str(path)]


CUBIC = [-1, -3, 0, 1]


@pytest.mark.parametrize("name", [5, None, True, ["q"], {"q": 1}])
def test_d1_a_higher_entry_name_must_be_a_string(tmp_path, name):
    # with a second entry of the same degree the sort of the labels raised
    catalog = {"totally_real": {"quadratic": [2], "higher": [
        {"name": name, "minpoly": CUBIC},
        {"name": "cubic-b", "minpoly": [1, -3, 0, 1]}]}, "cm": {}}
    error = _schema_error(_tabulate(tmp_path, catalog))
    assert error.startswith("catalog: totally_real.higher entry ")
    assert error.endswith(f"name must be a string, got {name!r}")


def test_d1_a_string_name_still_labels_its_rows(tmp_path):
    catalog = {"totally_real": {"higher": [{"name": "q5",
                                            "minpoly": [-5, 0, 1]}]},
               "cm": {}}
    code, doc = run_cli_json(_tabulate(tmp_path, catalog))
    assert code == EXIT_OK
    assert {row["field"] for row in doc["rows"]} == {"q5"}


@pytest.mark.parametrize("field", [5, None, True, "x", [1], 1.5])
def test_d2_a_context_field_must_be_a_descriptor_object(field):
    error = _schema_error(["elliptic", "--context",
                           json.dumps({"case": "degree-20", "field": field})])
    assert error == ("context field: field descriptor must be an object "
                     "with 'kind'")


HK = ["hk", "--field", '{"kind": "real_quadratic", "d": 5}', "--m", "3",
      "--mode", "rm"]


@pytest.mark.parametrize("flags, error", [
    (["--family", "kummer", "--n", "1"], "family: kummer needs n >= 2"),
    (["--family", "kummer"], "family: kummer needs n"),
    (["--family", "og6", "--n", "2"], "family: og6 does not take n"),
])
def test_d3_hk_reads_its_family_as_tabulate_does(flags, error):
    assert _schema_error(HK + flags) == error
    family = flags[1] + (f":{flags[3]}" if len(flags) > 2 else "")
    assert _schema_error(["tabulate", "--mode", "rm", "--families",
                          family]).startswith("families: ")


def test_d3_a_family_that_fits_still_answers():
    code, doc = run_cli_json(HK + ["--family", "kummer", "--n", "2"])
    assert code == EXIT_OK and doc["status"] == "feasible"


def test_d4_a_form_carries_exactly_one_of_diagonal_and_gram():
    error = "form: form needs exactly one of 'diagonal' and 'gram'"
    for form in ({"diagonal": [1], "gram": [[2]]}, {}):
        assert _schema_error(["form-invariants", "--form",
                              json.dumps(form)]) == error
    with pytest.raises(ValueError, match="exactly one"):
        form_from_json({"gram": [[2]], "diagonal": [1]})


@pytest.mark.parametrize("key", ["extra", "Version", "higher"])
def test_d5_a_catalog_takes_only_its_four_keys(tmp_path, key):
    catalog = {"version": 1, "comment": "c",
               "totally_real": {"quadratic": [2]}, "cm": {}, key: 1}
    assert _schema_error(_tabulate(tmp_path, catalog)) == \
        f"catalog: unknown key {key!r}"
    del catalog[key]
    assert run_cli_json(_tabulate(tmp_path, catalog))[0] == EXIT_OK


@pytest.mark.parametrize("key, value, error", [
    ("version", "1.0", "catalog: version must be an integer, got '1.0'"),
    ("comment", 3, "catalog: comment must be a string, got 3"),
])
def test_d5_version_and_comment_are_read(tmp_path, key, value, error):
    catalog = {"totally_real": {"quadratic": [2]}, "cm": {}, key: value}
    assert _schema_error(_tabulate(tmp_path, catalog)) == error


CM_FIELD = {"kind": "general_cm", "minpoly": [-2, 0, 1], "disc": 5}


def _k3_cm(**keys):
    return ["k3", "--m", "4", "--mode", "cm", "--field",
            json.dumps(dict(CM_FIELD, **keys))]


@pytest.mark.parametrize("se", [{}, "", {"3": True}, "x"])
def test_d6_se_must_be_an_array(se):
    assert "descriptor:" in _schema_error(_k3_cm(se=se))


def test_d6_the_other_se_errors_keep_their_text():
    assert _schema_error(_k3_cm(se=3)) == (
        "field: malformed general_cm descriptor: 'int' object is not "
        "iterable")
    assert run_cli_json(_k3_cm(se=[]))[1]["status"] == "needs_witness"


def test_an_empty_minpoly_is_no_polynomial():
    # it exited 3 with "minimal polynomial must be monic nonconstant"
    assert _schema_error(_k3_cm(minpoly=[])).endswith(
        "minpoly must be a nonempty array")


def test_library_readers_are_idempotent():
    E = Cyclotomic(5)
    assert desc_from_json(E) is E
    f = QuadraticForm.make([1, -1])
    assert form_from_json(f) is f
    context = {"case": "degree-4", "field": {"kind": "cyclotomic", "n": 5},
               "rho": 2}
    read = elliptic_context(context)
    assert read == {"case": "degree-4", "field": E, "rho": 2}
    assert elliptic_context(read) == read
    assert elliptic_fibration_verdict(read) == \
        elliptic_fibration_verdict(context)
