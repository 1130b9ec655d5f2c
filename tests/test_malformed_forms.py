"""Malformed form entries are schema errors: every subcommand that reads a
form (an elliptic context's included) answers exit 2 with a `schema`
document, as it does for invalid JSON, instead of a traceback or a quietly
misread form."""

import json

import pytest

from traceforms.cli import EXIT_SCHEMA, main
from traceforms.qforms import form_from_json, rational_from

FIELD = '{"kind": "real_quadratic", "d": 5}'
GOOD = '{"diagonal": [1, -1, 1, -1]}'


def _form_queries(form):
    """One argv per subcommand that parses `form`."""
    return [
        ["form-invariants", "--form", form],
        ["form-isomorphic", "--a", form, "--b", GOOD],
        ["form-split", "--ambient", GOOD, "--sub", form],
        ["represents-zero", "--form", form],
        ["transfer-feasible", "--field", FIELD, "--form", form,
         "--mode", "rm"],
        ["picard", "--form", form, "--field", FIELD, "--m", "3",
         "--mode", "rm"],
    ]


def _schema_error(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["status"], doc["kind"]) == (EXIT_SCHEMA, "error",
                                                  "schema")
    return doc["error"]


@pytest.mark.parametrize("argv", _form_queries('{"diagonal": [2, "1/0"]}'),
                         ids=lambda argv: argv[0])
def test_zero_denominator_is_a_schema_error(capsys, argv):
    assert "1/0" in _schema_error(capsys, argv)
    with pytest.raises(ValueError):
        rational_from("1/0")


def test_zero_denominator_in_an_elliptic_context_is_a_schema_error(capsys):
    context = {"case": "picard-form", "form": {"diagonal": ["1/0", -1]}}
    error = _schema_error(capsys, ["elliptic", "--context",
                                   json.dumps(context)])
    assert error.startswith("context form:")
    context["form"] = [1, -1]
    assert _schema_error(capsys, ["elliptic", "--context",
                                  json.dumps(context)]).startswith(
        "context form:")


def test_string_diagonal_is_a_schema_error(capsys):
    # read one character at a time, "11" used to pass for <1, 1>
    error = _schema_error(capsys, ["form-isomorphic",
                                   "--a", '{"diagonal": "11"}',
                                   "--b", '{"diagonal": [1, 1]}'])
    assert "diagonal" in error
    with pytest.raises(ValueError):
        form_from_json({"gram": ["12", "21"]})


def test_boolean_entry_is_a_schema_error(capsys):
    # JSON true is not the entry 1
    error = _schema_error(capsys, ["form-invariants",
                                   "--form", '{"diagonal": [true, 1]}'])
    assert "True" in error
    with pytest.raises(ValueError):
        rational_from(False)
