"""Schema refusals of `tf` that no other test reaches: an empty entry list,
explicit entries over a field that is not quadratic, a witness that is not
a JSON array, a catalog path that names no file and a family list with no
family.  Each exits 2 with a schema document naming the fault.  An unknown
table format is refused by `render_table` itself; `tf tabulate` cannot
pass one, since `--format` takes a choice."""

import json

import pytest

from traceforms.cli import EXIT_SCHEMA, SchemaError, main, render_table

REAL = '{"kind": "real_quadratic", "d": 5}'
CYCLOTOMIC = '{"kind": "cyclotomic", "n": 5}'
AMBIENT = '{"diagonal": [1, 1, 1, 1, -1, -1]}'


def _refusal(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_SCHEMA
    assert (doc["status"], doc["kind"]) == ("error", "schema")
    return doc["error"]


@pytest.mark.parametrize("argv, message", [
    (["transfer-compute", "--field", REAL, "--entries", "[]"],
     "entries: need a nonempty JSON array"),
    (["transfer-compute", "--field", CYCLOTOMIC, "--entries", "[1]"],
     "entries: explicit transfer needs a real or imaginary quadratic field"),
    (["transfer-feasible", "--field", REAL, "--mode", "rm", "--form", AMBIENT,
      "--witness", '{"a": 1}'],
     "witness: need a JSON array"),
    (["tabulate", "--mode", "rm", "--families", ","], "families: empty list"),
], ids=["empty-entries", "entries-field", "witness-object", "no-family"])
def test_tf_refuses(capsys, argv, message):
    assert _refusal(capsys, argv) == message


def test_tf_refuses_a_missing_catalog(capsys, tmp_path):
    path = tmp_path / "missing" / "fields.json"
    error = _refusal(capsys, ["tabulate", "--mode", "rm",
                              "--catalog", str(path)])
    assert error.startswith("catalog: [Errno 2] ")
    assert str(path) in error


def test_render_table_refuses_an_unknown_format():
    with pytest.raises(SchemaError, match="unknown format 'xml'"):
        render_table([], "xml")
