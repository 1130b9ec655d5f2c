"""The shape of a catalog and of an elliptic context is read before any
engine runs: a catalog section or entry list of the wrong JSON type, a
context that is not an object and a context `case` outside the four that
`elliptic_fibration_verdict` decides are malformed input (exit 2), named in
the schema error.  The verdict's own ValueErrors stay criterion errors
(exit 3)."""

import json

import pytest

from traceforms.cli import EXIT_CRITERION, EXIT_OK, EXIT_SCHEMA, main
from traceforms.k3hk import ELLIPTIC_CASES


def _run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _tabulate(tmp_path, capsys, catalog, mode="rm"):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    return _run(capsys, ["tabulate", "--mode", mode, "--families", "k3",
                         "--catalog", str(path)])


@pytest.mark.parametrize("catalog, section", [
    ({"totally_real": [], "cm": {}}, "totally_real"),
    ({"totally_real": {}, "cm": "quadratic"}, "cm"),
    ({"totally_real": None, "cm": {}}, "totally_real"),
])
def test_catalog_section_must_be_an_object(tmp_path, capsys, catalog,
                                           section):
    for mode in ("rm", "cm"):
        code, doc = _tabulate(tmp_path, capsys, catalog, mode)
        assert code == EXIT_SCHEMA
        assert doc["kind"] == "schema"
        assert doc["error"] == f"catalog: section {section} must be an object"


@pytest.mark.parametrize("catalog", [[1], 5, "totally_real cm", {"cm": {}}])
def test_catalog_without_both_sections(tmp_path, capsys, catalog):
    code, doc = _tabulate(tmp_path, capsys, catalog)
    assert code == EXIT_SCHEMA
    assert doc["error"] == "catalog: need totally_real and cm sections"


@pytest.mark.parametrize("entries", [5, "25", {"d": 2}])
def test_catalog_entry_list_must_be_an_array(tmp_path, capsys, entries):
    # a string was read one character at a time: "25" as the fields d = 2
    # and d = 5
    catalog = {"totally_real": {"quadratic": entries}, "cm": {}}
    code, doc = _tabulate(tmp_path, capsys, catalog)
    assert code == EXIT_SCHEMA
    assert doc["error"] == "catalog: totally_real.quadratic must be an array"


def test_well_formed_small_catalog_answers(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"totally_real": {"quadratic": [2]},
                                "cm": {}}))
    code = main(["tabulate", "--mode", "rm", "--families", "k3",
                 "--md-bound", "6", "--format", "csv", "--catalog", str(path)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("k3,Q(sqrt 2),2,3,6,rm,True,")
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# elliptic contexts


@pytest.mark.parametrize("context", ["[1]", "5", '"small-degree"', "null"])
def test_context_must_be_an_object(capsys, context):
    code, doc = _run(capsys, ["elliptic", "--context", context])
    assert code == EXIT_SCHEMA
    assert doc["error"] == "context: must be an object with 'case'"


@pytest.mark.parametrize("case", ["bogus", None, 4, ["small-degree"],
                                  "kondo-44"])
def test_context_case_must_be_known(capsys, case):
    context = {"degree": 2} if case is None else {"case": case, "degree": 2}
    code, doc = _run(capsys, ["elliptic", "--context", json.dumps(context)])
    assert code == EXIT_SCHEMA
    assert doc["kind"] == "schema"
    assert doc["error"] == ("context: case must be one of small-degree, "
                            f"degree-20, degree-4, picard-form; got {case!r}")


def test_known_cases_are_the_verdicts():
    assert ELLIPTIC_CASES == ("small-degree", "degree-20", "degree-4",
                              "picard-form")


def test_verdict_errors_stay_criterion_errors(capsys):
    # a real quadratic field is not CM of degree 4: the verdict's own
    # ValueError
    context = {"case": "degree-4", "rho": 2,
               "field": {"kind": "real_quadratic", "d": 5}}
    code, doc = _run(capsys, ["elliptic", "--context", json.dumps(context)])
    assert code == EXIT_CRITERION
    assert doc["error"] == "degree-4 case needs a CM field of degree 4"
    context = {"case": "picard-form", "form": {"diagonal": [1, 2, 3]}}
    code, doc = _run(capsys, ["elliptic", "--context", json.dumps(context)])
    assert code == EXIT_CRITERION
    assert doc["error"] == "picard-form case expects a rank-2 form"


def test_known_case_still_answers(capsys):
    code, doc = _run(capsys, ["elliptic", "--context",
                              '{"case": "small-degree", "degree": 10}'])
    assert code == EXIT_OK
    assert doc["verdict"] == "yes"
    code, doc = _run(capsys, ["elliptic", "--context",
                              '{"case": "small-degree"}'])
    assert code == EXIT_SCHEMA
    assert doc["error"] == "context: 'degree'"
