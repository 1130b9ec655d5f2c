"""Arguments that used to be dropped, doubled or truncated without a word:
a family listed twice in a grid request, which printed each of its rows
twice; numbers of the wrong JSON type in field descriptors, field catalogs
and elliptic contexts, or a negative search height, which were truncated,
read as true or run; a minpoly given as a string, which was read one
character at a time; a negative md bound, which printed an empty grid; and
a descriptor key its kind does not read, which was ignored.  The cm split
takes no complement to aim at, and the one it forces is pinned."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import elliptic_argv, load_file
from traceforms.cli import (
    EXIT_OK, EXIT_SCHEMA, exit_code, main, parse_families,
)
from traceforms.exact import SchemaError
from traceforms.numfields import ImagQuadratic
from traceforms.qforms import QuadraticForm
from traceforms.transfer import split_transfer_feasible

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_realizability_grids.py"


def test_cm_split_forces_its_complement_line():
    # the cm engine takes no complement to aim at: a rank-1 complement is
    # forced, -1 here
    V = QuadraticForm.make([1, 1, -1, -1, -1])
    plain = split_transfer_feasible(V, ImagQuadratic(1), 2, "cm")
    assert plain.certificate["forced_complement"] == "-1"


REPEATS = ["k3,k3", "kummer:2,kummer:02", "og6, OG6", "k3,hilbk3:2,hilbk3:2"]


@pytest.mark.parametrize("families", REPEATS)
def test_parse_families_rejects_a_repeat(families):
    with pytest.raises(SchemaError, match="repeats an earlier family"):
        parse_families(families)


def test_distinct_families_still_parse():
    assert parse_families("kummer:2,kummer:3,k3") == [
        ("kummer:2", "kummer", 2), ("kummer:3", "kummer", 3),
        ("k3", "k3", None)]


@pytest.mark.parametrize("families", REPEATS)
def test_tabulate_rejects_a_repeated_family(capsys, families):
    code = main(["tabulate", "--mode", "rm", "--families", families,
                 "--format", "csv"])
    assert code == EXIT_SCHEMA
    assert '"kind": "schema"' in capsys.readouterr().out


def test_grid_script_rejects_a_repeated_family(capsys):
    script = load_file(SCRIPT)
    with pytest.raises(SchemaError, match="repeats an earlier family"):
        script.main(["--families", "k3,kummer:2,k3", "--format", "csv"])
    assert capsys.readouterr().out == ""


CM_FIELD = {"kind": "general_cm", "minpoly": [-2, 0, 1], "disc": 5}
U_SPLIT = json.dumps({"diagonal": [3, 11, -15, -11]})


def _cm_query(**field):
    return ["transfer-feasible", "--mode", "cm", "--form", U_SPLIT,
            "--field", json.dumps(dict(CM_FIELD, **field))]


def _k3_query(field):
    return ["k3", "--field", json.dumps(field), "--m", "3", "--mode", "rm"]


MALFORMED = [
    # Q(sqrt 5.9) was answered as Q(sqrt 5)
    (_k3_query({"kind": "real_quadratic", "d": 5.9}),
     "d must be an integer, got 5.9"),
    (_k3_query({"kind": "real_quadratic", "d": True}),
     "d must be an integer, got True"),
    (_k3_query({"kind": "real_quadratic", "d": "5.9"}),
     "d must be an integer, got '5.9'"),
    (_k3_query({"kind": "general_tr", "minpoly": [-5, 0, 1], "disc": 5.5}),
     "disc must be an integer, got 5.5"),
    (["transfer-feasible", "--mode", "cm", "--form", U_SPLIT, "--field",
      json.dumps({"kind": "imag_quadratic", "D": 1.5})],
     "D must be an integer, got 1.5"),
    (["k3", "--field", json.dumps({"kind": "cyclotomic", "n": 5.0}),
      "--m", "5", "--mode", "cm"], "n must be an integer, got 5.0"),
    (_cm_query(disc=5.5), "disc must be an integer, got 5.5"),
    # the prime 3.7 was read as 3, and the string "false" as true
    (_cm_query(se=[[3.7, True]]), "se prime must be an integer, got 3.7"),
    (_cm_query(se=[[3, "false"]]), "got [3, 'false']"),
    (_cm_query(se=[[3, 1]]), "got [3, 1]"),
    (_cm_query(se=[[3]]), "got [3]"),
    (_cm_query(se=3), "'int' object is not iterable"),
    # 2.9 was truncated to the decided degree 2, and rho 5.9 to 5
    (elliptic_argv({"case": "small-degree", "degree": 2.9}),
     "degree must be an integer, got 2.9"),
    (elliptic_argv({"case": "degree-4", "rho": 5.9,
                    "field": {"kind": "cyclotomic", "n": 5}}),
     "rho must be an integer, got 5.9"),
    # a negative height ran no triple scan and answered
    (["represents-zero", "--height", "-3", "--form",
      json.dumps({"diagonal": [1, 1, 1]})],
     "height: must be nonnegative, got -3"),
    # an se table that named 4, or 3 twice, answered from its first entry
    (_cm_query(se=[[4, True]]), "se asserts a non-prime 4"),
    (_cm_query(se=[[3, True], [3, False]]), "se asserts a prime twice: 3"),
]


@pytest.mark.parametrize("argv, error", MALFORMED,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in
                              enumerate(MALFORMED)])
def test_malformed_numbers_exit_with_a_schema_error(capsys, argv, error):
    assert main(argv) == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "schema" and error in doc["error"]


def test_split_flags_are_read_as_json_booleans(capsys):
    assert main(_cm_query(se=[[3, True]])) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["obstruction"]["place"]) == ("infeasible", "3")
    assert main(_cm_query(se=[[3, False]])) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "needs_witness"


#: a query with the given minpoly coefficients, per general field kind
MINPOLY_QUERIES = {
    "general_tr": lambda coeffs: _k3_query({"kind": "general_tr",
                                            "minpoly": coeffs}),
    "general_cm": lambda coeffs: _cm_query(minpoly=coeffs),
}


@pytest.mark.parametrize("kind", MINPOLY_QUERIES)
@pytest.mark.parametrize("coeffs, error", [
    # x^2 - 2.9 was answered as x^2 - 6530219459687219/2251799813685248
    ([-2.9, 0, 1], "not a rational: -2.9"),
    ([-2.0, 0, 1], "not a rational: -2.0"),
    # the leading true was read as 1
    ([-2, 0, True], "not a rational: True"),
    ([-2, False, 1], "not a rational: False"),
    # these two ended in a traceback and in a criterion error (exit 3)
    (["-2", "0", "1/0"], "zero denominator: '1/0'"),
    (["-2", "x", "1"], "Invalid literal for Fraction: 'x'"),
])
def test_minpoly_coefficients_of_the_wrong_type_exit_2(capsys, kind, coeffs,
                                                       error):
    assert main(MINPOLY_QUERIES[kind](coeffs)) == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "schema" and error in doc["error"]


@pytest.mark.parametrize("kind", MINPOLY_QUERIES)
@pytest.mark.parametrize("coeffs", [["-2", "0", "1"], ["-4/2", 0, "2/2"]])
def test_minpoly_rational_strings_read_as_integers(capsys, kind, coeffs):
    query = MINPOLY_QUERIES[kind]
    assert main(query([-2, 0, 1])) == EXIT_OK
    expected = json.loads(capsys.readouterr().out)
    assert main(query(coeffs)) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("kind", MINPOLY_QUERIES)
@pytest.mark.parametrize("coeffs", ["11", "-2,0,1", 5, {"0": 1}])
def test_minpoly_that_is_not_an_array_exits_2(capsys, kind, coeffs):
    # the string "11" was read one character at a time, as x + 1
    assert main(MINPOLY_QUERIES[kind](coeffs)) == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "schema"
    assert "minpoly must be an array" in doc["error"]


#: a catalog entry of the wrong type, and the error that names it
BAD_CATALOG_ENTRIES = [
    # 5.9 was read as 5 and tabulated as "Q(sqrt 5.9)" with the rows of
    # Q(sqrt 5)
    ("rm", "totally_real", "quadratic", [2, 5.9],
     "catalog: totally_real.quadratic entry 5.9: d must be an integer"),
    ("rm", "totally_real", "quadratic", [True],
     "catalog: totally_real.quadratic entry True: d must be an integer"),
    ("rm", "totally_real", "higher", [{"name": "q5", "minpoly": "-501"}],
     "catalog: totally_real.higher entry {'name': 'q5', 'minpoly': '-501'}: "
     "minpoly must be an array"),
    ("rm", "totally_real", "higher", [{"name": "q5", "minpoly": [-5.0, 0, 1]}],
     "not a rational: -5.0"),
    ("cm", "cm", "imag_quadratic", [1.5],
     "catalog: cm.imag_quadratic entry 1.5: D must be an integer"),
    ("cm", "cm", "cyclotomic", [5, "7.0"],
     "catalog: cm.cyclotomic entry '7.0': n must be an integer"),
]


@pytest.mark.parametrize("mode, section, key, entries, error",
                         BAD_CATALOG_ENTRIES,
                         ids=[f"{key}-{i}" for i, (_, _, key, _, _) in
                              enumerate(BAD_CATALOG_ENTRIES)])
def test_catalog_entry_of_the_wrong_type_exits_2(capsys, tmp_path, mode,
                                                section, key, entries, error):
    catalog = {"totally_real": {"quadratic": [2]}, "cm": {"cyclotomic": [5]}}
    catalog[section][key] = entries
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(catalog))
    assert main(["tabulate", "--mode", mode, "--catalog", str(path)]) \
        == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "schema" and error in doc["error"]
    script = load_file(SCRIPT)
    assert exit_code(script.main, ["--mode", mode, "--catalog", str(path)]) \
        == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == doc


def test_catalog_of_integers_still_tabulates(capsys, tmp_path):
    # a JSON string of an integer reads as that integer, as in descriptors
    rows = {}
    for quadratic in ([5], ["5"]):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({"totally_real": {"quadratic": quadratic},
                                    "cm": {}}))
        assert main(["tabulate", "--mode", "rm", "--catalog", str(path),
                     "--format", "csv"]) == EXIT_OK
        rows[str(quadratic)] = capsys.readouterr().out
    assert rows["[5]"] == rows["['5']"] and "Q(sqrt 5)" in rows["[5]"]


@pytest.mark.parametrize("bound", ["-1", "-5"])
def test_negative_md_bound_exits_2(capsys, bound):
    # it printed an empty table and exited 0
    error = f"md-bound: must be nonnegative, got {bound}"
    assert main(["tabulate", "--mode", "rm", "--families", "k3",
                 "--md-bound", bound]) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == {
        "status": "error", "kind": "schema", "error": error}
    assert exit_code(load_file(SCRIPT).main, ["--md-bound", bound]) \
        == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == error


def test_negative_md_bound_exits_2_from_the_command_line():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT),
         "--md-bound", "-5"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == EXIT_SCHEMA
    assert json.loads(proc.stdout)["error"] == \
        "md-bound: must be nonnegative, got -5"


def test_zero_md_bound_is_an_empty_grid(capsys):
    assert main(["tabulate", "--mode", "cm", "--md-bound", "0",
                 "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"rows": [], "count": 0}


#: the split-set assertions under which x^2 - 2, disc 5, m = 4 is feasible
SE_OUT = [[2, False], [3, False], [5, False]]
K3_CM_QUERY = ["k3", "--m", "4", "--mode", "cm", "--field"]


@pytest.mark.parametrize("argv, key", [
    # answered as if "extra" were absent, with exit 0
    (["k3", "--field", json.dumps({"kind": "real_quadratic", "d": 5,
                                    "extra": 1}),
      "--m", "3", "--mode", "rm"], "'extra'"),
    # the misspelled assertions were dropped: needs_witness, exit 0
    (K3_CM_QUERY + [json.dumps(dict(CM_FIELD, SE=SE_OUT))], "'SE'"),
    (_k3_query({"kind": "general_tr", "minpoly": [-5, 0, 1], "se": []}),
     "'se'"),
    (["elliptic", "--context", json.dumps({
        "case": "degree-20", "field": {"kind": "cyclotomic", "n": 44,
                                       "d": 1}})], "'d'"),
])
def test_unknown_descriptor_keys_exit_2(capsys, argv, key):
    assert main(argv) == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "schema"
    assert "descriptor: unknown key " + key in doc["error"]


def test_the_read_keys_still_answer(capsys):
    assert main(K3_CM_QUERY + [json.dumps(dict(CM_FIELD, se=SE_OUT))]) == \
        EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "feasible"


def test_an_unknown_kind_is_named_before_its_keys(capsys):
    assert main(_k3_query({"kind": "martian", "x": 1})) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out)["error"] == \
        "field: unknown field kind 'martian'"
