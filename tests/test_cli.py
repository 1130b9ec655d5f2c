"""Command-line tests, run in-process: JSON documents, exit codes, table
formats, and byte-for-byte determinism of repeated queries."""

import json
from fractions import Fraction

import pytest

from conftest import reference_invariants
from traceforms.cli import (
    EXIT_BUDGET, EXIT_CRITERION, EXIT_OK, EXIT_SCHEMA, catalog_fields,
    load_catalog, main, parse_families, render_table, tabulate_rows,
    verdict_json,
)
from traceforms.exact import INF, hilbert_symbol
from traceforms.k3hk import picard_compatible
from traceforms.numfields import GeneralTotallyReal, RealQuadratic
from traceforms.poly import Poly
from traceforms.qforms import QuadraticForm
from traceforms.transfer import QuadFieldElement, rm_transfer_feasible

K3_DIAG = json.dumps({"diagonal": [1, -1] * 3 + [-1] * 16})


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_form_invariants_document(capsys):
    code, doc = run_json(capsys, "form-invariants", "--form", K3_DIAG)
    assert code == EXIT_OK
    assert doc == {"det": "-1", "dim": 22, "hasse": [2, "inf"],
                   "signature": [3, 19]}


def test_form_isomorphic(capsys):
    code, doc = run_json(capsys, "form-isomorphic",
                         "--a", '{"diagonal": [-2, -2]}',
                         "--b", '{"diagonal": [-1, -1]}')
    assert code == EXIT_OK
    assert doc == {"isomorphic": True}

    code, doc = run_json(capsys, "form-isomorphic",
                         "--a", '{"diagonal": [1, 1]}',
                         "--b", '{"diagonal": [1, -1]}')
    assert doc == {"isomorphic": False}


def test_form_split(capsys):
    code, doc = run_json(capsys, "form-split", "--ambient", K3_DIAG,
                         "--sub", '{"diagonal": [1, -1]}')
    assert code == EXIT_OK
    assert doc["feasible"] is True
    assert doc["complement_invariants"]["dim"] == 20


def test_represents_zero_with_witness(capsys):
    code, doc = run_json(capsys, "represents-zero",
                         "--form", '{"diagonal": [1, 1, -1]}')
    assert code == EXIT_OK
    assert doc["isotropic"] is True
    vals = [Fraction(x) for x in doc["witness"]]
    assert vals[0] ** 2 + vals[1] ** 2 - vals[2] ** 2 == 0
    assert any(vals)

    # five positive squares: locally fine everywhere finite, so the real
    # place is the reported obstruction
    code, doc = run_json(capsys, "represents-zero",
                         "--form", '{"diagonal": [1, 1, 1, 1, 1]}')
    assert doc["isotropic"] is False
    assert doc["obstruction_place"] == "inf"


def test_transfer_compute(capsys):
    code, doc = run_json(
        capsys, "transfer-compute",
        "--field", '{"kind": "real_quadratic", "d": 5}',
        "--entries", '[[1, 1], [1, 1], [-1, 0]]')
    assert code == EXIT_OK
    assert doc["invariants"]["dim"] == 6
    assert doc["invariants"]["signature"] == [2, 4]

    code, doc = run_json(
        capsys, "transfer-compute",
        "--field", '{"kind": "imag_quadratic", "D": 3}',
        "--entries", '["1", "-1"]')
    assert doc["transfer"]["diagonal"] == ["2", "6", "-2", "-6"]
    assert doc["invariants"]["det"] == "1"


def test_transfer_feasible_modes(capsys):
    code, doc = run_json(
        capsys, "transfer-feasible",
        "--field", '{"kind": "real_quadratic", "d": 2}',
        "--form", '{"diagonal": [1, 1, -1, -1, -1, -1]}',
        "--mode", "rm")
    assert code == EXIT_OK
    assert doc["feasible"] is True

    code, doc = run_json(
        capsys, "transfer-feasible",
        "--field", '{"kind": "imag_quadratic", "D": 1}',
        "--form", '{"diagonal": [1, -2, 5, -10]}',
        "--mode", "cm")
    assert doc["feasible"] is False
    assert doc["obstruction"]["condition"] == "(iii)"
    assert doc["obstruction"]["place"] == "5"


def test_k3_query(capsys):
    code, doc = run_json(capsys, "k3",
                         "--field", '{"kind": "imag_quadratic", "D": 1}',
                         "--m", "10", "--mode", "cm")
    assert code == EXIT_OK
    assert doc["feasible"] is True
    assert doc["family_dim"] == 9
    assert doc["pic_rank"] == 2
    assert doc["certificate"]["complement_shape"] == "hyperbolic"
    assert doc["certificate"]["complement_count"] == "unique-hyperbolic"


def test_hk_bound_row(capsys):
    # degree-8 CM field on the smallest ambient: over the dimension bound
    code, doc = run_json(capsys, "hk", "--family", "kummer", "--n", "2",
                         "--field", '{"kind": "cyclotomic", "n": 15}',
                         "--m", "1", "--mode", "cm")
    assert code == EXIT_OK
    assert doc["feasible"] is False
    assert doc["obstruction"]["condition"] == "dimension-bound"


def test_picard_query(capsys):
    code, doc = run_json(capsys, "picard",
                         "--form", '{"diagonal": [1, -1]}',
                         "--field", '{"kind": "imag_quadratic", "D": 1}',
                         "--m", "10", "--mode", "cm")
    assert code == EXIT_OK
    assert doc["feasible"] is True


def test_elliptic_cases(capsys):
    code, doc = run_json(capsys, "elliptic", "--case", "kondo-44")
    assert code == EXIT_OK
    assert doc["verdict"] == "yes"

    code, doc = run_json(capsys, "elliptic", "--case", "vorontsov-25")
    assert doc["verdict"] == "no"

    code, doc = run_json(
        capsys, "elliptic", "--context",
        '{"case": "degree-20", "field": {"kind": "cyclotomic", "n": 44}}')
    assert doc["verdict"] == "yes"

    # this named case asks a feasibility question, not a fibration one
    code, _ = run(capsys, "elliptic", "--case", "double-sextic-d2")
    assert code == EXIT_CRITERION

    code, _ = run(capsys, "elliptic", "--case", "banana")
    assert code == EXIT_SCHEMA

    code, _ = run(capsys, "elliptic", "--case", "kondo-44",
                  "--context", '{"case": "small-degree", "degree": 2}')
    assert code == EXIT_SCHEMA


def test_tabulate_k3_rm_grid(capsys):
    code, doc = run_json(capsys, "tabulate", "--mode", "rm")
    assert code == EXIT_OK
    assert doc["count"] == 64
    assert len(doc["rows"]) == 64
    assert all(r["feasible"] for r in doc["rows"])
    assert all(r["m"] >= 3 and r["md"] <= 21 for r in doc["rows"])
    # one row per admissible (field, m); count them independently
    degrees = [2] * 7 + [3, 5, 6]
    want = sum(len(range(3, 21 // d + 1)) for d in degrees)
    assert doc["count"] == want


def test_tabulate_k3_cm_grid(capsys):
    code, doc = run_json(capsys, "tabulate", "--mode", "cm",
                         "--md-bound", "20")
    assert code == EXIT_OK
    assert doc["count"] == 70
    assert all(r["feasible"] for r in doc["rows"])
    ranks = {r["m"]: r["family_dim"] for r in doc["rows"]
             if r["field"] == "Q(sqrt -1)"}
    assert ranks[1] == "countable"
    assert ranks[10] == 9


def test_tabulate_kummer_bound_rows(capsys):
    code, doc = run_json(capsys, "tabulate", "--mode", "cm",
                         "--families", "kummer:2", "--md-bound", "8")
    assert code == EXIT_OK
    over = [r for r in doc["rows"] if r["md"] > 6]
    assert over and all(not r["feasible"] for r in over)
    assert all(r["criterion"] == "dimension-bound" for r in over)
    within = [r for r in doc["rows"] if r["md"] <= 6]
    assert within and all(r["feasible"] for r in within)


def test_tabulate_row_count_invariant(capsys):
    code, doc = run_json(capsys, "tabulate", "--mode", "cm",
                         "--families", "kummer:2", "--md-bound", "6")
    assert code == EXIT_OK
    # |catalog| x |admissible m| with degrees 2,2,2,2,4,4,6,6,8,8,8,...
    degrees = [2] * 4 + [4, 4, 6, 6, 8, 8, 8, 12, 16, 18, 20, 20, 20, 20]
    want = sum(6 // d for d in degrees)
    assert doc["count"] == want


def test_tabulate_formats(capsys):
    code, csv_out = run(capsys, "tabulate", "--mode", "rm",
                        "--families", "og6", "--md-bound", "7",
                        "--format", "csv")
    assert code == EXIT_OK
    lines = csv_out.strip().split("\n")
    assert lines[0].startswith("family,field,degree,m,md,mode,feasible")
    assert len(lines) > 1

    code, md_out = run(capsys, "tabulate", "--mode", "rm",
                       "--families", "og6", "--md-bound", "7",
                       "--format", "markdown")
    assert code == EXIT_OK
    md_lines = md_out.strip().split("\n")
    assert md_lines[0].startswith("| family |")
    assert set(md_lines[1].replace("|", "").split()) == {"---"}
    assert len(md_lines) == len(lines) + 1


def test_tabulate_multi_family_determinism(capsys):
    argv = ("tabulate", "--mode", "cm",
            "--families", "k3,kummer:2,og6,hilbk3:2,og10",
            "--md-bound", "12")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2

    code1, rep1 = run(capsys, "k3",
                      "--field", '{"kind": "cyclotomic", "n": 44}',
                      "--m", "1", "--mode", "cm")
    code2, rep2 = run(capsys, "k3",
                      "--field", '{"kind": "cyclotomic", "n": 44}',
                      "--m", "1", "--mode", "cm")
    assert rep1 == rep2


def test_exit_codes(capsys):
    code, doc = run_json(capsys, "form-invariants", "--form", "not json")
    assert code == EXIT_SCHEMA
    assert doc["kind"] == "schema"

    code, doc = run_json(capsys, "tabulate", "--mode", "rm",
                         "--families", "enriques")
    assert code == EXIT_SCHEMA

    code, doc = run_json(capsys, "k3",
                         "--field", '{"kind": "imag_quadratic", "D": 1}',
                         "--m", "0", "--mode", "cm")
    assert code == EXIT_CRITERION
    assert doc["kind"] == "criterion"

    code, doc = run_json(
        capsys, "transfer-feasible",
        "--field", '{"kind": "real_quadratic", "d": 2}',
        "--form", '{"diagonal": [1, 1, -1, -1]}', "--mode", "rm")
    assert code == EXIT_CRITERION

    hard = str(1000003 * 1000033)
    code, doc = run_json(capsys, "form-invariants",
                         "--form", json.dumps({"diagonal": [hard]}),
                         "--budget", "1000")
    assert code == EXIT_BUDGET
    assert doc["kind"] == "budget"


def test_budget_zero_means_zero(capsys):
    """--budget 0 is a budget of zero, not the default."""
    form = '{"diagonal": [1, 1, -3, 5, 7]}'
    code, doc = run_json(capsys, "represents-zero", "--form", form,
                         "--budget", "0")
    assert code == EXIT_OK
    assert doc == {"isotropic": True}
    code, doc = run_json(capsys, "represents-zero", "--form", form)
    assert "witness" in doc

    code, doc = run_json(capsys, "form-invariants",
                         "--form", '{"diagonal": [35]}', "--budget", "0")
    assert code == EXIT_BUDGET
    assert doc["kind"] == "budget"


@pytest.mark.parametrize("command", ["form-invariants", "represents-zero"])
def test_negative_budget_is_rejected(capsys, command):
    code, doc = run_json(capsys, command, "--form", '{"diagonal": [1, -1]}',
                         "--budget", "-1")
    assert code == EXIT_SCHEMA
    assert doc["kind"] == "schema"
    assert doc["status"] == "error"


def test_represents_zero_past_trial_division(capsys):
    """Each entry classifies alone and the form's classes carry their
    primes, so the determinant 1000003 * 1000033 is never factored.  The
    reported place is checked with the ternary criterion of Serre, A Course
    in Arithmetic, IV.2.2: a rank-3 form is isotropic at v exactly when its
    Hasse bit equals (-1, -det)_v, here from the primes `sympy` finds."""
    diagonal = [1000003, 1000033, -1]
    code, doc = run_json(capsys, "represents-zero",
                         "--form", json.dumps({"diagonal": diagonal}))
    assert code == EXIT_OK
    assert doc == {"isotropic": False, "obstruction_place": "1000003"}
    _, det, _, hasse = reference_invariants(diagonal)

    def isotropic_at(v):
        return int(v in hasse) == hilbert_symbol(-1, -det, v)

    assert not isotropic_at(1000003)
    # odd primes are reported first, in increasing order: none before it
    assert all(isotropic_at(p) for p in sorted(hasse - {INF}) if p < 1000003)


def test_form_invariants_of_a_semiprime_entry_is_factored_past_trial_division(
        capsys):
    # 1000000016000000063 = 1000000007 * 1000000009: the entry itself needs
    # a factorization beyond trial division.  It was a budget error (exit
    # 4) while trial division was the only route, and still is within a
    # budget of 1000; Brent's rho splits it under the default budget
    entry = '{"diagonal": ["1000000016000000063", 2]}'
    code, doc = run_json(capsys, "form-invariants", "--form", entry,
                         "--budget", "1000")
    assert code == EXIT_BUDGET
    assert doc["kind"] == "budget"
    code, doc = run_json(capsys, "form-invariants", "--form", entry)
    assert code == EXIT_OK
    dim, det, signature, hasse = reference_invariants(
        [1000000016000000063, 2])
    assert (det, hasse) == (2 * 1000000007 * 1000000009, frozenset())
    assert doc == {"det": str(det), "dim": dim, "hasse": [],
                   "signature": list(signature)}


def test_budget_errors_exit_4_from_every_handler(capsys):
    """A number past trial division (and, in form data, past Brent's rho) is
    a budget error (exit 4) wherever the handler meets it, not a criterion
    error.  A field's d is factored by trial division only, so
    1000000007 * 1000000009 still exits 4 there; in a form, rho splits it,
    and the product of the two primes after 10^20 resists."""
    d = "1000000016000000063"
    n = str(100000000000000000039 * 100000000000000000129)
    queries = [
        ("transfer-feasible", "--field", '{"kind": "real_quadratic", "d": 2}',
         "--form", json.dumps({"diagonal": [n, 1, -1, -1, -1, -1]}),
         "--mode", "rm"),
        ("k3", "--field", json.dumps({"kind": "real_quadratic", "d": d}),
         "--m", "3", "--mode", "rm"),
        ("picard", "--form", json.dumps({"diagonal": [n, -1]}),
         "--field", '{"kind": "imag_quadratic", "D": 1}',
         "--m", "10", "--mode", "cm"),
        ("elliptic", "--context", json.dumps(
            {"case": "picard-form", "form": {"diagonal": [n, -1]}})),
    ]
    for argv in queries:
        code, doc = run_json(capsys, *argv)
        assert (code, doc["kind"]) == (EXIT_BUDGET, "budget"), argv[0]
        assert (d if argv[0] == "k3" else n) in doc["error"]


# ---------------------------------------------------------------------------
# --witness and --catalog, against the library calls they stand for

# 2cos(2 pi / 13): a totally real sextic, where a witness decides rm
SEXTIC = [-1, 3, 6, -4, -5, 1, 1]


def test_transfer_feasible_rm_witness_over_a_real_quadratic_field(capsys):
    # the witness parses to a field element; over a real quadratic field
    # the norm class is decided outright, with or without it
    form = [1, 1, -1, -1, -1, -1]
    code, doc = run_json(
        capsys, "transfer-feasible",
        "--field", '{"kind": "real_quadratic", "d": 2}',
        "--form", json.dumps({"diagonal": form}), "--mode", "rm",
        "--witness", "[3, 1]")
    witness = QuadFieldElement.make(Fraction(3), Fraction(1))
    want = rm_transfer_feasible(RealQuadratic(2), QuadraticForm.make(form),
                                witness=witness)
    assert code == EXIT_OK
    assert doc == verdict_json(want)
    assert doc["feasible"] is True


@pytest.mark.parametrize("witness, status", [
    ([2, -1], "feasible"),           # 2 - x has norm class 13
    ([1], "needs_witness"),          # norm 1: rejected
])
def test_picard_witness_over_a_totally_real_sextic(capsys, witness, status):
    code, doc = run_json(
        capsys, "picard", "--form", '{"diagonal": [1, -1, -1, -1]}',
        "--field", json.dumps({"kind": "general_tr", "minpoly": SEXTIC}),
        "--m", "3", "--mode", "rm", "--witness", json.dumps(witness))
    E = GeneralTotallyReal(tuple(Fraction(c) for c in SEXTIC))
    want = picard_compatible(QuadraticForm.make([1, -1, -1, -1]), E, 3, "rm",
                             witness=Poly.make([Fraction(c) for c in witness]))
    assert code == EXIT_OK
    assert doc == verdict_json(want)
    assert doc["status"] == status


@pytest.mark.parametrize("mode, fmt", [("rm", "json"), ("cm", "csv")])
def test_tabulate_from_a_catalog_file(capsys, tmp_path, mode, fmt):
    catalog = {
        "totally_real": {"quadratic": [5],
                         "higher": [{"name": "sextic-cond-13",
                                     "minpoly": SEXTIC}]},
        "cm": {"imag_quadratic": [3], "cyclotomic": [7]},
    }
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(catalog))
    code, out = run(capsys, "tabulate", "--mode", mode,
                    "--families", "k3,og6", "--catalog", str(path),
                    "--format", fmt)
    fields = catalog_fields(load_catalog(path), mode)
    rows = tabulate_rows(mode, parse_families("k3,og6"), fields, 21)
    assert code == EXIT_OK
    assert out == render_table(rows, fmt)
    assert {r["field"] for r in rows} == {label for label, _, _ in fields}
    assert len(fields) == 2


@pytest.mark.parametrize("field, entries, error", [
    ({"kind": "real_quadratic", "d": 4}, [[1, 1], [-1, 0]],
     "d must be squarefree, got 4"),
    ({"kind": "real_quadratic", "d": 1}, [[1, 1], [-1, 0]],
     "real quadratic needs d >= 2"),
    ({"kind": "imag_quadratic", "D": 4}, [1, -1], "D must be squarefree, got 4"),
    ({"kind": "imag_quadratic", "D": 0}, [1, -1], "D must be positive"),
    ({"kind": "imag_quadratic", "D": -3}, [1, -1], "D must be positive"),
])
def test_transfer_compute_rejects_what_transfer_feasible_rejects(
        capsys, field, entries, error):
    raw = json.dumps(field)
    code, doc = run_json(capsys, "transfer-compute", "--field", raw,
                         "--entries", json.dumps(entries))
    assert code == EXIT_CRITERION
    assert doc == {"status": "error", "kind": "criterion", "error": error}
    mode = "rm" if field["kind"] == "real_quadratic" else "cm"
    assert run_json(capsys, "transfer-feasible", "--field", raw, "--form",
                    '{"diagonal": [1, -1, -1, -1]}', "--mode", mode) \
        == (code, doc)


def test_form_invariants_of_a_semiprime_past_float_range_is_a_budget_error(
        capsys):
    n = (10 ** 200 + 357) * (10 ** 200 + 627)
    code, doc = run_json(capsys, "form-invariants",
                         "--form", json.dumps({"diagonal": [str(n), 2]}))
    assert code == EXIT_BUDGET
    assert doc["kind"] == "budget"


@pytest.mark.parametrize("minpoly", [[0, 0, 1], [-2, 5, -4, 1]])
def test_non_squarefree_minimal_polynomial_exits_3(capsys, minpoly):
    field = json.dumps({"kind": "general_tr", "minpoly": minpoly})
    code, doc = run_json(capsys, "k3", "--field", field, "--m", "4",
                         "--mode", "rm")
    assert code == EXIT_CRITERION
    assert doc == {"status": "error", "kind": "criterion",
                   "error": "minimal polynomial is not squarefree"}
