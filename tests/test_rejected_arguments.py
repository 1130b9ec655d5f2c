"""Arguments that used to be dropped or doubled without a word: a
complement hint in cm mode, which only the rm engine reads, and a family
listed twice in a grid request, which printed each of its rows twice."""

import importlib.util
from pathlib import Path

import pytest

from traceforms.cli import EXIT_SCHEMA, SchemaError, main, parse_families
from traceforms.numfields import ImagQuadratic
from traceforms.qforms import QuadraticForm
from traceforms.transfer import split_transfer_feasible

ROOT = Path(__file__).resolve().parent.parent


def test_cm_complement_hint_raises():
    V = QuadraticForm.make([1, 1, -1, -1, -1])
    E = ImagQuadratic(1)
    # without the hint the split is feasible with forced complement -1, so
    # a hint of 7 used to be answered as if it had not been given
    plain = split_transfer_feasible(V, E, 2, "cm")
    assert plain.certificate["forced_complement"] == "-1"
    with pytest.raises(ValueError, match="rm engine"):
        split_transfer_feasible(V, E, 2, "cm", complement_hint=7)
    with pytest.raises(ValueError, match="rm engine"):
        split_transfer_feasible(V, E, 2, "cm", complement_hint=-1)


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
    path = ROOT / "scripts" / "run_realizability_grids.py"
    spec = importlib.util.spec_from_file_location("run_realizability_grids",
                                                  path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SchemaError, match="repeats an earlier family"):
        script.main(["--families", "k3,kummer:2,k3", "--format", "csv"])
    assert capsys.readouterr().out == ""
