"""A catalog's `higher` entry is an object with only the keys of
`cli.HIGHER_ENTRY_KEYS`, and a catalog file is UTF-8 JSON text.  A
misspelled key, an entry that is not an object and bytes that are not UTF-8
are each malformed input (exit 2) with a schema error, from `tf tabulate`
and from the grid script alike."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from traceforms.cli import (
    EXIT_OK, EXIT_SCHEMA, HIGHER_ENTRY_KEYS, catalog_fields, exit_code,
    load_catalog, main,
)

ROOT = Path(__file__).resolve().parent.parent


def _grid_script():
    spec = importlib.util.spec_from_file_location(
        "run_realizability_grids",
        ROOT / "scripts" / "run_realizability_grids.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _refused(capsys, path):
    """The schema error that `tf tabulate --mode rm` and the grid script
    both give for the catalog at `path`."""
    assert main(["tabulate", "--mode", "rm", "--catalog", str(path)]) \
        == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error" and doc["kind"] == "schema"
    assert exit_code(_grid_script().main,
                     ["--mode", "rm", "--catalog", str(path)]) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == doc
    return doc["error"]


@pytest.mark.parametrize("entry, error", [
    # the misspelled key was dropped, and the field tabulated with exit 0
    ({"name": "q5", "minpoly": [-5, 0, 1], "degre": 3},
     "catalog: totally_real.higher entry {'name': 'q5', 'minpoly': "
     "[-5, 0, 1], 'degre': 3}: unknown key 'degre'"),
    # a string entry was refused with "string indices must be integers"
    ("x", "catalog: totally_real.higher entry 'x': must be an object with "
          "'name' and 'minpoly'"),
    ([-5, 0, 1], "catalog: totally_real.higher entry [-5, 0, 1]: must be an "
                 "object with 'name' and 'minpoly'"),
])
def test_malformed_higher_entry_exits_2(tmp_path, capsys, entry, error):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"totally_real": {"higher": [entry]},
                                "cm": {}}))
    assert _refused(capsys, path) == error


def test_every_documented_key_is_taken(tmp_path, capsys):
    entry = {"name": "q5", "minpoly": [-5, 0, 1], "degree": 2, "disc": 20,
             "disc_class": 5, "comment": "x^2 - 5"}
    assert set(entry) == set(HIGHER_ENTRY_KEYS)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"totally_real": {"higher": [entry]},
                                "cm": {}}))
    assert main(["tabulate", "--mode", "rm", "--catalog", str(path)]) \
        == EXIT_OK
    assert json.loads(capsys.readouterr().out)["count"] > 0
    for higher in load_catalog()["totally_real"]["higher"]:
        assert set(higher) <= set(HIGHER_ENTRY_KEYS)
    assert [label for label, _, _ in catalog_fields(load_catalog(), "rm")]


def test_catalog_that_is_not_utf8_exits_2(tmp_path, capsys):
    # the byte 0xff was a decoding error of the locale's codec, reported as
    # a criterion error with exit 3
    path = tmp_path / "catalog.json"
    path.write_bytes(b'{"totally_real": {"higher": [{"name": "q\xff", '
                     b'"minpoly": [-5, 0, 1]}]}, "cm": {}}')
    error = _refused(capsys, path)
    assert error.startswith("catalog: invalid JSON ('utf-8' codec can't "
                            "decode byte 0xff")


def test_utf8_catalog_reads_whatever_the_locale(tmp_path):
    # a name outside ASCII, read by an interpreter whose locale codec is
    # ASCII: it was a decoding error (exit 3)
    path = tmp_path / "catalog.json"
    path.write_bytes(json.dumps({"totally_real": {"higher": [
        {"name": "\u211a(\u221a5)", "minpoly": [-5, 0, 1]}]}, "cm": {}},
        ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "traceforms.cli", "tabulate", "--mode", "rm",
         "--catalog", str(path)], env=env, capture_output=True)
    assert proc.returncode == EXIT_OK
    rows = json.loads(proc.stdout.decode("utf-8"))["rows"]
    assert {row["field"] for row in rows} == {"\u211a(\u221a5)"}
