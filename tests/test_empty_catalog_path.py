"""An empty `--catalog` names no file: `tf tabulate` and
`scripts/run_realizability_grids.py` answer it with the schema error
document and exit 2, instead of reading the built-in catalog.  No path, or
None, still reads the built-in one."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from traceforms.cli import (
    EXIT_SCHEMA, SchemaError, default_catalog_path, exit_code, load_catalog,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_realizability_grids.py"
ERROR = {"status": "error", "kind": "schema",
         "error": "catalog: the path is empty"}


def _script():
    spec = importlib.util.spec_from_file_location("run_realizability_grids",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_load_catalog_refuses_an_empty_path():
    with pytest.raises(SchemaError, match="the path is empty"):
        load_catalog("")


def test_no_path_reads_the_built_in_catalog():
    assert load_catalog() == load_catalog(None) == \
        load_catalog(str(default_catalog_path()))


@pytest.mark.parametrize("argv", [["--catalog", ""], ["--catalog="]])
def test_tabulate_and_the_grid_script_exit_2(capsys, argv):
    assert main(["tabulate", "--mode", "cm", "--md-bound", "2",
                 "--format", "csv", *argv]) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == ERROR
    assert exit_code(_script().main, argv) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == ERROR


def test_tf_command_line_exits_2():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    proc = subprocess.run(
        [sys.executable, "-m", "traceforms.cli", "tabulate", "--mode", "cm",
         "--md-bound", "2", "--format", "csv", "--catalog", ""],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_SCHEMA
    assert json.loads(proc.stdout) == ERROR
    assert "Traceback" not in proc.stderr
