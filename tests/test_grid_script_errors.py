"""Bad input to `scripts/run_realizability_grids.py` ends as it does for
`tf tabulate`: the JSON error document on stdout and exit code 2, not a
traceback.  Both answer through `cli.exit_code`."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from traceforms.cli import EXIT_SCHEMA, exit_code, main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_realizability_grids.py"


def _script():
    spec = importlib.util.spec_from_file_location("run_realizability_grids",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv(case, tmp_path):
    if case == "repeated family":
        return ["--families", "k3,k3"]
    catalog = tmp_path / "no_cm.json"
    catalog.write_text(json.dumps({"totally_real": {"quadratic": [2, 5]}}))
    return ["--catalog", str(catalog)]


CASES = ["repeated family", "catalog without cm"]


@pytest.mark.parametrize("case", CASES)
def test_grid_script_main_answers_like_tabulate(capsys, tmp_path, case):
    argv = _argv(case, tmp_path)
    assert exit_code(_script().main, argv) == EXIT_SCHEMA
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error" and doc["kind"] == "schema"
    assert main(["tabulate", "--mode", "cm", *argv]) == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().out) == doc


@pytest.mark.parametrize("case", CASES)
def test_grid_script_command_line(tmp_path, case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    proc = subprocess.run([sys.executable, str(SCRIPT), *_argv(case, tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_SCHEMA
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error" and doc["kind"] == "schema"
    assert "Traceback" not in proc.stderr
