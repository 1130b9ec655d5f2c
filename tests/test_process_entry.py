"""The process entries freeze the collector; the in-process API does not.

`tf` (the `[project.scripts]` entry) and `python -m traceforms.cli` run
`cli.run`, and the grid script run as a program runs its own `run`: each
freezes what start-up made, which lives until exit, so no collection walks
it and shutdown does not tear it down.  `cli.main(argv)` is what tests, the
benchmark's in-process mode and the grid workload call, and it must leave
the collector as it found it."""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reference_invariants
from traceforms.cli import EXIT_BUDGET, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"
QUERIES = json.loads((GOLDEN / "cli.json").read_text())["queries"]
IDS = [f"{i}-{q['argv'][0]}" for i, q in enumerate(QUERIES)]

SEMIPRIME_ARGV = ["form-invariants", "--form",
                  '{"diagonal": ["1000000016000000063", 2]}']

# runs a module or script as __main__ and reports, from an atexit hook, the
# number of objects frozen when the interpreter begins to shut down
WRAPPER = """\
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"\\nfrozen={gc.get_freeze_count()}"))
"""


def _child(run, argv):
    """(exit code, stdout, freeze count at exit) of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER + run, *argv], env=env,
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    frozen = re.search(r"frozen=(\d+)\Z", proc.stderr)
    assert frozen, proc.stderr
    return proc.returncode, proc.stdout, int(frozen.group(1))


def _check_answer(query, code, out):
    if query["argv"] != SEMIPRIME_ARGV:
        assert (code, out) == (query["exit"], query["stdout"])
        return
    # the golden data records the budget error of trial division alone;
    # Brent's rho now splits the entry
    assert query["exit"] == EXIT_BUDGET
    dim, det, signature, _ = reference_invariants([1000000016000000063, 2])
    assert code == EXIT_OK
    assert json.loads(out) == {"det": str(det), "dim": dim, "hasse": [],
                               "signature": list(signature)}


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_main_leaves_the_collector_as_it_was(capsys, query):
    # its answers are checked against the golden data by test_golden_cli
    before = (gc.get_freeze_count(), gc.isenabled())
    main(list(query["argv"]))
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_module_entry_freezes_and_answers(query):
    code, out, frozen = _child(
        'runpy.run_module("traceforms.cli", run_name="__main__")',
        query["argv"])
    _check_answer(query, code, out)
    assert frozen > 0


def test_grid_script_freezes_and_answers():
    code, out, frozen = _child(
        "sys.argv[0] = sys.argv[1]; del sys.argv[1]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')",
        [str(ROOT / "scripts" / "run_realizability_grids.py"),
         "--format", "json", "--md-bound", "23"])
    assert (code, out) == (0, (GOLDEN / "grid.json").read_text())
    assert frozen > 0


def test_console_script_names_run():
    # read with a regex: tomllib is 3.11+ and the package supports 3.10
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text,
                        re.M)
    assert scripts
    assert re.findall(r'^tf\s*=\s*"([^"]*)"', scripts.group(1), re.M) == [
        "traceforms.cli:run"]
