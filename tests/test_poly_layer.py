"""The polynomial layer lives in `traceforms.poly`, and only what needs a
field given by a minimal polynomial loads it.

Each cold check runs in a fresh interpreter, as in
`tests/test_cli_imports.py`, which reports the `traceforms` modules it
loaded on stderr.  The names that moved out of `exact` are read from `poly`
only: `exact` neither defines nor answers for them, and a lookup of any
other name it lacks, dunders included, raises without importing `poly`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import parse_file
from traceforms import exact, poly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "traceforms"
QUERIES = json.loads((ROOT / "perfbench" / "golden" / "cli.json")
                     .read_text())["queries"]

FORM_QUERIES = ("form-invariants", "form-isomorphic", "form-split",
                "represents-zero")
#: golden queries whose fields are decided in `numfields`
FIELD_QUERIES = ("transfer-compute", "transfer-feasible", "k3", "tabulate")
#: every name that moved from `exact` to `poly`
MOVED = ("Poly", "poly_gcd", "squarefree_part", "sturm_chain", "_variations",
         "_sturm_query", "root_bound", "_split_point", "isolate_real_roots",
         "_isolate_squarefree", "count_real_roots", "signs_at_real_roots",
         "norm_via_resultant", "_resultant")

CHILD = """\
import sys
code = 0
{body}
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[0] == "traceforms")), file=sys.stderr)
sys.exit(code)
"""
QUERY = "from traceforms.cli import main\ncode = main(sys.argv[1:])"


def cold(body, argv=()):
    """(exit code, stdout, traceforms modules loaded) of `body`, run with
    `argv` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD.format(body=body),
                           *argv], env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    return (proc.returncode, proc.stdout,
            set(proc.stderr.strip().splitlines()[-1].split()))


@pytest.mark.parametrize("body", ["import traceforms.cli",
                                  "from traceforms import qforms"])
def test_form_layers_do_not_load_poly(body):
    code, _, modules = cold(body)
    assert code == 0
    assert "traceforms.exact" in modules
    assert "traceforms.poly" not in modules


@pytest.mark.parametrize("query", QUERIES, ids=[
    f"{i}-{q['argv'][0]}" for i, q in enumerate(QUERIES)])
def test_poly_loads_with_numfields_and_only_then(query):
    code, out, modules = cold(QUERY, query["argv"])
    command = query["argv"][0]
    if command in FORM_QUERIES:
        assert "traceforms.poly" not in modules
    if command in FIELD_QUERIES:
        assert "traceforms.numfields" in modules
    assert ("traceforms.poly" in modules) == \
        ("traceforms.numfields" in modules)
    if "traceforms.numfields" in modules:
        assert (code, out) == (query["exit"], query["stdout"])


def test_six_golden_form_queries():
    assert sum(q["argv"][0] in FORM_QUERIES for q in QUERIES) == 6


# ---------------------------------------------------------------------------
# the moved names are not read through `exact`


@pytest.mark.parametrize("name", MOVED)
def test_a_moved_name_read_through_exact_is_the_poly_object(name):
    # named for the alias that `exact` once kept; the name has one route now
    assert not hasattr(exact, name)
    assert hasattr(poly, name)


def test_dunder_lookups_on_exact_do_not_load_poly():
    # `from .exact import ...` asks for `__path__`; doctest collection asks
    # for `__test__`
    code, out, modules = cold(
        "import traceforms.exact as e\n"
        "print(hasattr(e, '__path__'), getattr(e, '__test__', None))")
    assert (code, out) == (0, "False None\n")
    assert "traceforms.poly" not in modules


def test_an_unknown_name_raises_without_loading_poly():
    with pytest.raises(AttributeError, match="no_such_name"):
        exact.no_such_name
    code, out, modules = cold(
        "import traceforms.exact as e\n"
        "try:\n"
        "    e.no_such_name\n"
        "except AttributeError:\n"
        "    print('raised')")
    assert (code, out) == (0, "raised\n")
    assert "traceforms.poly" not in modules


def _defined(tree):
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = getattr(stmt, "targets", None) or [stmt.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def test_exact_defines_no_moved_name_and_poly_defines_them_all():
    assert not _defined(parse_file(SRC / "exact.py")) & set(MOVED)
    assert set(MOVED) <= _defined(parse_file(SRC / "poly.py"))


def test_poly_imports_only_exact_and_the_standard_library():
    modules = set()
    for node in ast.walk(parse_file(SRC / "poly.py")):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    local = {m for m in modules
             if m.split(".")[0] not in sys.stdlib_module_names}
    assert local == {".exact"}
