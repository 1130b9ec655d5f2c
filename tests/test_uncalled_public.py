"""The public top-level functions of `src/traceforms` that nothing in
`src/` or `scripts/` refers to, checked against a written list.

A function is referred to when its name is loaded anywhere outside its own
definition, as `f` or as `module.f`.  An import alone does not count, and
the unused-import rule of `tests/test_source_hygiene.py` keeps imports
honest.  A name in the list has callers only in the tests, the acceptance
checks or the benchmark, so a change that adds or removes one shows in
review, and "delete whatever has no caller" has a list to work from.
"""

import ast
from pathlib import Path

import pytest

from conftest import parse_file

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "traceforms").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = {p.stem for p in SOURCES}

#: each uncalled public function, by module, with who reads it
UNCALLED = {
    # the count surface that tests read
    "exact.clear_memos", "exact.memos",
    # traced by the benchmark's per-layer report
    "exact.hilbert_support", "numfields.lambda_plus_quadratic",
    # read by the acceptance checks and the tests
    "exact.legendre", "k3hk.evaluate_famous", "k3hk.hodge_group_label",
    "numfields.is_norm_quadratic", "poly.isolate_real_roots",
    "transfer.condition_C_profile", "transfer.predicted_invariants",
    "transfer.validate_cm_rank2_complement",
    # the form API that tests read
    "qforms.hyperbolic_plane", "qforms.invariants_from_json",
    "qforms.witt_add", "qforms.witt_zero",
    # local hyperbolicity of a form; the library reads it from invariants
    "qforms.is_locally_hyperbolic",
}


def _loaded_names(stmt: ast.AST) -> set:
    """The names a top-level statement loads: bare, or as an attribute of
    one of the library's modules."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            out.add(node.attr)
    return out


def uncalled(sources, others=()) -> set:
    """`module.name` of each public top-level function of the (module,
    tree) pairs `sources` that no statement of `sources` or of the trees
    `others` loads, other than its own definition."""
    defs, loads = [], []
    for module, tree in sources:
        for stmt in tree.body:
            if (isinstance(stmt, ast.FunctionDef)
                    and not stmt.name.startswith("_")):
                defs.append((module, stmt))
    for tree in [tree for _, tree in sources] + list(others):
        loads += [(stmt, _loaded_names(stmt)) for stmt in tree.body]
    return {f"{module}.{stmt.name}" for module, stmt in defs
            if not any(other is not stmt and stmt.name in names
                       for other, names in loads)}


def test_uncalled_public_functions_are_the_listed_ones():
    found = uncalled([(p.stem, parse_file(p)) for p in SOURCES],
                     map(parse_file, SCRIPTS))
    if found != UNCALLED:
        pytest.fail(f"not listed: {sorted(found - UNCALLED)}; "
                    f"listed but called: {sorted(UNCALLED - found)}")


SNIPPET = """
from .qforms import imported_only

def bare(): return 1
def through_module(): return 2
def recursive(n): return recursive(n - 1) if n else 0
def _private(): return 3
def attribute(): return 4
def caller(): return bare() + qforms.through_module() + other.attribute
"""


def test_the_scan_counts_loads_not_imports_or_own_calls():
    found = uncalled([("snippet", ast.parse(SNIPPET))])
    # other.attribute is no load of `attribute`: `other` is not a module
    if found != {"snippet.recursive", "snippet.attribute", "snippet.caller"}:
        pytest.fail(f"snippet scan found {sorted(found)}")
    # a script's load counts too
    found = uncalled([("snippet", ast.parse(SNIPPET))],
                     [ast.parse("caller()\nrecursive(3)\nattribute()\n")])
    if found:
        pytest.fail(f"snippet scan with a script found {sorted(found)}")
