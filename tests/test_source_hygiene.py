"""Static checks over the library source, standard library only.

No `assert` statement: invariant guards must survive `python -O`, so they
raise explicitly.  No imported name that its module never references
(`from __future__ import annotations` is exempt).  No private top-level
definition that the library never refers to.  No `exact.Record` subclass
writes its own `__init__`, `__eq__` or `__hash__` outside a named list.  The checks report through
`pytest.fail`, so they also run under `python -O`.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "traceforms").glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    if lines:
        pytest.fail(f"{path.name}: assert statements at lines {lines}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    if unused:
        pytest.fail(f"{path.name}: unused imports "
                    + ", ".join(f"{name} (line {line})" for line, name in unused))


def _references(stmt: ast.AST) -> set:
    """Every name and attribute that a top-level statement refers to."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_private_definitions_have_a_caller():
    defs, refs = [], []
    for path in SOURCES:
        for stmt in _tree(path).body:
            refs.append((stmt, _references(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                defs.append((path.name, stmt))
    dead = [f"{name}:{stmt.name} (line {stmt.lineno})" for name, stmt in defs
            if not any(other is not stmt and stmt.name in used
                       for other, used in refs)]
    if dead:
        pytest.fail("private definitions without a caller: " + ", ".join(dead))


#: the `Record` subclasses that write their own dunders: the six
#: constructors normalize or check their arguments, and `QuadraticForm`
#: hashes its diagonal once.  Every other class takes the base's.
OWN_DUNDERS = {
    "__init__": {"SquareClass", "Cyclotomic", "GeneralTotallyReal",
                 "GeneralCM", "QuadraticForm", "FormInvariants"},
    "__eq__": {"QuadraticForm"},
    "__hash__": {"QuadraticForm"},
}


def test_records_write_their_own_dunders_only_where_listed():
    found = {name: set() for name in OWN_DUNDERS}
    records = 0
    for path in SOURCES:
        for stmt in _tree(path).body:
            if not (isinstance(stmt, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Record"
                            for b in stmt.bases)):
                continue
            records += 1
            for item in stmt.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef)
                         else [t.id for t in getattr(item, "targets", ())
                               if isinstance(t, ast.Name)])
                for name in names:
                    if name in found:
                        found[name].add(stmt.name)
    if records < 20:
        pytest.fail(f"only {records} Record subclasses found")
    if found != OWN_DUNDERS:
        pytest.fail(f"own dunders {found}, expected {OWN_DUNDERS}")


def test_sources_found():
    names = {p.name for p in SOURCES}
    if not {"exact.py", "qforms.py", "transfer.py"} <= names:
        pytest.fail(f"library sources not found: {sorted(names)}")
