"""Static checks over the library source, standard library only.

No `assert` statement: invariant guards must survive `python -O`, so they
raise explicitly.  No imported name that its module never references
(`from __future__ import annotations` is exempt).  No private top-level
definition that the library never refers to.  No `exact.Record` subclass
writes its own `__init__`, `__eq__` or `__hash__` outside a named list.
Every name is read from the module that defines it.  The checks report
through `pytest.fail`, so they also run under `python -O`.
"""

import ast
from pathlib import Path

import pytest

from conftest import parse_file

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "traceforms").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse_file(path))
             if isinstance(node, ast.Assert)]
    if lines:
        pytest.fail(f"{path.name}: assert statements at lines {lines}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse_file(path)
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
        for stmt in parse_file(path).body:
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
        for stmt in parse_file(path).body:
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


# ---------------------------------------------------------------------------
# one boundary for outside input

#: the errors a JSON reader raises on malformed input
READER_ERRORS = {"KeyError", "TypeError", "ValueError", "ZeroDivisionError",
                 "DescriptorError"}


def _source(name: str) -> Path:
    return next(p for p in SOURCES if p.name == name)


def _caught_names(handler: ast.ExceptHandler) -> set:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def _relabels(handler: ast.ExceptHandler) -> bool:
    """Does the handler raise a SchemaError whose text holds the caught
    error's?"""
    for node in ast.walk(handler):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "SchemaError"):
            if any(isinstance(n, ast.Name) and n.id == handler.name
                   for arg in node.exc.args for n in ast.walk(arg)):
                return True
    return False


def test_cli_relabels_reader_errors_only_inside_read():
    tree = parse_file(_source("cli.py"))
    gates = [f for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name == "read"]
    if len(gates) != 1:
        pytest.fail("cli.py has no top-level `read` gate")
    inside = {id(node) for node in ast.walk(gates[0])}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and id(node) not in inside
             and _caught_names(node) & READER_ERRORS and _relabels(node)]
    if stray:
        pytest.fail(f"cli.py relabels reader errors outside `read` at lines "
                    f"{stray}")


def test_no_second_rational_reader():
    """Every JSON rational is read by `exact.rational_from`: `Fraction(str(x))`
    would also take a JSON float."""
    found = []
    for path in SOURCES:
        for node in ast.walk(parse_file(path)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Fraction"
                    and node.args and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "id", None) == "str"):
                found.append(f"{path.name}:{node.lineno}")
    if found:
        pytest.fail("Fraction(str(...)) at " + ", ".join(found))


#: the fixed-form criteria, whose field-kind check is `check_mode`'s
CRITERIA = ("cm_transfer_feasible", "rm_transfer_feasible",
            "validate_cm_rank2_complement")


def test_criteria_take_their_field_kind_check_from_check_mode():
    funcs = {f.name: f for f in parse_file(_source("transfer.py")).body
             if isinstance(f, ast.FunctionDef) and f.name in CRITERIA}
    if set(funcs) != set(CRITERIA):
        pytest.fail(f"criteria not found: {sorted(set(CRITERIA) - set(funcs))}")
    for name, func in funcs.items():
        nodes = list(ast.walk(func))
        if any(isinstance(n, ast.Attribute) and n.attr == "is_cm"
               for n in nodes):
            pytest.fail(f"{name} tests the field kind itself")
        if not any(isinstance(n, ast.Call)
                   and getattr(n.func, "id", None) == "check_mode"
                   for n in nodes):
            pytest.fail(f"{name} does not call check_mode")


# ---------------------------------------------------------------------------
# one route per name


def _owners() -> dict:
    """Each name bound at the top level of a `traceforms` module, mapped to
    the modules that bind it other than by an import."""
    owners = {}
    for path in SOURCES:
        for stmt in parse_file(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                owners.setdefault(name, set()).add(path.stem)
    return owners


def _routes(path: Path, modules: set):
    """(line, module, name) for each `from traceforms.X import name` (or
    `from .X import name` inside the package) and each `X.name` read through
    a module bound by `from traceforms import X` or `import traceforms.X as
    Y`."""
    tree = parse_file(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = ("traceforms." * node.level + (node.module or "")) \
                .strip(".").split(".")
            if parts[0] != "traceforms":
                continue
            if len(parts) == 1:
                bound.update((a.asname or a.name, a.name) for a in node.names
                             if a.name in modules)
            elif parts[1] in modules:
                yield from ((node.lineno, parts[1], a.name)
                            for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if a.asname and parts[0] == "traceforms" and len(parts) == 2:
                    bound[a.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield node.lineno, bound[node.value.id], node.attr


def test_every_name_is_read_from_its_defining_module():
    owners = _owners()
    shared = sorted(name for name, mods in owners.items() if len(mods) > 1)
    if shared:
        pytest.fail(f"names defined in more than one module: {shared}")
    modules = {path.stem for path in SOURCES}
    files = [*SOURCES, *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    # a name that no module defines (`qforms.heappop`, say) is exempt
    stray = [f"{path.relative_to(ROOT)}:{line} {module}.{name} "
             f"(defined in {owner})"
             for path in files
             for line, module, name in _routes(path, modules)
             for owner in owners.get(name, ()) if owner != module]
    if stray:
        pytest.fail("names read through a module that does not define them: "
                    + ", ".join(stray))
