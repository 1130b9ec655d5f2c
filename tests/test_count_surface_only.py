"""Count pins read only the count surface: differences of `exact.COUNTS`,
memos by label through `exact.memos()`, and `exact.clear_memos()`.

An AST scan of `tests/*.py` fails when a test replaces a module binding of
a counted operation with `setattr`, reads `cache_info` or `cache_clear` on
a private name, or walks `vars(module)` for `cache_clear`.  A helper that
is renamed, inlined or moved then leaves every count test as it is.  A
patch made in a helper is charged to the tests that call it.

The only exceptions are the two value pins of `tests/test_carried_primes.py`,
each named below with its reason.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

#: the counted operations; a test reads their `COUNTS` keys instead
COUNTED = {"support_at", "hilbert_symbol", "factorize", "squarefree_class",
           "_iroot"}

#: (file, test) -> why it may replace a `factorize` binding
VALUE_PINS = {
    ("test_carried_primes.py",
     "test_split_prime_queries_factor_each_class_once"):
        "pins which integer each split-prime query factors, [7000021]; "
        "a count would allow any one integer",
    ("test_carried_primes.py", "test_norm_test_reads_carried_primes"):
        "pins the integers a cold norm test factors, in order, "
        "[3, 1, 1, 1, 1, 1, 7000021]; a count would allow any seven",
}


def _mentions_cache_clear(node) -> bool:
    return any(getattr(n, "attr", None) == "cache_clear"
               or getattr(n, "value", None) == "cache_clear"
               for n in ast.walk(node))


def _calls_vars(node) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None)
               == "vars" for n in ast.walk(node))


def _private(node) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return name.startswith("_") and not name.startswith("__")


def _is_setattr(node) -> bool:
    return isinstance(node, ast.Call) and node.args and "setattr" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def _reads(node, patchers):
    """What a single node reads around the count surface, if anything.
    `patchers` are the helpers that `setattr` a name they are passed."""
    if _is_setattr(node):
        # setattr(module, name, value) or m.setattr("module.name", value)
        for arg in node.args[:2]:
            name = getattr(arg, "value", None)
            if isinstance(name, str) and name.rpartition(".")[2] in COUNTED:
                return f"setattr of {name}"
    if (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in patchers):
        for arg in node.args:
            if getattr(arg, "value", None) in COUNTED:
                return f"setattr of {arg.value} through {node.func.id}"
    if (isinstance(node, ast.Attribute)
            and node.attr in ("cache_info", "cache_clear")
            and _private(node.value)):
        return f"{node.attr} of a private name"
    if isinstance(node, ast.For) and _calls_vars(node.iter) and any(
            _mentions_cache_clear(stmt) for stmt in node.body):
        return "walk of vars() for cache_clear"
    return None


def _scan(source: str, filename: str) -> list:
    """(filename, test, line, what) for every read around the surface, each
    charged to its top-level test, or to the tests that call its helper."""
    tree = ast.parse(source, filename=filename)
    tops = [stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    callers = {top.name: [other.name for other in tops if any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == top.name
        for n in ast.walk(other))] for top in tops}
    patchers = {top.name for top in tops for n in ast.walk(top)
                if _is_setattr(n) and len(n.args) > 2
                and isinstance(n.args[1], ast.Name)}
    out = []
    for stmt in tree.body:
        name = getattr(stmt, "name", None)
        owners = ([name] if name is None or name.startswith("test")
                  else callers[name] or [name])
        for node in ast.walk(stmt):
            what = _reads(node, patchers)
            if what:
                out += [(filename, owner, node.lineno, what)
                        for owner in owners]
    return out


def _sites() -> list:
    return [site for path in sorted(TESTS.glob("*.py"))
            for site in _scan(path.read_text(), path.name)]


def test_counts_are_read_only_through_the_count_surface():
    stray = [site for site in _sites()
             if not (site[3] == "setattr of factorize"
                     and site[:2] in VALUE_PINS)]
    assert stray == []


def test_each_value_pin_still_patches_the_binding():
    # a value pin that moves to the surface leaves the list as well
    assert {site[:2] for site in _sites()} == set(VALUE_PINS)


@pytest.mark.parametrize("source, what", [
    ("def test_a(monkeypatch):\n"
     "    monkeypatch.setattr(qforms, 'support_at', f)\n",
     "setattr of support_at"),
    ("def test_a(m):\n    m.setattr('traceforms.exact._iroot', f)\n",
     "setattr of traceforms.exact._iroot"),
    ("def test_a():\n    setattr(exact, 'hilbert_symbol', f)\n",
     "setattr of hilbert_symbol"),
    ("def _count(m, name):\n    m.setattr(exact, name, f)\n\n"
     "def test_a(m):\n    _count(m, 'squarefree_class')\n",
     "setattr of squarefree_class through _count"),
    ("def test_a():\n    assert qforms._rank3_form.cache_info().misses\n",
     "cache_info of a private name"),
    ("def test_a():\n    _in_SE.cache_clear()\n",
     "cache_clear of a private name"),
    ("def test_a():\n"
     "    for v in vars(qforms).values():\n"
     "        if hasattr(v, 'cache_clear'):\n"
     "            v.cache_clear()\n",
     "walk of vars() for cache_clear"),
])
def test_the_scan_finds_each_way_around_the_surface(source, what):
    assert [(test, got) for _, test, _, got in _scan(source, "t.py")] == [
        ("test_a", what)]


def test_a_patch_in_a_helper_is_charged_to_its_callers():
    source = ("def _count(m):\n    m.setattr(exact, 'factorize', f)\n\n"
              "def test_b(monkeypatch):\n    _count(monkeypatch)\n\n"
              "def test_c(monkeypatch):\n    _count(monkeypatch)\n")
    assert [site[1] for site in _scan(source, "t.py")] == ["test_b",
                                                           "test_c"]


def test_the_surface_itself_passes():
    source = ("def test_a():\n"
              "    clear_memos()\n"
              "    before = COUNTS['support_at']\n"
              "    info = memos()['qforms.rank3_form'].cache_info()\n"
              "    form_from_invariants.cache_clear()\n"
              "    assert COUNTS['support_at'] - before == 1\n")
    assert _scan(source, "t.py") == []
