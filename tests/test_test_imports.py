"""The unused-import rule of `tests/test_source_hygiene.py`, applied to the
test files themselves: no imported name that its file never references
(`from __future__ import annotations` is exempt).  It reports through
`pytest.fail`, so it also runs under `python -O`.
"""

import ast
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
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
