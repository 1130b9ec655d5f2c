"""No layer imports `typing`: annotations are strings (`from __future__
import annotations`), written with `X | None` and `collections.abc` names,
and `exact.Rational` is the union `int | Fraction`.  Each import runs in a
fresh `python -S` interpreter, as in `test_cold_imports.py`, so no site
hook has loaded `typing` first."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from traceforms.exact import Rational

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = """\
import sys
import {module}
print("typing" in sys.modules)
"""


@pytest.mark.parametrize("module", ["traceforms.exact", "traceforms.qforms",
                                    "traceforms.numfields",
                                    "traceforms.transfer",
                                    "traceforms.k3hk", "traceforms.cli"])
def test_layer_leaves_typing_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(module=module)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]


def test_rational_is_the_union_of_int_and_fraction():
    assert isinstance(3, Rational) and isinstance(Fraction(1, 2), Rational)
    assert not isinstance(1.5, Rational)
