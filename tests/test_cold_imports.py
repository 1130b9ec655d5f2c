"""Which standard-library modules a cold import pulls in.

The records of the library are `__slots__` classes, so no layer imports
`dataclasses` (and with it `inspect`, `ast`, `dis` and `tokenize`).  Each
import runs in a fresh `python -S`
interpreter, so no site hook has loaded anything first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = """\
import sys
import {module}
print(" ".join(name for name in ("dataclasses", "inspect")
               if name in sys.modules))
"""


def loaded(module):
    """The names among dataclasses and inspect that importing `module`
    leaves in sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(module=module)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", ["traceforms.cli", "traceforms.qforms",
                                    "traceforms.numfields",
                                    "traceforms.transfer",
                                    "traceforms.k3hk"])
def test_form_and_field_layers_skip_dataclasses(module):
    assert loaded(module) == set()
