"""Every function that the benchmark's span tracer wraps is still there.

`perfbench/tracer.py` names its targets as (module, attribute name) pairs
and `getattr`s each one when `--trace 1` installs it, so a deleted or
renamed target would only fail a traced benchmark run.  This test fails
first."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, name) for module, name, *_ in _tracer().TARGETS]


@pytest.mark.parametrize("module, name", TARGETS, ids=[
    f"{module.__name__}.{name}" for module, name in TARGETS])
def test_each_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(module, name, None))
