"""Every function that the benchmark's span tracer wraps is still there.

`perfbench/tracer.py` names its targets as (module, attribute name) pairs
and `getattr`s each one when `--trace 1` installs it, so a deleted or
renamed target would only fail a traced benchmark run.  This test fails
first."""

import pytest

from conftest import load_file


TARGETS = [(module, name)
           for module, name, *_ in load_file("perfbench/tracer.py").TARGETS]


@pytest.mark.parametrize("module, name", TARGETS, ids=[
    f"{module.__name__}.{name}" for module, name in TARGETS])
def test_each_traced_name_is_a_function_of_its_module(module, name):
    assert callable(getattr(module, name, None))
