"""The constructors `exact.Record` writes: a record class without an
`__init__` of its own gets one with the native signature over its `_fields`,
`_defaults` filling the trailing ones, written at its first construction and
kept.  A class that writes its own keeps it."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from traceforms.exact import Record

SRC = Path(__file__).resolve().parent.parent / "src"
# every module that defines a record
importlib.import_module("traceforms.cli")
importlib.import_module("traceforms.k3hk")

#: the classes that normalize or check their arguments in their own __init__
OWN_INIT = {"SquareClass", "Cyclotomic", "GeneralTotallyReal", "GeneralCM",
            "QuadraticForm", "FormInvariants"}


def _record_classes():
    out, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo += cls.__subclasses__()
    return sorted(out, key=lambda cls: cls.__qualname__)


CLASSES = _record_classes()
GENERATED = [cls for cls in CLASSES if cls.__name__ not in OWN_INIT]


def test_every_record_class_is_found():
    assert len(CLASSES) == 20
    assert {cls.__name__ for cls in CLASSES} >= OWN_INIT


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_positional_keyword_and_default_construction_agree(cls):
    fields = cls._fields
    values = tuple(f"v{i}" for i in range(len(fields)))
    by_position = cls(*values)
    assert tuple(getattr(by_position, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == by_position
    required = len(fields) - len(cls._defaults)
    head = values[:required]
    assert cls(*head) == cls(*head, *cls._defaults)
    assert cls(*head[:1], **dict(zip(fields[1:required], head[1:]))) == \
        cls(*head, *cls._defaults)


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_the_constructor_is_written_once(cls):
    values = tuple(range(len(cls._fields)))
    cls(*values)
    init = cls.__dict__["__init__"]
    assert init is not Record.__init__
    assert init.__code__.co_filename == "<string>"
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    cls(*values)
    assert cls.__dict__["__init__"] is init
    # the native signature names the class in its errors
    with pytest.raises(TypeError, match=f"{cls.__qualname__}.__init__"):
        cls(*values, None)


@pytest.mark.parametrize("cls", [cls for cls in CLASSES
                                 if cls.__name__ in OWN_INIT],
                         ids=lambda cls: cls.__name__)
def test_a_written_constructor_is_kept(cls):
    init = cls.__dict__["__init__"]
    assert init.__code__.co_filename.endswith(".py")
    assert init.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("cls", GENERATED, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_round_trip(cls):
    x = cls(*(f"v{i}" for i in range(len(cls._fields))))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        with pytest.raises(AttributeError):
            setattr(y, cls._fields[0], None)


def test_importing_writes_no_constructor():
    # a `tf` query imports `cli` first; the only record a module builds on
    # import is k3hk's family text
    code = (
        "import traceforms.cli, traceforms.exact as e\n"
        "def subs(c):\n"
        "    for s in c.__subclasses__():\n"
        "        yield s; yield from subs(s)\n"
        "def written():\n"
        "    return sorted(c.__name__ for c in subs(e.Record)\n"
        "                  if c.__dict__['__init__'].__code__.co_filename\n"
        "                  == '<string>')\n"
        "print(written())\n"
        "import traceforms.k3hk\n"
        "print(written())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.stdout.split("\n")[:2] == ["[]", "['_FamilyText']"]
