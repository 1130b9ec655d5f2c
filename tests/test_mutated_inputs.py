"""One strict reader per JSON input shape, checked by single mutations.

Each valid input below (a field descriptor of each kind, a `diagonal` and a
`gram` form, an elliptic context of each case, and a small catalog run with
`--md-bound 6` in each mode) is mutated once in every way:

- a required key is dropped, or an unknown key `bogus` is added to an
  object, at any depth: `tf` must exit 2 with a schema error;
- a value at any depth is replaced by null, true, 1.5, {}, [] or "x":
  `tf` must exit 2 with a schema error, or print the bytes and exit code
  of the valid input.

So a mutated input never exits 0 with other bytes, never exits 3 and never
raises.  Every mutation is run, so the check is deterministic and misses
none.  The one edit left out is an empty array or object in place of a value
that may be empty: the `se` table of a descriptor, and a catalog section or
entry list.  Those are valid inputs with fewer assertions or fields.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

from traceforms.cli import EXIT_SCHEMA, main

REPLACEMENTS = [None, True, 1.5, {}, [], "x"]


def _k3(mode, m):
    return lambda field: ["k3", "--field", json.dumps(field), "--m", str(m),
                          "--mode", mode]


def _elliptic(context):
    return ["elliptic", "--context", json.dumps(context)]


def _form_invariants(form):
    return ["form-invariants", "--form", json.dumps(form)]


CYCLIC_CUBIC = {"name": "cubic-cond-9", "degree": 3,
                "minpoly": [-1, -3, 0, 1], "disc": 81, "disc_class": 1,
                "comment": "2cos(pi/9)"}
CATALOG = {
    "version": 1, "comment": "two fields a section",
    "totally_real": {"quadratic": [2],
                     "higher": [CYCLIC_CUBIC,
                                {"name": "cubic-b", "minpoly": [1, -3, 0, 1]}]},
    "cm": {"imag_quadratic": [1], "cyclotomic": [5]},
}

#: (name, valid input, argv of the input, required keys of each object by
#: its path, paths whose value may be empty)
CASES = [
    ("real_quadratic", {"kind": "real_quadratic", "d": 5}, _k3("rm", 3),
     {(): ("kind", "d")}, ()),
    ("imag_quadratic", {"kind": "imag_quadratic", "D": 1}, _k3("cm", 2),
     {(): ("kind", "D")}, ()),
    ("cyclotomic", {"kind": "cyclotomic", "n": 5}, _k3("cm", 5),
     {(): ("kind", "n")}, ()),
    ("general_tr", {"kind": "general_tr", "minpoly": [-1, -3, 0, 1],
                    "disc": 81}, _k3("rm", 3),
     {(): ("kind", "minpoly")}, ()),
    ("general_cm", {"kind": "general_cm", "minpoly": [-2, 0, 1], "disc": 5,
                    "se": [[2, True], [3, True], [5, True]]}, _k3("cm", 4),
     {(): ("kind", "minpoly", "disc")}, (("se",),)),
    ("diagonal", {"diagonal": [1, -1, 2]}, _form_invariants,
     {(): ("diagonal",)}, ()),
    ("gram", {"gram": [[1, 1], [1, 3]]}, _form_invariants,
     {(): ("gram",)}, ()),
    ("small-degree", {"case": "small-degree", "degree": 2}, _elliptic,
     {(): ("case", "degree")}, ()),
    ("degree-20", {"case": "degree-20",
                   "field": {"kind": "cyclotomic", "n": 44}}, _elliptic,
     {(): ("case", "field"), ("field",): ("kind", "n")}, ()),
    ("degree-4", {"case": "degree-4", "field": {"kind": "cyclotomic", "n": 5},
                  "rho": 2}, _elliptic,
     {(): ("case", "field", "rho"), ("field",): ("kind", "n")}, ()),
    ("picard-form", {"case": "picard-form", "form": {"diagonal": [1, -1]}},
     _elliptic, {(): ("case", "form"), ("form",): ("diagonal",)}, ()),
] + [
    (f"catalog-{mode}", CATALOG, mode, {
        (): ("totally_real", "cm"),
        ("totally_real", "higher", 0): ("name", "minpoly"),
        ("totally_real", "higher", 1): ("name", "minpoly")},
     (("totally_real",), ("cm",), ("totally_real", "quadratic"),
      ("totally_real", "higher"), ("cm", "imag_quadratic"),
      ("cm", "cyclotomic")))
    for mode in ("rm", "cm")
]


def _paths(value, path=()):
    """The path of every value inside `value`, at any depth."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _mutations(valid, required, may_be_empty):
    """(description, mutated input, whether it must be refused)."""
    objects = [()] + [p for p in _paths(valid)
                      if isinstance(_at(valid, p), dict)]
    for path in objects:
        for key in required.get(path, ()):
            mutated = copy.deepcopy(valid)
            del _at(mutated, path)[key]
            yield f"drop {path + (key,)}", mutated, True
        mutated = copy.deepcopy(valid)
        _at(mutated, path)["bogus"] = 1
        yield f"add bogus at {path}", mutated, True
    for path in _paths(valid):
        old = _at(valid, path)
        for new in REPLACEMENTS:
            if (path in may_be_empty and type(new) is type(old)
                    and not new):
                continue
            mutated = copy.deepcopy(valid)
            _at(mutated, path[:-1])[path[-1]] = new
            yield f"{path} = {new!r}", mutated, False


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _answer(value, argv_of, tmp):
    """The exit code and stdout of `tf` on `value`; a catalog is written to
    a file under `tmp` and tabulated."""
    if isinstance(argv_of, str):
        path = Path(tmp) / "catalog.json"
        path.write_text(json.dumps(value))
        return _run(["tabulate", "--mode", argv_of, "--md-bound", "6",
                     "--format", "csv", "--catalog", str(path)])
    return _run(argv_of(value))


@pytest.mark.parametrize("name, valid, argv_of, required, may_be_empty",
                         CASES, ids=[case[0] for case in CASES])
def test_a_mutated_input_is_refused_or_answers_as_the_valid_one(
        name, valid, argv_of, required, may_be_empty):
    with tempfile.TemporaryDirectory() as tmp:
        want = _answer(valid, argv_of, tmp)
        assert want[0] == 0, want
        bad = []
        for what, mutated, refuse in _mutations(valid, required,
                                                may_be_empty):
            try:
                got = _answer(mutated, argv_of, tmp)
            except Exception as err:    # a traceback at the command line
                bad.append(f"{what}: raised {err!r}")
                continue
            refused = (got[0] == EXIT_SCHEMA
                       and json.loads(got[1])["kind"] == "schema")
            if not (refused or (got == want and not refuse)):
                bad.append(f"{what}: exit {got[0]}, {got[1][:120]!r}")
    assert not bad, "\n".join(bad)
