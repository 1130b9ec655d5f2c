"""A feasible split renders its certificate at the first read of
`verdict.certificate`, not when the verdict is built.  A grid row reads the
status and the route only, so a grid pass renders no certificate, while it
still constructs every chosen complement (which checks that it exists).
A rendered certificate is the one an eager rendering gave: the reports
digest holds whatever the order of rendering, and copies, pickles,
equality and `repr` see the same dict.

The render counts start from `exact.clear_memos()`, so they hold when this
file runs alone, and the constructions are read from the memo labelled
"qforms.form_from_invariants" in `exact.memos()`.
"""

import copy
import hashlib
import json
import pickle

import pytest

from test_reports_golden import FAMILIES, REPORTS_SHA256
from traceforms import cli, exact, k3hk, numfields, qforms, transfer
from traceforms.cli import catalog_fields, jsonable, load_catalog
from traceforms.exact import clear_memos, memos
from traceforms.k3hk import (
    ambient, hk_realizable, k3_realizable, report_to_json,
)
from traceforms.numfields import Cyclotomic, ImagQuadratic, RealQuadratic
from traceforms.transfer import split_transfer_feasible, verdict_to_json

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23
MODULES = (exact, qforms, numfields, transfer, k3hk, cli)

#: the distinct invariant tuples a grid pass constructs a form for, as in
#: `tests/test_memo_traffic.py`
CONSTRUCTIONS = 201

#: feasible splits of every shape: plain, forced line, hyperbolic plane
#: with a unique complement, and an rm hyperbolic plane
SPLITS = [
    ("k3", None, RealQuadratic(2), 3, "rm"),
    ("k3", None, ImagQuadratic(1), 3, "cm"),
    ("kummer", 2, RealQuadratic(2), 3, "rm"),
    ("k3", None, Cyclotomic(11), 2, "cm"),
    ("k3", None, RealQuadratic(5), 10, "rm"),
]


def _count_through_bindings(monkeypatch, owner, name):
    """Count calls of `owner.name` through every module binding of it."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _split(family, n, E, m, mode):
    return split_transfer_feasible(ambient(family, n).rational_form, E, m,
                                   mode)


def test_a_grid_pass_renders_no_certificate(monkeypatch):
    clear_memos()
    renders = {name: _count_through_bindings(monkeypatch, qforms, name)
               for name in ("invariants_to_json", "form_to_json")}
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)
    assert {name: calls[0] for name, calls in renders.items()} == \
        {"invariants_to_json": 0, "form_to_json": 0}
    constructions = memos()["qforms.form_from_invariants"].cache_info()
    assert constructions.misses == CONSTRUCTIONS
    # the counters see a read: both sides' invariants and the diagonal
    verdict = _split(*SPLITS[0])
    assert verdict.criterion == "even-degree-norm-class"
    assert renders["invariants_to_json"][0] == 0
    assert verdict.certificate["route"] == "even-degree-norm-class"
    assert renders["invariants_to_json"][0] == 2
    assert renders["form_to_json"][0] >= 1


def _collected_sweep():
    """The rows of the reports golden sweep, each holding its report (or
    the error dict of a rejected row) unrendered."""
    cat = load_catalog()
    rows = []
    for family, n in FAMILIES:
        b2 = ambient(family, n).b2
        for mode in ("rm", "cm"):
            for label, E, degree in catalog_fields(cat, mode):
                for m in range(1, (b2 - 1) // degree + 2):
                    try:
                        rep = (k3_realizable(E, m, mode) if family == "k3"
                               else hk_realizable(family, n, E, m, mode))
                    except ValueError as err:
                        rep = {"error": f"{type(err).__name__}: {err}"}
                    rows.append({"family": family, "n": n, "mode": mode,
                                 "field": label, "m": m, "report": rep})
    return rows


def test_reports_rendered_in_reverse_keep_the_digest(monkeypatch):
    renders = _count_through_bindings(monkeypatch, transfer,
                                      "_split_certificate")
    rows = _collected_sweep()
    assert renders[0] == 0
    for row in reversed(rows):
        if not isinstance(row["report"], dict):
            row["report"] = jsonable(report_to_json(row["report"]))
    assert renders[0] > 0
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORTS_SHA256


@pytest.mark.parametrize("split", SPLITS, ids=lambda s: f"{s[0]}-{s[2]}-{s[3]}")
def test_copies_and_pickles_render_the_same_certificate(monkeypatch, split):
    renders = _count_through_bindings(monkeypatch, transfer,
                                      "_split_certificate")
    verdict = _split(*split)
    copies = [copy.copy(verdict), copy.deepcopy(verdict),
              pickle.loads(pickle.dumps(verdict))]
    assert renders[0] == 0
    expected = _split(*split).certificate
    for other in (verdict, *copies):
        assert other.certificate == expected
        assert other.certificate is not expected
    assert renders[0] == 1 + 1 + 3


@pytest.mark.parametrize("split", SPLITS, ids=lambda s: f"{s[0]}-{s[2]}-{s[3]}")
def test_an_unrendered_verdict_equals_a_rendered_one(monkeypatch, split):
    rendered = _split(*split)
    rendered.certificate
    renders = _count_through_bindings(monkeypatch, transfer,
                                      "_split_certificate")
    assert rendered == _split(*split)
    assert repr(_split(*split)) == repr(rendered)
    assert renders[0] == 2
    assert verdict_to_json(_split(*split)) == verdict_to_json(rendered)


@pytest.mark.parametrize("split", SPLITS, ids=lambda s: f"{s[0]}-{s[2]}-{s[3]}")
def test_a_verdict_renders_once_and_keeps_its_dict(monkeypatch, split):
    renders = _count_through_bindings(monkeypatch, transfer,
                                      "_split_certificate")
    verdict = _split(*split)
    first = verdict.certificate
    assert verdict.certificate is first
    assert renders[0] == 1
    assert verdict.certificate is not _split(*split).certificate
    with pytest.raises(AttributeError):
        verdict.certificate = {}
    with pytest.raises(AttributeError):
        del verdict.certificate
    assert verdict.certificate is first
