"""Every realizability report of the catalog, rendered as the CLI renders it,
pinned by a digest.

The sweep covers the seven grid families in both modes, every catalog field
of the mode, and every rank m = 1 .. floor((b2 - 1) / degree) + 1, so each
family meets its multiplicity and dimension bounds.  The hyperkahler rows go
through `hk_realizable`, the K3 rows through `k3_realizable`.  A row the
library rejects with ValueError is recorded with its message, not skipped.
A few texts are also spelled out, so that a failure names what moved.
"""

import hashlib
import json

from traceforms.cli import catalog_fields, jsonable, load_catalog
from traceforms.k3hk import (
    ambient, hk_realizable, k3_realizable, report_to_json,
)
from traceforms.numfields import Cyclotomic, ImagQuadratic

FAMILIES = (("k3", None), ("kummer", 2), ("kummer", 3), ("og6", None),
            ("hilbk3", 2), ("hilbk3", 3), ("og10", None))

REPORTS_SHA256 = (
    "6a186a37e3a9613372044abf12295f397b1599e8bc82d900b2f4fb57fc063bb3")


def _report(family, n, E, m, mode):
    try:
        if family == "k3":
            rep = k3_realizable(E, m, mode)
        else:
            rep = hk_realizable(family, n, E, m, mode)
    except ValueError as err:
        return {"error": f"{type(err).__name__}: {err}"}
    return jsonable(report_to_json(rep))


def _sweep():
    cat = load_catalog()
    rows = []
    for family, n in FAMILIES:
        b2 = ambient(family, n).b2
        for mode in ("rm", "cm"):
            for label, E, degree in catalog_fields(cat, mode):
                for m in range(1, (b2 - 1) // degree + 2):
                    rows.append({"family": family, "n": n, "mode": mode,
                                 "field": label, "m": m,
                                 "report": _report(family, n, E, m, mode)})
    return rows


def test_reports_digest():
    rows = _sweep()
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORTS_SHA256


def test_k3_cm_dimension_bound_text():
    rep = report_to_json(k3_realizable(ImagQuadratic(1), 11, "cm"))
    assert rep["obstruction"]["detail"] == "md = 22 > 20"
    assert rep["notes"] == ["md = 22 > 20"]


def test_k3_square_discriminant_notes():
    rep = report_to_json(k3_realizable(Cyclotomic(44), 1, "cm"))
    assert rep["feasible"]
    assert rep["notes"] == [
        "square discriminant at full dimension: the rank-2 algebraic part is "
        "rationally hyperbolic, realized by rescaled hyperbolic planes "
        "(infinitely many surfaces, all elliptic)",
        "rank 1 over the field: countably many surfaces, each defined over "
        "a number field",
    ]


def test_og10_cm_notes():
    rep = report_to_json(hk_realizable("og10", None, ImagQuadratic(1), 1,
                                       "cm"))
    assert rep["notes"] == [
        "even field degree tightens the bound to md <= 22",
        "rank 1 over the field: countably many manifolds",
    ]
