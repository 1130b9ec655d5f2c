"""Every cm-mode split verdict over one family of general CM fields, pinned
by a digest.

The fields share the real subfield Q(sqrt 2) (degree 4) and differ in the
discriminant class and in the split-set table: each of 2, 3, 5 and 7 is
absent (unknown), asserted in or asserted out.  Each field meets the k3,
og6, kummer:2 and og10 ambients with every rank m that leaves room for a
complement.  Unlike the catalog grid, these tables reach the verdicts that
unknown split primes produce: `split-set-unknown` when only an unknown prime
blocks a complement, and the `(iii)` obstruction when an asserted one does.
"""

import collections
import hashlib
import itertools
import json

from traceforms.k3hk import ambient
from traceforms.numfields import GeneralCM
from traceforms.transfer import split_transfer_feasible

DISC_CLASSES = (1, 2, 3, 5, -1)
PRIMES = (2, 3, 5, 7)
AMBIENTS = (("k3", None), ("og6", None), ("kummer", 2), ("og10", None))

CM_SPLIT_SHA256 = (
    "a93796fec1ea90f38635b78deb0c6ae9a8e2e666fecb31bdf4843c52862a18cc")


def _outcome(v: dict) -> str:
    if v["status"] == "feasible":
        return "feasible"
    obs = v["obstruction"]
    return obs.get("reason") or obs["condition"]


def _sweep():
    rows = []
    for disc in DISC_CLASSES:
        for bits in itertools.product((None, True, False), repeat=len(PRIMES)):
            table = tuple((p, b) for p, b in zip(PRIMES, bits) if b is not None)
            E = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=disc,
                          se_assertions=table)
            for family, n in AMBIENTS:
                V = ambient(family, n).rational_form
                m = 1
                while 4 * m < V.dim:
                    v = split_transfer_feasible(V, E, m, "cm")
                    rows.append([disc, table, family, n, m, {
                        "status": v.status, "certificate": v.certificate,
                        "obstruction": v.obstruction}])
                    m += 1
    return rows


def test_cm_split_digest():
    rows = _sweep()
    tally = collections.Counter(_outcome(row[-1]) for row in rows)
    assert tally == {"feasible": 3732, "split-set-unknown": 420, "(iii)": 708}
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    assert hashlib.sha256(blob).hexdigest() == CM_SPLIT_SHA256
