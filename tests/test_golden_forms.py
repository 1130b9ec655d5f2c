"""The 150-operation forms pool of the benchmark, run once through the
benchmark's own query and verdict functions (`perfbench/workloads.py`, read
only), against the golden verdicts in `perfbench/golden/forms.json`.

The golden data was recorded when 13 operations failed.  Ten of them still
fail with FactorizationBudgetError (a determinant class that is a product of
two primes beyond trial division); the other three now answer, and their
verdicts are pinned here.  The golden verdicts leave out witness vectors and
constructed forms, so two digests pin them: the witness of every
`represents_zero` operation, and the diagonal that every `round_trip` and
`split` operation constructs.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from traceforms.exact import FactorizationBudgetError
from traceforms.qforms import QuadraticForm, rational_str

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "forms.json"

WITNESS_SHA256 = (
    "13b2e1e109d5a0b7ee66062cc46aff465c3f3cff76487901263c6295ecfa8afb")
CONSTRUCTED_SHA256 = (
    "380406ab64d6af540e720888f5c89124fb64595615a1d4e426f0836326fa1cd1")

FAILING = (6, 7, 21, 22, 101, 121, 124, 134, 138, 142)
RECOVERED = {
    131: "invariants dim=5 det=154376324974588535 sig=1,4 "
         "hasse=[2,5,7,13,2657339,7510579]",
    132: "split dim=5 det=8308857 sig=3,2 hasse=[2769619,inf]",
    144: "invariants dim=6 det=-12666965412238390 sig=3,3 "
         "hasse=[2,5,19,1910059,3173069,inf]",
}


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _diagonal(f):
    return [rational_str(e) for e in f.diagonal]


def _constructed(query, result):
    """The form or vector an operation built, rendered as strings."""
    if query == "represents_zero":
        w = result.witness
        return None if w is None else [rational_str(x) for x in w]
    if query == "round_trip":
        return _diagonal(result[1])
    if query == "split":
        return _diagonal(result[0].complement)
    return None


def _digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def test_forms_pool_matches_golden():
    wl = _workloads()
    golden = json.loads(GOLDEN.read_text())["verdicts"]
    pool = wl.forms_pool()
    assert len(pool) == len(golden)
    failed, wrong = [], []
    witnesses, constructed = [], []
    for i, (entries, query, k) in enumerate(pool):
        f = QuadraticForm.make(entries)
        try:
            result = wl.forms_query(query, f, k)
        except FactorizationBudgetError:
            failed.append(i)
            continue
        verdict = wl.forms_verdict(query, f, result)
        if verdict != (golden[i] or RECOVERED.get(i)):
            wrong.append((i, verdict, golden[i]))
        built = _constructed(query, result)
        if query == "represents_zero":
            witnesses.append([i, built])
        elif built is not None:
            constructed.append([i, built])
    assert wrong == []
    assert tuple(failed) == FAILING
    assert all(golden[i] is None for i in FAILING + tuple(RECOVERED))
    assert _digest(witnesses) == WITNESS_SHA256
    assert _digest(constructed) == CONSTRUCTED_SHA256
