"""The 150-operation forms pool of the benchmark, run once through the
benchmark's own query and verdict functions (`perfbench/workloads.py`, read
only), against the golden verdicts in `perfbench/golden/forms.json`.

The golden data was recorded when 13 operations failed.  All 150 answer now:
three answered once `invariants` stopped factoring the determinant, and the
last ten (a determinant class that is a product of two primes beyond trial
division) once square classes and constructed forms carried their primes.
Their verdicts are pinned here, and the ten latest are checked against an
independent computation from `sympy` primes.  The golden verdicts leave out
witness vectors and constructed forms, so two digests pin them: the witness
of every `represents_zero` operation, and the diagonal that every
`round_trip` and `split` operation constructs.  The digest of the diagonals
from before the last ten answered is recomputed over the operations that
answered then.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from conftest import load_file, reference_invariants
from traceforms.exact import INF, FactorizationBudgetError, rational_str
from traceforms.qforms import QuadraticForm

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "forms.json"

WITNESS_SHA256 = (
    "13b2e1e109d5a0b7ee66062cc46aff465c3f3cff76487901263c6295ecfa8afb")
CONSTRUCTED_SHA256 = (
    "a5bbc9f87e4539538c2c6089beba4db364d1fdda87f30fd6e58628eb47c68158")

#: the operations that raised FactorizationBudgetError before constructed
#: forms carried their primes, and the digest of the diagonals built by the
#: others
OLD_FAILING = (6, 7, 21, 22, 101, 121, 124, 134, 138, 142)
OLD_CONSTRUCTED_SHA256 = (
    "380406ab64d6af540e720888f5c89124fb64595615a1d4e426f0836326fa1cd1")

FAILING = ()
RECOVERED = {
    6: "round_trip dim=6 det=5585020003720983 sig=2,4 "
       "hasse=[1982051,5833951]",
    7: "round_trip dim=8 det=6951700223772841 sig=4,4 hasse=[3,7]",
    21: "split dim=1 det=1 sig=1,0 hasse=[]",
    22: "round_trip dim=5 det=842207351601207 sig=3,2 "
        "hasse=[2,3,7,19,9999863,inf]",
    101: "round_trip dim=8 det=256280230733395 sig=2,6 hasse=[2,inf]",
    121: "round_trip dim=5 det=2268834523988230 sig=1,4 "
         "hasse=[2,3,11,5952467]",
    124: "split dim=2 det=6436167390826627 sig=0,2 "
         "hasse=[17,23,7094827,inf]",
    131: "invariants dim=5 det=154376324974588535 sig=1,4 "
         "hasse=[2,5,7,13,2657339,7510579]",
    132: "split dim=5 det=8308857 sig=3,2 hasse=[2769619,inf]",
    134: "round_trip dim=6 det=49966501811456554105 sig=2,4 "
         "hasse=[5,17,1099097,2573413]",
    138: "split dim=3 det=31869194 sig=1,2 hasse=[2,7,119809,inf]",
    142: "round_trip dim=7 det=57024483260318365 sig=3,4 "
         "hasse=[7,11,19,5507753]",
    144: "invariants dim=6 det=-12666965412238390 sig=3,3 "
         "hasse=[2,5,19,1910059,3173069,inf]",
}


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


@lru_cache(maxsize=None)
def _walk():
    """Every operation of the pool, run once:
    [(entries, query, k, verdict, built, failed)]."""
    wl = load_file("perfbench/workloads.py")
    out = []
    for entries, query, k in wl.forms_pool():
        f = QuadraticForm.make(entries)
        try:
            result = wl.forms_query(query, f, k)
        except FactorizationBudgetError:
            out.append((entries, query, k, None, None, True))
            continue
        out.append((entries, query, k, wl.forms_verdict(query, f, result),
                    _constructed(query, result), False))
    return tuple(out)


def _digests(skip=()):
    witnesses, constructed = [], []
    for i, (_, query, _, _, built, failed) in enumerate(_walk()):
        if failed or i in skip:
            continue
        if query == "represents_zero":
            witnesses.append([i, built])
        elif built is not None:
            constructed.append([i, built])
    return _digest(witnesses), _digest(constructed)


def test_forms_pool_matches_golden():
    golden = json.loads(GOLDEN.read_text())["verdicts"]
    ops = _walk()
    assert len(ops) == len(golden)
    failed = tuple(i for i, op in enumerate(ops) if op[5])
    wrong = [(i, op[3], golden[i]) for i, op in enumerate(ops)
             if not op[5] and op[3] != (golden[i] or RECOVERED.get(i))]
    assert wrong == []
    assert failed == FAILING
    assert all(golden[i] is None for i in FAILING + tuple(RECOVERED))
    assert _digests() == (WITNESS_SHA256, CONSTRUCTED_SHA256)


def test_operations_that_answered_before_are_unchanged():
    # the digests over the operations outside the old failing set are the
    # digests from before the move; none of the ten is a represents_zero
    # operation, so the witness digest is the same over all 150
    assert _digests(skip=OLD_FAILING) == (WITNESS_SHA256,
                                          OLD_CONSTRUCTED_SHA256)
    assert all(_walk()[i][1] != "represents_zero" for i in OLD_FAILING)


def _render(query, ref):
    dim, det, (r, s), hasse = ref
    places = ",".join("inf" if v == INF else str(v) for v in sorted(hasse))
    return f"{query} dim={dim} det={det} sig={r},{s} hasse=[{places}]"


def test_recovered_answers_match_sympy_primes():
    """Each of the ten answers, recomputed from the primes `sympy` finds in
    the input and in the constructed diagonal."""
    for i in OLD_FAILING:
        entries, query, k, verdict, built, failed = _walk()[i]
        assert not failed
        assert verdict == RECOVERED[i]
        if query == "round_trip":
            ref = reference_invariants(entries)
            assert verdict == _render(query, ref), i
            assert reference_invariants(built) == ref, i
        else:
            assert query == "split"
            assert verdict == _render(query, reference_invariants(built)), i
            assert (reference_invariants(list(entries[:k]) + built)
                    == reference_invariants(entries)), i
