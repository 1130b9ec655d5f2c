"""What a grid row costs in Python-level calls, counted with
`sys.setprofile`, with every memo of the package cleared first.

A warm row does only what it must: one complement lookup, one fresh
certificate, verdict and report.  The decision of a cm row, its split-prime
statuses and its complement, comes from the memo `transfer.cm_split`, keyed
by values that hash in C, so a warm pass asks `in_SE` nothing and a warm cm
row asks no complement choice; the catalog's minimal polynomials hold ints,
so no `Fraction` is compared or hashed on a lookup.  A cold pass shortcuts
the support of (1, x), which is empty, without a Hilbert symbol; its symbol
count is bounded in `tests/test_memo_traffic.py`.
"""

import itertools
import sys
from collections import Counter
from fractions import Fraction

from conftest import grid_cell_pass
from traceforms import exact
from traceforms.exact import SquareClass, clear_memos, memos
from traceforms.k3hk import ambient
from traceforms.numfields import (
    IN, UNKNOWN, Cyclotomic, GeneralCM, ImagQuadratic, field_invariants,
    in_SE,
)
from traceforms.qforms import hyperbolic_bit, invariants
from traceforms.transfer import (
    _choose_complement, _class_key, _hasse_candidates, cm_twist_class,
)

#: the memo of the cm split decisions, reached by its label
PLANS = memos()["transfer.cm_split"]
#: the memo of the complement choices, reached by its label
CHOICES = memos()["transfer.choose_complement"]

#: at most, on one warm pass of 1015 rows: 44,785 when every cm row
#: recomputed its split-prime statuses, memo keys held fresh records and
#: every certificate rendered its invariants afresh; 18,320 while each cm row
#: asked the complement choice past its memoized plan, 17,002 after
WARM_CALLS_BOUND = 17_500
#: at most, on one cold pass: 99,130 before the support of (1, x) was
#: shortcut and the statuses memoized; 97,731 after; 52,055 while each cm
#: row asked the complement choice past its memoized plan, 51,757 after
COLD_CALLS_BOUND = 52_500


def _profiled_pass() -> Counter:
    """The "call" events of one grid pass, by code object."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        grid_cell_pass()
    finally:
        sys.setprofile(None)
    return calls


def test_cold_and_warm_passes_count_few_calls():
    clear_memos()
    cold = _profiled_pass()
    plans, choices = PLANS.cache_info(), CHOICES.cache_info()
    warm = _profiled_pass()
    # each of the 340 cm rows hits its decision, and only the 298 rm rows
    # that reach a split ask the complement choice; neither memo misses
    assert PLANS.cache_info() == plans._replace(hits=plans.hits + 340)
    assert CHOICES.cache_info() == choices._replace(hits=choices.hits + 298)
    assert sum(cold.values()) <= COLD_CALLS_BOUND
    assert sum(warm.values()) <= WARM_CALLS_BOUND
    assert warm[in_SE.__code__] == 0
    assert warm[Fraction.__eq__.__code__] == 0
    assert warm[Fraction.__hash__.__code__] == 0
    assert warm[exact.hilbert_symbol.__code__] == 0


def _direct_plan(vi, E, md):
    """What the decision memo keeps, computed in place: the statuses of the
    candidate primes, the `want` pairs built from them, and the complement
    they choose, or the unknown primes that block one."""
    finv = field_invariants(E)
    det_u = (cm_twist_class(finv) if md // finv.degree % 2
             else SquareClass(1))
    det_c = vi.det * det_u
    disc_primes = finv.disc_class.primes()
    statuses = {p: in_SE(E, p)
                for p in _hasse_candidates(vi, det_u, det_c, disc_primes)}
    want = {p: hyperbolic_bit(md // 2, p)
            for p, st in statuses.items() if st in (IN, UNKNOWN)}
    want_in = {p: bit for p, bit in want.items() if statuses[p] == IN}
    unknowns = tuple(p for p, st in statuses.items() if st == UNKNOWN)
    ukey = _class_key(det_u)
    found = _choose_complement(vi, ukey, md, disc_primes,
                               tuple(sorted(want.items())))
    if found is not None:
        return (*found, exact.rational_str(det_u.n), det_c.n == -1)
    if unknowns and _choose_complement(vi, ukey, md, disc_primes,
                                       tuple(sorted(want_in.items()))):
        return None, unknowns
    return None, ()


def _cm_fields():
    """The general CM fields of the cm split golden sweep (real subfield
    Q(sqrt 2), each of 2, 3, 5, 7 unknown, in or out), and a few fields
    whose split sets are decided."""
    for disc in (1, 2, 3, 5, -1):
        for bits in itertools.product((None, True, False), repeat=4):
            yield GeneralCM((-2, 0, 1), disc, tuple(
                (p, b) for p, b in zip((2, 3, 5, 7), bits) if b is not None))
    yield from (ImagQuadratic(1), ImagQuadratic(3), ImagQuadratic(7),
                Cyclotomic(5), Cyclotomic(12))


def test_statuses_memo_equals_the_direct_computation():
    PLANS.cache_clear()
    for family, n in (("k3", None), ("og6", None), ("kummer", 2),
                      ("og10", None)):
        vi = invariants(ambient(family, n).rational_form)
        for E in _cm_fields():
            degree = field_invariants(E).degree
            for md in range(degree, vi.dim, degree):
                plan = PLANS(vi, E.__class__, E._get(E), md)
                assert plan == _direct_plan(vi, E, md), (family, E, md)
    assert PLANS.cache_info().hits == 0


def test_equal_descriptors_share_one_plan():
    vi = invariants(ambient("k3").rational_form)
    PLANS.cache_clear()
    plans = [PLANS(vi, Cyclotomic, E._get(E), 4)
             for E in (Cyclotomic(5), Cyclotomic(10), Cyclotomic(5))]
    info = PLANS.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert plans[0] is plans[1] is plans[2]
