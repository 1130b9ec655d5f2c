"""The closed-form peel of `qforms.form_from_invariants` against a verbatim
copy of the loop it replaced.

The loop peeled unit entries one at a time down to rank 3: a positive peel
left det and the Hasse set alone, and a negative one negated det and moved
the Hasse set by S(-1, -det), evaluated once per distinct det.  The closed
form peels all of them at once: k negative entries move the Hasse set by
the set of <-1>^k, which is {2, INF} when C(k, 2) is odd and empty
otherwise, and, for an odd k, by S(-1, -det).  The rank-3 form the
construction ends with realizes exactly the tuple the peel handed on, so
its invariants must equal the tuple the copy of the loop computes.
"""

import random

from traceforms.exact import INF, SquareClass, primes_below, support_at
from traceforms.qforms import (
    FormInvariants, QuadraticForm, form_from_invariants, invariants,
    validate_invariants,
)

SMALL_PRIMES = primes_below(60)


def _parent_peel(inv: FormInvariants):
    """The (det, signature, Hasse set) that the loop handed on to the
    rank-3 step, and the unit entries it peeled."""
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse
    primes = det.primes()
    det = SquareClass(det.n, frozenset(primes))
    # <e> + W with e = +-1: det W = e det, w(W) = w + (e, det W).  The peel
    # is forced: (1, x) is trivial, and a negative peel only negates det, so
    # the Hasse set moves by S(-1, -det) and S(-1, det) in turn (Serre, A
    # Course in Arithmetic, III.1.1); each is evaluated once.  The positive
    # peels come first.
    negated = {}    # det.n -> (-det, S(-1, -det))
    plus = minus = 0
    for _ in range(n - 3):
        if r > 0:
            r -= 1
            plus += 1
            # the empty set, found with no symbol but counted as a support
            hasse ^= support_at(1, det.n, primes)
        else:
            s -= 1
            minus += 1
            if det.n not in negated:
                negated[det.n] = (-det, support_at(-1, -det.n, primes))
            det, step = negated[det.n]
            hasse ^= step
    return FormInvariants(3, det, (r, s), hasse), (1,) * plus + (-1,) * minus


def _random_tuple(rng, minus):
    """An admissible tuple whose peel takes `minus` negative entries: at
    most 6 positive ones, det a signed product of primes below 60, and a
    Hasse set of primes below 60 and of det's primes, with the real bit the
    signature forces and even size."""
    s = minus + 3 if minus else rng.randint(0, 3)
    r = rng.randint(max(0, 3 - s), 6)
    primes = sorted(rng.sample(SMALL_PRIMES, rng.randint(0, 6)))
    d = (-1) ** s
    for p in primes:
        d *= p
    hasse = set(rng.sample(SMALL_PRIMES + tuple(primes), rng.randint(0, 6)))
    hasse.discard(INF)
    if s * (s - 1) // 2 % 2:
        hasse.add(INF)
    if len(hasse) % 2:
        hasse ^= {2}
    inv = FormInvariants(r + s, SquareClass(d, frozenset(primes)), (r, s),
                         frozenset(hasse))
    validate_invariants(inv)
    return inv


def test_closed_form_hands_on_the_tuple_of_the_loop():
    rng = random.Random(4820)
    seen = set()
    for _ in range(25):
        for minus in range(21):
            inv = _random_tuple(rng, minus)
            core, head = _parent_peel(inv)
            f = form_from_invariants(inv)
            assert f.diagonal[:-3] == head
            rank3 = invariants(QuadraticForm.make(f.diagonal[-3:]))
            assert rank3 == core
            assert invariants(f) == inv
            seen.add(len(head) - head.count(1))
    assert seen == set(range(21))
