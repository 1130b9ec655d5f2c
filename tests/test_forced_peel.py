"""The forced peel of `qforms.form_from_invariants` and the memo of
`exact.local_characters`, against verbatim copies of the code they replaced.

The peel strips unit entries <1> / <-1> down to rank 3.  A positive peel
leaves det and the Hasse set alone, and a negative one negates det and moves
the Hasse set by S(-1, -det) or S(-1, det) in turn, so the construction
evaluates each of the two supports once and checks only the tuple the peel
hands on.  The copy below peels step by step and checks every intermediate
tuple; both must build the same form.  Where the copy's rank-3 scan runs
out (a Hasse set with many primes outside {2, 3, 5, 7} and det), the
construction takes an entry the ternary form represents and still realizes
the tuple.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import entries_and_classes
from traceforms.exact import (
    INF, SquareClass, clear_memos, local_characters, primes_below,
    support_at,
)
from traceforms.qforms import (
    FormInvariants,
    InvariantContradiction,
    QuadraticForm,
    _ascending_cores,
    _aux_primes,
    _rank2_from_invariants,
    form_from_invariants,
    invariants,
    validate_invariants,
)

# ---------------------------------------------------------------------------
# the peel against the step-by-step copy


def _parent_form_from_invariants(inv: FormInvariants) -> QuadraticForm:
    """Build a diagonal form realizing an admissible invariant tuple, peeling
    one unit entry at a time and checking every intermediate tuple."""
    validate_invariants(inv)
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse
    if n == 1:
        return QuadraticForm.make([det.n], [det])
    primes = det.primes()
    det = SquareClass(det.n, frozenset(primes))
    head = []
    while n > 3:
        # <e> + W with e = +-1: det W = e det, w(W) = w + (e, det W)
        e = 1 if r > 0 else -1
        det = det if e > 0 else -det
        r, s = (r - 1, s) if e > 0 else (r, s - 1)
        hasse = frozenset(hasse ^ support_at(e, det.n, primes))
        n -= 1
        validate_invariants(FormInvariants(n, det, (r, s), hasse))
        head.append(SquareClass(e))
    if n == 2:
        return _rank2_from_invariants(head, det, (r, s), hasse)

    # the unit we peel must leave an admissible rank-2 tuple, which is a
    # real constraint here (condition-3 can bite); scan small entries
    base = sorted({2, 3, 5, 7}.union(primes))
    signs = [sgn for sgn, k in ((1, r), (-1, s)) if k > 0]
    cores = _ascending_cores(base)
    for q, (c, combo), sgn in ((q, core, sgn) for q in _aux_primes(base, 200)
                               for core in cores() for sgn in signs):
        e, e_primes = sgn * c * q, combo + ((q,) if q > 1 else ())
        ec = SquareClass(e, frozenset(e_primes))
        sub_det = det * ec
        sub_sig = (r - 1, s) if e > 0 else (r, s - 1)
        sub_hasse = frozenset(hasse ^ support_at(e, sub_det.n,
                                                 primes + e_primes))
        try:
            validate_invariants(FormInvariants(2, sub_det, sub_sig, sub_hasse))
        except InvariantContradiction:
            continue
        return _rank2_from_invariants(head + [ec], sub_det, sub_sig, sub_hasse)
    raise RuntimeError("rank-3 construction search exhausted (bug)")


SMALL_PRIMES = primes_below(60)


@st.composite
def admissible_tuples(draw):
    """Admissible tuples of rank 4-24: any signature, det a product of
    primes below 60 carrying them, and a Hasse set of primes below 60 with
    the real bit the signature forces and even size."""
    n = draw(st.integers(4, 24))
    s = draw(st.integers(0, n))
    primes = sorted(draw(st.lists(st.sampled_from(SMALL_PRIMES),
                                  max_size=8, unique=True)))
    d = (-1) ** s
    for p in primes:
        d *= p
    hasse = set(draw(st.lists(st.sampled_from(SMALL_PRIMES), unique=True)))
    if s * (s - 1) // 2 % 2:
        hasse.add(INF)
    if len(hasse) % 2:
        hasse ^= {draw(st.sampled_from(SMALL_PRIMES))}
    inv = FormInvariants(n, SquareClass(d, frozenset(primes)), (n - s, s),
                         frozenset(hasse))
    validate_invariants(inv)
    return inv


@given(admissible_tuples())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_forced_peel_builds_the_step_by_step_form(inv):
    clear_memos()
    new = form_from_invariants(inv)
    try:
        old = _parent_form_from_invariants(inv)
    except RuntimeError as err:
        assert "rank-3 construction search exhausted" in str(err)
    else:
        assert entries_and_classes(new) == entries_and_classes(old)
    # as `QuadraticForm.make` would store them
    assert all(type(e) is Fraction for e in new.diagonal)
    assert invariants(new) == inv


def test_rank3_past_the_scan():
    # anisotropic at every prime below 50: no entry with primes in
    # {2, 3, 5, 7} and one more below 200 is a nonsquare at all of them,
    # and the scan of the copy runs out
    hasse = frozenset(primes_below(50) + (INF,))
    inv = FormInvariants(4, SquareClass(-1), (1, 3), hasse)
    try:
        _parent_form_from_invariants(inv)
    except RuntimeError:
        pass
    else:
        raise AssertionError("the copy's scan was expected to run out")
    clear_memos()
    f = form_from_invariants(inv)
    assert f.diagonal[:2] == (1, -prod(primes_below(50)))
    assert invariants(f) == inv


def test_bad_tuple_still_raises():
    # condition-1: det must be negative with s = 1
    inv = FormInvariants(6, SquareClass(5), (5, 1), frozenset())
    clear_memos()
    for _ in range(2):
        with pytest.raises(InvariantContradiction, match="condition-1"):
            form_from_invariants(inv)


# ---------------------------------------------------------------------------
# the local characters memo against the unmemoized function


def _parent_local_characters(n: int, place) -> tuple:
    if n == 0:
        raise ValueError("zero has no square class")
    if place == INF:
        return (1 if n < 0 else 0,)
    v = 0
    while n % place == 0:
        n //= place
        v ^= 1
    if place == 2:
        r = n % 8
        return (v, (r - 1) // 2 % 2, (r * r - 1) // 8 % 2)
    # Euler's criterion on the unit n
    return (v, 0 if pow(n, (place - 1) // 2, place) == 1 else 1)


def test_local_characters_memo_agrees():
    rng = random.Random(20)
    places = primes_below(200) + (INF,)
    local_characters.cache_clear()
    for _ in range(3000):
        n = rng.choice((1, -1)) * rng.randrange(1, 10 ** rng.randrange(1, 30))
        if rng.random() < 0.3:
            n *= rng.choice(places[:5]) ** rng.randrange(1, 6)
        place = rng.choice(places)
        expected = _parent_local_characters(n, place)
        assert local_characters(n, place) == expected
        assert local_characters(n, place) == expected
    assert local_characters.cache_info().hits >= 3000


@pytest.mark.parametrize("place", [2, 3, 59, INF])
def test_zero_raises_on_every_call(place):
    local_characters.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="zero has no square class"):
            local_characters(0, place)
    assert local_characters.cache_info().currsize == 0
