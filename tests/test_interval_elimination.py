"""The two last steps of `qforms.form_from_invariants` against verbatim
copies of the searches they replaced.

The rank-2 step takes the least a = sgn * core * q whose symbol (a, -det)
has support `hasse`.  The copy walks the cores in ascending order for q = 1
and starts elimination over F2 only once the walk has reached the largest
base prime; the step eliminates interval by interval between consecutive
base primes, so it reads no core, and must take the same entry after
evaluating the same supports.  The rank-3 step skips each (q, sign) that a
system over F2 in the characters at the Hasse primes outside its base shows
cannot hit; it must take the same entry as the copy's scan, evaluating no
more supports.  Two families that the copies walk in exponential time are
built without reading a core.  Supports are read from
`exact.COUNTS["support_at"]`, which counts the copies' supports too.
"""

from fractions import Fraction
from itertools import chain
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from traceforms import qforms
from traceforms.exact import (
    COUNTS, INF, SquareClass, clear_memos, is_prime, primes_below, support_at,
)
from traceforms.qforms import (
    FormInvariants,
    InvariantContradiction,
    QuadraticForm,
    _MINUS_CLASS,
    _MINUS_ONE,
    _ONE,
    _PLUS_CLASS,
    _UNIT_ENTRIES,
    _ascending_cores,
    _aux_primes,
    _minus_ones_hasse,
    _represented_entry,
    form_from_invariants,
    invariants,
    validate_invariants,
)

# ---------------------------------------------------------------------------
# verbatim copies of the rank-2 walk and the rank-3 scan


def _parent_rank2_from_invariants(head, det: SquareClass, sig,
                                  hasse) -> QuadraticForm:
    """The entries of `head` (square classes) followed by <a, a*det> with
    Hasse set `hasse`; det carries its primes."""
    r, s = sig
    minus_det = -det
    det_primes = det.primes()
    signs = (1, -1) if det.n < 0 else ((1,) if r == 2 else (-1,))
    target = frozenset(hasse)
    base = set(det_primes) | {2}
    base.update(v for v in target if v != INF)
    base = sorted(base)
    bits = {v: 1 << i for i, v in enumerate(base + [INF])}
    masks = {}

    def mask(x):
        """The support of (x, -det) as a bit mask, for x = -1, a prime of
        `base` or an auxiliary prime; None for an auxiliary prime in its
        own support, the one place outside `bits` a support can hold."""
        if x not in masks:
            supp = support_at(x, minus_det.n,
                              det_primes + ((x,) if x > 0 else ()))
            masks[x] = (None if x in supp and x not in bits
                        else sum(bits[v] for v in supp))
        return masks[x]

    want = sum(bits[v] for v in target)
    cores = _ascending_cores(base)
    # the base masks in echelon form, {top bit: (row, set of base primes)},
    # and a basis of the sets of base primes whose masks sum to 0
    rows, kernel = {}, []

    def reduce(v, c=0):
        while v and v.bit_length() in rows:
            row, row_set = rows[v.bit_length()]
            v, c = v ^ row, c ^ row_set
        return v, c

    def primes_of(c):
        return tuple(p for j, p in enumerate(base) if c >> j & 1)

    def first_hit(q_mask):
        stop = None  # where the walk gives way to listing the cosets
        for i, (core, combo) in enumerate(cores()):
            if stop is None and base[-1] in masks:
                for j in range(len(rows) + len(kernel), len(base)):
                    v, c = reduce(mask(base[j]), 1 << j)
                    if v:
                        rows[v.bit_length()] = v, c
                    else:
                        kernel.append(c)
                goals = [(k, reduce(want ^ q_mask ^ (mask(-1) if sgn < 0
                                                     else 0)))
                         for k, sgn in enumerate(signs)]
                goals = [(k, c) for k, (v, c) in goals if not v]
                if not goals:
                    return None
                stop = i + (len(goals) << len(kernel))
            if i == stop:
                sets = [0]
                for x in kernel:
                    sets += [y ^ x for y in sets]
                core, k, c = min((prod(primes_of(c ^ y)), k, c ^ y)
                                 for k, c in goals for y in sets)
                return core, primes_of(c), signs[k]
            score = q_mask
            for p in combo:
                score ^= mask(p)
            for sgn in signs:
                if score ^ (mask(-1) if sgn < 0 else 0) == want:
                    return core, combo, sgn
        return None

    for q in _aux_primes(base, 2000):
        q_mask = 0 if q == 1 else mask(q)
        hit = None if q_mask is None else first_hit(q_mask)
        if hit is None:
            continue
        core, combo, sgn = hit
        a = sgn * core * q
        a_primes = combo + ((q,) if q > 1 else ())
        if support_at(a, minus_det.n, a_primes + det_primes) != target:
            raise RuntimeError(
                "rank-2 bilinear score disagrees with the support (bug)")
        ca = SquareClass(a, frozenset(a_primes))
        # every entry is a nonzero integer, so no check of `make` can fail
        entries = [_UNIT_ENTRIES.get(c.n) or Fraction(c.n) for c in head]
        return QuadraticForm(entries + [Fraction(a), Fraction(a * det.n)],
                             head + [ca, ca * det])
    raise RuntimeError("rank-2 construction search exhausted (bug)")


def _parent_rank3_form(det_n: int, primes: tuple, sig,
                       hasse) -> QuadraticForm:
    """The rank-3 form that `form_from_invariants` ends with, for the tuple
    its peel hands on."""
    det = SquareClass(det_n, frozenset(primes))
    r, s = sig
    validate_invariants(FormInvariants(3, det, sig, hasse))
    # the unit we peel must leave an admissible rank-2 tuple, which is a
    # real constraint here (condition-3 can bite); scan small entries, and
    # past them take an entry the ternary form is known to represent
    base = sorted({2, 3, 5, 7}.union(primes))
    signs = [sgn for sgn, k in ((1, r), (-1, s)) if k > 0]
    cores = _ascending_cores(base)
    scan = ((sgn * c * q, combo + ((q,) if q > 1 else ()))
            for q in _aux_primes(base, 200) for c, combo in cores()
            for sgn in signs)
    for e, e_primes in chain(scan, _represented_entry(det, hasse, signs[0])):
        ec = SquareClass(e, frozenset(e_primes))
        sub_det = det * ec
        sub_sig = (r - 1, s) if e > 0 else (r, s - 1)
        sub_hasse = frozenset(hasse ^ support_at(e, sub_det.n,
                                                 primes + e_primes))
        try:
            validate_invariants(FormInvariants(2, sub_det, sub_sig, sub_hasse))
        except InvariantContradiction:
            continue
        return _parent_rank2_from_invariants([ec], sub_det, sub_sig,
                                             sub_hasse)
    raise RuntimeError("rank-3 construction search exhausted (bug)")


# ---------------------------------------------------------------------------
# counters


def _counted(f, *args):
    """f(*args), and the supports it evaluated."""
    before = COUNTS["support_at"]
    return f(*args), COUNTS["support_at"] - before


def _parent_form(inv):
    """`form_from_invariants` with the copies in place of the two steps,
    past its memo: a verbatim copy of its peel, then the rank-3 copy."""
    validate_invariants(inv)
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse
    if n == 1:
        return QuadraticForm.make([det.n], [det])
    primes = det.primes()
    det = SquareClass(det.n, frozenset(primes))
    if n == 2:
        return _parent_rank2_from_invariants([], det, (r, s), hasse)
    plus = min(r, n - 3)
    minus = n - 3 - plus
    if minus % 2:
        hasse ^= support_at(-1, -det.n, primes)
        det = -det
    hasse ^= _minus_ones_hasse(minus)
    core = _parent_rank3_form(det.n, primes, (r - plus, s - minus), hasse)
    if n == 3:
        return core
    return QuadraticForm(
        (_ONE,) * plus + (_MINUS_ONE,) * minus + core.diagonal,
        (_PLUS_CLASS,) * plus + (_MINUS_CLASS,) * minus + core.known_classes)


def _entries_and_classes(f):
    return f.diagonal, [(c.n, c.known_primes) for c in f.known_classes]


# ---------------------------------------------------------------------------
# the steps against the copies

#: primes of the entries and the determinants; the three past 200 leave
#: wide gaps between consecutive base primes
POOL = primes_below(120) + (211, 1009, 10007)


@st.composite
def form_tuples(draw):
    """The invariants of <e_1, ..., e_n>, n = 2..5, each entry a sign times
    at most three primes of POOL."""
    n = draw(st.integers(2, 5))
    entries = []
    for _ in range(n):
        ps = draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True))
        entries.append(draw(st.sampled_from((1, -1))) * prod(ps))
    return invariants(QuadraticForm.make(entries))


@st.composite
def free_tuples(draw):
    """Admissible tuples of rank 3-5: det a signed product of up to four
    primes of POOL, and any Hasse set of up to five primes below 120 with
    the real bit the signature forces and even size, so that it can hold
    primes outside the rank-3 base."""
    n = draw(st.integers(3, 5))
    s = draw(st.integers(0, n))
    primes = sorted(draw(st.lists(st.sampled_from(POOL), max_size=4,
                                  unique=True)))
    small = primes_below(120)
    hasse = set(draw(st.lists(st.sampled_from(small), max_size=5,
                              unique=True)))
    if s * (s - 1) // 2 % 2:
        hasse.add(INF)
    if len(hasse) % 2:
        hasse ^= {draw(st.sampled_from(small))}
    inv = FormInvariants(n, SquareClass((-1) ** s * prod(primes),
                                        frozenset(primes)),
                         (n - s, s), frozenset(hasse))
    validate_invariants(inv)
    return inv


@given(st.one_of(form_tuples(), free_tuples()))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_steps_take_the_entries_of_the_copies(inv):
    # the rank-2 tuple each construction hands to its last step
    handed = []
    rank2 = qforms._rank2_from_invariants

    def recording(*args):
        handed.append(args)
        return rank2(*args)

    clear_memos()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(qforms, "_rank2_from_invariants", recording)
        new, new_calls = _counted(form_from_invariants, inv)
    clear_memos()
    old, old_calls = _counted(_parent_form, inv)
    assert _entries_and_classes(new) == _entries_and_classes(old)
    assert invariants(new) == inv
    if inv.dim == 2:
        assert new_calls == old_calls
    else:
        assert new_calls <= old_calls
    # the rank-2 step alone evaluates exactly the supports of the walk
    (head, det, sig, hasse), = handed
    new, new_calls = _counted(rank2, list(head), det, sig, hasse)
    old, old_calls = _counted(_parent_rank2_from_invariants, list(head),
                              det, sig, hasse)
    assert _entries_and_classes(new) == _entries_and_classes(old)
    assert new_calls == old_calls


# ---------------------------------------------------------------------------
# the two families of the copies' exponential walks


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


#: a prime near 10^40: the rank-2 copy walks every core below it
P40 = _next_prime(10 ** 40)


def _rank2_family(k):
    """Rank 2, det -(first k primes) * P40, Hasse set {2, P40}."""
    primes = primes_below(200)[:k] + (P40,)
    det = SquareClass(-prod(primes), frozenset(primes))
    return FormInvariants(2, det, (1, 1), frozenset({2, P40}))


def _rank3_family(k):
    """Rank 4, det -(first k primes), signature (1, 3), Hasse set the next
    31 primes and INF: no entry of the copy's scan is represented."""
    primes = primes_below(1000)
    det = SquareClass(-prod(primes[:k]), frozenset(primes[:k]))
    return FormInvariants(4, det, (1, 3),
                          frozenset(primes[k:k + 31] + (INF,)))


def test_rank2_family_pops_no_core(monkeypatch):
    pops = [0]
    heappop = qforms.heappop

    def counting_pop(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(qforms, "heappop", counting_pop)
    for k in (14, 20):
        inv = _rank2_family(k)
        clear_memos()
        pops[0] = 0
        f = form_from_invariants(inv)
        assert pops[0] == 0
        assert invariants(f) == inv
        if k == 14:
            # the copy walks 2^14 cores to the same entry
            old = _parent_rank2_from_invariants([], inv.det, (1, 1),
                                                inv.hasse)
            assert f.diagonal[0] == old.diagonal[0] == 1259470


def test_rank3_family_reads_no_core(monkeypatch):
    reads = [0]
    walk = qforms._ascending_cores

    def counted_walk(base):
        inner = walk(base)

        def counted():
            for core in inner():
                reads[0] += 1
                yield core
        return counted

    monkeypatch.setattr(qforms, "_ascending_cores", counted_walk)
    for k in (6, 8, 12, 16):
        inv = _rank3_family(k)
        clear_memos()
        f = form_from_invariants(inv)
        assert reads[0] == 0
        assert invariants(f) == inv
        if k <= 8:
            # the copy's scan walks all 2^k cores for each auxiliary prime
            # below 200 before it takes the represented entry
            assert f.diagonal == _parent_form(inv).diagonal
