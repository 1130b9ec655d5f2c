"""The lazy construction search of `qforms` against verbatim copies of the
code it replaced.

`_ascending_cores` walks the products of subsets of a prime base in
ascending order with a heap, instead of listing and sorting all of them.
The rank-2 step skips an auxiliary prime q that elimination over F2 shows
cannot hit, and takes the smallest core of a solution coset; it must pick
the same entry as the full scan, evaluating no more supports.  A rank-4
form whose determinant has 24 primes, far beyond the full listing, is
built under a count bound.  Supports are read from
`exact.COUNTS["support_at"]`, which counts the copies' supports too.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from conftest import wide_rank4
from traceforms import qforms
from traceforms.exact import (
    COUNTS, INF, SquareClass, clear_memos, primes_below, support_at,
)
from traceforms.qforms import (
    FormInvariants,
    QuadraticForm,
    _ascending_cores,
    _rank2_from_invariants,
    form_from_invariants,
    invariants,
    validate_invariants,
)

# ---------------------------------------------------------------------------
# verbatim copies of the listing and the scan the walk replaced


def _parent_squareclass_cores(base):
    """The products of the subsets of the sorted primes `base`, ascending,
    each as (value, its primes)."""
    cores = [(1, ())]
    for k in range(1, len(base) + 1):
        for combo in combinations(base, k):
            c = 1
            for p in combo:
                c *= p
            cores.append((c, combo))
    cores.sort()
    return cores


def _parent_aux_primes(base, aux_limit):
    """1 and the primes below `aux_limit` outside `base`.  The construction
    searches try sgn * core * q, walking q first, then the core, then the
    sign."""
    return [1] + [q for q in primes_below(aux_limit) if q not in base]


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
        if x not in masks:
            supp = support_at(x, minus_det.n,
                              det_primes + ((x,) if x > 0 else ()))
            masks[x] = (None if x in supp and x not in bits
                        else sum(bits[v] for v in supp))
        return masks[x]

    want = sum(bits[v] for v in target)
    cores = _parent_squareclass_cores(base)
    core_masks = [None] * len(cores)
    for q in _parent_aux_primes(base, 2000):
        q_mask = 0 if q == 1 else mask(q)
        if q_mask is None:
            continue
        for i, (core, combo) in enumerate(cores):
            if core_masks[i] is None:
                core_masks[i] = 0
                for p in combo:
                    core_masks[i] ^= mask(p)
            for sgn in signs:
                score = core_masks[i] ^ q_mask ^ (mask(-1) if sgn < 0 else 0)
                if score != want:
                    continue
                a = sgn * core * q
                a_primes = combo + ((q,) if q > 1 else ())
                if support_at(a, minus_det.n, a_primes + det_primes) != target:
                    raise RuntimeError(
                        "rank-2 bilinear score disagrees with the support "
                        "(bug)")
                ca = SquareClass(a, frozenset(a_primes))
                classes = head + [ca, ca * det]
                return QuadraticForm.make([c.n for c in head] + [a, a * det.n],
                                          classes)
    raise RuntimeError("rank-2 construction search exhausted (bug)")


# ---------------------------------------------------------------------------
# the walk against the sorted listing

_bases = st.lists(st.sampled_from(primes_below(200)), max_size=12,
                  unique=True).map(sorted)


@given(_bases, st.integers(0, 5000))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_walk_is_the_sorted_listing(base, cut):
    oracle = _parent_squareclass_cores(base)
    walk = _ascending_cores(base)
    first = walk()
    head = [core for _, core in zip(range(cut), first)]
    # a second walk, started while the first is part way, re-reads the
    # cores generated so far and goes on past them
    assert list(walk()) == oracle
    assert head + list(first) == oracle
    assert list(walk()) == oracle


# ---------------------------------------------------------------------------
# the F2 skip of an auxiliary prime that cannot hit


def test_f2_skip_takes_the_scan_entry(monkeypatch):
    # det = 2 * 23 * 31 * 47 * 59 with Hasse set {2, 31}: no sgn * core
    # with q < 197 hits, so the scan walks all 32 cores for every auxiliary
    # prime up to 193, and the first hit is a = 197
    det = SquareClass(2 * 23 * 31 * 47 * 59, frozenset({2, 23, 31, 47, 59}))
    inv = FormInvariants(2, det, (2, 0), frozenset({2, 31}))
    validate_invariants(inv)
    before = COUNTS["support_at"]
    old = _parent_rank2_from_invariants([], det, (2, 0), inv.hasse)
    old_calls = COUNTS["support_at"] - before
    cores = [0]
    walk = qforms._ascending_cores

    def counted_walk(base):
        inner = walk(base)

        def counted():
            for core in inner():
                cores[0] += 1
                yield core
        return counted

    monkeypatch.setattr(qforms, "_ascending_cores", counted_walk)
    before = COUNTS["support_at"]
    new = _rank2_from_invariants([], det, (2, 0), inv.hasse)
    assert new.diagonal == old.diagonal == (197, 197 * det.n)
    assert new.known_classes == old.known_classes
    assert COUNTS["support_at"] - before <= old_calls
    # elimination over F2 decides q = 1 interval by interval between the
    # base primes and refuses each q > 1 before 197: no core is read (0),
    # where the scan read all 32 for each q
    assert cores[0] <= 25
    assert invariants(new) == inv


# ---------------------------------------------------------------------------
# the gate: a determinant with 24 primes


def test_rank4_with_24_determinant_primes(monkeypatch):
    # listing the 2^25 rank-2 cores takes hours; the construction pops none
    # of them (0): the rank-3 step takes core 1, which needs no pop, and
    # the rank-2 step eliminates over F2 without reading a core.
    # 29 supports: 1 peel, 1 rank-3 candidate, the masks of -1 and of the
    # 25 base primes, and the final check (the entry has q = 1)
    fi = invariants(QuadraticForm.make(wide_rank4(24)))
    assert len(fi.det.primes()) == 24
    clear_memos()
    before = COUNTS["support_at"]
    pops = [0]
    heappop = qforms.heappop

    def counting_pop(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(qforms, "heappop", counting_pop)
    g = form_from_invariants(fi)
    assert COUNTS["support_at"] - before <= 29
    assert pops[0] <= 62
    assert invariants(QuadraticForm.make(g.diagonal)) == fi
