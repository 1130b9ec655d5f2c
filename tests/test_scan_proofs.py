"""Two searches of `qforms` that a proof shortens, against verbatim copies of
the code they replaced.

The rank-2 construction scores each candidate a = sgn * core * q by the
bilinearity of the Hilbert symbol instead of evaluating (a, -det) at every
place, and must pick the same a.  The witness scan charges the steps of a
triple whose ternary subform is anisotropic without taking them, and must
return the same vector or None after the same budget.  Count pins, which
do not depend on the machine, hold the work that the proofs save; they
read differences of `exact.COUNTS`.  The support count of one construction
is in `tests/test_counts.py`.
"""

import importlib.util
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st
from sympy import nextprime

from traceforms import qforms
from traceforms.exact import (
    COUNTS, INF, SquareClass, clear_memos, is_square_at, primes_below,
    support_at,
)
from traceforms.qforms import (
    FormInvariants,
    QuadraticForm,
    _SQUARES_64,
    _checked_witness,
    _is_square,
    _isotropy_witness,
    _perfect_square_root,
    _rank2_from_invariants,
    form_from_invariants,
    invariants,
    validate_invariants,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# the rank-2 construction against the candidate-by-candidate search


def _parent_small_squareclass_candidates(base_primes, sign_ok,
                                         aux_limit=2000):
    """Deterministic stream of squarefree integers built from the given
    primes plus at most one auxiliary prime, for the rank-2 search.  Each
    comes as (value, its primes)."""
    base = sorted(set(base_primes))
    cores = [(1, ())]
    for k in range(1, len(base) + 1):
        for combo in combinations(base, k):
            c = 1
            for p in combo:
                c *= p
            cores.append((c, combo))
    cores.sort()
    auxes = [1] + [q for q in primes_below(aux_limit) if q not in base]
    for q in auxes:
        extra = (q,) if q > 1 else ()
        for c, combo in cores:
            for sgn in (1, -1):
                if sign_ok(sgn):
                    yield sgn * c * q, combo + extra


def _parent_rank2_from_invariants(head, det: SquareClass, sig,
                                  hasse) -> QuadraticForm:
    """The entries of `head` (square classes) followed by <a, a*det> with
    Hasse set `hasse`; det carries its primes."""
    r, s = sig
    minus_det = -det
    det_primes = det.primes()

    def sign_ok(sgn):
        if det.n > 0:
            return (sgn > 0) == (r == 2)
        return True

    target = frozenset(hasse)
    base = set(det_primes) | {2}
    base.update(v for v in target if v != INF)
    for a, a_primes in _parent_small_squareclass_candidates(sorted(base),
                                                            sign_ok):
        if support_at(a, minus_det.n, a_primes + det_primes) == target:
            ca = SquareClass(a, frozenset(a_primes))
            classes = head + [ca, ca * det]
            return QuadraticForm.make([c.n for c in head] + [a, a * det.n],
                                      classes)
    raise RuntimeError("rank-2 construction search exhausted (bug)")


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_big_prime = st.integers(10**5, 10**8).map(nextprime)


@st.composite
def rank2_tuples(draw):
    """Admissible rank-2 tuples (det, signature, Hasse set), det with 1-6
    primes, some in [1e5, 1e8], carrying them."""
    small = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=6,
                          unique=True))
    big = draw(st.lists(_big_prime, max_size=3, unique=True))
    primes = sorted(set(small) | set(big))[:6]
    if not primes:
        primes = [draw(st.sampled_from(SMALL_PRIMES + (100003,)))]
    n = draw(st.sampled_from((1, -1)))
    for p in primes:
        n *= p
    det = SquareClass(n, frozenset(primes))
    sig = draw(st.sampled_from(((2, 0), (0, 2)))) if n > 0 else (1, 1)
    # condition-3: a finite place in the Hasse set has -det a nonsquare
    allowed = [v for v in sorted({2, 3, 5, 7, 11} | set(primes))
               if not is_square_at(-det, v)]
    hasse = set(draw(st.lists(st.sampled_from(allowed), unique=True))
                if allowed else ())
    if sig == (0, 2):
        hasse.add(INF)
    if len(hasse) % 2:
        assume(allowed)
        hasse ^= {draw(st.sampled_from(allowed))}
    inv = FormInvariants(2, det, sig, frozenset(hasse))
    validate_invariants(inv)
    return inv


def _entries_and_classes(f):
    return f.diagonal, [(c.n, c.known_primes) for c in f.known_classes]


@given(rank2_tuples())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_rank2_scoring_matches_candidate_search(inv):
    new = _rank2_from_invariants([], inv.det, inv.signature, inv.hasse)
    old = _parent_rank2_from_invariants([], inv.det, inv.signature,
                                        inv.hasse)
    assert _entries_and_classes(new) == _entries_and_classes(old)
    assert invariants(new) == inv


# ---------------------------------------------------------------------------
# the witness scan against the scan that took every step


def _parent_isotropy_witness(f: QuadraticForm, height: int, budget: int):
    d = f.diagonal
    n = len(d)
    # pairs first: e_i x^2 + e_j y^2 = 0 has the exact solution below as soon
    # as -e_i e_j is a rational square
    for i in range(n):
        for j in range(i + 1, n):
            s = _perfect_square_root(-d[i] * d[j])
            if s is not None:
                vec = [Fraction(0)] * n
                vec[i] = s / d[i]
                vec[j] = Fraction(1)
                return _checked_witness(f, vec)
    # triples with two bounded coordinates, closing with a square test.
    # With d = p/q, -(d_i x^2 + d_j y^2) / d_k is a rational square exactly
    # when a x^2 + b y^2 is an integer square, for the integers a, b below
    # (multiply through by the square (q_i q_j p_k)^2)
    nums = [e.numerator for e in d]
    dens = [e.denominator for e in d]
    ys = range(-height, height + 1)
    work = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                c = -nums[k] * dens[i] * dens[j] * dens[k]
                a = nums[i] * dens[j] * c
                b = nums[j] * dens[i] * c
                for x in range(1, height + 1):
                    ax2 = a * x * x
                    for y in ys:
                        work += 1
                        if work > budget:
                            return None
                        m = ax2 + b * y * y
                        if (m < 0 or not _SQUARES_64[m & 63]
                                or not _is_square(m)):
                            continue
                        val = d[i] * x * x + d[j] * y * y
                        t = _perfect_square_root(-val / d[k])
                        if t is None:
                            raise RuntimeError(
                                "integer and rational square tests "
                                "disagree (bug)")
                        vec = [Fraction(0)] * n
                        vec[i] = Fraction(x)
                        vec[j] = Fraction(y)
                        vec[k] = t
                        return _checked_witness(f, vec)
    return None


#: ternary forms without a rational zero: definite, or anisotropic at 3, 5
#: or 7 (x^2 + y^2 = 3 z^2, x^2 + 2 y^2 = 5 z^2, x^2 + y^2 = 7 z^2)
ANISOTROPIC_TERNARIES = ((1, 1, 1), (1, 1, -3), (1, 2, -5), (1, 1, -7))

WIDE_PRIMES = (99991, 100003, 100019, 100043)
_scan_entries = st.builds(
    lambda sign, num, wide, den: sign * Fraction(num * wide, den),
    st.sampled_from((1, -1)), st.integers(1, 60),
    st.one_of(st.just(1), st.sampled_from(WIDE_PRIMES)),
    st.sampled_from((1, 2, 3, 4, 5, 7, 9)))


@st.composite
def planted_forms(draw):
    """Forms of rank 3-6 with up to three planted triples: anisotropic ones
    (a scaled ternary above, entries times squares), whose steps the scan
    charges, and ones with a zero d_i x^2 + d_j y^2 + d_k z^2 = 0, where it
    can hit."""
    entries = draw(st.lists(_scan_entries, min_size=3, max_size=6))
    plants = draw(st.lists(st.booleans(), max_size=3))
    for anisotropic in plants:
        i, j, k = draw(st.permutations(range(len(entries))))[:3]
        if anisotropic:
            base = draw(st.sampled_from(ANISOTROPIC_TERNARIES))
            scale = draw(st.sampled_from((1, -1, 2, -6, Fraction(5, 7))))
            for t, b in zip((i, j, k), base):
                z = draw(st.integers(1, 6))
                entries[t] = scale * b * z * z
        else:
            x, y, z = draw(st.tuples(*[st.integers(1, 15)] * 3))
            val = entries[i] * x * x + entries[j] * y * y
            if val:
                entries[k] = -val / (z * z)
    return entries


@given(planted_forms(), st.integers(1, 15), st.integers(1, 5000))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_witness_scan_matches_full_scan(entries, height, budget):
    f = QuadraticForm.make(entries)
    assert (_isotropy_witness(f, height, budget)
            == _parent_isotropy_witness(f, height, budget))


def test_budget_cut_inside_a_charged_triple():
    # <1, 1, -3, -2>: no pair hits, and the first triple (0, 1, 2) is
    # x^2 + y^2 = 3 z^2, anisotropic at 3; its 5 * 11 steps at height 5 are
    # charged.  The next triple (0, 1, 3), x^2 + y^2 = 2 z^2, hits at its
    # fifth step (x, y) = (1, -1): step 60 in all
    f = QuadraticForm.make([1, 1, -3, -2])
    for budget in (1, 30, 55, 59):
        assert _isotropy_witness(f, 5, budget) is None
        assert _parent_isotropy_witness(f, 5, budget) is None
    assert (_isotropy_witness(f, 5, 60) == _parent_isotropy_witness(f, 5, 60)
            == (1, -1, 0, 1))
    assert (_isotropy_witness(f, 5, qforms.WITNESS_BUDGET)
            == _parent_isotropy_witness(f, 5, qforms.WITNESS_BUDGET))


def test_bare_twin_of_a_constructed_form_is_scanned():
    # the constructed form carries the classes of its entries, and its last
    # entry 2 * 1000003 * 1000033 is beyond trial division.  An equal form
    # without them reads its invariants from the memo, so represents_zero
    # reaches the scan, which cannot classify that entry: no triple is
    # proved anisotropic, and every triple is scanned as before
    det = SquareClass(1000003 * 1000033, frozenset({1000003, 1000033}))
    g = form_from_invariants(FormInvariants(4, det, (2, 2),
                                            frozenset({2, INF})))
    invariants(g)
    bare = QuadraticForm.make(g.diagonal)
    assert bare.diagonal == (1, 1, -2, -2 * det.n)
    assert qforms.represents_zero(bare).witness == (1, -41, 29, 0)
    for budget in (50, 200, 5000):
        assert (_isotropy_witness(bare, 50, budget)
                == _parent_isotropy_witness(bare, 50, budget))


# ---------------------------------------------------------------------------
# count pins


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forms_pool_hilbert_symbol_count():
    # cold memos: one pass of the pool made 51416 symbol evaluations when
    # every rank-2 candidate evaluated its own support
    clear_memos()
    wl = _workloads()
    before = COUNTS["hilbert_symbol"]
    for entries, query, k in wl.forms_pool():
        wl.forms_query(query, QuadraticForm.make(entries), k)
    assert COUNTS["hilbert_symbol"] - before <= 20000


def test_represents_zero_classifies_each_entry_once():
    # no pair of <7, 11, -13, -3, 5> is isotropic, so the scan reaches the
    # triples; with a cold memo, the invariants and then the scan each
    # classified the five entries (10 calls), and each class factors once
    invariants.cache_clear()
    before = COUNTS["factorize"]
    verdict = qforms.represents_zero(QuadraticForm.make([7, 11, -13, -3, 5]))
    assert verdict.witness == (1, 0, -18, 0, 29)
    assert COUNTS["factorize"] - before <= 5
