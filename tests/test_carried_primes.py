"""Square classes and constructed forms carry their primes.

A class from `squarefree_class` knows the primes it was factored into, and
products, negations and units keep that knowledge, so no determinant built
from known entries is factored again.  These properties compare the carried
primes with `sympy.factorint`, check that the carried data never takes part
in equality or hashing, and run reciprocity, the invariants round trip and
the splitting of a form at heights where a determinant is a product of two
primes in (1e9, 2e9), beyond trial division.  Counting checks show that
the split-prime queries factor each class once, the norm test none, the
witness construction each entry and d once, and a direct sum none of the
classes its summands hold.  The counts are differences of
`exact.COUNTS["factorize"]`.  Two checks pin which integers are factored,
in order, which a count cannot tell; only they replace the `factorize`
bindings of `exact` and `numfields` (`_factorize_calls`).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, nextprime

from conftest import reference_invariants
from traceforms import exact, numfields
from traceforms.exact import (
    COUNTS, INF, SquareClass, clear_memos, hilbert_symbol, squarefree_class,
    support_at,
)
from traceforms.numfields import ImagQuadratic, RealQuadratic
from traceforms.qforms import (
    QuadraticForm, form_from_invariants, invariants, is_isomorphic,
    split_complement,
)
from traceforms.transfer import (
    rm_transfer_feasible,
    validate_cm_rank2_complement,
)

_PRIMES = (2, 3, 5, 7, 11, 13, 1009, 1000003)


def _product(primes):
    out = 1
    for p in primes:
        out *= p
    return out


_nonzero = st.builds(
    lambda sign, num, den: sign * Fraction(_product(num), _product(den)),
    st.sampled_from((1, -1)),
    st.lists(st.sampled_from(_PRIMES), max_size=5),
    st.lists(st.sampled_from(_PRIMES), max_size=3))

#: one step on a class: multiply by a class, negate, or multiply by a unit
_steps = st.lists(st.one_of(
    _nonzero.map(lambda r: ("mul", r)),
    st.just(("neg", None)),
    st.sampled_from((1, -1)).map(lambda u: ("unit", u))), max_size=8)


def _sympy_primes(n):
    return tuple(sorted(factorint(abs(n))))


@given(_nonzero, _steps)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_carried_primes_match_sympy(start, steps):
    c = squarefree_class(start)
    value = Fraction(start)
    for op, arg in steps:
        if op == "mul":
            c, value = c * squarefree_class(arg), value * arg
        elif op == "neg":
            c, value = -c, -value
        else:
            c, value = c * SquareClass(arg), value * arg
        assert c.known_primes is not None
        assert c.primes() == _sympy_primes(c.n)
    assert c == squarefree_class(value)


@given(_nonzero, st.frozensets(st.sampled_from(_PRIMES)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_equality_and_hashing_ignore_carried_primes(r, other):
    c = squarefree_class(r)
    for twin in (SquareClass(c.n), SquareClass(c.n, other)):
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
    assert SquareClass(1).primes() == () == SquareClass(-1).primes()


def test_forms_compare_without_their_classes():
    g = form_from_invariants(invariants(QuadraticForm.make([3, -5, 7, 11])))
    bare = QuadraticForm.make(g.diagonal)
    assert all(c is not None for c in g.known_classes)
    assert bare.known_classes == (None,) * g.dim
    assert g == bare and hash(g) == hash(bare)
    assert invariants(g) == invariants(bare)


# ---------------------------------------------------------------------------
# two primes in (1e9, 2e9) in one determinant

_big_prime = st.integers(10**9, 2 * 10**9 - 10**5).map(nextprime)
_small_entry = st.builds(lambda sign, primes: sign * _product(primes),
                         st.sampled_from((1, -1)),
                         st.lists(st.sampled_from((2, 3, 5, 7)), max_size=2))


@st.composite
def wide_forms(draw):
    """Diagonal forms of rank 2-6 where two entries carry distinct primes in
    (1e9, 2e9): each entry classifies by trial division, their product
    does not."""
    entries = draw(st.lists(_small_entry, min_size=2, max_size=6))
    p = draw(_big_prime)
    q = draw(_big_prime.filter(lambda x: x != p))
    i = draw(st.integers(0, len(entries) - 1))
    j = draw(st.integers(0, len(entries) - 2))
    j += j >= i
    entries[i] *= p
    entries[j] *= q
    return QuadraticForm.make(entries)


@given(wide_forms(), _nonzero)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_reciprocity_past_trial_division(f, b):
    det = invariants(f).det
    cb = squarefree_class(b)
    support = support_at(det.n, cb.n, det.primes() + cb.primes())
    assert len(support) % 2 == 0
    places = {2, INF} | set(_sympy_primes(det.n)) | set(_sympy_primes(cb.n))
    assert support == {v for v in places
                       if hilbert_symbol(det.n, cb.n, v) == 1}


@given(wide_forms())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_round_trip_past_trial_division(f):
    fi = invariants(f)
    g = form_from_invariants(fi)
    assert invariants(g) == fi
    assert reference_invariants(g.diagonal) == reference_invariants(f.diagonal)


@given(wide_forms(), st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_split_past_trial_division(f, data):
    k = data.draw(st.integers(1, f.dim - 1))
    u = QuadraticForm.make(f.diagonal[:k])
    res = split_complement(f, u)
    assert res.feasible
    assert invariants(res.complement) == res.complement_invariants
    assert (reference_invariants(u.diagonal + res.complement.diagonal)
            == reference_invariants(f.diagonal))


def _factorize_calls(monkeypatch):
    """The integers factored, in order, through the bindings of `exact` and
    `numfields`: a value pin, which a difference of `COUNTS` cannot
    replace."""
    calls = []
    factorize = exact.factorize

    def counting(n, *args, **kwargs):
        calls.append(n)
        return factorize(n, *args, **kwargs)

    for module in (exact, numfields):
        monkeypatch.setattr(module, "factorize", counting)
    return calls


def test_split_prime_queries_factor_each_class_once(monkeypatch):
    E, F = ImagQuadratic(1), RealQuadratic(3)
    U = QuadraticForm.make([1, 1, -1, -1, -1, -7000021])
    # warm the memoized field and form invariants, which are not counted
    validate_cm_rank2_complement(E, 1, False)
    rm_transfer_feasible(F, U)
    calls = _factorize_calls(monkeypatch)
    for twisted in (False, True):
        calls.clear()
        assert validate_cm_rank2_complement(E, 7000021, twisted).feasible
        assert calls == [7000021]
    # the norm test and the obstruction place read the primes that the
    # target class 3 * 7000021 carries
    before = COUNTS["factorize"]
    v = rm_transfer_feasible(F, U)
    assert v.obstruction["place"] == 3
    assert COUNTS["factorize"] - before == 0


def test_norm_test_reads_carried_primes(monkeypatch):
    # cold memos: the field's d, the entries, and nothing from the norm test,
    # which once factored d, the target class 3 * 7000021 and d again
    clear_memos()
    calls = _factorize_calls(monkeypatch)
    v = rm_transfer_feasible(RealQuadratic(3),
                             QuadraticForm.make([1, 1, -1, -1, -1, -7000021]))
    assert v.status == "infeasible"
    assert calls == [3, 1, 1, 1, 1, 1, 7000021]


def test_direct_sum_carries_the_classes_of_its_summands():
    # a split classifies u and builds w with known classes; checking u + w
    # against v reads both, where it once classified 3 and -5 again
    invariants.cache_clear()
    v = QuadraticForm.make([3, -5, 7, 11, -13])
    u = QuadraticForm.make([3, -5])
    w = split_complement(v, u).complement
    before = COUNTS["factorize"]
    assert is_isomorphic(u.direct_sum(w), v)
    assert COUNTS["factorize"] - before == 0
