"""Rational quadratic forms: invariants, classification round trips, local
structure, isotropy, complements, and the Witt group."""

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_invariants
from traceforms.exact import (
    INF, FactorizationBudgetError, SquareClass, hilbert_support,
    hilbert_symbol, primes_below, squarefree_class,
)
from traceforms.qforms import (
    FormInvariants,
    _checked_witness,
    _isotropy_witness,
    InvariantContradiction,
    QuadraticForm,
    complement_invariants,
    diagonalize,
    form_from_invariants,
    hyperbolic_bit,
    hyperbolic_invariants,
    hyperbolic_plane,
    hyperbolic_sum,
    invariants,
    is_isomorphic,
    is_locally_hyperbolic,
    is_locally_isomorphic,
    place_str,
    place_to_json,
    represents_zero,
    split_complement,
    validate_invariants,
    witt_add,
    witt_reduce,
    witt_zero,
)

rng = random.Random(97)

ENTRY_POOL = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15,
              30, -30, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)]


def random_form(max_dim=6, r=rng):
    dim = r.randint(1, max_dim)
    return QuadraticForm.make([r.choice(ENTRY_POOL) for _ in range(dim)])


# E8 Cartan matrix (chain 1..7, eighth node glued to the fifth), negated
NEG_E8 = [[-2, 1, 0, 0, 0, 0, 0, 0],
          [1, -2, 1, 0, 0, 0, 0, 0],
          [0, 1, -2, 1, 0, 0, 0, 0],
          [0, 0, 1, -2, 1, 0, 0, 0],
          [0, 0, 0, 1, -2, 1, 0, 1],
          [0, 0, 0, 0, 1, -2, 1, 0],
          [0, 0, 0, 0, 0, 1, -2, 0],
          [0, 0, 0, 0, 1, 0, 0, -2]]

A2_NEG = [[-2, 1], [1, -2]]


# ---------------------------------------------------------------------------
# diagonalization and invariants


def test_diagonalize_gram_with_zero_corner():
    # the hyperbolic plane in its off-diagonal presentation
    f = diagonalize([[0, 1], [1, 0]])
    assert is_isomorphic(f, hyperbolic_plane())


def test_neg_e8_diagonal():
    f = diagonalize(NEG_E8)
    fi = invariants(f)
    assert fi.dim == 8
    assert fi.det == SquareClass(1)
    assert fi.signature == (0, 8)


def test_k3_like_invariants():
    # three hyperbolic planes plus sixteen <-1>: the full ambient of the
    # classical surface case
    f = hyperbolic_sum(3).direct_sum(QuadraticForm.make([-1] * 16))
    fi = invariants(f)
    assert fi.dim == 22
    assert fi.det == SquareClass(-1)
    assert fi.signature == (3, 19)
    assert fi.hasse == frozenset({2, INF})


def test_isomorphy_classical_pairs():
    assert is_isomorphic(diagonalize(NEG_E8),
                         QuadraticForm.make([-1] * 8))
    assert is_isomorphic(diagonalize(A2_NEG),
                         QuadraticForm.make([-2, -6]))
    assert is_isomorphic(QuadraticForm.make([-2, -2]),
                         QuadraticForm.make([-1, -1]))
    assert not is_isomorphic(QuadraticForm.make([1, -5]),
                             hyperbolic_plane())


def test_hyperbolic_tower():
    for n in range(1, 13):
        fi = invariants(hyperbolic_sum(n))
        assert fi.det == squarefree_class((-1) ** n)
        expected_bit = 1 if n % 4 in (2, 3) else 0
        assert fi.hasse_bit(2) == expected_bit
        assert hyperbolic_bit(n, 2) == expected_bit
        assert fi.signature == (n, n)
        # the 2-bit and the infinity-bit always agree for split towers
        assert fi.hasse_bit(INF) == expected_bit


def test_hyperbolic_invariants_are_written_down():
    for t in range(1, 13):
        assert hyperbolic_invariants(t) == invariants(hyperbolic_sum(t))
    with pytest.raises(ValueError):
        hyperbolic_invariants(0)


def test_scaling_invariance():
    f = QuadraticForm.make([3, -5, 7])
    g = QuadraticForm.make([Fraction(3, 4), -20, 7])   # square rescalings
    assert is_isomorphic(f, g)


# ---------------------------------------------------------------------------
# round trip (acceptance backbone)


def admissible_tuples(count, max_dim=6, seed=1234):
    r = random.Random(seed)
    seen = []
    while len(seen) < count:
        fi = invariants(random_form(max_dim, r))
        seen.append(fi)
    return seen


def test_round_trip_300():
    for fi in admissible_tuples(300):
        g = form_from_invariants(fi)
        assert invariants(g) == fi


def test_perturbations_rejected():
    # start from genuine invariants and break one condition at a time
    base = invariants(QuadraticForm.make([1, 3, -5]))

    flipped_det = FormInvariants(base.dim, base.det * SquareClass(-1),
                                 base.signature, base.hasse)
    with pytest.raises(InvariantContradiction) as err:
        validate_invariants(flipped_det)
    assert err.value.condition == "condition-1"

    toggled_inf = FormInvariants(base.dim, base.det, base.signature,
                                 base.hasse ^ {INF})
    with pytest.raises(InvariantContradiction) as err:
        validate_invariants(toggled_inf)
    assert err.value.condition == "condition-2"

    lonely = invariants(QuadraticForm.make([3]))
    bad_rank1 = FormInvariants(1, lonely.det, lonely.signature,
                               lonely.hasse | {3, 5})
    with pytest.raises(InvariantContradiction) as err:
        validate_invariants(bad_rank1)
    assert err.value.condition == "condition-3"

    # dim 2 with -det a square at a claimed support prime: <1,1> at p=5
    bad_rank2 = FormInvariants(2, SquareClass(1), (2, 0), frozenset({5, 7}))
    with pytest.raises(InvariantContradiction) as err:
        validate_invariants(bad_rank2)
    assert err.value.condition == "condition-3"

    odd_support = FormInvariants(3, SquareClass(-15), (2, 1),
                                 frozenset({3}))
    with pytest.raises(InvariantContradiction) as err:
        validate_invariants(odd_support)
    assert err.value.condition == "reciprocity"


@given(st.integers(0, 10**9))
@settings(max_examples=300, derandomize=True)
def test_round_trip_property(seed):
    fi = invariants(random_form(5, random.Random(seed)))
    assert invariants(form_from_invariants(fi)) == fi


# ---------------------------------------------------------------------------
# local structure


def test_local_hyperbolic():
    assert is_locally_hyperbolic(hyperbolic_sum(2), 5)
    assert is_locally_hyperbolic(hyperbolic_sum(3), 2)
    assert not is_locally_hyperbolic(QuadraticForm.make([1, -5]), 5)
    # <1,-5> is hyperbolic wherever 5 is a square
    assert is_locally_hyperbolic(QuadraticForm.make([1, -5]), 11)


def test_locally_isomorphic_vs_global():
    f = QuadraticForm.make([1, 1, 1, 1])
    g = hyperbolic_sum(2)
    assert not is_isomorphic(f, g)
    assert not is_locally_isomorphic(f, g, INF)
    assert is_locally_isomorphic(f, g, 7)


# ---------------------------------------------------------------------------
# isotropy


def brute_isotropy(entries, height=50):
    """Meet-in-the-middle integer search for a nontrivial zero with
    coordinates bounded by the height."""
    entries = [Fraction(e) for e in entries]
    half = len(entries) // 2
    left, right = entries[:half], entries[half:]

    def values(part):
        out = {}
        coords = [0] * len(part)
        def rec(i, acc):
            if i == len(part):
                out.setdefault(acc, tuple(coords))
                return
            for x in range(-height, height + 1):
                coords[i] = x
                rec(i + 1, acc + part[i] * x * x)
        rec(0, Fraction(0))
        return out

    lv = values(left)
    rv = values(right)
    for val, lcoords in lv.items():
        rcoords = rv.get(-val)
        if rcoords is not None and (any(lcoords) or any(rcoords)):
            return tuple(lcoords) + tuple(rcoords)
    return None


def springer_odd_anisotropy(entries, p):
    """Independent local isotropy test at an odd prime via residue forms:
    split the diagonal by valuation parity; a unit-diagonal form over Q_p is
    isotropic iff its rank is at least 3 or (rank 2) -ab is a residue."""
    squares = {(x * x) % p for x in range(1, p)}
    residue_parts = {0: [], 1: []}
    for e in entries:
        e = Fraction(e)
        num, den = e.numerator * e.denominator, 1  # clear the square denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        residue_parts[v % 2].append(num % p)
    for part in residue_parts.values():
        if len(part) >= 3:
            return False       # isotropic: Chevalley over the residue field
        if len(part) == 2:
            if (-part[0] * part[1]) % p in squares:
                return False
    return True


def dyadic_anisotropy_certificate(entries, max_k=12):
    """Certify no primitive 2-adic zero exists by counting solutions mod 2^k.

    N_prim(2^k) = N_all(2^k) - 2^n N_all(2^{k-2}); a vanishing count is a
    proof (any Z_2 zero would reduce to a primitive solution mod 2^k).
    """
    import numpy as np

    ints = []
    lcm = 1
    for e in entries:
        e = Fraction(e)
        lcm = lcm * e.denominator // __import__("math").gcd(lcm, e.denominator)
    for e in entries:
        ints.append(int(Fraction(e) * lcm * lcm))
    n = len(ints)

    def n_all(k):
        mod = 1 << k
        acc = np.zeros(mod, dtype=np.int64)
        acc[0] = 1
        for a in ints:
            x = np.arange(mod, dtype=np.int64)
            vals = (a % mod) * x * x % mod
            dist = np.bincount(vals % mod, minlength=mod).astype(np.int64)
            conv = np.convolve(acc, dist)
            folded = np.zeros(mod, dtype=np.int64)
            for start in range(0, len(conv), mod):
                folded[: len(conv) - start] += conv[start:start + mod]
            acc = folded
        return int(acc[0])

    for k in range(6, max_k + 1, 2):
        if n_all(k) - (1 << n) * n_all(k - 2) == 0:
            return True
    return False


def test_represents_zero_small_cases():
    v = represents_zero(hyperbolic_plane())
    assert v.isotropic and v.witness is not None
    f = QuadraticForm.make([1, 1, -7])
    v = represents_zero(f)
    assert not v.isotropic
    assert v.obstruction == 7
    # <1,1> is also 2-adically anisotropic; finite places are reported first
    v = represents_zero(QuadraticForm.make([1, 1]))
    assert not v.isotropic and v.obstruction == 2
    # from dimension five on, only definiteness can obstruct
    v = represents_zero(QuadraticForm.make([1, 1, 1, 1, 1]))
    assert not v.isotropic and v.obstruction == INF
    # 7 = 7 mod 8 is not a sum of three squares: the obstruction is dyadic
    v = represents_zero(QuadraticForm.make([1, 1, 1, -7]))
    assert not v.isotropic and v.obstruction == 2
    # 6 is, so the same shape with -6 is isotropic: (2,1,1,1)
    v = represents_zero(QuadraticForm.make([1, 1, 1, -6]))
    assert v.isotropic


def test_witness_is_a_zero():
    for _ in range(60):
        f = random_form(4)
        v = represents_zero(f)
        if v.isotropic and v.witness is not None:
            total = sum(c * x * x for c, x in zip(f.diagonal, v.witness))
            assert total == 0
            assert any(x != 0 for x in v.witness)


def test_brute_force_agreement_100():
    r = random.Random(5150)
    checked_no = 0
    for _ in range(100):
        dim = r.randint(2, 4)
        entries = [r.choice([e for e in range(-30, 31) if e != 0])
                   for _ in range(dim)]
        f = QuadraticForm.make(entries)
        verdict = represents_zero(f)
        brute = brute_isotropy(entries, height=50)
        if brute is not None:
            assert verdict.isotropic, (entries, brute)
        if not verdict.isotropic:
            place = verdict.obstruction
            if place == INF:
                signs = {1 if e > 0 else -1 for e in entries}
                assert len(signs) == 1
            elif place == 2:
                assert dyadic_anisotropy_certificate(entries)
            else:
                assert springer_odd_anisotropy(entries, place)
            checked_no += 1
    assert checked_no > 0


# ---------------------------------------------------------------------------
# complements


def test_split_complement_basic():
    v = hyperbolic_sum(3).direct_sum(QuadraticForm.make([-1] * 16))
    u = QuadraticForm.make([2, -2, -2, -2])
    res = split_complement(v, u)
    assert res.feasible
    w = res.complement
    assert is_isomorphic(u.direct_sum(w), v)


def test_split_complement_rejects_bad_signature():
    # a positive-definite rank 3 cannot embed in signature (2,2)
    res = split_complement(hyperbolic_sum(2), QuadraticForm.make([1, 1, 1]))
    assert not res.feasible
    assert res.reason == "condition-1"


@given(st.integers(0, 10**9))
@settings(max_examples=120, derandomize=True, deadline=None)
def test_split_complement_roundtrip_property(seed):
    r = random.Random(seed)
    big = random_form(3, r).direct_sum(hyperbolic_sum(2))
    small_dim = r.randint(1, 2)
    small = QuadraticForm.make(big.diagonal[:small_dim])
    res = split_complement(big, small)
    if res.feasible:
        assert is_isomorphic(small.direct_sum(res.complement), big)


def test_complement_invariants_additivity():
    vi = invariants(hyperbolic_sum(3))
    ui = invariants(QuadraticForm.make([3, -7]))
    wi = complement_invariants(vi, ui)
    w = form_from_invariants(wi)
    u = QuadraticForm.make([3, -7])
    assert is_isomorphic(u.direct_sum(w), hyperbolic_sum(3))


# ---------------------------------------------------------------------------
# witt group


def test_witt_two_torsion():
    f = QuadraticForm.make([1, -5])
    total = witt_add(witt_reduce(f), witt_reduce(f))
    assert total.kernel is None
    assert total == witt_zero()


def test_witt_hyperbolic_is_zero():
    assert witt_reduce(hyperbolic_sum(4)) == witt_zero()


def test_witt_torsion_iff_signature_zero():
    r = random.Random(31337)
    for _ in range(200):
        f = random_form(6, r)
        cl = witt_reduce(f)
        sig = invariants(f).signature
        assert cl.torsion == (sig[0] == sig[1])


def test_witt_addition_consistent_with_direct_sum():
    r = random.Random(777)
    for _ in range(40):
        f, g = random_form(4, r), random_form(4, r)
        direct = witt_reduce(f.direct_sum(g))
        added = witt_add(witt_reduce(f), witt_reduce(g))
        assert direct == added


# ---------------------------------------------------------------------------
# the Hasse invariant against its pairwise definition

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _product(primes):
    out = 1
    for p in primes:
        out *= p
    return out


_factors = st.lists(st.sampled_from(SMALL_PRIMES), max_size=4).map(_product)
_entries = st.builds(lambda sign, num, den: sign * Fraction(num, den),
                     st.sampled_from((1, -1)), _factors, _factors)


def _pairwise_hasse(f):
    classes = [squarefree_class(e).n for e in f.diagonal]
    places = {2, INF}
    for c in classes:
        places.update(SquareClass(c).primes())
    support = set()
    for v in places:
        bit = 0
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                bit ^= hilbert_symbol(classes[i], classes[j], v)
        if bit:
            support.add(v)
    return frozenset(support)


@given(st.lists(_entries, min_size=1, max_size=12), st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_hasse_matches_pairwise_symbols(entries, data):
    f = QuadraticForm.make(entries)
    fi = invariants(f)
    assert fi.hasse == _pairwise_hasse(f)
    # the prefix sum regroups the pairwise one term by term, so the order of
    # the diagonal must not show in the result
    shuffled = data.draw(st.permutations(entries))
    assert invariants(QuadraticForm.make(shuffled)) == fi


def test_invariants_det_from_entry_classes():
    # each entry classifies alone; the determinant 1000003 * 1000033 is
    # beyond trial division and must not be factored again
    fi = invariants(QuadraticForm.make([1000003, 1000033, 1]))
    assert fi.det == SquareClass(1000003 * 1000033)


def test_place_rendering():
    assert place_to_json(INF) == "inf" and place_to_json(7) == 7
    assert place_str(INF) == "inf" and place_str(7) == "7"


# ---------------------------------------------------------------------------
# the witness scan against the Fraction scan it replaced


def _ref_perfect_square_root(q: Fraction):
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def _ref_isotropy_witness(f: QuadraticForm, height: int, budget: int):
    d = f.diagonal
    n = len(d)
    # pairs first: e_i x^2 + e_j y^2 = 0 has the exact solution below as soon
    # as -e_i e_j is a rational square
    for i in range(n):
        for j in range(i + 1, n):
            s = _ref_perfect_square_root(-d[i] * d[j])
            if s is not None:
                vec = [Fraction(0)] * n
                vec[i] = s / d[i]
                vec[j] = Fraction(1)
                return _checked_witness(f, vec)
    # triples with two bounded coordinates, closing with a square test
    work = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                for x in range(1, height + 1):
                    for y in range(-height, height + 1):
                        work += 1
                        if work > budget:
                            return None
                        val = d[i] * x * x + d[j] * y * y
                        t = _ref_perfect_square_root(-val / d[k])
                        if t is not None:
                            vec = [Fraction(0)] * n
                            vec[i] = Fraction(x)
                            vec[j] = Fraction(y)
                            vec[k] = t
                            if any(vec):
                                return _checked_witness(f, vec)
    return None


WIDE_PRIMES = (99991, 100003, 100019, 100043)

_wide = st.one_of(st.just(1), st.sampled_from(WIDE_PRIMES))
_scan_entries = st.builds(
    lambda sign, num, wide, den: sign * Fraction(num * wide, den),
    st.sampled_from((1, -1)), st.integers(1, 60), _wide,
    st.sampled_from((1, 2, 3, 4, 5, 7, 9)))


@st.composite
def _scan_forms(draw):
    entries = draw(st.lists(_scan_entries, min_size=3, max_size=6))
    if draw(st.booleans()):
        # plant a zero d_i x^2 + d_j y^2 + d_k z^2 = 0, so that the scan
        # also meets triples that hit
        i, j, k = draw(st.permutations(range(len(entries))))[:3]
        x, y, z = draw(st.tuples(*[st.integers(1, 15)] * 3))
        val = entries[i] * x * x + entries[j] * y * y
        if val:
            entries[k] = -val / (z * z)
    return entries


@given(_scan_forms(), st.integers(1, 15), st.integers(1, 5000))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_witness_scan_matches_fraction_scan(entries, height, budget):
    f = QuadraticForm.make(entries)
    assert (_isotropy_witness(f, height, budget)
            == _ref_isotropy_witness(f, height, budget))


def test_witness_scan_budget_cuts_inside_a_triple():
    # <1, 1, -3> has no pair hit; x^2 + y^2 = 3 z^2 has no rational point,
    # so every step misses, and the scan stops at the budget mid-triple
    f = QuadraticForm.make([1, 1, -3])
    for budget in (1, 7, 40, 500):
        assert _isotropy_witness(f, 5, budget) is None
    # <1, 2, -3>: the first triple is (i, j, k) = (0, 1, 2), and y runs
    # from -5, so (1, -1, 1) is its fifth step
    f = QuadraticForm.make([1, 2, -3])
    assert _isotropy_witness(f, 5, 4) is None
    assert _isotropy_witness(f, 5, 5) == (1, -1, 1)


# ---------------------------------------------------------------------------
# the construction against the recursive one it replaced


def _ref_small_squareclass_candidates(base_primes, sign_ok, aux_limit=2000):
    """Deterministic stream of squarefree integers built from the given
    primes plus at most one auxiliary prime, for the rank-2 search."""
    base = sorted(set(base_primes))
    cores = [1]
    for k in range(1, len(base) + 1):
        for combo in combinations(base, k):
            c = 1
            for p in combo:
                c *= p
            cores.append(c)
    cores.sort()
    auxes = [1] + [q for q in primes_below(aux_limit) if q not in base]
    for q in auxes:
        for c in cores:
            for sgn in (1, -1):
                if sign_ok(sgn):
                    yield sgn * c * q


def _ref_form_from_invariants(inv: FormInvariants) -> QuadraticForm:
    validate_invariants(inv)
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse

    if n == 1:
        return QuadraticForm.make([det.n])
    if n == 2:
        return _ref_rank2_from_invariants(det, (r, s), hasse)

    if n == 3:
        # the unit we peel must leave an admissible rank-2 tuple, which is a
        # real constraint here (condition-3 can bite); scan small entries.
        for e in _ref_small_squareclass_candidates(
                (2, 3, 5, 7) + det.primes(),
                lambda sgn: (sgn > 0 and r > 0) or (sgn < 0 and s > 0),
                aux_limit=200):
            ec = squarefree_class(e)
            sub_det = det * ec
            sub_sig = (r - 1, s) if e > 0 else (r, s - 1)
            sub_hasse = frozenset(hasse ^ hilbert_support(ec.n, sub_det.n))
            sub = FormInvariants(2, sub_det, sub_sig, sub_hasse)
            try:
                validate_invariants(sub)
            except InvariantContradiction:
                continue
            tail = _ref_rank2_from_invariants(sub_det, sub_sig, sub_hasse)
            return QuadraticForm.make([e]).direct_sum(tail)
        raise RuntimeError("rank-3 construction search exhausted (bug)")

    e = 1 if r > 0 else -1
    ec = squarefree_class(e)
    sub_det = det * ec
    sub_sig = (r - 1, s) if e > 0 else (r, s - 1)
    sub_hasse = frozenset(hasse ^ hilbert_support(ec.n, sub_det.n))
    head = QuadraticForm.make([e])
    tail = _ref_form_from_invariants(
        FormInvariants(n - 1, sub_det, sub_sig, sub_hasse))
    return head.direct_sum(tail)


def _ref_rank2_from_invariants(det: SquareClass, sig, hasse) -> QuadraticForm:
    r, s = sig
    minus_det = SquareClass(-det.n)

    def sign_ok(sgn):
        if det.n > 0:
            return (sgn > 0) == (r == 2)
        return True

    target = frozenset(hasse)
    base = set(det.primes()) | {2}
    base.update(v for v in target if v != INF)
    for a in _ref_small_squareclass_candidates(sorted(base), sign_ok):
        if hilbert_support(a, minus_det.n) == target:
            return QuadraticForm.make([a, a * det.n])
    raise RuntimeError("rank-2 construction search exhausted (bug)")


_signed_factors = st.builds(lambda sign, core: sign * core,
                            st.sampled_from((1, -1)), _factors)


@given(st.lists(_signed_factors, min_size=1, max_size=10), st.integers(0, 9),
       _wide)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_construction_matches_recursive_construction(entries, at, wide):
    # one prime near 1e5 at most: the recursive construction factors -det by
    # trial division for every rank-2 candidate, and two such primes make
    # that take minutes
    entries[at % len(entries)] *= wide
    fi = invariants(QuadraticForm.make(entries))
    g = form_from_invariants(fi)
    assert g.diagonal == _ref_form_from_invariants(fi).diagonal
    assert invariants(g) == fi


def test_construction_factors_the_determinant_once_from_rank_2():
    # 1000003 * 1000033 is beyond trial division.  From rank 2 on it was a
    # budget error while trial division was the only route; Brent's rho
    # splits it now, and the construction is checked against the primes
    # that sympy finds.  The product of the two primes after 10^20 resists
    # rho as well
    det = SquareClass(1000003 * 1000033)
    hard = SquareClass(100000000000000000039 * 100000000000000000129)
    for d in (det, hard):
        rank1 = FormInvariants(1, d, (1, 0), frozenset())
        assert form_from_invariants(rank1).diagonal == (d.n,)
    for n in (2, 3, 4, 6):
        inv = FormInvariants(n, det, (n, 0), frozenset())
        validate_invariants(inv)
        g = form_from_invariants(inv)
        assert g.diagonal == _ref_form_from_invariants(inv).diagonal
        assert reference_invariants(g.diagonal) == (n, det.n, (n, 0),
                                                    frozenset())
        inv = FormInvariants(n, hard, (n, 0), frozenset())
        validate_invariants(inv)
        for construct in (form_from_invariants, _ref_form_from_invariants):
            with pytest.raises(FactorizationBudgetError):
                construct(inv)
