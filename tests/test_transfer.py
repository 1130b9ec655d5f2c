"""Trace-transfer tests.

The explicit transfers (quadratic and hermitian) act as oracles here: their
invariants are computed from honest Gram matrices and must match what the
prediction layer claims, sample after sample.  Feasibility verdicts are then
cross-checked against independent arithmetic (sums of two squares, direct
norm searches).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from traceforms.exact import (
    INF, Poly, SquareClass, hilbert_support, is_square_at, squarefree_class,
)
from traceforms.numfields import (
    IN, Cyclotomic, GeneralCM, GeneralTotallyReal, ImagQuadratic,
    RealQuadratic, field_invariants, in_SE,
)
from traceforms.qforms import (
    FormInvariants, InvariantContradiction, QuadraticForm, hyperbolic_bit,
    hyperbolic_sum, invariants, invariants_from_json, is_locally_hyperbolic,
    validate_invariants,
)
from traceforms.transfer import (
    QuadFieldElement, _choose_complement, _class_key, _complement_target,
    _hasse_candidates, bad_set, check_mode, cm_transfer_feasible,
    cm_twist_class,
    condition_C_profile, predicted_invariants,
    rm_transfer_feasible, split_transfer_feasible,
    transfer_hermitian_imagquad, transfer_quadratic,
    validate_cm_rank2_complement,
)

K3_FORM = hyperbolic_sum(3).direct_sum(QuadraticForm.make([-1] * 16))


def random_quad_entries(rng, m, span=5):
    out = []
    while len(out) < m:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if a or b:
            out.append(QuadFieldElement.make(a, b))
    return tuple(out)


def test_quadratic_transfer_matches_prediction():
    """Dimension and determinant of 200 explicit real-quadratic transfers
    agree with the predicted pair, entry norms feeding the norm class."""
    rng = random.Random(0x5EED)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 13])
        m = rng.randint(1, 4)
        entries = random_quad_entries(rng, m)
        T = transfer_quadratic(d, entries)
        ti = invariants(T)
        norm_det = Fraction(1)
        for e in entries:
            norm_det *= e.norm(d)
        dim, det = predicted_invariants(RealQuadratic(d), m,
                                        squarefree_class(norm_det))
        assert ti.dim == dim == 2 * m
        assert ti.det == det


def test_quadratic_transfer_signature_rule():
    # total signature is the sum of the per-embedding ones
    rng = random.Random(0xACE)
    for _ in range(120):
        d = rng.choice([2, 3, 5, 13])
        m = rng.randint(1, 4)
        entries = random_quad_entries(rng, m)
        prof = condition_C_profile(RealQuadratic(d), entries)
        r = sum(p[0] for p in prof.per_embedding)
        s = sum(p[1] for p in prof.per_embedding)
        assert invariants(transfer_quadratic(d, entries)).signature == (r, s)


def hermitian_sample(rng):
    D = rng.choice([1, 3, 7])
    m = rng.randint(1, 5)
    entries = []
    while len(entries) < m:
        num = rng.randint(-9, 9)
        if num:
            entries.append(Fraction(num, rng.choice([1, 2, 3])))
    return D, m, tuple(entries)


def test_hermitian_transfer_conditions():
    """200 hermitian transfers: forced determinant class, even signature
    pair, and the single-embedding signature profile all line up."""
    rng = random.Random(77)
    for _ in range(200):
        D, m, entries = hermitian_sample(rng)
        E = ImagQuadratic(D)
        T = transfer_hermitian_imagquad(D, entries)
        ti = invariants(T)
        assert (ti.dim, ti.det) == predicted_invariants(E, m)
        r, s = ti.signature
        assert r % 2 == 0 and s % 2 == 0
        prof = condition_C_profile(E, entries)
        assert prof.per_embedding == (ti.signature,)
        assert prof.condition_ok == (r == 2)


def test_hermitian_transfer_hyperbolic_at_split_primes():
    """Genuine hermitian transfers are hyperbolic wherever the field splits,
    so the full feasibility check accepts every one of them."""
    rng = random.Random(4242)
    small_primes = [p for p in range(3, 60)
                    if all(p % q for q in range(2, p))]
    for _ in range(40):
        D, m, entries = hermitian_sample(rng)
        E = ImagQuadratic(D)
        T = transfer_hermitian_imagquad(D, entries)
        for p in small_primes:
            if in_SE(E, p) == IN:
                assert is_locally_hyperbolic(T, p)
        assert cm_transfer_feasible(E, T).feasible


def test_cm_feasible_det_obstruction():
    E = ImagQuadratic(1)
    v = cm_transfer_feasible(E, QuadraticForm.make([1, 3]))
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "(ii)"
    assert v.obstruction["all_violated"] == ["(ii)"]


def test_cm_feasible_split_prime_obstruction():
    # the four-dimensional anisotropic form at 5, dressed up with square
    # determinant and even signature; 5 splits in Q(i)
    E = ImagQuadratic(1)
    U = QuadraticForm.make([1, -2, 5, -10])
    assert invariants(U).det == SquareClass(1)
    v = cm_transfer_feasible(E, U)
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "(iii)"
    assert v.obstruction["place"] == 5


def test_cm_feasible_pure_signature_probe():
    # no genuine form carries this combination (the determinant sign would
    # drag condition (ii) down with it), so probe with bare invariants
    probe = FormInvariants(20, SquareClass(1), (3, 17), frozenset())
    v = cm_transfer_feasible(ImagQuadratic(1), probe)
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "(iv)"
    assert v.obstruction["all_violated"] == ["(iv)"]


def test_cm_feasible_stacked_violations():
    v = cm_transfer_feasible(ImagQuadratic(1), QuadraticForm.make([1, -3]))
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "(ii)"
    assert "(iv)" in v.obstruction["all_violated"]


def test_cm_feasible_input_validation():
    with pytest.raises(ValueError):
        cm_transfer_feasible(RealQuadratic(2), QuadraticForm.make([1, 1]))
    with pytest.raises(ValueError):
        cm_transfer_feasible(ImagQuadratic(1), QuadraticForm.make([1, 1, 1]))


def test_general_cm_assertions_drive_the_verdict():
    """With no split-set assertions the verdict defers; asserting the primes
    out (or in) settles it either way."""
    blank = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5)
    U = QuadraticForm.make([1, 1, 1, 5])
    v = cm_transfer_feasible(blank, U)
    assert v.status == "needs_witness"
    assert v.obstruction["reason"] == "split-set-unknown"
    assert set(v.obstruction["primes"]) == {2, 5}

    settled = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5,
                        se_assertions=((2, False), (5, False)))
    assert cm_transfer_feasible(settled, U).feasible

    hostile = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5,
                        se_assertions=((2, False), (5, True)))
    v = cm_transfer_feasible(hostile, U)
    assert v.status == "infeasible"
    assert v.obstruction["place"] == 5


def is_sum_of_two_squares(n):
    a = 0
    while a * a <= n:
        r = isqrt(n - a * a)
        if r * r == n - a * a:
            return True
        a += 1
    return False


def squarefree_odd(limit):
    for d in range(3, limit + 1, 2):
        if all(d % (q * q) for q in range(3, isqrt(d) + 1, 2)):
            yield d


def test_quadratic_rank3_feasibility_is_two_squares():
    """Rank 3 over Q(sqrt d) with trivial determinant comes down to whether
    d is a sum of two squares; an independent brute-force search keeps the
    norm machinery honest."""
    U = QuadraticForm.make([1, 1, -1, -1, -1, -1])
    hits = misses = 0
    for d in squarefree_odd(100):
        v = rm_transfer_feasible(RealQuadratic(d), U)
        expect = is_sum_of_two_squares(d)
        assert v.feasible == expect, f"d={d}"
        if expect:
            hits += 1
            assert v.certificate["route"] == "even-degree-norm-class"
        else:
            misses += 1
            assert v.obstruction["condition"] == "norm-class"
    assert hits > 10 and misses > 10


def test_rm_odd_degree_is_unconditional():
    cubic = GeneralTotallyReal(minpoly=(-1, -3, 0, 1))
    U = QuadraticForm.make([1, 1] + [-1] * 7)
    v = rm_transfer_feasible(cubic, U)
    assert v.feasible
    assert v.certificate["route"] == "odd-degree-transfer"


def test_rm_even_degree_witness_path():
    """Beyond quadratic fields the norm-class condition needs a certificate:
    a totally positive element with the right norm class."""
    quartic = GeneralTotallyReal(minpoly=(2, 0, -4, 0, 1))
    U = QuadraticForm.make([1, 1] + [-1] * 10)
    v = rm_transfer_feasible(quartic, U)
    assert v.status == "needs_witness"
    assert v.obstruction["reason"] == "norm-class-witness-needed"

    # x + 2 is positive at all four roots and its norm is f(-2) = 2, which
    # matches det(U) * disc for this field
    good = rm_transfer_feasible(quartic, U, witness=Poly.make([2, 1]))
    assert good.feasible
    assert good.certificate["route"] == "even-degree-norm-class"

    # the generator itself changes sign across the embeddings
    bad = rm_transfer_feasible(quartic, U, witness=Poly.make([0, 1]))
    assert bad.status == "needs_witness"
    assert bad.obstruction["reason"] == "witness-rejected"


def test_rm_input_validation():
    E = RealQuadratic(2)
    with pytest.raises(ValueError):
        rm_transfer_feasible(E, QuadraticForm.make([1, 1, -1, -1]))  # m = 2
    with pytest.raises(ValueError):
        rm_transfer_feasible(E, QuadraticForm.make([1, 1, 1, -1, -1, -1]))
    with pytest.raises(ValueError):
        rm_transfer_feasible(ImagQuadratic(1),
                             QuadraticForm.make([1, 1, -1, -1, -1, -1]))


def test_profile_shapes():
    E = RealQuadratic(5)
    good = (QuadFieldElement.make(1, 1), QuadFieldElement.make(1, 1),
            QuadFieldElement.make(-1, 0))
    prof = condition_C_profile(E, good)
    assert prof.per_embedding == ((2, 1), (0, 3))
    assert prof.condition_ok

    # right shape but rank 2: the totally real case insists on rank >= 3
    short = condition_C_profile(E, (QuadFieldElement.make(1, 1),
                                    QuadFieldElement.make(1, 1)))
    assert short.per_embedding == ((2, 0), (0, 2))
    assert not short.condition_ok

    herm = condition_C_profile(ImagQuadratic(3), (1, -1, -1))
    assert herm.per_embedding == ((2, 4),)
    assert herm.condition_ok
    assert not condition_C_profile(ImagQuadratic(3), (1, 1, -1)).condition_ok

    cubic = GeneralTotallyReal(minpoly=(-1, -3, 0, 1))
    x = Poly.make([0, 1])
    prof = condition_C_profile(cubic, (x, x, Poly.make([-1])))
    assert sorted(prof.per_embedding) == [(0, 3), (0, 3), (2, 1)]
    assert prof.condition_ok


def test_split_cm_full_k3_certificate():
    """Splitting the full-rank transfer off the K3 form leaves the unique
    rank-2 complement, and the certified pieces glue back to the ambient at
    the invariant level."""
    vi = invariants(K3_FORM)
    v = split_transfer_feasible(K3_FORM, ImagQuadratic(1), 10, "cm")
    assert v.feasible
    cert = v.certificate
    assert cert["complement_shape"] == "hyperbolic"
    assert cert["complement_count"] == "unique-hyperbolic"
    ui = invariants_from_json(cert["transfer_invariants"])
    ci = invariants_from_json(cert["complement_invariants"])
    assert ui.signature == (2, 18)
    assert ui.dim + ci.dim == vi.dim
    assert ui.det * ci.det == vi.det
    cross = hilbert_support(ui.det.n, ci.det.n)
    assert vi.hasse == ui.hasse ^ ci.hasse ^ frozenset(cross)


def test_split_cm_transfer_piece_is_split_hyperbolic():
    E = Cyclotomic(5)
    v = split_transfer_feasible(K3_FORM, E, 2, "cm")
    assert v.feasible
    assert v.certificate["route"] == "split-prime-hyperbolic-pattern"
    ui = invariants_from_json(v.certificate["transfer_invariants"])
    for p in (11, 31, 41):
        assert in_SE(E, p) == IN
        t = ui.dim // 2
        want_det = SquareClass(1) if t % 2 == 0 else SquareClass(-1)
        # hyperbolic at p: square class of the signed determinant and a
        # matching Hasse bit
        assert is_square_at(ui.det * want_det, p)
        assert ui.hasse_bit(p) == hyperbolic_bit(t, p)


def test_split_rm_k3_certificate_consistency():
    vi = invariants(K3_FORM)
    v = split_transfer_feasible(K3_FORM, RealQuadratic(2), 3, "rm")
    assert v.feasible
    cert = v.certificate
    assert cert["route"] == "even-degree-norm-class"
    assert cert["embedding_signature"] == [2, 1]
    ui = invariants_from_json(cert["transfer_invariants"])
    ci = invariants_from_json(cert["complement_invariants"])
    assert ui.signature == (2, 4)
    assert ci.signature == (1, 15)
    assert ui.dim + ci.dim == vi.dim
    assert ui.det * ci.det == vi.det
    cross = hilbert_support(ui.det.n, ci.det.n)
    assert vi.hasse == ui.hasse ^ ci.hasse ^ frozenset(cross)


def test_rank2_complement_validators():
    ok = validate_cm_rank2_complement(ImagQuadratic(1), 1, twisted=False)
    assert ok.feasible
    assert ok.certificate["symbol"] == ["-1", "-1"]

    bad = validate_cm_rank2_complement(Cyclotomic(3), 7, twisted=False)
    assert bad.status == "infeasible"
    assert bad.obstruction["place"] == 7

    tw = validate_cm_rank2_complement(Cyclotomic(3), 1, twisted=True)
    assert tw.feasible
    assert tw.certificate["symbol"] == ["-3", "-2"]

    blank = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5)
    pend = validate_cm_rank2_complement(blank, 1, twisted=False)
    assert pend.status == "needs_witness"
    assert 2 in pend.obstruction["primes"]


def test_bad_set_contents():
    f = QuadraticForm.make([1, -1, 3, 7])
    assert bad_set(Cyclotomic(5), f) == (2, 3, 5, 7)
    probe = FormInvariants(4, squarefree_class(-2), (2, 2),
                           frozenset({3, INF}))
    assert bad_set(ImagQuadratic(1), probe) == (2, 3)


def test_predicted_invariants_validation():
    with pytest.raises(ValueError):
        predicted_invariants(RealQuadratic(2), 0, SquareClass(1))
    with pytest.raises(ValueError):
        predicted_invariants(RealQuadratic(2), 3)  # norm class required
    dim, det = predicted_invariants(Cyclotomic(5), 3)
    assert dim == 12
    assert det == cm_twist_class(field_invariants(Cyclotomic(5)))


def test_check_mode():
    assert check_mode(" RM ", RealQuadratic(2))[0] == "rm"
    mode, finv = check_mode("cm", ImagQuadratic(1))
    assert mode == "cm" and finv.is_cm
    with pytest.raises(ValueError, match="mode must be 'rm' or 'cm'"):
        check_mode("tm", RealQuadratic(2))
    with pytest.raises(ValueError, match="rm mode needs a totally real"):
        check_mode("rm", ImagQuadratic(1))
    with pytest.raises(ValueError, match="cm mode needs a CM field"):
        check_mode("cm", RealQuadratic(2))
    with pytest.raises(ValueError, match="needs a CM field"):
        cm_twist_class(field_invariants(RealQuadratic(2)))


# ---------------------------------------------------------------------------
# the closed-form complement choice against the subset walk it replaces


def _enumerate_complements(vi, det_u: SquareClass, md: int, extra_primes=()):
    """Yield (complement invariants, transfer invariants) pairs that add up
    to V, one per admissible Hasse choice on the complement."""
    dim_c, det_c, sig_c = _complement_target(vi, det_u, md)
    if sig_c[0] < 0 or sig_c[1] < 0:
        return
    inf_bit = (sig_c[1] * (sig_c[1] - 1) // 2) % 2
    cross = hilbert_support(det_u.n, det_c.n)
    pool = _hasse_candidates(vi, det_u, det_c, extra_primes)
    sig_u = (2, md - 2)
    inf_u = ((md - 2) * (md - 3) // 2) % 2
    for k in range(len(pool) + 1):
        for picks in combinations(pool, k):
            hasse_c = set(picks)
            if inf_bit:
                hasse_c.add(INF)
            if len(hasse_c) % 2:
                continue
            ci = FormInvariants(dim_c, det_c, sig_c, frozenset(hasse_c))
            try:
                validate_invariants(ci)
            except (InvariantContradiction, ValueError):
                continue
            hasse_u = frozenset(vi.hasse ^ ci.hasse ^ cross)
            ui = FormInvariants(md, det_u, sig_u, hasse_u)
            if (INF in hasse_u) != (inf_u == 1):
                # cannot happen when signatures are consistent; guard anyway
                continue
            try:
                validate_invariants(ui)
            except (InvariantContradiction, ValueError):
                continue
            yield ci, ui


def _walk_first(vi, det_u, md, extra_primes, want):
    """The reference: the walk's first pair whose transfer side carries the
    wanted Hasse bits."""
    for ci, ui in _enumerate_complements(vi, det_u, md, extra_primes):
        if all(ui.hasse_bit(p) == want[p] for p in want):
            return ci, ui
    return None


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _signed_products(max_factors):
    return st.builds(
        lambda sign, ps: sign * _product(ps),
        st.sampled_from((1, -1)),
        st.lists(st.sampled_from(SMALL_PRIMES), max_size=max_factors))


def _product(ps):
    out = 1
    for p in ps:
        out *= p
    return out


@st.composite
def split_inputs(draw):
    """(ambient invariants, det_u, md, extra primes, want) with `want` a map
    over the candidate primes, which the choice takes as sorted items."""
    diag = draw(st.lists(_signed_products(2), min_size=3, max_size=12))
    vi = invariants(QuadraticForm.make(diag))
    s = vi.signature[1]
    det_u = squarefree_class(draw(_signed_products(3)))
    md = draw(st.integers(2, min(vi.dim - 1, s + 2)))
    extra = tuple(draw(st.lists(st.sampled_from(SMALL_PRIMES + (37, 41, 43)),
                                max_size=2)))
    det_c = _complement_target(vi, det_u, md)[1]
    pool = _hasse_candidates(vi, det_u, det_c, extra)
    keys = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    want = {p: draw(st.integers(0, 1)) for p in keys}
    return vi, det_u, md, extra, want


@given(split_inputs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_first_complement_matches_the_subset_walk(args):
    vi, det_u, md, extra, want = args
    assert (_choose_complement(vi, _class_key(det_u), md, extra,
                               tuple(sorted(want.items())))
            == _walk_first(vi, det_u, md, extra, want))


@st.composite
def rm_split_inputs(draw):
    """Splits of the shape the rm engine asks for: a rank md >= 3 transfer
    side of signature (2, md - 2) and determinant sign (-1)^md, inside an
    ambient with room for it."""
    diag = draw(st.lists(_signed_products(2), min_size=4, max_size=12))
    vi = invariants(QuadraticForm.make(diag))
    r, s = vi.signature
    if r < 2 or s < 1:
        diag = [1, 1, -1] + diag
        vi = invariants(QuadraticForm.make(diag))
        r, s = vi.signature
    md = draw(st.integers(3, min(vi.dim - 1, s + 2)))
    det_u = squarefree_class((-1) ** md * abs(draw(_signed_products(3))))
    return vi, det_u, md


@given(rm_split_inputs())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_rm_shaped_splits_always_have_a_complement(args):
    vi, det_u, md = args
    found = _choose_complement(vi, _class_key(det_u), md, (), ())
    assert found is not None
    ci, ui = found
    assert ui.det == det_u and ui.signature == (2, md - 2)
    assert ci.dim + ui.dim == vi.dim


def test_validate_invariants_negates_without_factoring():
    # -det of a squarefree class is squarefree, so the rank-2 check needs no
    # factorization even when the class is beyond trial division
    big = SquareClass(1000003 * 1000033)
    validate_invariants(FormInvariants(2, big, (2, 0), frozenset()))
