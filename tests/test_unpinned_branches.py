"""Branches that no golden, grid or workload runs: the rm split's
multiplicity and complement-hint outcomes, real-quadratic signature
profiles, the `needs_witness` report of a CM field given by its real
subfield, and the zero-pivot swap of `diagonalize`.

Each test holds the answers that the code gave before its transfer rules
were merged into one copy, so the merge is checked against them.  The
real-quadratic profile is checked against `_parent_sign_at`, a verbatim
copy of the exact-sign rule it replaced.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings, strategies as st

from traceforms.exact import squarefree_class
from traceforms.k3hk import hk_realizable, hk_reports
from traceforms.numfields import (
    IN, Cyclotomic, GeneralCM, GeneralTotallyReal, RealQuadratic, in_SE,
)
from traceforms.qforms import QuadraticForm, diagonalize, hyperbolic_sum
from traceforms.transfer import (
    QuadFieldElement, condition_C_profile, split_transfer_feasible,
)

H3 = hyperbolic_sum(3)


# ---------------------------------------------------------------------------
# the rm split: multiplicity and complement-hint outcomes


def test_rank_below_three_is_a_multiplicity_obstruction():
    v = split_transfer_feasible(H3.direct_sum(QuadraticForm.make([-1])),
                                RealQuadratic(2), 2, "rm")
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "multiplicity"


def test_hint_outside_the_norm_classes_is_infeasible_at_its_place():
    # det(V) * 1 * disc^3 = 6 * 2 is the class 3, and (3, 2)_3 = -1
    v = split_transfer_feasible(H3.direct_sum(QuadraticForm.make([-6])),
                                RealQuadratic(2), 3, "rm", complement_hint=1)
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "norm-class"
    assert v.obstruction["place"] == 3


def test_hint_over_a_quartic_field_waits_on_a_witness():
    # x^4 - 4x^2 + 1 generates Q(sqrt 2, sqrt 3), of square discriminant
    E = GeneralTotallyReal((1, 0, -4, 0, 1))
    v = split_transfer_feasible(H3.direct_sum(QuadraticForm.make([-1] * 7)),
                                E, 3, "rm", complement_hint=3)
    assert v.status == "needs_witness"
    assert v.obstruction == {"reason": "norm-class-witness-needed"}


# ---------------------------------------------------------------------------
# real-quadratic signature profiles against the exact-sign rule they used


def _parent_sign_at(e: QuadFieldElement, d: int, embedding: int) -> int:
    """Sign of a + b*sqrt(d) (embedding 0) or a - b*sqrt(d) (embedding 1),
    decided exactly by comparing a^2 with d b^2."""
    b = e.b if embedding == 0 else -e.b
    a = e.a
    if b == 0:
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: the larger square wins
    if a * a > d * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


_SQUAREFREE_D = st.integers(2, 500).filter(
    lambda n: squarefree_class(n).n == n)
_RATIONAL = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_ENTRY = st.tuples(_RATIONAL, _RATIONAL).filter(lambda ab: ab != (0, 0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(d=_SQUAREFREE_D, pairs=st.lists(_ENTRY, min_size=1, max_size=6))
def test_real_quadratic_profile_matches_the_parent_sign_rule(d, pairs):
    entries = [QuadFieldElement.make(a, b) for a, b in pairs]
    m = len(entries)
    per = []
    for emb in range(2):
        pos = sum(1 for e in entries if _parent_sign_at(e, d, emb) > 0)
        per.append((pos, m - pos))
    ok = (m >= 3 and sum(1 for p in per if p[0] == 2) == 1
          and sum(1 for p in per if p[0] == 0) == 1)
    prof = condition_C_profile(RealQuadratic(d), entries)
    assert prof.per_embedding == tuple(per)
    assert prof.multiplicity == m
    assert prof.condition_ok == ok


def test_entries_near_a_root_keep_their_embedding_order():
    # 17 - 12 sqrt 2 = (3 - 2 sqrt 2)^2 is about 0.03
    small = QuadFieldElement.make(17, -12)
    prof = condition_C_profile(RealQuadratic(2), (small, small, small))
    assert prof.per_embedding == ((3, 0), (3, 0))
    prof = condition_C_profile(RealQuadratic(2), (
        QuadFieldElement.make(-1, 1), QuadFieldElement.make(Fraction(3, 2), -1),
        QuadFieldElement.make(-1, 0)))
    assert prof.per_embedding == ((2, 1), (1, 2))


# ---------------------------------------------------------------------------
# a CM field given by its real subfield and no split primes


def test_general_cm_without_split_primes_waits_on_them():
    rep = hk_realizable("k3", None, GeneralCM((-2, 0, 1), 1), 4, "cm")
    assert rep.verdict.status == "needs_witness"
    assert rep.family_dimension == 3
    assert rep.pic_rank == 6
    assert rep.notes == (
        "undecided: {'reason': 'split-set-unknown', 'primes': [2, 3, 5]}",)


def test_general_cm_with_the_split_primes_of_zeta8_reports_as_zeta8():
    se = tuple((p, in_SE(Cyclotomic(8), p) == IN)
               for p in sympy.primerange(2, 100))
    E = GeneralCM((-2, 0, 1), 1, se)
    for family, n in (("k3", None), ("kummer", 2), ("og6", None),
                      ("hilbk3", 2), ("og10", None)):
        got = list(hk_reports(family, n, E, "cm", range(1, 7)))
        assert got == list(hk_reports(family, n, Cyclotomic(8), "cm",
                                      range(1, 7))), family


# ---------------------------------------------------------------------------
# diagonalize with zero pivots, against sympy


@st.composite
def _gram_with_zero_diagonal(draw):
    n = draw(st.integers(1, 5))
    diag = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    diag[draw(st.integers(0, n - 1))] = 0
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = diag[i]
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    return g


def _sign_variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gram=_gram_with_zero_diagonal())
def test_diagonalize_with_zero_pivots_keeps_det_and_signature(gram):
    M = sympy.Matrix(gram)
    det = int(M.det())
    assume(det != 0)
    diag = diagonalize(gram).diagonal
    prod = Fraction(1)
    for a in diag:
        prod *= a
    assert prod == det
    # a symmetric matrix has a real-rooted characteristic polynomial, and
    # 0 is no root, so Descartes' rule counts its roots of each sign exactly
    x = sympy.Symbol("x")
    cp = M.charpoly(x)
    pos = _sign_variations(cp.all_coeffs())
    neg = _sign_variations(sympy.Poly(cp.as_expr().subs(x, -x), x).all_coeffs())
    assert (sum(1 for a in diag if a > 0), sum(1 for a in diag if a < 0)) \
        == (pos, neg)
