"""Squarefree classes, Hilbert symbols, reciprocity, and the polynomial
toolkit (Sturm isolation, root signs, resultant norms).  The one count here,
the symbols of a trivial support, is a difference of `exact.COUNTS`."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from traceforms.exact import (
    INF,
    FactorizationBudgetError,
    Poly,
    Rational,
    SquareClass,
    count_real_roots,
    factorize,
    hilbert_support,
    hilbert_symbol,
    is_prime,
    is_square_at,
    isolate_real_roots,
    legendre,
    norm_via_resultant,
    signs_at_real_roots,
    squarefree_class,
    squarefree_part,
)

rng = random.Random(20260819)


def rand_rational(r=rng, lo=-400, hi=400):
    num = r.randint(lo, hi)
    den = r.randint(1, 40)
    while num == 0:
        num = r.randint(lo, hi)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# basics


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    with pytest.raises(FactorizationBudgetError):
        factorize(10000019 * 10000079, budget=1000)


def test_squarefree_class_examples():
    assert squarefree_class(8).n == 2
    assert squarefree_class(Fraction(-4, 9)).n == -1
    assert squarefree_class(Fraction(12, 5)).n == 15
    assert squarefree_class(1).n == 1
    with pytest.raises(ValueError):
        squarefree_class(0)


@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0),
       st.integers(1, 1000))
@settings(max_examples=200, derandomize=True)
def test_squarefree_class_is_class_invariant(n, k):
    # multiplying by a square never moves the class
    assert squarefree_class(n * k * k) == squarefree_class(n)


def test_square_class_multiplication():
    a = squarefree_class(6)
    b = squarefree_class(10)
    assert (a * b).n == 15
    assert (a * a).n == 1


# ---------------------------------------------------------------------------
# hilbert symbols


def test_symbol_small_table():
    # classical values over Q_2 and Q_p
    assert hilbert_symbol(-1, -1, 2) == 1
    assert hilbert_symbol(-1, -1, INF) == 1
    assert hilbert_symbol(-1, -1, 3) == 0
    assert hilbert_symbol(2, 3, 3) == 1
    assert hilbert_symbol(5, 5, 5) == 0
    assert hilbert_symbol(-1, 5, 5) == 0


def test_symbol_symmetry_and_bilinearity():
    for _ in range(300):
        a, b, c = (rand_rational() for _ in range(3))
        for v in (2, 3, 5, 7, INF):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert (hilbert_symbol(a, b * c, v)
                    == (hilbert_symbol(a, b, v) + hilbert_symbol(a, c, v)) % 2)


def test_symbol_norm_characterisation():
    # (a, b) = 0 at every place iff a is a norm from Q(sqrt b); spot-check
    # with explicit norms x^2 - b y^2
    for b in (2, 3, 5, -1, -6):
        for _ in range(20):
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            a = Fraction(x * x - b * y * y)
            if a == 0:
                continue
            assert hilbert_support(a, b) == frozenset()


def test_reciprocity_even_support():
    # acceptance backbone: support sets are always finite and even-sized
    for _ in range(500):
        a, b = rand_rational(), rand_rational()
        assert len(hilbert_support(a, b)) % 2 == 0


def test_classical_identities_random():
    for _ in range(100):
        a = rand_rational()
        # (a,a) agrees with (a,-1) everywhere
        assert hilbert_support(a, a) == hilbert_support(a, -1)
        # (a,a)=(-1,-1) at v exactly when (-1,-a) vanishes at v
        assert (hilbert_support(a, a) ^ hilbert_support(-1, -1)
                == hilbert_support(-1, -a))
        # the twisted variant: (a,3a)=(-2,-6) at v iff (-3,-2a) vanishes at v
        assert hilbert_support(a, 3 * a) == hilbert_support(a, -3)
        assert (hilbert_support(a, 3 * a) ^ hilbert_support(-2, -6)
                == hilbert_support(-3, -2 * a))


def brute_sum_of_two_squares(d: int) -> bool:
    k = 0
    while k * k <= d:
        r = d - k * k
        s = int(r ** 0.5)
        for t in (s - 1, s, s + 1):
            if t >= 0 and t * t == r:
                return True
        k += 1
    return False


def test_sum_of_two_squares_chain():
    # d a sum of two squares iff (-1, d) has empty support iff -1 (equally d
    # itself) is a norm from Q(sqrt d)
    for d in range(1, 201):
        if squarefree_class(d).n != d:
            continue
        brute = brute_sum_of_two_squares(d)
        assert (hilbert_support(-1, d) == frozenset()) == brute
        assert (hilbert_support(d, d) == frozenset()) == brute


@given(st.integers(-300, 300).filter(lambda n: n != 0),
       st.integers(-300, 300).filter(lambda n: n != 0))
@settings(max_examples=500, derandomize=True)
def test_reciprocity_property(a, b):
    support = hilbert_support(a, b)
    assert len(support) % 2 == 0
    # support only contains INF, 2, and primes of the two classes
    allowed = {2, INF}
    allowed.update(squarefree_class(a).primes())
    allowed.update(squarefree_class(b).primes())
    assert support <= allowed


# The Fraction-based symbol that the integer evaluation replaced, kept
# verbatim (renamed) as the reference for the property below.

def _val_unit(r: Fraction, p: int) -> Tuple[int, Fraction]:
    """p-adic valuation and unit part of a nonzero rational."""
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_residue(u: Fraction, modulus: int) -> int:
    """Residue of a p-unit rational modulo `modulus` (coprime denominator)."""
    num = u.numerator % modulus
    den = u.denominator % modulus
    return num * pow(den, -1, modulus) % modulus


def reference_hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Hilbert symbol of (a, b) at a place of Q, written additively: 0 when
    z^2 = a x^2 + b y^2 has a nontrivial solution in the completion, 1 when
    it does not.

    The finite-place evaluation is the classical closed form in terms of
    valuations, Legendre symbols and the mod-8 characters at 2; the real
    place only looks at signs.

    >>> hilbert_symbol(5, -5, 2)
    0
    >>> hilbert_symbol(-1, -1, INF), hilbert_symbol(-1, -1, 2), hilbert_symbol(-1, -1, 7)
    (1, 1, 0)
    >>> hilbert_symbol(2, 7, 7)
    0
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    if place == INF:
        return 1 if (a < 0 and b < 0) else 0
    p = place
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise ValueError(f"not a place of Q: {place!r}")
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p == 2:
        ru = _unit_residue(u, 8)
        rv = _unit_residue(v, 8)
        eps_u = (ru - 1) // 2 % 2
        eps_v = (rv - 1) // 2 % 2
        om_u = (ru * ru - 1) // 8 % 2
        om_v = (rv * rv - 1) // 8 % 2
        return (eps_u * eps_v + alpha * om_v + beta * om_u) % 2
    chi_u = 0 if legendre(_unit_residue(u, p), p) == 1 else 1
    chi_v = 0 if legendre(_unit_residue(v, p), p) == 1 else 1
    eps_p = (p - 1) // 2 % 2
    return (alpha * beta * eps_p + beta * chi_u + alpha * chi_v) % 2


_SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 1000003)
_smooth = st.lists(st.integers(0, 3), min_size=7, max_size=7).map(
    lambda es: prod(p ** e for p, e in zip(_SMOOTH_PRIMES, es)))
_signed_rational = st.builds(
    lambda sign, num, den: sign * Fraction(num, den),
    st.sampled_from((1, -1)), _smooth, _smooth,
).map(lambda r: r.numerator if r.denominator == 1 else r)
_PLACES = (INF, 2, 3, 5, 7, 11, 13, 1000003, 1000033)


@given(_signed_rational, _signed_rational, st.sampled_from(_PLACES))
@settings(max_examples=500, derandomize=True)
def test_symbol_matches_fraction_reference(a, b, place):
    assert hilbert_symbol(a, b, place) == reference_hilbert_symbol(a, b, place)


def test_symbol_rejects_what_the_reference_rejects():
    cases = [(0, 3, 5), (3, Fraction(0), 5), (0, 0, INF)]
    cases += [(2, 3, place) for place in (0, 1, 4, -3)]
    for a, b, place in cases:
        with pytest.raises(ValueError) as ref:
            reference_hilbert_symbol(a, b, place)
        with pytest.raises(ValueError) as new:
            hilbert_symbol(a, b, place)
        assert str(new.value) == str(ref.value)


def test_is_square_at():
    assert is_square_at(squarefree_class(1), 7)
    assert not is_square_at(squarefree_class(-1), INF)
    assert is_square_at(squarefree_class(-1), 5)
    assert not is_square_at(squarefree_class(-1), 7)
    assert is_square_at(squarefree_class(17), 2)   # 17 = 1 mod 8
    assert not is_square_at(squarefree_class(5), 2)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic():
    f = Poly.make([-1, 0, 1])          # x^2 - 1
    g = Poly.make([1, 1])              # x + 1
    assert f(Fraction(3)) == 8
    assert (f * g).degree == 3
    assert f.rem(g).is_zero()


def test_isolate_real_roots_quadratics():
    f = Poly.make([-2, 0, 1])          # x^2 - 2
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    (lo1, hi1), (lo2, hi2) = roots
    # disjoint intervals, one per root, in increasing order
    assert hi1 <= lo2
    assert f(lo1) * f(hi1) <= 0
    assert f(lo2) * f(hi2) <= 0


def test_count_real_roots_cyclotomic_like():
    # x^3 - 3x - 1: all roots real (totally real cubic)
    assert count_real_roots(Poly.make([-1, -3, 0, 1])) == 3
    # x^2 + 1: no real roots
    assert count_real_roots(Poly.make([1, 0, 1])) == 0
    # quintic with exactly five real roots
    assert count_real_roots(Poly.make([1, 3, -3, -4, 1, 1])) == 5


def test_signs_at_real_roots():
    f = Poly.make([-2, 0, 1])          # roots +-sqrt(2)
    g = Poly.make([0, 1])              # g(x) = x
    assert signs_at_real_roots(f, g) == (-1, 1)


def test_signs_at_roots_shifted():
    # g = x^2 - 3 at roots of x^2 - 2: both values negative
    f = Poly.make([-2, 0, 1])
    g = Poly.make([-3, 0, 1])
    assert signs_at_real_roots(f, g) == (-1, -1)


def test_norm_via_resultant_quadratic():
    # norm of (a + b sqrt 2) as a root expression: resultant of x^2-2 with
    # a + b x gives a^2 - 2 b^2 up to normalization
    f = Poly.make([-2, 0, 1])
    g = Poly.make([3, 1])              # 3 + x
    n = norm_via_resultant(f, g)
    assert n == Fraction(7)            # 3^2 - 2


def test_squarefree_part():
    f = Poly.make([0, 0, 1])           # x^2
    sf = squarefree_part(f)
    assert sf.degree == 1


@given(st.lists(st.integers(-8, 8), min_size=3, max_size=6))
@settings(max_examples=200, derandomize=True)
def test_root_count_matches_float_heuristic(coeffs):
    if not coeffs or coeffs[-1] == 0:
        coeffs = coeffs + [1]
    f = Poly.make([Fraction(c) for c in coeffs])
    if f.degree < 1:
        return
    sf = squarefree_part(f)
    exact = count_real_roots(sf)
    # interval isolation must agree with the Sturm count
    assert len(isolate_real_roots(sf)) == exact


def test_legendre_against_euler():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else -1
            assert legendre(a, p) == expected


def test_squareclass_product_matches_factoring():
    reps = [1, -1, 2, -2, 3, 6, -6, 15, -35, 30, 1000003, -1000003 * 2]
    for a in reps:
        for b in reps:
            assert SquareClass(a) * SquareClass(b) == squarefree_class(a * b)


def test_squareclass_zero_rejected_under_optimize():
    # the guard must not be an assert, which `python -O` strips
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from traceforms.exact import SquareClass; SquareClass(0)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "zero has no square class" in proc.stderr


# ---------------------------------------------------------------------------
# the support of (1, x) without a symbol


def test_support_of_one_evaluates_no_symbol():
    # (1, x) is trivial everywhere
    from traceforms.exact import COUNTS, support_at
    before = COUNTS["hilbert_symbol"]
    assert support_at(1, -35, (5, 7)) == frozenset()
    assert support_at(-6, 1, (3,)) == frozenset()
    assert support_at(Fraction(1), 3, (3,)) == frozenset()
    assert COUNTS["hilbert_symbol"] - before == 0


def test_support_of_one_checks_what_the_symbols_check():
    from traceforms.exact import support_at
    for a, b in ((1, 0), (0, 1), (1, Fraction(0))):
        with pytest.raises(ValueError, match="nonzero entries"):
            support_at(a, b, (3,))
    for place in (4, 1, -3, 2.5, "3"):
        with pytest.raises(ValueError, match="not a place of Q"):
            support_at(1, 5, (5, place))
    # the same checks as on a nontrivial pair
    with pytest.raises(ValueError, match="not a place of Q"):
        support_at(3, 5, (5, 9))


@given(st.integers(-300, 300).filter(bool), st.sets(
    st.sampled_from((3, 5, 7, 11, 13)), max_size=3))
@settings(max_examples=100, derandomize=True)
def test_support_of_one_is_empty_as_the_symbols_say(b, places):
    from traceforms.exact import support_at
    b_class = squarefree_class(b)
    primes = tuple(places) + b_class.primes()
    assert support_at(1, b_class.n, primes) == frozenset()
    assert not any(hilbert_symbol(1, b_class.n, v)
                   for v in {2, INF, *primes})
