"""The polynomial layer against independent references: real-root counts
and the signs of g at the real roots of f against `sympy.real_roots`, long
division against its defining identity, and prime powers past trial division
against `sympy.nextprime`."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from traceforms.exact import (
    FactorizationBudgetError,
    Poly,
    count_real_roots,
    factorize,
    isolate_real_roots,
    signs_at_real_roots,
)

X = sympy.Symbol("x")


@st.composite
def int_polys(draw, min_degree, max_degree):
    degree = draw(st.integers(min_degree, max_degree))
    low = draw(st.lists(st.integers(-6, 6), min_size=degree, max_size=degree))
    lead = draw(st.integers(-3, 3).filter(bool))
    return Poly.make(low + [lead])


def product(polys):
    out = Poly.make([1])
    for p in polys:
        out = out * p
    return out


@st.composite
def root_cases(draw):
    """f with up to three factors, one of them possibly squared, so repeated
    roots occur; g from a constant up to a degree above that of f."""
    factors = draw(st.lists(int_polys(1, 3), min_size=1, max_size=2))
    repeated = draw(st.lists(int_polys(1, 2), max_size=1))
    f = product(factors + repeated * 2)
    return f, draw(int_polys(0, f.degree + 2))


def sympy_expr(p: Poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** i
               for i, c in enumerate(p.coeffs))


def reference_roots(f: Poly):
    """The distinct real roots of f, increasing, as sympy's exact roots."""
    return [r for r, _ in sympy.real_roots(sympy_expr(f), multiple=False)]


def reference_sign(g: Poly, root) -> int:
    value = sympy_expr(g).subs(X, root).evalf(80)
    if abs(value) < sympy.Float(10) ** -40:
        raise AssertionError(f"sign of {value} is not resolved")
    return 1 if value > 0 else -1


@given(int_polys(1, 8))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_count_real_roots_matches_sympy(f):
    assert count_real_roots(f) == len(reference_roots(f))


@given(root_cases())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_signs_at_real_roots_match_sympy(case):
    f, g = case
    roots = reference_roots(f)
    assert count_real_roots(f) == len(roots)
    assert len(isolate_real_roots(f)) == len(roots)
    if sympy.degree(sympy.gcd(sympy_expr(f), sympy_expr(g)), X) >= 1:
        with pytest.raises(ValueError, match="share a root"):
            signs_at_real_roots(f, g)
        return
    want = tuple(reference_sign(g, r) for r in roots)
    assert signs_at_real_roots(f, g) == want


@given(int_polys(1, 3), int_polys(0, 3), int_polys(0, 3))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_shared_roots_are_rejected(h, a, b):
    # h may have no real root at all: a shared complex root is still a
    # shared root
    with pytest.raises(ValueError, match="share a root"):
        signs_at_real_roots(h * a, h * b)


def test_signs_at_a_repeated_root_and_a_constant():
    # (x - 1)^2 (x + 2): two distinct roots, each reported once
    f = Poly.make([-1, 1]) * Poly.make([-1, 1]) * Poly.make([2, 1])
    assert signs_at_real_roots(f, Poly.make([0, 1])) == (-1, 1)
    assert signs_at_real_roots(f, Poly.make([-3])) == (-1, -1)
    # g of degree above f: x^5 - 4 is -36 at -2 and -3 at 1
    assert signs_at_real_roots(f, Poly.make([-4, 0, 0, 0, 0, 1])) == (-1, -1)
    with pytest.raises(ValueError, match="identically zero"):
        signs_at_real_roots(f, Poly.make([]))


@given(int_polys(0, 8), int_polys(0, 5))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_divmod_identity(f, g):
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert f.rem(g) == r


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly.make([1, 1]).divmod(Poly.make([]))


@pytest.mark.parametrize("k", [2, 3, 6])
def test_factorize_recovers_a_prime_power_past_the_budget(k):
    p = sympy.nextprime(10 ** 20)
    assert factorize(p ** k) == {p: k}
    assert factorize(12 * p ** k) == {2: 2, 3: 1, p: k}


def test_factorize_of_a_wide_semiprime_is_a_budget_error():
    # far beyond the range of a float, so no root may go through one
    n = (10 ** 200 + 357) * (10 ** 200 + 627)
    assert n.bit_length() > 1024
    with pytest.raises(FactorizationBudgetError):
        factorize(n)
    with pytest.raises(FactorizationBudgetError):
        factorize(32 * n, budget=100)
