"""Brent's rho on the composite cofactor that trial division leaves.

`squarefree_class` and `SquareClass.primes` factor through `exact.factor`:
trial division up to the budget, then Brent's rho (BIT 20, 1980) with fixed
seeds and an iteration cap from the budget.  Every factor it returns is
proved prime by `is_prime` below psi_13, and anything it cannot finish is a
`FactorizationBudgetError`.  The answers here are checked against `sympy`.

Run this file on its own as well: a warm `is_prime` memo left by earlier
tests would hide a factor that was never proved.
"""

import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, legendre_symbol, nextprime

from traceforms import exact
from traceforms.cli import EXIT_OK, main
from traceforms.exact import (
    MR_PROVEN_BELOW, FactorizationBudgetError, SquareClass, factor, factorize,
    squarefree_class,
)

P, Q = 1000000007, 1000000009
N = P * Q       # past trial division: its least prime factor is above 10^6


def _no_rho(monkeypatch):
    def rho(n, cap):
        raise AssertionError(f"rho entered on {n} with cap {cap}")

    monkeypatch.setattr(exact, "_rho", rho)


@given(st.integers(2 ** 39, 2 ** 90 - 1), st.integers(2 ** 39, 2 ** 90 - 1))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_semiprimes_of_40_to_90_bits(a, b):
    p, q = nextprime(a), nextprime(b)
    n = p * q
    exact.is_prime.cache_clear()
    try:
        c = squarefree_class(n)
    except FactorizationBudgetError:
        return
    keys = sorted(c.known_primes)
    assert all(isprime(k) for k in keys)
    assert prod(keys) == c.n == (n if p != q else 1)


@given(st.integers(10 ** 6, 2 ** 26), st.integers(2 ** 39, 2 ** 80))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_a_factor_within_rho_reach(a, b):
    # a prime past trial division times a wide one below psi_13 (about
    # 2^81.5): what rho returns is the factorization that sympy finds, or a
    # budget error
    p, q = nextprime(a), nextprime(b)
    exact.is_prime.cache_clear()
    try:
        got = factor(p * q)
    except FactorizationBudgetError:
        return
    assert got == factorint(p * q)
    assert all(k < MR_PROVEN_BELOW for k in got)


def test_cofactors_that_rho_splits():
    # three primes past trial division, and a square among them: rho splits
    # the cofactor, then the composite piece again
    p, q, r = (nextprime(10 ** 7 * k) for k in (1, 2, 3))
    for n in (N, 2 * N, 12 * N, p * q * r, p * p * q, 6 * p * q * r * r):
        exact.is_prime.cache_clear()
        got = factor(n)
        assert got == factorint(n), n
        assert list(got) == sorted(got)
    assert squarefree_class(p * p * q) == SquareClass(q)
    assert SquareClass(N).primes() == (P, Q)


def test_the_same_input_gives_the_same_dict():
    n = 6 * nextprime(10 ** 7) * N
    first = factor(n)
    for _ in range(3):
        exact.is_prime.cache_clear()
        again = factor(n)
        assert list(again.items()) == list(first.items())


def test_a_factor_at_or_above_psi13_is_not_trusted():
    # rho splits off the small prime; the other passes is_prime above
    # psi_13, where that test proves nothing
    big = nextprime(10 ** 25)
    assert big > MR_PROVEN_BELOW
    with pytest.raises(FactorizationBudgetError, match="probable prime"):
        factor(nextprime(10 ** 7) * big)
    with pytest.raises(FactorizationBudgetError, match="probable prime"):
        squarefree_class(nextprime(10 ** 7) * big)


@pytest.mark.parametrize("budget", [0, 1, 3])
def test_a_budget_below_4_never_enters_rho(monkeypatch, budget):
    _no_rho(monkeypatch)
    with pytest.raises(FactorizationBudgetError, match="resists trial"):
        squarefree_class(N, budget)
    with pytest.raises(FactorizationBudgetError, match="resists trial"):
        SquareClass(N).primes(budget)


def test_a_direct_factorize_keeps_trial_division(monkeypatch):
    _no_rho(monkeypatch)
    with pytest.raises(FactorizationBudgetError) as err:
        factorize(2 * N)
    assert str(err.value) == ("cofactor 1000000016000000063 is composite "
                              "and resists trial division up to 1000000")
    assert (err.value.found, err.value.cofactor) == ({2: 1}, N)


def test_a_cofactor_that_resists_keeps_the_message():
    w = 100000000000000000039 * 100000000000000000129
    with pytest.raises(FactorizationBudgetError) as err:
        squarefree_class(6 * w)
    assert str(err.value) == (f"cofactor {w} is composite and resists trial "
                              f"division up to 1000000")


def _hilbert_with_2(u, v):
    """(u, 2)_v for a squarefree odd u > 0, as +1 or -1: (2/v) at an odd
    v | u, (-1)^((u^2 - 1)/8) at 2, and 1 elsewhere."""
    if v == 2:
        return -1 if (u * u - 1) // 8 % 2 else 1
    return legendre_symbol(2, v) if u % v == 0 else 1


def test_form_invariants_of_the_semiprime_entry(capsys):
    fac = factorint(N)
    assert fac == {P: 1, Q: 1}
    u = prod(fac)
    hasse = sorted(v for v in [2, *fac] if _hilbert_with_2(u, v) == -1)
    assert len(hasse) % 2 == 0
    code = main(["form-invariants", "--form",
                 json.dumps({"diagonal": [str(N), 2]})])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "det": str(2 * u), "dim": 2, "hasse": [str(v) for v in hasse],
        "signature": [2, 0]}
