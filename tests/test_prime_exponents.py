"""`exact.factorize`'s perfect-power search tries prime exponents only: a
k-th power with k = ab is also an a-th power, so each exact root is searched
again from the same prime.  With no trial division (budget 0) a composite of
two 200-digit primes took one integer root per exponent up to log_5 n, 571 of
them; now it takes one per prime up to log_5 n, 105.  The roots are read
from `exact.COUNTS["iroot"]`, which the root itself raises."""

import pytest
from sympy import nextprime

from traceforms.exact import COUNTS, FactorizationBudgetError, factorize


def test_a_composite_past_the_budget_takes_a_root_per_prime():
    before = COUNTS["iroot"]
    n = (10 ** 200 + 357) * (10 ** 200 + 627)
    with pytest.raises(FactorizationBudgetError) as info:
        factorize(n, 0)
    assert info.value.cofactor == n and info.value.found == {}
    assert str(info.value) == (f"cofactor {n} is composite and resists "
                               "trial division up to 0")
    assert 0 < COUNTS["iroot"] - before <= 105


@pytest.mark.parametrize("k", [2, 3, 4, 6, 12, 30])
def test_a_prime_power_is_found_through_its_prime_exponents(k):
    p = int(nextprime(10 ** 7))
    assert factorize(p ** k, 0) == {p: k}
    assert factorize(4 * p ** k, 0) == {2: 2, p: k}


def test_a_power_of_a_composite_is_still_refused():
    p, q = int(nextprime(10 ** 7)), int(nextprime(10 ** 8))
    n = (p * q) ** 6
    with pytest.raises(FactorizationBudgetError) as info:
        factorize(n, 0)
    assert info.value.cofactor == n
