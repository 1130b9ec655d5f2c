"""`qforms.witt_reduce` peels hyperbolic planes <1, -1> while the kernel is
isotropic.  A peel negates det and moves the Hasse set by S(-1, -det) of the
det before it, so the step alternates by S(-1, -1) = {2, INF} from one plane
to the next (Serre, A Course in Arithmetic, III.1.1), and only the first is
evaluated.  These tests hold the reduction to Witt cancellation, check the
alternation against evaluated supports, and take both early returns of
`witt_add`.
"""

import random

import pytest

from traceforms.exact import INF, primes_below, support_at
from traceforms.qforms import (
    QuadraticForm, hyperbolic_sum, witt_add, witt_reduce, witt_zero,
)

SMALL_PRIMES = primes_below(60)


def _random_form(rng, max_dim=6):
    """A diagonal form of rank 1 to max_dim with signed squarefree-ish
    entries built from primes below 60."""
    return QuadraticForm.make([
        rng.choice((1, -1)) * rng.choice(SMALL_PRIMES) ** rng.randrange(2)
        * rng.choice(SMALL_PRIMES) ** rng.randrange(2)
        for _ in range(rng.randint(1, max_dim))])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hyperbolic_planes_cancel(k):
    rng = random.Random(4800 + k)
    for _ in range(60):
        g = _random_form(rng)
        assert witt_reduce(hyperbolic_sum(k).direct_sum(g)) == witt_reduce(g)


def test_a_form_plus_its_negative_has_no_kernel():
    rng = random.Random(4810)
    for _ in range(300):
        g = _random_form(rng)
        minus_g = QuadraticForm.make([-e for e in g.diagonal])
        cl = witt_reduce(g.direct_sum(minus_g))
        assert cl.kernel is None
        assert cl == witt_zero()


def test_adding_zero_returns_the_other_class():
    c = witt_reduce(QuadraticForm.make([1, 1, 7]))
    assert c.kernel is not None
    assert witt_add(witt_zero(), c) is c
    assert witt_add(c, witt_zero()) is c


def test_negating_d_moves_the_support_of_minus_one_by_two_and_inf():
    rng = random.Random(4811)
    for _ in range(400):
        primes = tuple(sorted(rng.sample(SMALL_PRIMES, rng.randint(0, 5))))
        d = rng.choice((1, -1))
        for p in primes:
            d *= p
        assert (support_at(-1, d, primes)
                == support_at(-1, -d, primes) ^ {2, INF})
