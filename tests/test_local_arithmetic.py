"""The local arithmetic under every form query, against verbatim copies of
the code it replaced.

`factorize` stops trial division once the cofactor is proved prime,
`invariants` sums the Hilbert symbols of a diagonal as a parity of per-entry
local characters, and the witness scan runs each row over y <= 0 only,
charging the mirrored half.  Each must give the same answer, the same
witness and the same budget cut as before.  `is_prime` uses the thirteen
prime bases up to 41, a proof below psi_13; psi_12, the least strong
pseudoprime to the twelve bases up to 37, is composite.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, nextprime, prevprime

from conftest import load_file
from traceforms import exact
from traceforms.cli import EXIT_BUDGET, main
from traceforms.exact import (
    COUNTS, INF, MR_PROVEN_BELOW, FactorizationBudgetError, SquareClass,
    _iroot, clear_memos, factorize, hasse_parity, is_prime, local_characters,
)
from traceforms.qforms import (
    FormInvariants,
    QuadraticForm,
    _SQUARES_64,
    _anisotropic_subform,
    _checked_witness,
    _entry_classes,
    _is_square,
    _isotropy_witness,
    _perfect_square_root,
    invariants,
)


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


# ---------------------------------------------------------------------------
# is_prime: the thirteenth base


def test_psi12_is_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_proven_bound_is_psi13():
    assert MR_PROVEN_BELOW == PSI_13
    assert factorint(PSI_13) == {1287836182261: 1, 2575672364521: 1}


def test_psi12_entry_is_a_budget_error(capsys):
    # with twelve bases the composite passed as a prime and was listed as a
    # Hasse place
    code = main(["form-invariants", "--form",
                 '{"diagonal": ["318665857834031151167461", 2]}'])
    assert code == EXIT_BUDGET
    assert '"kind": "budget"' in capsys.readouterr().out


def test_probable_prime_at_or_above_psi13_is_a_budget_error(capsys):
    # psi_13 passes all thirteen bases, so it used to come back as its own
    # prime factor and was listed as a Hasse place
    code = main(["form-invariants", "--form",
                 '{"diagonal": ["3317044064679887385961981", 2]}'])
    assert code == EXIT_BUDGET
    assert '"kind": "budget"' in capsys.readouterr().out
    big = nextprime(10 ** 25)
    assert big > PSI_13 and is_prime(big)
    # a cofactor left by trial division, and the root of a perfect power
    for n in (PSI_13, big, 2 * big, 3 * big ** 2):
        with pytest.raises(FactorizationBudgetError):
            factorize(n)
    # below psi_13 the test is a proof, and the cofactor is a factor
    below = prevprime(PSI_13)
    assert factorize(2 * below) == {2: 1, below: 1}


@given(st.integers(2, 10 ** 7))
@settings(max_examples=300, derandomize=True)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


# ---------------------------------------------------------------------------
# factorize against trial division to the budget


def _parent_factorize(n: int, budget: int = exact.DEFAULT_FACTOR_BUDGET) -> dict:
    """Factor a positive integer by trial division up to `budget`, finishing
    off prime or prime-power cofactors with a primality test.

    Returns {prime: exponent}.  Raises FactorizationBudgetError when the
    leftover cofactor is composite with no factor below the budget.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    f = 5
    while f * f <= n and f <= budget:
        for p in (f, f + 2):
            while n % p == 0:
                n //= p
                out[p] = out.get(p, 0) + 1
        f += 6
    if n == 1:
        return out
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    # composite cofactor with all prime factors above the budget; a perfect
    # power is still recoverable exactly.  Every prime factor is at least f,
    # the first trial divisor not tried, so an r^k = n has f^k <= n
    k = 2
    while f ** k <= n:
        r = _iroot(n, k)
        if r ** k == n and is_prime(r):
            out[r] = out.get(r, 0) + k
            return out
        k += 1
    raise FactorizationBudgetError(
        f"cofactor {n} is composite and resists trial division up to {budget}"
    )


def _outcome(fn, n, budget):
    """(items in key order) or (error class, message)."""
    try:
        return list(fn(n, budget).items())
    except ValueError as e:
        return type(e), str(e)


_BUDGETS = (0, 1, 10, 1000, 10 ** 6)
_SMOOTH = (2, 3, 5, 7, 11, 13, 101, 997)
_smooth_part = st.lists(st.integers(0, 3), min_size=len(_SMOOTH),
                        max_size=len(_SMOOTH)).map(
    lambda es: prod(p ** e for p, e in zip(_SMOOTH, es)))


@st.composite
def _factor_cases(draw):
    budget = draw(st.sampled_from(_BUDGETS))
    kind = draw(st.sampled_from(("one", "prime", "two above")))
    if kind == "one":
        tail = 1
    elif kind == "prime":
        tail = nextprime(draw(st.integers(1, 10 ** 12)))
    else:
        lo = budget + 1
        tail = (nextprime(draw(st.integers(lo, 4 * lo + 10 ** 7)))
                * nextprime(draw(st.integers(lo, 4 * lo + 10 ** 7))))
    return draw(_smooth_part) * tail, budget


@given(_factor_cases())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_factorize_matches_trial_division(case):
    n, budget = case
    assert _outcome(factorize, n, budget) == _outcome(_parent_factorize, n,
                                                      budget)


@pytest.mark.parametrize("budget", _BUDGETS)
def test_factorize_matches_trial_division_on_edges(budget):
    p = 1000003
    for n in (1, 2, 6, 25, 35, 49, 5 * 7 * 11, 2 * p, p * p, 30 * p * p,
              7 * p ** 3, p * 1000033, 12 * 999983, 10 ** 12 + 39,
              PSI_12, 2 * PSI_12):
        assert _outcome(factorize, n, budget) == _outcome(_parent_factorize,
                                                          n, budget), n


def test_factorize_stops_at_a_proven_prime_cofactor(monkeypatch):
    # 30 * 9999991: after 2, 3 and 5 the cofactor is proved prime, so the
    # trial divisors up to 3162 are never tried
    tried = []
    original = exact.is_prime

    def counting(n):
        tried.append(n)
        return original(n)

    monkeypatch.setattr(exact, "is_prime", counting)
    assert factorize(30 * 9999991) == {2: 1, 3: 1, 5: 1, 9999991: 1}
    assert tried == [5 * 9999991, 9999991]


# ---------------------------------------------------------------------------
# invariants against the prefix sum of Hilbert symbols


def _parent_val_unit(n: int, p: int):
    """p-adic valuation and unit part of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _parent_legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def _parent_hilbert_symbol(a, b, place) -> int:
    # the symbol only sees square classes, and p/q = pq (1/q)^2
    if not isinstance(a, int):
        a = Fraction(a)
        a = a.numerator * a.denominator
    if not isinstance(b, int):
        b = Fraction(b)
        b = b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    if place == INF:
        return 1 if (a < 0 and b < 0) else 0
    p = place
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise ValueError(f"not a place of Q: {place!r}")
    alpha, u = _parent_val_unit(a, p)
    beta, v = _parent_val_unit(b, p)
    if p == 2:
        ru, rv = u % 8, v % 8
        eps_u = (ru - 1) // 2 % 2
        eps_v = (rv - 1) // 2 % 2
        om_u = (ru * ru - 1) // 8 % 2
        om_v = (rv * rv - 1) // 8 % 2
        return (eps_u * eps_v + alpha * om_v + beta * om_u) % 2
    chi_u = 0 if _parent_legendre(u, p) == 1 else 1
    chi_v = 0 if _parent_legendre(v, p) == 1 else 1
    eps_p = (p - 1) // 2 % 2
    return (alpha * beta * eps_p + beta * chi_u + alpha * chi_v) % 2


def _parent_invariants(f: QuadraticForm) -> FormInvariants:
    classes = f.classes()
    r = sum(1 for e in f.diagonal if e > 0)
    s = f.dim - r
    places = {2, INF}
    for c in classes:
        places.update(c.primes())
    # the square classes of the prefix products a_1...a_{j-1}; a prefix in
    # the trivial class contributes nothing
    pairs = []
    det = SquareClass(1)
    for c in classes:
        if det.n != 1:
            pairs.append((det.n, c.n))
        det = det * c
    support = frozenset(
        v for v in places
        if sum(_parent_hilbert_symbol(a, c, v) for a, c in pairs) % 2)
    return FormInvariants(f.dim, det, (r, s), support)


# 2-adic cases: entries with powers of 2 and odd parts in every class mod 8,
# as integers and as fractions
_two_adic = st.builds(
    lambda sign, k, odd, den: sign * Fraction(2 ** k * odd, den),
    st.sampled_from((1, -1)), st.integers(0, 5),
    st.sampled_from((1, 3, 5, 7, 9, 11, 13, 15, 21, 35, 1000003)),
    st.sampled_from((1, 2, 4, 3, 8, 5, 6, 7, 24, 999983)),
)


@given(st.lists(_two_adic, min_size=1, max_size=8))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_invariants_match_prefix_symbols_two_adic(entries):
    f = QuadraticForm.make(entries)
    assert invariants(f) == _parent_invariants(f)


# any nonzero integers, squarefree or not
@given(st.lists(st.integers(-10 ** 6, 10 ** 6).filter(bool), max_size=6),
       st.sampled_from((INF, 2, 3, 5, 7, 11, 13, 1000003)))
@settings(max_examples=300, derandomize=True)
def test_hasse_parity_sums_the_pairs(ns, place):
    pairs = sum(_parent_hilbert_symbol(ns[i], ns[j], place)
                for i in range(len(ns)) for j in range(i + 1, len(ns)))
    chars = [local_characters(n, place) for n in ns]
    assert hasse_parity(chars, place) == pairs % 2


def test_local_characters_reject_zero():
    with pytest.raises(ValueError):
        local_characters(0, 3)


# ---------------------------------------------------------------------------
# the witness scan against the full-row scan


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
    # a triple whose ternary subform is anisotropic cannot hit, so its steps
    # are charged without being taken; each unordered triple is decided once
    triple_steps = height * len(ys)
    classes = _entry_classes(f)
    anisotropic = {}
    work = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                key = tuple(sorted((i, j, k)))
                if key not in anisotropic:
                    anisotropic[key] = _anisotropic_subform(f, classes, key)
                if anisotropic[key]:
                    work += triple_steps
                    if work > budget:
                        return None
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


def _least_budget(f, height, bound):
    """The least budget in [0, bound] with which the full-row scan returns
    a witness, or None."""
    if _parent_isotropy_witness(f, height, bound) is None:
        return None
    lo, hi = 0, bound
    while lo < hi:
        mid = (lo + hi) // 2
        if _parent_isotropy_witness(f, height, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _sweep(f, height, budgets):
    for budget in budgets:
        assert (_isotropy_witness(f, height, budget)
                == _parent_isotropy_witness(f, height, budget)), budget


_entry = st.integers(-30, 30).filter(bool)


@given(st.lists(_entry, min_size=3, max_size=5), st.integers(1, 8))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_witness_scan_matches_full_rows(entries, height):
    f = QuadraticForm.make(entries)
    n = len(entries)
    bound = n * n * n * height * (2 * height + 1)
    hit = _least_budget(f, height, bound)
    # the budgets just below a hit cut the mirrored half of the row before
    # it, and of the rows before that
    end = bound if hit is None else hit
    _sweep(f, height, range(max(end - 3 * (2 * height + 1), 0), end + 2))


@pytest.mark.parametrize("entries,height", [
    ((-17, 29, 12), 4),
    ((2, -19, 14, 20), 10),
    ((26, 27, 1, -21), 10),
    ((Fraction(2, 3), -19, Fraction(14, 5), 20), 8),
    ((Fraction(-17, 3), 29, Fraction(12, 5)), 6),
    ((13, -7, -10, -91772985), 6),
])
def test_witness_scan_cut_inside_every_mirrored_half(entries, height):
    # each form hits after several full rows, or not at all; the budgets up
    # to the hit cut every row's mirrored half at every step of it (a stride
    # of 3 is prime to the row length 2 * height + 1)
    f = QuadraticForm.make(entries)
    bound = len(entries) ** 3 * height * (2 * height + 1)
    hit = _least_budget(f, height, bound)
    if hit is None:
        _sweep(f, height, range(0, bound + 1, 3))
    else:
        assert hit > 2 * (2 * height + 1)
        _sweep(f, height, range(0, hit + 2))


# ---------------------------------------------------------------------------
# count pins


def test_forms_pool_hilbert_symbol_count_with_local_characters():
    # cold memos: with a symbol per prefix pair and place, `invariants` took
    # one pass of the pool to 10463 evaluations; summed from the local
    # characters it takes none, and 3934 remain in the constructions and
    # the local isotropy tests
    clear_memos()
    wl = load_file("perfbench/workloads.py")
    before = COUNTS["hilbert_symbol"]
    for entries, query, k in wl.forms_pool():
        wl.forms_query(query, QuadraticForm.make(entries), k)
    assert COUNTS["hilbert_symbol"] - before <= 4500
