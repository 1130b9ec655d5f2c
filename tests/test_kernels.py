"""The four kernels under every `forms` query, against independent answers.

- `exact.is_prime` runs Miller-Rabin with the first k prime bases, for the
  least k with n < psi_k (OEIS A014233), and with all thirteen from psi_12
  on; it must agree with `sympy.isprime` below psi_13, most of all next to
  each psi_k, where one base too few would let a pseudoprime through.
- `qforms._isotropy_witness` computes the b y^2 column of a triple once and
  runs a row that fits in its budget without a test per step; it must
  return what the step-by-step copy in `test_scan_proofs.py` returns, for
  budgets that run out inside a row.
- `qforms.invariants` reads the signature from the numerators and the
  determinant class from the prime sets of the entry classes; it must agree
  with `reference_invariants`, which only evaluates symbols.

Run this file on its own as well: a warm `is_prime` memo left by earlier
tests would hide a wrong base set.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime

from conftest import reference_invariants
from test_scan_proofs import _parent_isotropy_witness
from traceforms import exact
from traceforms.exact import (
    MR_PROVEN_BELOW, SquareClass, is_prime, squarefree_class,
)
from traceforms.qforms import (
    QuadraticForm, _isotropy_witness, form_from_invariants, invariants,
)

#: psi_1, ..., psi_13 (OEIS A014233): psi_k is the least strong pseudoprime
#: to each of the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_psi_table_is_the_library_one():
    assert exact._MR_PSI == PSI[:12]
    assert MR_PROVEN_BELOW == PSI[12]


def test_each_psi_is_caught_by_the_next_base():
    # psi_k passes the first K bases, K the last index with psi_K = psi_k,
    # and fails base K + 1, which is the least k' with psi_k < psi_k'
    for k, psi in enumerate(PSI[:12], 1):
        last = max(j for j, p in enumerate(PSI, 1) if p == psi)
        assert not isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in BASES[:last])
        assert not _strong_probable_prime(psi, BASES[last])
        is_prime.cache_clear()
        assert not is_prime(psi), k


def test_proofs_stop_at_psi_13():
    # psi_13 passes all thirteen bases: `factorize` refuses to trust
    # `is_prime` from there on
    is_prime.cache_clear()
    assert is_prime(MR_PROVEN_BELOW) and not isprime(MR_PROVEN_BELOW)


_near_psi = st.sampled_from(PSI).flatmap(
    lambda p: st.integers(p - 64, p + 64 if p < PSI[-1] else p - 1))


@given(st.one_of(st.integers(-8, 5000), st.integers(0, PSI[-1] - 1),
                 _near_psi))
@settings(max_examples=600, derandomize=True, deadline=None)
def test_is_prime_matches_sympy(n):
    is_prime.cache_clear()
    assert is_prime(n) == isprime(n)


# ---------------------------------------------------------------------------
# the witness scan


_entries = st.builds(
    lambda sign, num, den: sign * Fraction(num, den),
    st.sampled_from((1, -1)), st.integers(1, 40),
    st.sampled_from((1, 1, 1, 2, 3, 5, 9)))


@given(st.lists(_entries, min_size=3, max_size=6), st.integers(1, 20),
       st.integers(0, 5000))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_witness_scan_matches_the_step_by_step_scan(entries, height,
                                                    budget):
    f = QuadraticForm.make(entries)
    assert (_isotropy_witness(f, height, budget)
            == _parent_isotropy_witness(f, height, budget))


def test_budget_runs_out_inside_a_row():
    # <2, -7, 13> at height 4: rows of 9 steps, and the first hit is at
    # step 94, on the triple (1, 2, 0) after two triples of 36 steps each.
    # Every budget below it ends the scan inside a row or at its end
    f = QuadraticForm.make([2, -7, 13])
    for budget in range(-1, 120):
        got = _isotropy_witness(f, 4, budget)
        assert got == _parent_isotropy_witness(f, 4, budget)
        assert (got is None) == (budget < 94)
    assert got == (5, 3, -1)


# ---------------------------------------------------------------------------
# invariants


_wide = st.sampled_from((1, 1, 1, 99991, 1000003))
_invariant_entries = st.builds(
    lambda sign, num, wide, den: sign * Fraction(num * wide, den),
    st.sampled_from((1, -1)), st.integers(1, 60), _wide,
    st.integers(1, 12))


def _as_tuple(fi):
    return fi.dim, fi.det.n, fi.signature, fi.hasse


def _check_det_primes(fi):
    assert fi.det.known_primes == frozenset(factorint(abs(fi.det.n)))


@given(st.lists(_invariant_entries, min_size=1, max_size=7))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_invariants_match_the_reference(entries):
    want = reference_invariants(entries)
    classes = [squarefree_class(e) for e in entries]
    bare_classes = [SquareClass(c.n) for c in classes]
    for known in (None, classes, bare_classes):
        invariants.cache_clear()
        fi = invariants(QuadraticForm.make(entries, known))
        assert _as_tuple(fi) == want
        _check_det_primes(fi)


@given(st.lists(_invariant_entries, min_size=1, max_size=7))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_invariants_of_constructed_forms(entries):
    # a constructed form carries the class of every entry
    fi = invariants(QuadraticForm.make(entries))
    g = form_from_invariants(fi)
    invariants.cache_clear()
    gi = invariants(g)
    assert _as_tuple(gi) == reference_invariants(g.diagonal) == _as_tuple(fi)
    _check_det_primes(gi)
