"""Nondegenerate quadratic forms over Q: diagonalization, the classifying
invariants (dimension, determinant class, Hasse set, signature), isomorphism
both ways (invariants -> form and form -> invariants), orthogonal complements
at the level of invariants, local hyperbolicity, isotropy with witnesses, and
Witt group arithmetic.

Forms are kept as diagonals with exact rational entries.  The Hasse data is
stored as the finite set of places where the invariant is nontrivial, which
makes reciprocity literally "the set has even size".
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import isqrt, prod

from .exact import (
    INF,
    DEFAULT_FACTOR_BUDGET,
    FactorizationBudgetError,
    Rational,
    Record,
    SquareClass,
    hasse_parity,
    hilbert_symbol,
    is_prime,
    is_square_at,
    json_array,
    json_int,
    json_object,
    local_characters,
    primes_below,
    rational_from,
    rational_str,
    squarefree_class,
    support_at,
)


class InvariantContradiction(ValueError):
    """An invariant tuple that no rational form realizes.  `condition` names
    the violated constraint: condition-1 (determinant sign vs signature),
    condition-2 (real-place Hasse bit vs signature), condition-3 (low rank
    local constraints) or reciprocity (odd support)."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        super().__init__(f"{condition}: {detail}" if detail else condition)


class QuadraticForm(Record):
    """Diagonal quadratic form <e_1, ..., e_n> with nonzero rational entries.

    `known_classes` holds, per entry, the square class of that entry when the
    code that built the form already knew it (with its primes), and None
    otherwise.  It takes no part in equality or hashing.  The hash is that of
    the diagonal, computed at its first use and kept: forms are cache keys
    of `invariants`.
    """

    __slots__ = ("diagonal", "known_classes", "_hash", "_classes")
    _fields = ("diagonal",)

    def __init__(self, diagonal: tuple, known_classes: tuple | None = None):
        # a list diagonal would make the form unhashable
        diagonal = tuple(diagonal)
        known = ((None,) * len(diagonal) if known_classes is None
                 else tuple(known_classes))
        if len(known) != len(diagonal):
            raise ValueError("one known class per diagonal entry")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "known_classes", known)
        object.__setattr__(self, "_hash", None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.diagonal == other.diagonal
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            # hash(Fraction(n)) == hash(n): an integral entry hashes as its
            # numerator, without a call of Fraction's Python __hash__
            h = hash(tuple(e.numerator if e.denominator == 1 else e
                           for e in self.diagonal))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def make(entries: Sequence[Rational],
             known_classes: Sequence | None = None) -> "QuadraticForm":
        # a Fraction is kept as it is, and an int takes Fraction's own fast
        # path
        entries = tuple(e if type(e) is Fraction else Fraction(e)
                        for e in entries)
        if not entries:
            raise ValueError("forms here are nonzero dimensional")
        if any(e == 0 for e in entries):
            raise ValueError("degenerate form: zero diagonal entry")
        return QuadraticForm(entries, known_classes)

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    def classes(self, budget: int = DEFAULT_FACTOR_BUDGET) -> tuple:
        """The square class of every entry, factoring only the unknown ones.
        What it factors, the form keeps with the budget used, so a second
        call with that budget factors nothing, and a call with another
        budget factors (and may raise) as the first one would."""
        known = self.known_classes
        if None not in known:
            return known
        kept = getattr(self, "_classes", None)
        if kept is None or kept[0] != budget:
            kept = (budget, tuple(squarefree_class(e, budget) if c is None
                                  else c for e, c in zip(self.diagonal, known)))
            object.__setattr__(self, "_classes", kept)
        return kept[1]

    def direct_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        # each summand carries the classes it knows or has computed
        a, b = (getattr(f, "_classes", (0, f.known_classes))[1]
                for f in (self, other))
        return QuadraticForm(self.diagonal + other.diagonal, a + b)

    def evaluate(self, vector: Sequence[Rational]) -> Fraction:
        if len(vector) != self.dim:
            raise ValueError("vector length mismatch")
        return sum((e * Fraction(x) ** 2 for e, x in zip(self.diagonal, vector)),
                   Fraction(0))

    def __repr__(self):
        return "<" + ", ".join(str(e) for e in self.diagonal) + ">"


class FormInvariants(Record):
    """The classifying invariants of a form: dimension, determinant class,
    signature (r, s) and the places where the Hasse invariant is
    nontrivial."""

    __slots__ = _fields = ("dim", "det", "signature", "hasse")

    def __init__(self, dim: int, det: SquareClass, signature: tuple[int, int],
                 hasse: frozenset):
        # a set or list would make the invariants unhashable, and they are
        # cache keys of `form_from_invariants`
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "signature", tuple(signature))
        object.__setattr__(self, "hasse", frozenset(hasse))

    def hasse_bit(self, place) -> int:
        return 1 if place in self.hasse else 0

    def disc(self) -> SquareClass:
        """Signed determinant (-1)^(n(n-1)/2) det, the Witt-friendly variant."""
        n = self.dim
        return -self.det if (n * (n - 1) // 2) % 2 else self.det


def hyperbolic_plane() -> QuadraticForm:
    return QuadraticForm.make([1, -1])


def hyperbolic_sum(t: int) -> QuadraticForm:
    if t < 1:
        raise ValueError("need at least one plane")
    return QuadraticForm.make([1, -1] * t)


@lru_cache(maxsize=256)
def hyperbolic_invariants(t: int) -> FormInvariants:
    """The invariants of a sum of t hyperbolic planes, written down: they
    equal `invariants(hyperbolic_sum(t))`.  Memoized."""
    if t < 1:
        raise ValueError("need at least one plane")
    return FormInvariants(2 * t, SquareClass((-1) ** t), (t, t),
                          frozenset(v for v in (2, INF)
                                    if hyperbolic_bit(t, v)))


def diagonalize(gram: Sequence[Sequence[Rational]]) -> QuadraticForm:
    """Symmetric Gauss reduction of a Gram matrix over Q.

    Rejects non-symmetric and degenerate inputs.  The output diagonal lists
    the successive pivots, so determinants match on the nose (not just up to
    squares).
    """
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    if any(len(row) != n for row in m):
        raise ValueError("Gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("Gram matrix must be symmetric")
    diag = []
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k, n) if m[i][i] != 0), None)
            if pivot is not None:
                _swap(m, k, pivot)
            else:
                found = next(((i, j) for i in range(k, n)
                              for j in range(i + 1, n) if m[i][j] != 0), None)
                if not found:
                    raise ValueError("degenerate form: Gram matrix is singular")
                i, j = found
                # fold row/column j into i; the new (i,i) entry is 2*m[i][j]
                for t in range(n):
                    m[i][t] += m[j][t]
                for t in range(n):
                    m[t][i] += m[t][j]
                _swap(m, k, i)
        a = m[k][k]
        for i in range(k + 1, n):
            c = m[i][k] / a
            if c == 0:
                continue
            for t in range(n):
                m[i][t] -= c * m[k][t]
            for t in range(n):
                m[t][i] -= c * m[t][k]
        diag.append(a)
    if any(d == 0 for d in diag):
        raise ValueError("degenerate form: Gram matrix is singular")
    return QuadraticForm.make(diag)


def _swap(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


@lru_cache(maxsize=4096)
def invariants(f: QuadraticForm, budget: int = DEFAULT_FACTOR_BUDGET) -> FormInvariants:
    """dimension, determinant square class, signature and Hasse place set.

    The Hasse bit at v is the sum over i < j of (a_i, a_j)_v.  The symbol is
    bilinear in the local characters of its arguments, so the sum is a
    parity of their totals (`hasse_parity`): one character vector per entry
    and place, and no symbol.  Entries whose class the form carries are not
    factored.  The signature comes from the signs of the numerators, and
    the determinant class, with its primes, from one pass over the prime
    sets of the entry classes: the sign times the primes of odd
    multiplicity.

    Memoized: forms and the returned invariants are both frozen.  The memo
    key ignores the carried classes, so an equal form built without them
    can hit the cache; the answer is the same either way.
    """
    classes = f.classes(budget)
    s = [e.numerator < 0 for e in f.diagonal].count(True)
    places, odd = {2, INF}, set()
    for c in classes:
        primes = c.known_primes
        if primes is None:
            primes = c.primes(budget)
        places.update(primes)
        odd.symmetric_difference_update(primes)
    det = SquareClass(-prod(odd) if s % 2 else prod(odd), frozenset(odd))
    ns = [c.n for c in classes]
    support = frozenset(
        v for v in places
        if hasse_parity([local_characters(n, v) for n in ns], v))
    return FormInvariants(f.dim, det, (f.dim - s, s), support)


def is_isomorphic(f: QuadraticForm, g: QuadraticForm) -> bool:
    """Rational equivalence, decided entirely through the invariants."""
    return invariants(f) == invariants(g)


def _locally_isomorphic_inv(fi: FormInvariants, gi: FormInvariants,
                            place) -> bool:
    if fi.dim != gi.dim:
        return False
    if place == INF:
        return fi.signature == gi.signature
    dd = fi.det * gi.det
    return is_square_at(dd, place) and fi.hasse_bit(place) == gi.hasse_bit(place)


# ---------------------------------------------------------------------------
# invariants -> form


def validate_invariants(inv: FormInvariants) -> None:
    """Check the full admissibility battery, raising InvariantContradiction
    with the violated condition's name."""
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse
    if n < 1 or r < 0 or s < 0 or r + s != n:
        raise ValueError("malformed signature")
    for v in hasse:
        if v != INF and not (isinstance(v, int) and is_prime(v)):
            raise ValueError(f"not a place: {v!r}")
    if det.sign() != (-1) ** s:
        raise InvariantContradiction(
            "condition-1", f"det sign {det.sign()} vs (-1)^{s}")
    inf_bit = (s * (s - 1) // 2) % 2
    if inv.hasse_bit(INF) != inf_bit:
        raise InvariantContradiction(
            "condition-2", f"real-place bit must be {inf_bit}")
    if n == 1 and any(v != INF for v in hasse):
        raise InvariantContradiction(
            "condition-3", "rank 1 forms have trivial Hasse invariant")
    if n == 2:
        minus_det = -det
        for v in hasse:
            if v == INF:
                continue
            if is_square_at(minus_det, v):
                raise InvariantContradiction(
                    "condition-3",
                    f"rank 2 with -det a square in Q_{v} forces bit 0 at {v}")
    if len(hasse) % 2 != 0:
        raise InvariantContradiction("reciprocity", "odd Hasse support")


def _ascending_cores(base):
    """A walk of the products of the subsets of the sorted primes `base`,
    each as (value, its primes), ascending: a heap holds the frontier, and a
    popped core pushes its primes with the next base prime appended and with
    their largest swapped for it.  A walk re-reads the cores seen so far."""
    seen, heap = [(1, ())], ([(base[0], (base[0],), 0)] if base else [])

    def walk():
        i = 0
        while i < len(seen) or heap:
            if i == len(seen):
                c, combo, j = heappop(heap)
                seen.append((c, combo))
                if j + 1 < len(base):
                    p = base[j + 1]
                    heappush(heap, (c * p, combo + (p,), j + 1))
                    heappush(heap, (c // combo[-1] * p, combo[:-1] + (p,),
                                    j + 1))
            yield seen[i]
            i += 1
    return walk


def _aux_primes(base, aux_limit):
    """1 and the primes below `aux_limit` outside `base`, lazily: the q of
    the candidates sgn * core * q, walked first."""
    yield 1
    yield from (q for q in primes_below(aux_limit) if q not in base)


#: the peeled entries and their classes, shared by every constructed form
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)
_PLUS_CLASS, _MINUS_CLASS = SquareClass(1), SquareClass(-1)
_UNIT_ENTRIES = {1: _ONE, -1: _MINUS_ONE}


@lru_cache(maxsize=4096)
def form_from_invariants(inv: FormInvariants) -> QuadraticForm:
    """Build a diagonal form realizing an admissible invariant tuple.

    The construction peels unit entries <1> / <-1> down to rank 3 and
    finishes with a rank-2 block <a, a*det> whose Hasse data is arranged
    through the symbol (a, -det).  Both last steps take the least fitting
    sgn * core * q.  The rank-2 step solves for the core by elimination over
    F2 and reads no core; the rank-3 step walks the cores lazily, skips each
    (q, sgn) that elimination over the characters at the Hasse primes
    outside its base rules out, and past its scan takes an entry the
    ternary form represents.  The determinant is factored once,
    unless it carries its primes; every later Hasse support is evaluated at
    known primes.  The form carries the class of every entry.
    Deterministic: the same invariants always give the same form.

    Memoized: the invariants and the returned form are both frozen.  The memo
    key ignores the primes the determinant carries, so an equal tuple without
    them can hit the cache and skip the factorization.  A contradiction is
    raised again on every call.  The peel is forced, so the rank-3 tuple it
    hands on fixes the rest of the form, and `_rank3_form` memoizes that
    rest by the tuple; `cache_clear()` clears both memos.
    """
    validate_invariants(inv)
    n, det, (r, s), hasse = inv.dim, inv.det, inv.signature, inv.hasse
    if n == 1:
        return QuadraticForm.make([det.n], [det])
    primes = det.primes()
    det = SquareClass(det.n, frozenset(primes))
    if n == 2:
        return _rank2_from_invariants([], det, (r, s), hasse)
    # <e> + W with e = +-1: det W = e det, w(W) = w + (e, det W).  The peel
    # is forced: (1, x) is trivial, and a negative peel only negates det, so
    # the Hasse set moves by S(-1, -det) and S(-1, det) in turn (Serre, A
    # Course in Arithmetic, III.1.1); each is evaluated once.  The positive
    # peels come first.
    negated = {}    # det.n -> (-det, S(-1, -det))
    plus = minus = 0
    for _ in range(n - 3):
        if r > 0:
            r -= 1
            plus += 1
            # the empty set; tests/test_scan_proofs.py counts this call
            hasse ^= support_at(1, det.n, primes)
        else:
            s -= 1
            minus += 1
            if det.n not in negated:
                negated[det.n] = (-det, support_at(-1, -det.n, primes))
            det, step = negated[det.n]
            hasse ^= step
    core = _rank3_form(det.n, primes, (r, s), hasse)
    if n == 3:
        return core
    return QuadraticForm(
        (_ONE,) * plus + (_MINUS_ONE,) * minus + core.diagonal,
        (_PLUS_CLASS,) * plus + (_MINUS_CLASS,) * minus + core.known_classes)


@lru_cache(maxsize=1024)
def _rank3_form(det_n: int, primes: tuple, sig, hasse) -> QuadraticForm:
    """The rank-3 form that `form_from_invariants` ends with, for the tuple
    its peel hands on.  The input passed the battery, and a peel keeps
    condition 1, the real bit and the parity of the support, so the tuple
    is checked here, once per distinct tuple.  Memoized: a cold grid pass
    hands on 173 tuples with 37 distinct values."""
    det = SquareClass(det_n, frozenset(primes))
    r, s = sig
    validate_invariants(FormInvariants(3, det, sig, hasse))
    # the unit we peel must leave an admissible rank-2 tuple, which is a
    # real constraint here (condition-3 can bite); scan small entries, and
    # past them take an entry the ternary form is known to represent
    base = sorted({2, 3, 5, 7}.union(primes))
    signs = [sgn for sgn, k in ((1, r), (-1, s)) if k > 0]
    cores = _ascending_cores(base)
    # At a Hasse prime v outside `base` the form is anisotropic, and e and
    # -det are v-units unless v = q, so e is represented there only if their
    # characters differ (Serre, A Course in Arithmetic, IV.2.2, Thm. 6): one
    # equation over F2 in the characters of sgn, q and the core's primes.
    # A (q, sgn) whose system, with the equation at q dropped, has no
    # solution cannot hit, and its cores are not walked.
    out = sorted(v for v in hasse if v != INF and v not in base)

    def chars(n):
        return sum(local_characters(n, v)[1] << i for i, v in enumerate(out))

    rows = {}
    for p in base:
        v = _reduce(rows, chars(p))[0]
        if v:
            rows[v.bit_length()] = v, 0
    goal = ((1 << len(out)) - 1) ^ chars(-det_n)

    def scan():
        for q in _aux_primes(base, 200):
            free = 1 << out.index(q) if q in out else 0
            q_signs = [sgn for sgn in signs
                       if any(not _reduce(rows, goal ^ chars(sgn * q) ^ f)[0]
                              for f in (0, free))]
            for c, combo in cores() if q_signs else ():
                for sgn in q_signs:
                    yield sgn * c * q, combo + ((q,) if q > 1 else ())

    for e, e_primes in chain(scan(), _represented_entry(det, hasse,
                                                        signs[0])):
        ec = SquareClass(e, frozenset(e_primes))
        sub_det = det * ec
        sub_sig = (r - 1, s) if e > 0 else (r, s - 1)
        sub_hasse = frozenset(hasse ^ support_at(e, sub_det.n,
                                                 primes + e_primes))
        try:
            validate_invariants(FormInvariants(2, sub_det, sub_sig, sub_hasse))
        except InvariantContradiction:
            continue
        return _rank2_from_invariants([ec], sub_det, sub_sig, sub_hasse)
    raise RuntimeError("rank-3 construction search exhausted (bug)")


def _clear_constructions(clear_forms=form_from_invariants.cache_clear):
    """`form_from_invariants.cache_clear`: it clears both memos."""
    clear_forms()
    _rank3_form.cache_clear()


form_from_invariants.cache_clear = _clear_constructions


def _represented_entry(det: SquareClass, hasse, sgn):
    """Yield one entry, with its primes, that a ternary form with
    determinant `det` (carrying its primes) and Hasse set `hasse`
    represents: `sgn` times the primes of its anisotropic places that do
    not divide det.  A generator, so a scan chained before it that hits
    pays nothing.

    The form is anisotropic at v exactly when its Hasse bit there differs
    from (-1, -det), and then represents every class but that of -det
    (Serre, A Course in Arithmetic, IV.2.2, Thm. 6).  The entry's
    valuation has the other parity than that of -det at each such prime,
    and at INF, where the form is then definite, `sgn` is its only sign.
    """
    primes = det.primes()
    places = primes + tuple(v for v in hasse if v != INF and v not in primes)
    anisotropic = hasse ^ support_at(-1, -det.n, places)
    e_primes = tuple(sorted(p for p in anisotropic
                            if p != INF and det.n % p))
    yield sgn * prod(e_primes), e_primes


def _reduce(rows, v, c=0):
    """The vector `v` reduced by the echelon `rows` over F2, {top bit: (row,
    set)}, with the sets of the rows it took XORed into `c`: the one
    elimination of both last construction steps."""
    while v and v.bit_length() in rows:
        row, row_set = rows[v.bit_length()]
        v, c = v ^ row, c ^ row_set
    return v, c


def _rank2_from_invariants(head, det: SquareClass, sig,
                           hasse) -> QuadraticForm:
    """The entries of `head` (square classes) followed by <a, a*det> with
    Hasse set `hasse`; det carries its primes.

    The least a = sgn * core * q (by q, then core, then sign) whose symbol
    (a, -det) has support `hasse` is taken.  The symbol is bilinear, so that
    support is the symmetric difference of the supports of the factors -1,
    the primes of the core and q (Serre, A Course in Arithmetic, III.1.1):
    each factor's support is evaluated once, as a bit mask over the places
    of `base` and INF, and the cores that hit are the solutions of a linear
    system over F2.  A core below the base prime p_j is a product of the
    base primes below p_j, so for q = 1 the base masks join the elimination
    one at a time, and the solution cosets are listed, below the next base
    prime, only when a sign's goal is in the span of the masks admitted;
    past the last base prime, and for every q > 1, they are listed with no
    bound.  At the place q only the factor q can be nontrivial, and q is not
    in `hasse`, so a q in its own support is skipped.
    """
    r, s = sig
    minus_det = -det
    det_primes = det.primes()
    signs = (1, -1) if det.n < 0 else ((1,) if r == 2 else (-1,))
    target = frozenset(hasse)
    base = set(det_primes) | {2}
    base.update(v for v in target if v != INF)
    base = sorted(base)
    places = base + [INF]
    bits = {v: 1 << i for i, v in enumerate(places)}
    masks = {}

    def mask(x):
        """The support of (x, -det) as a bit mask, for x = -1, a prime of
        `base` or an auxiliary prime; None for an auxiliary prime in its
        own support, the one place outside `bits` a support can hold."""
        if x not in masks:
            supp = support_at(x, minus_det.n,
                              det_primes + ((x,) if x > 0 else ()))
            masks[x] = (None if x in supp and x not in bits
                        else sum(bits[v] for v in supp))
        return masks[x]

    want = sum(bits[v] for v in target)
    # the admitted base masks in echelon form, and every set of admitted
    # base primes whose masks sum to 0
    rows, kernel = {}, [0]

    def primes_of(c):
        return tuple(p for j, p in enumerate(base) if c >> j & 1)

    def least_hit(q_mask, first):
        """The least (core, sign index, set of base primes) whose masks sum
        with q_mask to `want`, or None; the masks of base[first:] are not
        admitted yet."""
        for j in range(first, len(base) + 1):
            goals = []
            for k, sgn in enumerate(signs):
                v, c = _reduce(rows, want ^ q_mask
                               ^ (mask(-1) if sgn < 0 else 0))
                if not v:
                    goals.append((k, c))
                    if not c:   # the core 1 hits; mask(-1) is not needed
                        break
            hit = min(((prod(primes_of(c ^ y)), k, c ^ y)
                       for k, c in goals for y in kernel), default=None)
            if hit and hit[0] < places[j]:
                return hit
            if j < len(base):
                v, c = _reduce(rows, mask(base[j]), 1 << j)
                if v:
                    rows[v.bit_length()] = v, c
                else:
                    kernel.extend([y ^ c for y in kernel])
        return None

    for q in _aux_primes(base, 2000):
        q_mask = 0 if q == 1 else mask(q)
        hit = None if q_mask is None else least_hit(
            q_mask, 0 if q == 1 else len(base))
        if hit is None:
            continue
        core, k, c = hit
        a = signs[k] * core * q
        a_primes = primes_of(c) + ((q,) if q > 1 else ())
        if support_at(a, minus_det.n, a_primes + det_primes) != target:
            raise RuntimeError(
                "rank-2 bilinear score disagrees with the support (bug)")
        ca = SquareClass(a, frozenset(a_primes))
        # every entry is a nonzero integer, so no check of `make` can fail
        entries = [_UNIT_ENTRIES.get(c.n) or Fraction(c.n) for c in head]
        return QuadraticForm(entries + [Fraction(a), Fraction(a * det.n)],
                             head + [ca, ca * det])
    raise RuntimeError("rank-2 construction search exhausted (bug)")


# ---------------------------------------------------------------------------
# complements


class SplitResult(Record):
    __slots__ = _fields = ("feasible", "complement", "complement_invariants",
                           "reason")
    _defaults = (None,)


def complement_invariants(vi: FormInvariants, ui: FormInvariants) -> FormInvariants:
    """Invariants of the W with U + W = V, assuming it exists.

    The Hasse set follows from additivity of the invariant on orthogonal
    sums: w(V) = w(U) + w(W) + (det U, det W).
    """
    if not (0 < ui.dim < vi.dim):
        raise ValueError("need 0 < dim U < dim V")
    dim = vi.dim - ui.dim
    det = vi.det * ui.det
    r = vi.signature[0] - ui.signature[0]
    s = vi.signature[1] - ui.signature[1]
    if r < 0 or s < 0:
        raise InvariantContradiction("condition-1", "signature does not embed")
    hasse = frozenset(vi.hasse ^ ui.hasse
                      ^ support_at(ui.det.n, det.n,
                                   ui.det.primes() + det.primes()))
    return FormInvariants(dim, det, (r, s), hasse)


def split_complement(v: QuadraticForm, u: QuadraticForm) -> SplitResult:
    """Find W with V isomorphic to U + W, or report why none exists.

    Everything happens at the level of invariants; when the derived tuple is
    admissible the returned form is an honest witness (U + W has exactly the
    invariants of V, hence is isomorphic to it).
    """
    vi, ui = invariants(v), invariants(u)
    try:
        wi = complement_invariants(vi, ui)
    except InvariantContradiction as err:
        return SplitResult(False, None, None, err.condition)
    try:
        w = form_from_invariants(wi)
    except InvariantContradiction as err:
        return SplitResult(False, None, wi, err.condition)
    return SplitResult(True, w, wi)


# ---------------------------------------------------------------------------
# local structure


def hyperbolic_bit(t: int, place) -> int:
    """Hasse bit of a sum of t hyperbolic planes at a place."""
    return 1 if place in (2, INF) and t % 4 in (2, 3) else 0


def is_locally_hyperbolic(f: QuadraticForm, place) -> bool:
    """Is f isomorphic to a sum of hyperbolic planes over the completion?"""
    return _locally_hyperbolic_inv(invariants(f), place)


def _locally_hyperbolic_inv(fi: FormInvariants, place) -> bool:
    return fi.dim % 2 == 0 and _locally_isomorphic_inv(
        fi, hyperbolic_invariants(fi.dim // 2), place)


# ---------------------------------------------------------------------------
# isotropy


class IsotropyVerdict(Record):
    """`witness` is a rational vector for the diagonal form, `obstruction`
    a place certifying anisotropy."""

    __slots__ = _fields = ("isotropic", "witness", "obstruction")


def _locally_isotropic_inv(fi: FormInvariants, place) -> bool:
    n = fi.dim
    if place == INF:
        r, s = fi.signature
        return r > 0 and s > 0
    if n == 1:
        return False
    if n == 2:
        return is_square_at(-fi.det, place)
    if n == 3:
        return fi.hasse_bit(place) == hilbert_symbol(-1, -fi.det.n, place)
    if n == 4:
        return (not is_square_at(fi.det, place)
                or fi.hasse_bit(place) == hilbert_symbol(-1, -1, place))
    return True


#: steps of the witness scan in `represents_zero` unless a budget is given
WITNESS_BUDGET = 200_000


def represents_zero(f: QuadraticForm, height: int = 50,
                    budget: int = WITNESS_BUDGET) -> IsotropyVerdict:
    """Global isotropy by the local-global principle, with a bounded search
    for an explicit witness.

    The verdict is always exact.  The witness may be None when the integer
    point search exhausts its budget; anisotropy always reports a concrete
    obstruction place.
    """
    fi = invariants(f)
    place = _local_obstruction(fi)
    if place is not None:
        return IsotropyVerdict(False, None, place)
    return IsotropyVerdict(True, _isotropy_witness(f, height, budget), None)


def _local_obstruction(fi: FormInvariants):
    """The first place where the form is anisotropic, or None when there is
    none, so that the form is isotropic (Hasse-Minkowski).  Testing 2, INF
    and the primes of the determinant and the Hasse set suffices.  Odd primes
    come first, then 2, then INF: odd-prime certificates are the most
    readable."""
    odd = sorted((set(fi.det.primes()) | fi.hasse) - {2, INF})
    for v in odd + [2, INF]:
        if not _locally_isotropic_inv(fi, v):
            return v
    return None


def _perfect_square_root(q: Fraction):
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def _isotropy_witness(f: QuadraticForm, height: int, budget: int):
    """A nonzero rational vector on which f vanishes, or None.

    Two entries whose negated product is a square give one at once.  Past
    the pairs, each triple (i < j, k) is scanned row by row: for x = 1, ...,
    `height`, the y in -height, ..., 0 for which d_i x^2 + d_j y^2 is -d_k
    times a rational square.  Each step costs one unit of `budget`; a row
    is charged 2 height + 1 steps, its y > 0 untaken, and a triple proved
    anisotropic is charged its rows unscanned.  The b y^2 column of a
    triple is computed once, and a row that fits in the budget left runs
    without a test per step.  The first hit, and the step at which the
    budget runs out (None), are those of a scan that tests every step.
    """
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
    # a x^2 + b y^2 is even in y, so a row's first hit has y <= 0: the row
    # runs over y <= 0 and charges the height steps of y > 0 untaken
    ys = range(-height, 1)
    # a triple whose ternary subform is anisotropic cannot hit, so its steps
    # are charged without being taken; each unordered triple is decided once
    row_steps = 2 * height + 1
    triple_steps = height * row_steps
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
                row = [(y, b * y * y) for y in ys]
                for x in range(1, height + 1):
                    ax2 = a * x * x
                    # a row that fits in the budget runs without a test per
                    # step; one that does not stops where the budget does
                    left = budget - work
                    for y, by2 in (row if left > height
                                   else row[:max(left, 0)]):
                        m = ax2 + by2
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
                    work += row_steps
                    if work > budget:
                        return None
    return None


def _entry_classes(f: QuadraticForm):
    """The square classes of the entries of f, or None when an entry resists
    factoring."""
    try:
        return f.classes()
    except FactorizationBudgetError:
        return None


def _anisotropic_subform(f: QuadraticForm, classes, key) -> bool:
    """Is the subform of f on the entries `key` anisotropic?  Decided by the
    local-global principle (Serre, A Course in Arithmetic, IV.3.2) from the
    entry classes; without them nothing is proved."""
    if classes is None:
        return False
    sub = QuadraticForm(tuple(f.diagonal[t] for t in key),
                        tuple(classes[t] for t in key))
    return _local_obstruction(invariants(sub)) is not None


def _square_residues(modulus: int) -> bytes:
    table = bytearray(modulus)
    for x in range(modulus):
        table[x * x % modulus] = 1
    return bytes(table)


# quadratic residues modulo 64, 63, 65 and 11 (Cohen, A Course in
# Computational Algebraic Number Theory, Alg. 1.7.3): about 1 in 120
# non-squares passes all four, so isqrt rarely runs on a non-square
_SQUARES_64, _SQUARES_63, _SQUARES_65, _SQUARES_11 = (
    _square_residues(m) for m in (64, 63, 65, 11))


def _is_square(m: int) -> bool:
    """Is the integer m >= 0 a perfect square?  (The mod-64 filter is the
    caller's.)"""
    r = m % 45045  # 63 * 65 * 11
    if not (_SQUARES_63[r % 63] and _SQUARES_65[r % 65]
            and _SQUARES_11[r % 11]):
        return False
    t = isqrt(m)
    return t * t == m


def _checked_witness(f: QuadraticForm, vec) -> tuple:
    if f.evaluate(vec) != 0:
        raise RuntimeError("isotropy witness does not vanish (bug)")
    return tuple(vec)


# ---------------------------------------------------------------------------
# Witt group


class WittClassQ(Record):
    """Witt class of a rational form: rank parity, signed determinant,
    signature (as an integer), and the invariants of the anisotropic kernel
    for exact equality and arithmetic."""

    __slots__ = _fields = ("dim_parity", "disc", "signature", "local",
                           "torsion", "kernel")


def _peel_hyperbolic(fi: FormInvariants) -> FormInvariants:
    det = -fi.det
    r, s = fi.signature
    hasse = frozenset(fi.hasse ^ support_at(-1, det.n, det.primes()))
    return FormInvariants(fi.dim - 2, det, (r - 1, s - 1), hasse)


def witt_reduce(f: QuadraticForm) -> WittClassQ:
    fi = invariants(f)
    disc = fi.disc()
    sig = fi.signature[0] - fi.signature[1]
    kernel = fi
    while kernel.dim > 1 and _local_obstruction(kernel) is None:
        kernel = _peel_hyperbolic(kernel)
    kern = kernel if kernel.dim > 0 else None
    return WittClassQ(
        dim_parity=fi.dim % 2,
        disc=disc,
        signature=sig,
        local=kern.hasse if kern else frozenset(),
        torsion=(sig == 0),
        kernel=kern,
    )


def witt_zero() -> WittClassQ:
    return WittClassQ(0, SquareClass(1), 0, frozenset(), True, None)


def witt_add(a: WittClassQ, b: WittClassQ) -> WittClassQ:
    if a.kernel is None:
        return b
    if b.kernel is None:
        return a
    fa = form_from_invariants(a.kernel)
    fb = form_from_invariants(b.kernel)
    return witt_reduce(fa.direct_sum(fb))


# ---------------------------------------------------------------------------
# serialization


def place_to_json(v):
    return "inf" if v == INF else v


def place_str(v) -> str:
    """A place as text: "inf" for the real place, the prime otherwise."""
    return str(place_to_json(v))


def place_from_json(v):
    if v == "inf":
        return INF
    if type(v) is int and is_prime(v):
        return v
    raise ValueError(f"not a place: {v!r}")


def form_to_json(f: QuadraticForm) -> dict:
    """The diagonal as text, rendered afresh on every call."""
    return {"diagonal": [rational_str(e) for e in f.diagonal]}


def _rationals(values, what: str) -> list:
    return [rational_from(x) for x in json_array(values, what)]


#: the keys of a JSON form, of which it carries exactly one, and their readers
_FORM_KEYS = {"diagonal": _rationals,
              "gram": lambda rows, what: [_rationals(row, "gram row")
                                          for row in json_array(rows, what)]}


def form_from_json(obj) -> QuadraticForm:
    """The form of a JSON form; a form already read is returned as it is."""
    if isinstance(obj, QuadraticForm):
        return obj
    form = json_object(obj, _FORM_KEYS)
    if len(form) != 1:
        raise ValueError("form needs exactly one of 'diagonal' and 'gram'")
    if "diagonal" in form:
        return QuadraticForm.make(form["diagonal"])
    return diagonalize(form["gram"])


def invariants_to_json(fi: FormInvariants) -> dict:
    """The invariants as JSON values, rendered afresh on every call."""
    return {"dim": fi.dim, "det": rational_str(fi.det.n),
            "signature": list(fi.signature),
            "hasse": [place_to_json(v) for v in sorted(fi.hasse)]}


def _signature(pair, what: str) -> tuple:
    if len(json_array(pair, what)) != 2:
        raise ValueError(f"{what} must have two entries")
    return (json_int(pair[0], what), json_int(pair[1], what))


#: the keys of JSON invariants, all of them required, and their readers
_INVARIANT_KEYS = {
    "dim": json_int,
    "det": lambda value, what: squarefree_class(rational_from(value)),
    "signature": _signature,
    "hasse": lambda places, what: frozenset(
        map(place_from_json, json_array(places, what))),
}


def invariants_from_json(obj) -> FormInvariants:
    return FormInvariants(**json_object(obj, _INVARIANT_KEYS, _INVARIANT_KEYS))
