"""Exact rational arithmetic bedrock: factorization, square classes and
Hilbert symbols, with the records, memos and counts every layer shares.

Everything here is exact: rationals as `fractions.Fraction`, square classes
and Hilbert symbols over the integers.  No float enters any computation; the
`INF` marker for the real place is never used arithmetically.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import attrgetter

Rational = int | Fraction

#: marker for the real place of Q.  Sorts after every finite prime, which is
#: exactly the order we want in serialized place lists.
INF = float("inf")


class SchemaError(ValueError):
    """Input that fails to parse into a query, named where it failed."""


class FactorizationBudgetError(ValueError):
    """Raised when an integer cannot be factored, with proof, within the
    budget: a composite cofactor that resists trial division (and, through
    `factor`, Brent's rho), or a probable prime at or above
    `MR_PROVEN_BELOW`.

    For a composite cofactor left by `factorize`, `found` is the
    factorization found before it and `cofactor` the cofactor itself, so
    that `factor` can go on from there; both are None otherwise."""

    def __init__(self, message: str, found: dict | None = None,
                 cofactor: int | None = None):
        super().__init__(message)
        self.found = found
        self.cofactor = cofactor


# default factoring budget: the trial-division bound, and four times the
# iteration cap of Brent's rho on a cofactor of up to 64 bits.  Enough for
# every integer this library meets in practice while keeping worst-case
# behaviour predictable.
DEFAULT_FACTOR_BUDGET = 1_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_1, ..., psi_12: psi_k is the least strong pseudoprime to the first k
#: prime bases (OEIS A014233; Jaeschke, Math. Comp. 61, 1993)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
          3474749660383, 341550071728321, 341550071728321,
          3825123056546413051, 3825123056546413051, 3825123056546413051,
          318665857834031151167461)

#: psi_13, the least strong pseudoprime to all thirteen prime bases up to
#: 41 (OEIS A014233): below it `is_prime` is a proof
MR_PROVEN_BELOW = 3317044064679887385961981

#: operations counted where they are done, by any route: read differences
COUNTS = dict.fromkeys(("hilbert_symbol", "support_at", "validate_invariants",
                        "construction", "factorize", "poly_gcd", "iroot"), 0)
_MEMOS: dict = {}


def memo(label: str, maxsize: int | None, typed: bool = False):
    """`functools.lru_cache(maxsize, typed)`, its wrapper registered under
    `label` and returned itself, so that a call adds no frame."""
    def register(f):
        _MEMOS[label] = cached = lru_cache(maxsize, typed)(f)
        return cached
    return register


def memos() -> dict:
    """Every memo of the loaded modules, by label."""
    return dict(_MEMOS)


def clear_memos() -> None:
    """Empty every memo, with its hit and miss counts."""
    for cached in _MEMOS.values():
        cached.cache_clear()


@memo("exact.is_prime", 4096, typed=True)
def is_prime(n: int) -> bool:
    """Trial division by the thirteen primes up to 41, then Miller-Rabin to
    the first k of them, for the least k with n < psi_k (`_MR_PSI`), and to
    all thirteen from psi_12 on: a proof for n below `MR_PROVEN_BELOW`
    (about 3.3e24), a probable-prime test above it.  Below psi_4, about
    3.2e9, four bases suffice.  Memoized: the places of Hilbert symbols are
    the same few primes again and again."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@memo("exact.primes_below", None)
def primes_below(limit: int) -> tuple:
    """All primes p < limit, by the sieve of Eratosthenes; built on the first
    call for each limit and kept."""
    sieve = bytearray([1]) * max(limit, 2)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(p for p in range(limit) if sieve[p])


def factorize(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> dict:
    """Factor a positive integer by trial division up to `budget`, finishing
    off prime or prime-power cofactors with a primality test.

    Trial division stops early when the cofactor is proved prime: that is
    tested once 2 and 3 are divided out and again after each prime factor
    found, for cofactors below `MR_PROVEN_BELOW` only.  A larger cofactor is
    trial-divided as far as the budget allows, as without the test.

    Returns {prime: exponent}.  Raises FactorizationBudgetError when the
    leftover cofactor is composite with no factor below the budget (the
    error carries the factors found and the cofactor, for `factor`), or
    when it (or its root, for a perfect power) passes `is_prime` at or above
    `MR_PROVEN_BELOW`, where that test proves nothing.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    COUNTS["factorize"] += 1
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    f = 5
    # a cofactor below f^2 leaves the sweep and is tested after it
    proved = f * f <= n < MR_PROVEN_BELOW and is_prime(n)
    while not proved and f * f <= n:
        # the divisors f and f + 2 for f = 5 mod 6 up to the budget and to
        # the square root of n; the sweep restarts after each hit, with the
        # bound of the new cofactor
        sweep = range(f, min(budget, isqrt(n)) + 1, 6)
        for f in sweep:
            if n % f == 0 or n % (f + 2) == 0:
                break
        else:
            f = sweep.start + 6 * len(sweep)    # the first divisor not tried
            break
        for p in (f, f + 2):
            if n % p == 0:
                while n % p == 0:
                    n //= p
                    out[p] = out.get(p, 0) + 1
                proved = f * f <= n < MR_PROVEN_BELOW and is_prime(n)
        f += 6
    if n == 1:
        return out
    p, k = n, 1
    if not (proved or is_prime(n)):
        # a composite cofactor may still be a prime power p = r^q, f^q <= p
        # for f the first divisor not tried; an (ab)-th power is an a-th
        # power, so q runs over primes (few sieve limits), on each root again
        for q in primes_below(1 << n.bit_length().bit_length()):
            if f ** q > p:
                break
            while (r := _iroot(p, q)) ** q == p:
                p, k = r, k * q
        if k == 1 or not is_prime(p):
            raise FactorizationBudgetError(f"cofactor {n} is composite and "
                                           f"resists trial division up to "
                                           f"{budget}", out, n)
    if p >= MR_PROVEN_BELOW:
        raise _probable_prime(p)
    out[p] = out.get(p, 0) + k
    return out


def _probable_prime(p: int) -> FactorizationBudgetError:
    return FactorizationBudgetError(
        f"cofactor {p} is only a probable prime: is_prime is a proof "
        f"below {MR_PROVEN_BELOW} only")


def factor(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> dict:
    """`factorize`, and when it leaves a composite cofactor, Brent's rho on
    that cofactor (Brent, BIT 20, 1980; Pollard, BIT 15, 1975), whose
    expected cost is O(p^1/2) in its least prime factor p, against O(p) for
    trial division.  The form data of the library (entries, determinants,
    Picard forms, elliptic contexts) is factored through this.

    Rho runs x -> x^2 + c from x = 2 with c = 1, 2, 3, ... in turn, so every
    result is reproducible.  All its attempts share an iteration cap of
    budget // 4, scaled by (64 / bits)^2 for a cofactor of more than 64 bits
    (an iteration costs more the wider the cofactor), so that a cofactor
    that resists costs about what its trial division did; a budget below 4
    runs no rho.  Every factor is proved prime with `is_prime` below
    `MR_PROVEN_BELOW`.  Raises FactorizationBudgetError when the cap is
    spent (the message of `factorize`'s error) or a factor is a probable
    prime at or above `MR_PROVEN_BELOW`.
    """
    try:
        return factorize(n, budget)
    except FactorizationBudgetError as err:
        if err.cofactor is None:
            raise
        cap = budget // 4 * 4096 // max(err.cofactor.bit_length(), 64) ** 2
        out, left = dict(err.found), [err.cofactor]
        while left:
            m = left.pop()
            d, cap = _rho(m, cap) if cap else (None, 0)
            if d is None:
                raise
            for q in (d, m // d):
                if not is_prime(q):
                    left.append(q)
                elif q >= MR_PROVEN_BELOW:
                    raise _probable_prime(q) from err
                else:
                    out[q] = out.get(q, 0) + 1
        return dict(sorted(out.items()))


def _rho(n: int, cap: int) -> tuple:
    """(a proper divisor of the composite n, or None once `cap` iterations
    are spent; the iterations left), by Brent's cycle search, which takes
    the product of up to 128 differences before each gcd."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if r > cap:
                return None, 0
            cap -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, run = y, min(128, r - k)
                if run > cap:
                    return None, 0
                cap -= run
                for _ in range(run):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += run
            r *= 2
        if g == n:
            # the batch overshot: step through it again, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, cap


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by Newton's method on integers."""
    COUNTS["iroot"] += 1
    x = 1 << -(-n.bit_length() // k)    # 2^ceil(bits/k), above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class Record:
    """Base of the library's frozen value types: a `__slots__` class with
    the semantics of a frozen dataclass, at no class-generation cost on
    import.

    A subclass lists its attributes in `__slots__`, the ones that make up
    its value in `_fields` (in order), and the defaults of the trailing
    fields in `_defaults`.  Then:

    - the constructor has the native signature `(self, *_fields)`, with
      `_defaults` as the defaults of the trailing fields, so a missing,
      surplus, unknown or repeated argument raises the interpreter's own
      TypeError.  It is written once per class, at its first construction
      (so importing pays nothing), and stores each value through the
      slot's own setter;
    - assigning or deleting an attribute raises AttributeError;
    - `==` holds only between instances of the same class whose `_fields`
      are equal; against any other class it returns NotImplemented, so
      descriptors of different field types never collide as cache keys;
    - the hash is hash(tuple of the `_fields` values), the value a frozen
      dataclass gives, so set and memo orders are those of one;
    - `repr` is the dataclass format, `Name(field=value, ...)` over
      `_fields`, unless the class defines its own;
    - slots outside `_fields` (carried or cached data) take no part in
      equality, hashing or `repr`;
    - `copy.deepcopy` and `pickle` restore an instance slot by slot.

    Only the six classes that normalize or check their arguments write an
    `__init__` (storing with `object.__setattr__`): `SquareClass`,
    `Cyclotomic`, `GeneralTotallyReal`, `GeneralCM`, `QuadraticForm` and
    `FormInvariants`.  `QuadraticForm` also hashes its diagonal, once at its
    first use, as the cache key of `invariants`, in its own `__eq__` and
    `__hash__`.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        # one C-level getter per class.  Of a single field it gives the
        # bare value, which compares as its 1-tuple would; `_values` wraps
        # it, so that every hash is hash(tuple of the fields)
        cls._get = get = attrgetter(*cls._fields)
        cls._values = (staticmethod(lambda x: (get(x),))
                       if len(cls._fields) == 1 else get)
        if "__init__" not in cls.__dict__:
            # a subclass writes its own, not inheriting its parent's
            cls.__init__ = Record.__init__

    def __init__(self, *args, **kwargs):
        # the first construction of a class writes its constructor
        cls, fields = self.__class__, self.__class__._fields
        scope = {f"_{i}": getattr(cls, name).__set__
                 for i, name in enumerate(fields)}
        exec(f"def __init__(self, {', '.join(fields)}):\n" + "".join(
            f"    _{i}(self, {name})\n" for i, name in enumerate(fields)), scope)
        init = cls.__init__ = scope["__init__"]
        init.__defaults__ = cls._defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return (self.__class__.__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # a class without __dict__ pickles as (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class SquareClass(Record):
    """An element of Q^x / (Q^x)^2, stored as its unique squarefree signed
    integer representative.

    `known_primes`, when set, is the set of primes dividing `n`, carried from
    the factorization that produced the class so that `primes()` need not
    factor again.  It takes no part in equality, hashing or `repr`.
    """

    __slots__ = ("n", "known_primes")
    _fields = ("n",)

    def __init__(self, n: int, known_primes: frozenset | None = None):
        if n == 0:
            raise ValueError("zero has no square class")
        if known_primes is None and abs(n) == 1:
            known_primes = frozenset()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "known_primes", known_primes)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        # two squarefree integers multiply to a squarefree one once the
        # square of their gcd is divided out; the primes of the gcd are the
        # ones that cancel
        g = gcd(self.n, other.n)
        known = None
        if self.known_primes is not None and other.known_primes is not None:
            known = self.known_primes ^ other.known_primes
        return SquareClass(self.n // g * (other.n // g), known)

    def __neg__(self) -> "SquareClass":
        return SquareClass(-self.n, self.known_primes)

    def sign(self) -> int:
        return 1 if self.n > 0 else -1

    def primes(self, budget: int = DEFAULT_FACTOR_BUDGET) -> tuple:
        """Every prime dividing the representative, 2 included, in
        increasing order.  Factors only when the primes are not carried,
        by trial division and then Brent's rho (`factor`) under `budget`."""
        if self.known_primes is not None:
            return tuple(sorted(self.known_primes))
        return tuple(sorted(factor(abs(self.n), budget)))

    def __repr__(self):
        return f"SquareClass({self.n})"


def squarefree_class(r: Rational, budget: int = DEFAULT_FACTOR_BUDGET) -> SquareClass:
    """Squarefree representative of the square class of a nonzero rational,
    carrying the primes found on the way.  numerator * denominator is
    factored by trial division and then Brent's rho (`factor`) under
    `budget`; FactorizationBudgetError when that does not finish.

    >>> squarefree_class(18)
    SquareClass(2)
    >>> squarefree_class(Fraction(-1, 2))
    SquareClass(-2)
    >>> squarefree_class(Fraction(45, 7))
    SquareClass(35)
    """
    # an int or a Fraction is read as it is; p/q and p*q differ by the
    # square q^2
    if type(r) is int:
        n = r
    else:
        if type(r) is not Fraction:
            r = Fraction(r)
        n = r.numerator * r.denominator
    if n == 0:
        raise ValueError("zero has no square class")
    odd = [p for p, e in factor(abs(n), budget).items() if e % 2]
    out = prod(odd)
    return SquareClass(out if n > 0 else -out, frozenset(odd))


def rational_str(x) -> str:
    """A rational as text: "p/q", or the integer alone."""
    if type(x) is int:
        return str(x)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)     # ints and Fractions already carry both parts
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def rational_from(s) -> Fraction:
    """An integer, a Fraction or a "p/q" string as a Fraction.  Anything
    else (a bool included) and a zero denominator raise ValueError."""
    if isinstance(s, bool) or not isinstance(s, (int, Fraction, str)):
        raise ValueError(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def json_array(obj, what: str) -> list:
    """`obj`, which must be a JSON array: a string would otherwise be read
    one character at a time.  Anything else raises ValueError."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"{what} must be an array")
    return obj


def json_int(value, what: str) -> int:
    """`value` as an integer: a JSON integer, or a string of one.  A float, a
    bool or any other string raises TypeError, not truncated or misread."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def json_minpoly(coeffs, what: str) -> tuple:
    """A nonempty JSON `minpoly` array as rationals, the integral ones as
    ints, which hash in C: a descriptor read again finds its memos cheaply."""
    if not json_array(coeffs, what):
        raise ValueError(f"{what} must be a nonempty array")
    return tuple(c.numerator if c.denominator == 1 else c
                 for c in map(rational_from, coeffs))


def json_str(value, what: str) -> str:
    """`value`, which must be a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def json_object(obj, readers: dict, required=()) -> dict:
    """The values of the JSON object `obj`, read in the order of `readers`,
    which maps each key it may carry to `reader(value, key)`.  Unknown keys
    are refused first, in one ValueError, so a misspelled key is named, not
    reported missing; a missing key of `required` raises KeyError."""
    if not isinstance(obj, dict):
        need = " and ".join(map(repr, required))
        raise ValueError("must be an object" + (f" with {need}" if need else ""))
    unknown = [key for key in obj if key not in readers]
    if unknown:
        raise ValueError("unknown key " + ", ".join(map(repr, unknown)))
    return {key: reader(obj[key], key) for key, reader in readers.items()
            if key in obj or key in required}


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return -1 if local_characters(a, p)[1] else 1


@memo("exact.local_characters", 4096)
def local_characters(n: int, place) -> tuple:
    """The class of the nonzero integer n in Q_v^x / (Q_v^x)^2 as bits: the
    sign at INF; at 2 the parity of the valuation and the characters
    eps = (u - 1)/2 and omega = (u^2 - 1)/8 mod 2 of the unit part u; at an
    odd p the parity of the valuation and chi = 1 when u is not a square
    mod p.

    Memoized: a pure function of two ints.  Zero is not cached, so it
    raises again on every call.

    >>> local_characters(-12, INF), local_characters(-12, 2), local_characters(-12, 3)
    ((1,), (0, 0, 1), (1, 1))
    """
    if n == 0:
        raise ValueError("zero has no square class")
    if place == INF:
        return (1 if n < 0 else 0,)
    v = 0
    while n % place == 0:
        n //= place
        v ^= 1
    if place == 2:
        r = n % 8
        return (v, (r - 1) // 2 % 2, (r * r - 1) // 8 % 2)
    # Euler's criterion on the unit n
    return (v, 0 if pow(n, (place - 1) // 2, place) == 1 else 1)


def hasse_parity(chars: Sequence[tuple], place) -> int:
    """The sum over i < j of the Hilbert symbols (a_i, a_j) at `place`, mod
    2, from the `local_characters` of the a_i: the Hasse bit of <a_1, ...>.

    Summed over the pairs, the bilinear form of `hilbert_symbol` is C(S, 2)
    at INF, C(E, 2) + V W + sum v_i omega_i at 2 and eps(p) C(V, 2) + V X +
    sum v_i chi_i at an odd p, with S, E, V, W, X the sums of the sign, eps,
    v, omega and chi bits.  One pass over the characters, no symbol.
    """
    if place == INF:
        s = sum([c[0] for c in chars])
        return s * (s - 1) // 2 % 2
    if place == 2:
        V = E = W = VW = 0
        for v, e, w in chars:
            V += v
            E += e
            W += w
            VW += v & w
        return (E * (E - 1) // 2 + V * W + VW) % 2
    V = X = VX = 0
    for v, x in chars:
        V += v
        X += x
        VX += v & x
    return ((place - 1) // 2 * (V * (V - 1) // 2) + V * X + VX) % 2


def hilbert_symbol(a: Rational, b: Rational, place) -> int:
    """Hilbert symbol of (a, b) at a place of Q, written additively: 0 when
    z^2 = a x^2 + b y^2 has a nontrivial solution in the completion, 1 when
    it does not.

    A bilinear form on the `local_characters` (Serre, A Course in
    Arithmetic, III.1.2, Thm. 1): s_a s_b at INF, eps_a eps_b + v_a omega_b
    + v_b omega_a at 2 and eps(p) v_a v_b + v_a chi_b + v_b chi_a at an odd
    p, with eps(p) = (p - 1)/2 mod 2.

    >>> hilbert_symbol(5, -5, 2)
    0
    >>> hilbert_symbol(-1, -1, INF), hilbert_symbol(-1, -1, 2), hilbert_symbol(-1, -1, 7)
    (1, 1, 0)
    >>> hilbert_symbol(2, 7, 7)
    0
    """
    # the symbol only sees square classes, and p/q = pq (1/q)^2
    if not isinstance(a, int):
        a = Fraction(a)
        a = a.numerator * a.denominator
    if not isinstance(b, int):
        b = Fraction(b)
        b = b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero entries")
    COUNTS["hilbert_symbol"] += 1
    if place == INF:
        return 1 if (a < 0 and b < 0) else 0
    p = place
    if not isinstance(p, int) or p < 2 or not is_prime(p):
        raise ValueError(f"not a place of Q: {place!r}")
    ca, cb = local_characters(a, p), local_characters(b, p)
    if p == 2:
        return (ca[1] * cb[1] + ca[0] * cb[2] + cb[0] * ca[2]) % 2
    return ((p - 1) // 2 * ca[0] * cb[0] + ca[0] * cb[1] + cb[0] * ca[1]) % 2


def hilbert_support(a: Rational, b: Rational) -> frozenset:
    """The finite, even-cardinality set of places where (a, b) is nontrivial.

    Only places among {2, INF} and the primes of the two square classes can
    carry a nonzero symbol, so the scan is finite.
    """
    ca = squarefree_class(a)
    cb = squarefree_class(b)
    return support_at(ca.n, cb.n, ca.primes() + cb.primes())


def support_at(a: Rational, b: Rational, places: Iterable[int]) -> frozenset:
    """The places among {2, INF} and `places` where (a, b) is nontrivial.

    Factors nothing: the caller passes every odd prime that divides the
    square classes of a and b, so this is the whole support.  The support
    of (1, b) is empty; it is returned without a symbol, after the checks
    that the symbols would make.
    """
    COUNTS["support_at"] += 1
    candidates = {2, INF}
    candidates.update(places)
    if a == 1 or b == 1:
        if a == 0 or b == 0:
            raise ValueError("Hilbert symbol needs nonzero entries")
        for p in candidates:
            if p != INF and not (isinstance(p, int) and p >= 2
                                 and is_prime(p)):
                raise ValueError(f"not a place of Q: {p!r}")
        return frozenset()
    out = frozenset(v for v in candidates if hilbert_symbol(a, b, v) == 1)
    if len(out) % 2:
        raise RuntimeError("Hilbert reciprocity violated (bug)")
    return out


def is_square_at(c: SquareClass, place) -> bool:
    """Is the square class a square in the completion at `place`?  Exactly
    when all its local characters vanish."""
    return not any(local_characters(c.n, place))

