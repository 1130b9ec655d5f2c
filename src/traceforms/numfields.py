"""Number field descriptors and the handful of field-level predicates the
transfer layer needs: discriminant square classes, the split-prime set of a
CM field, quadratic norm tests and totally-positive-norm certificates.

Fields never appear as element arithmetic here; every question is pushed down
to exact rational data (square classes, Hilbert symbols, resultants, Sturm
sign counts).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    INF,
    Record,
    SquareClass,
    factorize,
    is_prime,
    is_square_at,
    json_array,
    json_int,
    json_minpoly,
    json_object,
    memo,
    squarefree_class,
    support_at,
)
from .poly import (Poly, count_real_roots, norm_via_resultant, poly_gcd,
                   signs_at_real_roots)


class DescriptorError(ValueError):
    """Malformed or inconsistent field descriptor."""


class RealQuadratic(Record):
    """Q(sqrt(d)) for squarefree d >= 2."""

    __slots__ = _fields = ("d",)

    def poly(self) -> Poly:
        return Poly.make([-self.d, 0, 1])


class ImagQuadratic(Record):
    """Q(sqrt(-D)) for squarefree D >= 1.  D=1 is the Gaussian field."""

    __slots__ = _fields = ("D",)


class Cyclotomic(Record):
    """Q(zeta_n).  n = 2 mod 4 is silently replaced by n/2, which generates
    the same field; callers therefore always see a canonical n."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        object.__setattr__(self, "n", n // 2 if n % 4 == 2 else n)


class GeneralTotallyReal(Record):
    """Totally real field given by a monic irreducible minimal polynomial
    (irreducibility is the caller's contract; total realness is verified).
    Coefficients run from the constant term up."""

    __slots__ = _fields = ("minpoly", "supplied_disc")

    def __init__(self, minpoly: tuple, supplied_disc: int | None = None):
        # tuples keep the descriptor hashable, as the field_invariants memo
        # needs
        object.__setattr__(self, "minpoly", tuple(minpoly))
        object.__setattr__(self, "supplied_disc", supplied_disc)

    def poly(self) -> Poly:
        return Poly.make(self.minpoly)


class GeneralCM(Record):
    """CM field described through its maximal totally real subfield plus the
    data this library cannot derive on its own: the discriminant square class
    and any known split-prime memberships."""

    __slots__ = _fields = ("real_minpoly", "disc_class", "se_assertions")

    def __init__(self, real_minpoly: tuple, disc_class: int,
                 se_assertions: tuple = ()):     # ((p, bool), ...)
        object.__setattr__(self, "real_minpoly", tuple(real_minpoly))
        object.__setattr__(self, "disc_class", disc_class)
        object.__setattr__(self, "se_assertions",
                           tuple(tuple(a) for a in se_assertions))

    def poly(self) -> Poly:
        return Poly.make(self.real_minpoly)


NumberFieldDesc = (RealQuadratic, ImagQuadratic, Cyclotomic,
                   GeneralTotallyReal, GeneralCM)


class FieldInvariants(Record):
    """Degree, discriminant square class and CM flag of a field;
    `half_degree` is the degree of the real subfield for CM fields."""

    __slots__ = _fields = ("degree", "disc_class", "is_cm", "half_degree")


def _check_squarefree(n: int, what: str) -> frozenset:
    """The primes of n, after checking that n is positive and squarefree.
    A field descriptor's integer is factored by trial division alone
    (`factorize`, not `factor`), so one past trial division is a budget
    error."""
    if n < 1:
        raise DescriptorError(f"{what} must be positive")
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        raise DescriptorError(f"{what} must be squarefree, got {n}")
    return frozenset(fac)


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n).items():
        out = out // p[0] * (p[0] - 1)
    return out


def cyclotomic_disc_class(n: int) -> SquareClass:
    """Square class of the cyclotomic discriminant via the conductor-product
    formula: sign (-1)^(phi/2), and prime q | n enters with exponent
    phi * v_q(n) - phi/(q-1)."""
    phi = euler_phi(n)
    odd = [q for q, v in factorize(n).items() if (phi * v - phi // (q - 1)) % 2]
    out = 1
    for q in odd:
        out *= q
    return SquareClass(-out if (phi // 2) % 2 else out, frozenset(odd))


def poly_disc_class(f: Poly) -> SquareClass:
    """Square class of disc(f) for monic f; equals the field discriminant's
    class because the index enters squared."""
    d = f.degree
    res = norm_via_resultant(f, f.deriv())
    disc = res if (d * (d - 1) // 2) % 2 == 0 else -res
    if disc == 0:
        raise DescriptorError("polynomial has a repeated root")
    return squarefree_class(disc)


def field_invariants(E) -> FieldInvariants:
    """Degree, discriminant square class, CM flag.

    Memoized on the descriptor's class and field values (see
    `desc_from_values`).  Errors are raised afresh on every call.

    >>> field_invariants(RealQuadratic(5)).disc_class
    SquareClass(5)
    >>> field_invariants(Cyclotomic(44)).disc_class
    SquareClass(1)
    """
    if not isinstance(E, NumberFieldDesc):
        raise DescriptorError(f"unknown field descriptor {E!r}")
    return _field_invariants(E.__class__, E._get(E))


def desc_from_values(kind, values):
    """The descriptor of class `kind` whose `_get` gives `values`: field
    memos key on (class, `_get`), which hash and compare in C."""
    return kind(*values) if len(kind._fields) > 1 else kind(values)


@memo("numfields.field_invariants", 1024)
def _field_invariants(kind, values) -> FieldInvariants:
    E = desc_from_values(kind, values)
    if isinstance(E, RealQuadratic):
        if E.d < 2:
            raise DescriptorError("real quadratic needs d >= 2")
        primes = _check_squarefree(E.d, "d")
        return FieldInvariants(2, SquareClass(E.d, primes), False, None)
    if isinstance(E, ImagQuadratic):
        primes = _check_squarefree(E.D, "D")
        return FieldInvariants(2, SquareClass(-E.D, primes), True, 1)
    if isinstance(E, Cyclotomic):
        if E.n < 3:
            raise DescriptorError("cyclotomic needs n >= 3")
        phi = euler_phi(E.n)
        return FieldInvariants(phi, cyclotomic_disc_class(E.n), True, phi // 2)
    if isinstance(E, GeneralTotallyReal):
        f = E.poly()
        _require_totally_real(f)
        disc = poly_disc_class(f)
        if E.supplied_disc is not None:
            if squarefree_class(E.supplied_disc) != disc:
                raise DescriptorError(
                    f"supplied discriminant class {E.supplied_disc} "
                    f"contradicts the computed class {disc.n}")
        return FieldInvariants(f.degree, disc, False, None)
    if isinstance(E, GeneralCM):
        f = E.poly()
        _require_totally_real(f)
        return FieldInvariants(2 * f.degree, squarefree_class(E.disc_class),
                               True, f.degree)


def _require_totally_real(f: Poly) -> None:
    if not f.is_monic() or f.degree < 1:
        raise DescriptorError("minimal polynomial must be monic nonconstant")
    # a repeated root would otherwise read as a missing real root
    if poly_gcd(f, f.deriv()).degree >= 1:
        raise DescriptorError("minimal polynomial is not squarefree")
    if count_real_roots(f) != f.degree:
        raise DescriptorError("minimal polynomial is not totally real")


# ---------------------------------------------------------------------------
# split primes of a CM field

IN, OUT, UNKNOWN = "in", "out", "unknown"


def in_SE(E, p: int) -> str:
    """Membership of a finite prime in the split set of a CM field: the
    primes where the field degenerates to two copies of its real subfield
    after completion.

    Imaginary quadratic and cyclotomic fields are fully decidable: membership
    is whether complex conjugation avoids the decomposition group at p.  For
    p prime to n that group is generated by p in (Z/n)*; for p | n it is the
    full inertia factor times the same Frobenius data modulo the prime-to-p
    part.  General CM descriptors answer from their assertion table only.
    Memoized on the field's class and values, as `field_invariants` is.
    """
    if not (isinstance(p, int) and is_prime(p)):
        raise ValueError(f"not a finite prime: {p!r}")
    if not isinstance(E, (ImagQuadratic, Cyclotomic, GeneralCM)):
        raise ValueError("split-prime sets only make sense for CM fields")
    return _in_SE(E.__class__, E._get(E), p)


@memo("numfields.in_SE", 4096)
def _in_SE(kind, values, p: int) -> str:
    E = desc_from_values(kind, values)
    if isinstance(E, ImagQuadratic):
        # -D is the field's discriminant class
        return IN if is_square_at(field_invariants(E).disc_class, p) else OUT
    if isinstance(E, Cyclotomic):
        n = E.n
        while n % p == 0:
            n //= p
        if n <= 2:
            # pure prime-power level (or twice one): conjugation sits inside
            # inertia itself, so the completion never splits
            return OUT
        seen = set()
        x = p % n
        while x not in seen:
            seen.add(x)
            x = x * p % n
        return OUT if (n - 1) in seen else IN
    # a general CM field answers from its assertion table
    for q, flag in E.se_assertions:
        if q == p:
            return IN if flag else OUT
    return UNKNOWN


# ---------------------------------------------------------------------------
# norms and totally positive norms from quadratic fields


def norm_obstruction(d, a, totally_positive: bool):
    """The place that keeps the rational a from being a norm from Q(sqrt(d)),
    or a totally positive one when `totally_positive` is set; None when a
    is one.  Purely local: the symbol (a, d) must vanish everywhere, and
    only finitely many places can carry it.  The place named is the real
    place for a nonpositive a where positivity is asked, else the smallest
    odd prime where (a, d) is nontrivial, else 2.  Either argument may be a
    square class; one that carries its primes is not factored again, and a
    bare d or a is factored once.

    >>> norm_obstruction(3, 3, False), norm_obstruction(2, -1, True)
    (3, inf)
    """
    if totally_positive:
        if (d.n if isinstance(d, SquareClass) else d) < 2:
            raise ValueError("need a real quadratic field")
        if (a.n if isinstance(a, SquareClass) else Fraction(a)) <= 0:
            return INF
    if not isinstance(d, SquareClass):
        if d in (0, 1):
            raise ValueError("need a nonsquare d")
        d = SquareClass(d, _check_squarefree(abs(d), "d"))
    elif d.n == 1:
        raise ValueError("need a nonsquare d")
    if not isinstance(a, SquareClass):
        a = Fraction(a)
        if a == 0:
            raise ValueError("norm test needs a nonzero rational")
        a = squarefree_class(a)
    support = support_at(a.n, d.n, a.primes() + d.primes())
    if not support:
        return None
    # an even support without an odd prime is {2, INF}
    return min((p for p in support if p not in (2, INF)), default=2)


def is_norm_quadratic(d, a) -> bool:
    """Is the rational a a norm from Q(sqrt(d))?  See `norm_obstruction`.

    >>> is_norm_quadratic(5, -1)
    True
    >>> is_norm_quadratic(3, 3)
    False
    """
    return norm_obstruction(d, a, False) is None


def lambda_plus_quadratic(d, a) -> bool:
    """Is the class of a the norm class of a totally positive element of
    Q(sqrt(d))?  For real quadratic fields this is exactly "positive and a
    norm": a norm of positive rational value is the norm of a totally
    positive or totally negative element, and the latter negates into the
    former without changing the norm.  See `norm_obstruction`.
    """
    return norm_obstruction(d, a, True) is None


def verify_lambda_plus_witness(E, m: int, target: SquareClass,
                               alpha: Poly) -> bool:
    """Certificate check for det(U) lying in Lambda+ * disc^m over a totally
    real field: alpha (a polynomial in the field generator) must be totally
    positive, and N(alpha) * disc^m must land in the target square class.

    Exact throughout: positivity via one Sturm-Tarski query per real root,
    the norm via a resultant.
    """
    # memoized: checks total realness and gives the discriminant class
    inv = field_invariants(E)
    if inv.is_cm:
        raise ValueError("witness verification is for totally real fields")
    f = E.poly()
    red = alpha.rem(f)
    if red.is_zero():
        raise ValueError("witness is zero in the field")
    signs = signs_at_real_roots(f, red)
    if any(s < 0 for s in signs):
        return False
    n = norm_via_resultant(f, red)
    if n == 0:
        raise ValueError("witness is a zero divisor (minpoly not irreducible?)")
    got = squarefree_class(n) * (inv.disc_class if m % 2 else SquareClass(1))
    return got == target


# ---------------------------------------------------------------------------
# JSON descriptors


def _se_table(pairs, what: str) -> tuple:
    """A split-set table: a JSON array of [prime, boolean] pairs."""
    table = []
    for pair in pairs:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or type(pair[1]) is not bool):
            raise TypeError(
                f"se entries are [prime, boolean] pairs, got {pair!r}")
        table.append((json_int(pair[0], "se prime"), pair[1]))
    json_array(pairs, what)     # a string or an object iterates too
    return tuple(table)


#: each descriptor kind: its class, whose constructor takes the values read
#: in order, the reader of each key besides "kind", and the keys it needs
_DESCRIPTORS = {
    "real_quadratic": (RealQuadratic, {"d": json_int}, ("d",)),
    "imag_quadratic": (ImagQuadratic, {"D": json_int}, ("D",)),
    "cyclotomic": (Cyclotomic, {"n": json_int}, ("n",)),
    "general_tr": (GeneralTotallyReal, {"minpoly": json_minpoly,
                                        "disc": json_int}, ("minpoly",)),
    "general_cm": (GeneralCM, {"minpoly": json_minpoly, "disc": json_int,
                               "se": _se_table}, ("minpoly", "disc")),
}


def desc_from_json(obj) -> object:
    """The descriptor of a JSON field descriptor; a descriptor already read
    is returned as it is."""
    if isinstance(obj, NumberFieldDesc):
        return obj
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DescriptorError("field descriptor must be an object with 'kind'")
    obj = dict(obj)
    kind = obj.pop("kind")
    shape = _DESCRIPTORS.get(kind) if isinstance(kind, str) else None
    if shape is None:
        raise DescriptorError(f"unknown field kind {kind!r}")
    cls, readers, required = shape
    try:
        return cls(*json_object(obj, readers, required).values())
    except (KeyError, TypeError, ValueError) as err:
        raise DescriptorError(f"malformed {kind} descriptor: {err}") from err
