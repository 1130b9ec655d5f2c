"""Polynomials over Q with exact `Fraction` coefficients: gcds, squarefree
parts, Sturm chains, real-root isolation, the signs of one polynomial at the
roots of another (Sturm-Tarski) and resultant norms.  Only a field given by
a minimal polynomial needs this layer, so no form query loads it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from .exact import COUNTS, Rational, Record


class Poly(Record):
    """Univariate polynomial over Q, coefficients stored low degree first.

    `make` normalizes away trailing zeros; the zero polynomial is
    coeffs == ().
    """

    __slots__ = _fields = ("coeffs",)

    @staticmethod
    def make(cs: Iterable[Rational]) -> "Poly":
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial gets -1

    @property
    def lc(self) -> Fraction:
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: Rational) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly.make(x + y for x, y in zip(a, b))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    def scale(self, s: Rational) -> "Poly":
        s = Fraction(s)
        return Poly.make(c * s for c in self.coeffs)

    def deriv(self) -> "Poly":
        return Poly.make(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def divmod(self, other: "Poly") -> tuple:
        """(q, r) with self == q * other + r and deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r, d, low = list(self.coeffs), other.degree, other.coeffs[:-1]
        q = [Fraction(0)] * max(len(r) - d, 0)
        while len(r) > d:
            c = r.pop() / other.lc
            shift = len(r) - d
            q[shift] = c
            for i, oc in enumerate(low):
                r[shift + i] -= c * oc
            while r and r[-1] == 0:
                r.pop()
        return Poly.make(q), Poly.make(r)

    def rem(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def normalized(self) -> "Poly":
        """Content cleared by a positive rational: primitive integer
        coefficients, sign pattern untouched (Sturm chains rely on that)."""
        if self.is_zero():
            return self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        return Poly.make(Fraction(c, g) for c in ints)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    COUNTS["poly_gcd"] += 1
    while not g.is_zero():
        f, g = g, f.rem(g)
    if f.is_zero():
        return f
    return f.scale(1 / f.lc)


def squarefree_part(f: Poly) -> Poly:
    """f divided by gcd(f, f'), normalized monic; same set of roots, all
    simple."""
    if f.is_zero() or f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    out, r = f.divmod(poly_gcd(f, f.deriv()))
    if not r.is_zero():
        raise RuntimeError("inexact polynomial division (bug)")
    return out.scale(1 / out.lc)


def sturm_chain(p: Poly, q: Poly) -> list:
    """Signed remainder sequence of (p, q): p, q, then the negated remainder
    of the two before, down to the last nonzero term, which is gcd(p, q) up
    to a constant.  Every term is scaled by a positive rational to integer
    coefficients, which keeps arithmetic cheap and leaves signs untouched."""
    chain = [p.normalized(), q.normalized()]
    while chain[-1].degree >= 1:
        chain.append((-chain[-2].rem(chain[-1])).normalized())
    return [c for c in chain if not c.is_zero()]


def _variations(chain: Sequence[Poly], x: Rational) -> int:
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sturm_query(chain, lo, hi) -> int:
    """V(lo) - V(hi) for chain = sturm_chain(p, p' * q), neither end a root
    of p: the roots of p in (lo, hi] where q > 0, less those where q < 0
    (Sturm-Tarski; Basu, Pollack and Roy, Thm. 2.58).  With q = 1 it counts
    the distinct roots of p in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(f: Poly) -> int:
    """Integer Cauchy bound: every real root lies strictly inside (-B, B)."""
    lc = abs(f.lc)
    m = max(abs(c) for c in f.coeffs[:-1]) if f.degree >= 1 else Fraction(0)
    b = 1 + m / lc
    return int(b) + 1


def _split_point(f: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) where f does not vanish: the
    midpoint, moved halfway towards lo while it is a root."""
    m = (lo + hi) / 2
    while f(m) == 0:
        m = (lo + m) / 2
    return m


def isolate_real_roots(f: Poly) -> list:
    """Disjoint half-open intervals (lo, hi] with rational endpoints, each
    containing exactly one real root of f, ordered left to right.  No
    endpoint is a root.

    The polynomial is replaced by its squarefree part first, so multiple
    roots are isolated once.
    """
    return _isolate_squarefree(squarefree_part(f))


def _isolate_squarefree(g: Poly) -> list:
    """`isolate_real_roots` for a g that is already squarefree."""
    chain = sturm_chain(g, g.deriv())
    b = root_bound(g)
    lo, hi = Fraction(-b), Fraction(b)
    if g(lo) == 0 or g(hi) == 0:
        raise RuntimeError("root bound hit a root (bug)")
    out = []

    def rec(a, b2):
        n = _sturm_query(chain, a, b2)
        if n == 0:
            return
        if n == 1:
            out.append((a, b2))
            return
        m = _split_point(g, a, b2)
        rec(a, m)
        rec(m, b2)

    rec(lo, hi)
    return out


def count_real_roots(f: Poly) -> int:
    """Distinct real roots of a nonconstant f: one Sturm count over (-B, B]."""
    if f.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    b = root_bound(f)
    return _sturm_query(sturm_chain(f, f.deriv()), -b, b)


def signs_at_real_roots(f: Poly, g: Poly) -> tuple:
    """Sign of g at every real root of f, in increasing root order: the
    Sturm-Tarski query of one chain, sturm_chain(fs, fs' * (g mod fs)) with
    fs the squarefree part of f, on each isolating interval of fs.

    Rejects inputs with a shared root, where the sign would be 0.
    """
    if g.is_zero():
        raise ValueError("g is identically zero")
    fs = squarefree_part(f)
    chain = sturm_chain(fs, fs.deriv() * g.rem(fs))
    # fs is squarefree, so the chain ends in gcd(fs, g) up to a constant
    if chain[-1].degree >= 1:
        raise ValueError("f and g share a root")
    return tuple(_sturm_query(chain, lo, hi)
                 for lo, hi in _isolate_squarefree(fs))


def norm_via_resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) for monic f, i.e. the product of g over the roots of f.

    With f the minimal polynomial of a field generator, this evaluates the
    field norm of g(theta) without ever leaving Q.
    """
    if not f.is_monic():
        raise ValueError("norm computation requires a monic minimal polynomial")
    if f.degree < 1:
        raise ValueError("constant minimal polynomial")
    return _resultant(f, g)


def _resultant(f: Poly, g: Poly) -> Fraction:
    if g.is_zero():
        return Fraction(0)
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    r = f.rem(g)
    sign = -1 if (f.degree * g.degree) % 2 else 1
    if r.is_zero():
        return Fraction(0)
    return sign * g.lc ** (f.degree - r.degree) * _resultant(g, r)
