"""Trace-form transfer: turning forms over a number field E into rational
forms, predicting the invariants of the result, and deciding when a given
rational form (or an orthogonal summand of an ambient form) arises this way.

Feasibility verdicts are three-valued.  "feasible" and "infeasible" are
exact; "needs_witness" marks the honest cases where the descriptor does not
carry enough information (unknown split primes, or a totally-positive-norm
question over a field of even degree above 2 with no certificate supplied).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .exact import (
    INF,
    Record,
    SquareClass,
    is_square_at,
    memo,
    squarefree_class,
    support_at,
)
from .numfields import (
    OUT,
    UNKNOWN,
    FieldInvariants,
    GeneralTotallyReal,
    ImagQuadratic,
    RealQuadratic,
    desc_from_values,
    field_invariants,
    in_SE,
    norm_obstruction,
    verify_lambda_plus_witness,
)
from .poly import Poly, signs_at_real_roots
from .qforms import (
    FormInvariants,
    InvariantContradiction,
    QuadraticForm,
    diagonalize,
    form_from_invariants,
    hyperbolic_bit,
    hyperbolic_invariants,
    invariants,
    validate_invariants,
    _locally_hyperbolic_inv,
    form_to_json,
    invariants_to_json,
    rational_str,
)


class QuadFieldElement(Record):
    """a + b*sqrt(d) in a real quadratic field; d travels separately."""

    __slots__ = _fields = ("a", "b")

    @staticmethod
    def make(a, b) -> "QuadFieldElement":
        return QuadFieldElement(Fraction(a), Fraction(b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self, d: int) -> Fraction:
        return self.a * self.a - d * self.b * self.b


class TransferVerdict(Record):
    """`status` is feasible, infeasible or needs_witness.  A feasible verdict
    has a `certificate` dict, any other an `obstruction` dict that
    `infeasible` or `undecided` builds afresh.  A feasible split holds the
    parts of its certificate instead, rendered into a new dict at the first
    read and kept, so a grid row, which reads the route, renders none."""

    __slots__ = ("status", "_certificate", "obstruction")
    _fields = ("status", "certificate", "obstruction")
    _defaults = (None, None)

    @property
    def certificate(self) -> dict | None:
        cert = self._certificate
        if cert.__class__ is tuple:
            cert = _split_certificate(*cert)
            object.__setattr__(self, "_certificate", cert)
        return cert

    @certificate.setter
    def certificate(self, value):
        object.__setattr__(self, "_certificate", value)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def criterion(self) -> str | None:
        """A grid row's name for the verdict: a feasible one's route, else
        the obstruction's condition or reason.  Renders no certificate."""
        if self.status == "feasible":
            cert = self._certificate
            return cert[2] if cert.__class__ is tuple else cert.get("route")
        return self.obstruction.get("condition") or self.obstruction["reason"]


def infeasible(condition, detail=None, place=None, **more) -> TransferVerdict:
    """Refuted by `condition`: the obstruction holds it, then the `more`
    items, then `place` and `detail` unless None."""
    obstruction = {"condition": condition, **more}
    if place is not None:
        obstruction["place"] = place
    if detail is not None:
        obstruction["detail"] = detail
    return TransferVerdict("infeasible", None, obstruction)


def undecided(reason, primes=None) -> TransferVerdict:
    """Waiting on `reason`, and on `primes` unless None."""
    obstruction = {"reason": reason}
    if primes is not None:
        obstruction["primes"] = primes
    return TransferVerdict("needs_witness", None, obstruction)


def rm_rank_verdict(m: int) -> TransferVerdict:
    """The refutation of real multiplication of rank m below 3."""
    return infeasible("multiplicity", f"rank {m} over the field is below 3")


def verdict_to_json(v: TransferVerdict) -> dict:
    """The status, the feasible flag and whichever of the certificate and
    the obstruction the verdict has."""
    out = {"status": v.status, "feasible": v.feasible}
    if v.certificate is not None:
        out["certificate"] = v.certificate
    if v.obstruction is not None:
        out["obstruction"] = v.obstruction
    return out


class SignatureProfile(Record):
    """`per_embedding` holds (r, s) per real embedding (or conjugate pair),
    `multiplicity` is the rank of W over E, and `condition_ok` says there
    is one (2, m-2) slot and the rest are negative definite."""

    __slots__ = _fields = ("per_embedding", "multiplicity", "condition_ok")


# ---------------------------------------------------------------------------
# the transfers themselves


def transfer_quadratic(d: int, entries: Sequence[QuadFieldElement]) -> QuadraticForm:
    """Rational form of Tr(alpha_i x y) for a diagonal form <alpha_1, ...>
    over Q(sqrt(d)), on the basis (1, sqrt(d)) per entry.

    Each entry contributes the Gram block [[2a, 2bd], [2bd, 2ad]].
    """
    if d < 2:
        raise ValueError("need a real quadratic field (squarefree d >= 2)")
    if not entries:
        raise ValueError("empty form")
    blocks = []
    for e in entries:
        if e.is_zero():
            raise ValueError("degenerate entry 0 in the diagonal")
        a, b = e.a, e.b
        gram = [[2 * a, 2 * b * d], [2 * b * d, 2 * a * d]]
        blocks.append(diagonalize(gram))
    out = blocks[0]
    for blk in blocks[1:]:
        out = out.direct_sum(blk)
    return out


def transfer_hermitian_imagquad(D: int, entries: Sequence[Fraction]) -> QuadraticForm:
    """Rational form of Tr(lambda_i x conj(y)) for a diagonal hermitian form
    over Q(sqrt(-D)) with rational lambda_i, on the basis (1, sqrt(-D)).

    The off-diagonal trace vanishes, so each entry gives <2 lambda, 2 lambda D>.
    """
    if D < 1:
        raise ValueError("need an imaginary quadratic field (squarefree D >= 1)")
    if not entries:
        raise ValueError("empty form")
    diag = []
    for lam in entries:
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("degenerate entry 0 in the diagonal")
        diag += [2 * lam, 2 * lam * D]
    return QuadraticForm.make(diag)


def cm_twist_class(finv: FieldInvariants) -> SquareClass:
    """The square class ((-1)^(d/2) * disc) whose m-th power is the forced
    determinant of any CM transfer.  Always positive."""
    if not finv.is_cm:
        raise ValueError("the CM twist class needs a CM field")
    return -finv.disc_class if finv.half_degree % 2 else finv.disc_class


def predicted_invariants(E, m: int, norm_det_class: SquareClass | None = None):
    """(dimension, determinant class) of a rank-m transfer from E.

    Totally real fields need the norm class of the determinant of the form
    upstairs; CM fields do not (their transfer determinant is forced).
    """
    finv = field_invariants(E)
    if m < 1:
        raise ValueError("rank must be positive")
    dim = m * finv.degree
    if finv.is_cm:
        tw = cm_twist_class(finv)
        det = tw if m % 2 else SquareClass(1)
        return dim, det
    if norm_det_class is None:
        raise ValueError("totally real prediction needs the norm class of det W")
    disc_part = finv.disc_class if m % 2 else SquareClass(1)
    return dim, disc_part * norm_det_class


def bad_set(E, U) -> tuple:
    """Primes where the local behaviour of a transfer question can hide: 2,
    the primes of the form (diagonal entries, or determinant and Hasse
    support when only invariants are known), and the primes of the field
    discriminant."""
    finv = field_invariants(E)
    out = {2}
    if isinstance(U, FormInvariants):
        out.update(U.det.primes())
        out.update(p for p in U.hasse if p != INF)
    else:
        for c in U.classes():
            out.update(c.primes())
    out.update(finv.disc_class.primes())
    return tuple(sorted(out))


def split_prime_scan(E, primes, fails) -> tuple:
    """Scan `primes` against the split set of the CM field E, skipping the
    primes known to lie outside it.  Returns (hard, pending): the first prime
    known to lie in it where `fails(p)` holds, or None, and every prime of
    unknown membership where `fails(p)` holds."""
    hard = None
    pending = []
    for p in primes:
        status = in_SE(E, p)
        if status == OUT or not fails(p):
            continue
        if status == UNKNOWN:
            pending.append(p)
        elif hard is None:
            hard = p
    return hard, pending


# ---------------------------------------------------------------------------
# feasibility for a fully specified rational form


def cm_transfer_feasible(E, U) -> TransferVerdict:
    """Is U the transfer of some rank-m hermitian form over the CM field E?

    Exact translation of the realization conditions: dimension divisibility,
    the forced determinant class, hyperbolicity at the asserted split primes
    of the bad set, and an even signature pair.  Unknown split primes matter
    only where U is not already hyperbolic; those produce needs_witness.
    No prime outside the bad set needs a scan: there U has a unit
    determinant and a trivial Hasse bit, so with (ii) it is hyperbolic
    unless m is odd and disc(E) is a non-square unit, and then p cannot
    split, since a split prime gives E a square discriminant over Q_p.

    U may also be a bare invariant tuple; that allows probing invariants
    no genuine form can have (a lone odd-signature violation, say).
    """
    finv = check_mode("cm", E)[1]
    ui = U if isinstance(U, FormInvariants) else invariants(U)
    d = finv.degree
    if ui.dim % d != 0 or ui.dim == 0:
        raise ValueError(f"dimension {ui.dim} is not a positive multiple of "
                         f"the field degree {d}")
    m = ui.dim // d
    tw = cm_twist_class(finv)
    want_det = tw if m % 2 else SquareClass(1)

    # several conditions can fail at once (a wrong-sign determinant always
    # travels with an odd signature component); the verdict names the first
    # in the (ii)-(iii)-(iv) order and lists every one that failed
    violated = []
    if ui.det != want_det:
        violated.append(("(ii)", f"det class {ui.det.n} != required "
                                 f"{want_det.n}", None))
    hard, pending = split_prime_scan(
        E, bad_set(E, U), lambda p: not _locally_hyperbolic_inv(ui, p))
    if hard is not None:
        violated.append(("(iii)", f"not hyperbolic over Q_{hard} at an "
                                  "asserted split prime", hard))
    r, s = ui.signature
    if r % 2 or s % 2:
        violated.append(("(iv)", f"signature {ui.signature} not even", None))
    if violated:
        return infeasible(*violated[0], all_violated=[v[0] for v in violated])
    if pending:
        return undecided("split-set-unknown", pending)
    return TransferVerdict("feasible", {"m": m, "degree": d}, None)


def rm_transfer_feasible(E, U,
                         witness: Poly | None = None) -> TransferVerdict:
    """Is U (of signature (2, md-2), m >= 3) the transfer of a rank-m form
    over the totally real field E?

    Odd degree: always.  Even degree: exactly when det(U) * disc^m is the
    norm class of a totally positive element; decidable outright over
    quadratic fields, certificate-driven beyond.  U may be a form or its
    invariants, as in `cm_transfer_feasible`.
    """
    finv = check_mode("rm", E)[1]
    ui = U if isinstance(U, FormInvariants) else invariants(U)
    d = finv.degree
    if ui.dim % d != 0:
        raise ValueError(f"dimension {ui.dim} is not a multiple of the degree {d}")
    m = ui.dim // d
    if m < 3:
        raise ValueError("need rank at least 3 over the field")
    if ui.signature != (2, ui.dim - 2):
        raise ValueError(f"signature must be (2, {ui.dim - 2})")
    if d % 2 == 1:
        return TransferVerdict("feasible", {
            "m": m, "degree": d, "route": "odd-degree-transfer"}, None)
    target = ui.det * (finv.disc_class if m % 2 else SquareClass(1))
    if witness is not None and not isinstance(E, RealQuadratic):
        if verify_lambda_plus_witness(E, m, ui.det, witness):
            return TransferVerdict("feasible", {
                "m": m, "degree": d, "route": "even-degree-norm-class",
                "witness": [rational_str(c) for c in witness.coeffs]}, None)
        return undecided("witness-rejected")
    blocked = _norm_class_verdict(E, finv, target)
    if blocked is not None:
        return blocked
    return TransferVerdict("feasible", {
        "m": m, "degree": d, "route": "even-degree-norm-class",
        "norm_class": rational_str(target.n)}, None)


def _norm_class_verdict(E, finv, t: SquareClass) -> TransferVerdict | None:
    """What stops a transfer side of even degree that needs t to be the norm
    class of a totally positive element.  Over Q(sqrt(d)): None when t is
    one, else infeasible at the obstructing place.  Over any other field:
    needs_witness, since no test decides it there."""
    if not isinstance(E, RealQuadratic):
        return undecided("norm-class-witness-needed")
    place = norm_obstruction(finv.disc_class, t, True)
    if place is None:
        return None
    return infeasible("norm-class",
                      f"{t.n} is not a totally positive norm class", place)


# ---------------------------------------------------------------------------
# splitting an ambient form as transfer + complement


def check_mode(mode: str, E) -> tuple[str, FieldInvariants]:
    """The multiplication mode, normalized to 'rm' or 'cm' and checked
    against the kind of E, returned with the invariants of E."""
    mode = mode.strip().lower()
    if mode not in ("rm", "cm"):
        raise ValueError("mode must be 'rm' or 'cm'")
    finv = field_invariants(E)
    if mode == "rm" and finv.is_cm:
        raise ValueError("rm mode needs a totally real field")
    if mode == "cm" and not finv.is_cm:
        raise ValueError("cm mode needs a CM field")
    return mode, finv


def split_transfer_feasible(V: QuadraticForm, E, m: int,
                            mode: str) -> TransferVerdict:
    """Can the ambient form V be written as T(W) + V' with T(W) a rank-m
    transfer from E of signature (2, md-2)?

    One engine serves every ambient: write down the complement Hasse data
    that the local conditions force, derive the transfer-side invariants,
    and check them against the realization conditions for the requested
    mode.  In rm mode the transfer side takes the determinant disc^m *
    (-1)^md, which no field obstructs.  Distinguished shapes (hyperbolic
    complement, forced rank-1 complement) are named in the certificate.
    """
    mode, finv = check_mode(mode, E)
    if m < 1:
        raise ValueError("rank must be positive")
    vi = invariants(V)
    d = finv.degree
    md = m * d
    codim = vi.dim - md
    if codim < 1:
        raise ValueError(f"ambient of dimension {vi.dim} cannot split off "
                         f"a rank-{m} transfer of degree {d} with room left")
    if vi.signature[0] < 2:
        raise ValueError("ambient needs at least two positive squares")
    if vi.signature[1] < md - 2:
        return infeasible("signature", "ambient has too few negative squares")

    if mode == "rm":
        return _split_rm(vi, finv, m, md)
    return _split_cm(vi, E, finv, m, md, codim)


def _complement_target(vi: FormInvariants, det_u: SquareClass, md: int):
    dim = vi.dim - md
    det = vi.det * det_u
    sig = (vi.signature[0] - 2, vi.signature[1] - (md - 2))
    return dim, det, sig


def _hasse_candidates(vi, det_u, det_c, extra_primes=()):
    """Finite places worth touching when choosing the complement's Hasse
    set.  Places outside are left trivial by choice, not by force, so when
    parity needs one more place and every pool place is forced, no
    complement is found: the cm verdict on Q(zeta_60), m = 1, is then
    infeasible "(iii)", although the prime 59 would make it feasible."""
    pool = {2, 3, 5}
    pool.update(vi.det.primes())
    pool.update(det_u.primes())
    pool.update(det_c.primes())
    pool.update(p for p in vi.hasse if p != INF)
    pool.update(extra_primes)
    return tuple(sorted(pool))


def _class_key(c: SquareClass) -> tuple:
    """A square class as a memo key that hashes and compares in C: its
    representative and its primes, which the representative determines, so
    the key is one-to-one with the class.  `SquareClass(*key)` rebuilds it
    carrying its primes."""
    primes = c.known_primes
    return c.n, frozenset(c.primes()) if primes is None else primes


@memo("transfer.complement_base", 1024)
def _complement_base(vi, ukey, extra_primes):
    """What a complement choice reads but does not take from the rank md:
    det_u, det_c = det(V) det_u, the Hasse base w(V) + supp(det_u, det_c)
    that the complement's Hasse set moves to the transfer side's (Serre, A
    Course in Arithmetic, III.1.1), the candidate primes, -det_c and -det_u.
    Memoized on the key of `_choose_complement` without md and `want`: a
    cold grid pass makes 449 choices and 340 cm splits from 125 entries."""
    det_u = SquareClass(*ukey)
    det_c = vi.det * det_u
    base = vi.hasse ^ support_at(det_u.n, det_c.n,
                                 det_u.primes() + det_c.primes())
    return (det_u, det_c, base,
            _hasse_candidates(vi, det_u, det_c, extra_primes), -det_c, -det_u)


@memo("transfer.choose_complement", 4096)
def _choose_complement(vi, ukey, md, extra_primes, want_items):
    """The (complement invariants, transfer invariants) pair that adds up to
    V, given as its invariants, with the smallest complement Hasse set, ties
    broken lexicographically, or None when no Hasse choice is admissible.

    At each candidate prime the complement bit is forced by a rank-1 or
    rank-2 local constraint on either side, or by `want_items` (sorted
    (prime, bit) pairs: the Hasse bit the transfer side must carry at a
    candidate prime), or else free; the parity of the set is then fixed
    with the smallest free prime.  The candidate primes and the Hasse base
    do not depend on md; they come from `_complement_base`.  Memoized on
    the `_class_key` of det_u: the returned pair is frozen, and a grid pass
    asks the same question of each ambient again and again."""
    det_u, det_c, base, pool, minus_c, minus_u = _complement_base(
        vi, ukey, extra_primes)
    dim_c, _, sig_c = _complement_target(vi, det_u, md)
    if sig_c[0] < 0 or sig_c[1] < 0:
        return None
    want = dict(want_items)
    hasse_c, free = set(), []
    for p in pool:
        in_base = int(p in base)
        bits = set()
        if dim_c == 1 or (dim_c == 2 and is_square_at(minus_c, p)):
            bits.add(0)
        if md == 2 and is_square_at(minus_u, p):
            bits.add(in_base)
        if p in want:
            bits.add(in_base ^ want[p])
        if len(bits) > 1:
            return None
        if bits == {1}:
            hasse_c.add(p)
        elif not bits:
            free.append(p)
    if (sig_c[1] * (sig_c[1] - 1) // 2) % 2:
        hasse_c.add(INF)
    if len(hasse_c) % 2:
        if not free:
            return None
        hasse_c.add(free[0])
    ci = FormInvariants(dim_c, det_c, sig_c, frozenset(hasse_c))
    ui = FormInvariants(md, det_u, (2, md - 2), frozenset(base ^ ci.hasse))
    try:
        validate_invariants(ci)
        validate_invariants(ui)
    except InvariantContradiction:
        return None
    return ci, ui


def _split_rm(vi, finv, m, md):
    if m < 3:
        return rm_rank_verdict(m)
    d = finv.degree
    disc_m = finv.disc_class if m % 2 else SquareClass(1)
    # t measures det(U) against disc^m.  Its sign is forced, and t = 1 is a
    # totally positive norm; with t = +-1 a complement always exists: the
    # rank >= 3 transfer side is constrained only by parity and the real
    # place, which additivity settles
    t = SquareClass(1 if md % 2 == 0 else -1)
    found = _choose_complement(vi, _class_key(disc_m * t), md, (), ())
    if found is None:
        raise RuntimeError("rm split without an admissible complement (bug)")
    route, extra = "odd-degree-transfer", {"embedding_signature": [2, m - 2]}
    if d % 2 == 0:
        route = "even-degree-norm-class"
        extra["norm_class"] = rational_str(t.n)
    return TransferVerdict("feasible", (
        finv, m, route, *found, form_from_invariants(found[0]), extra), None)


@memo("transfer.cm_split", 4096)
def _cm_split(vi, kind, values, md):
    """The decision of a cm split.  It depends only on the ambient's
    invariants, the field's class and values (as its `_get` gives them, so
    that they hash in C) and md, and is memoized, so a warm row asks
    neither `in_SE` nor `_choose_complement`.

    The transfer side must be hyperbolic at every split prime where its
    Hasse set could be nontrivial.  Unknown primes are first taken as split;
    if that fails where the asserted ones alone pass, the verdict waits on
    the unknown primes.  Returns a tagged tuple: (complement invariants,
    transfer invariants, the forced det_u as text, whether det(V) det_u is
    the class -1) when a complement exists, else (None, the unknown primes
    that block it), with () when asserted primes block it."""
    E = desc_from_values(kind, values)
    finv = field_invariants(E)
    det_u = cm_twist_class(finv) if md // finv.degree % 2 else SquareClass(1)
    ukey = _class_key(det_u)
    disc_primes = finv.disc_class.primes()
    _, det_c, _, pool, _, _ = _complement_base(vi, ukey, disc_primes)
    want, want_in, unknowns = [], [], []
    for p in pool:
        status = in_SE(E, p)
        if status != OUT:
            pair = (p, hyperbolic_bit(md // 2, p))
            want.append(pair)
            if status == UNKNOWN:
                unknowns.append(p)
            else:
                want_in.append(pair)
    found = _choose_complement(vi, ukey, md, disc_primes, tuple(want))
    if found is not None:
        return (*found, rational_str(det_u.n), det_c.n == -1)
    if unknowns and _choose_complement(vi, ukey, md, disc_primes,
                                       tuple(want_in)) is not None:
        return None, tuple(unknowns)
    return None, ()


def _split_cm(vi, E, finv, m, md, codim):
    found = _cm_split(vi, E.__class__, E._get(E), md)
    if found[0] is None:
        if found[1]:
            return undecided("split-set-unknown", list(found[1]))
        return infeasible("(iii)", "no complement leaves the transfer side "
                                   "hyperbolic at the asserted split primes")
    ci, ui, forced, minus_one = found
    extra = {"forced_determinant": forced}
    if codim == 2:
        extra["complement_count"] = ("unique-hyperbolic" if minus_one
                                     else "infinite-family")
    return TransferVerdict("feasible", (
        finv, m, "split-prime-hyperbolic-pattern", ci, ui,
        form_from_invariants(ci), extra), None)


def _split_certificate(finv, m, route, ci, ui, complement, extra) -> dict:
    """A feasible split's certificate, rendered from its verdict's parts at
    the first read: both sides' invariants, the diagonal of `complement`
    (built with the verdict, which checks that it exists), the mode's own
    keys, and the complement's shape where it is distinguished.  Every part
    is rendered afresh, into new dicts and lists."""
    return {
        "m": m,
        "degree": finv.degree,
        "route": route,
        "transfer_invariants": invariants_to_json(ui),
        "complement_invariants": invariants_to_json(ci),
        "complement_diagonal": form_to_json(complement)["diagonal"],
        **extra,
        **_complement_shape(ci),
    }


def _complement_shape(ci) -> dict:
    """The certificate items that name the complement's shape, if it is
    distinguished."""
    if ci.dim == 1:
        return {"complement_shape": "forced-line",
                "forced_complement": rational_str(ci.det.n)}
    if ci.dim % 2 == 0 and ci == hyperbolic_invariants(ci.dim // 2):
        return {"complement_shape": "hyperbolic"}
    return {}


# ---------------------------------------------------------------------------
# distinguished rank-2 complement validators


def validate_cm_rank2_complement(E, a, twisted: bool) -> TransferVerdict:
    """Check a claimed rank-2 complement <a, a*disc> (twisted=False) or
    <a, 3a*disc> (twisted=True) against the split-prime symbol condition:
    (-1, -a) respectively (-3, -2a) must vanish at every asserted split
    prime of the bad set."""
    finv = check_mode("cm", E)[1]
    a = Fraction(a)
    if a == 0:
        raise ValueError("zero entry")
    sym = (-3, -2 * a) if twisted else (-1, -a)
    primes_a = squarefree_class(a).primes()
    # the constants -1, -2 and -3 add no prime beyond 2 and 3
    support = support_at(sym[0], sym[1], primes_a + (3,))
    pool = {2}
    pool.update(primes_a)
    pool.update(finv.disc_class.primes())
    pool.update(p for p in support if p != INF)
    hard, pending = split_prime_scan(E, sorted(pool), support.__contains__)
    if hard is not None:
        return infeasible("split-prime-symbol", place=hard)
    if pending:
        return undecided("split-set-unknown", pending)
    return TransferVerdict("feasible", {
        "entry": rational_str(a),
        "symbol": [rational_str(sym[0]), rational_str(sym[1])]}, None)


# ---------------------------------------------------------------------------
# signature profiles and condition (C)


def condition_C_profile(E, entries) -> SignatureProfile:
    """Per-embedding signature of the transfer of a diagonal form.

    Imaginary quadratic fields take nonzero rationals (hermitian diagonal).
    Totally real fields read the signs of their entries from one
    Sturm-Tarski chain per entry: general ones take polynomials in the
    generator, real quadratic ones nonzero QuadFieldElements, with
    a + b*sqrt(d) first.  condition_ok reports the distinguished shape:
    exactly one embedding of signature (2, m-2), every other one negative
    definite, and m at least 3 in the totally real case.
    """
    if not entries:
        raise ValueError("empty form")
    m = len(entries)
    if isinstance(E, ImagQuadratic):
        vals = [Fraction(x) for x in entries]
        if any(v == 0 for v in vals):
            raise ValueError("degenerate entry")
        pos = sum(1 for v in vals if v > 0)
        per = ((2 * pos, 2 * (m - pos)),)
        return SignatureProfile(per, m, per[0][0] == 2)
    if not isinstance(E, (RealQuadratic, GeneralTotallyReal)):
        raise ValueError("profiles need explicit real-embedding data; "
                         "unsupported descriptor kind")
    f = E.poly()
    sign_rows = []
    for g in entries:
        if isinstance(E, RealQuadratic):
            # a + b sqrt(d) is a - bx at the first root of x^2 - d, -sqrt(d)
            g = Poly.make([g.a, -g.b])
        elif not isinstance(g, Poly):
            raise ValueError("general totally real entries are polynomials")
        sign_rows.append(signs_at_real_roots(f, g))
    per = []
    for i in range(len(sign_rows[0])):
        pos = sum(1 for row in sign_rows if row[i] > 0)
        per.append((pos, m - pos))
    ok = (m >= 3 and sum(1 for p in per if p[0] == 2) == 1
          and sum(1 for p in per if p[0] == 0) == len(per) - 1)
    return SignatureProfile(tuple(per), m, ok)
