"""Geometry-facing layer: the ambient second-cohomology forms of the known
hyperkahler deformation types, realizability of real/complex multiplication
on them with family dimensions and Picard ranks, compatibility with a
prescribed Picard lattice, elliptic-fibration verdicts, Hodge-group labels,
and a registry of named example cases.

Everything here reduces to the transfer feasibility engines; the geometric
input is only which ambient form to use and how to count moduli.
"""

from __future__ import annotations

from functools import partial

from .exact import (
    Record, SchemaError, SquareClass, json_int, json_object, json_str, memo,
)
from .numfields import (
    Cyclotomic,
    RealQuadratic,
    desc_from_json,
    field_invariants,
)
from .qforms import (
    QuadraticForm,
    complement_invariants,
    hyperbolic_sum,
    invariants,
    represents_zero,
    validate_invariants,
    form_from_json,
    invariants_to_json,
    place_str,
    rational_str,
)
from .transfer import (
    TransferVerdict,
    check_mode,
    cm_transfer_feasible,
    infeasible,
    rm_rank_verdict,
    rm_transfer_feasible,
    split_transfer_feasible,
    verdict_to_json,
)


# ---------------------------------------------------------------------------
# ambient spaces


class AmbientSpace(Record):
    """`family` is k3, kummer, og6, hilbk3 or og10; `n` is half the complex
    dimension where it varies."""

    __slots__ = _fields = ("family", "n", "b2", "rational_form",
                           "integral_label")

    @property
    def scaled_line(self) -> int | None:
        """The 2k of a trailing <-2k> line, where the family has one."""
        if self.family == "kummer":
            return 2 * self.n + 2
        if self.family == "hilbk3":
            return 2 * self.n - 2
        return None


def _negatives(count: int) -> QuadraticForm:
    return QuadraticForm.make([-1] * count)


@memo("k3hk.ambient", 256, typed=True)
def ambient(family: str, n: int | None = None) -> AmbientSpace:
    """The rational second-cohomology form of one of the known deformation
    types, by family name.  Kummer and hilbk3 need the half-dimension n >= 2.

    Memoized: the returned space is frozen, and an invalid family or n raises
    again on every call.  Keys are typed, so n = 2 and n = 2.0 do not share
    an entry (their labels differ).
    """
    key = family.strip().lower()
    if key in ("kummer", "hilbk3"):
        if n is None:
            raise ValueError(f"{key} needs n")
        if n < 2:
            raise ValueError(f"{key} needs n >= 2")
    elif n is not None:
        raise ValueError(f"{key} does not take n")
    if key == "k3":
        form = hyperbolic_sum(3).direct_sum(_negatives(16))
        return AmbientSpace("k3", None, 22, form, "H^3+E8^2")
    if key == "kummer":
        form = hyperbolic_sum(3).direct_sum(QuadraticForm.make([-2 * n - 2]))
        return AmbientSpace("kummer", n, 7, form, f"H^3+<{-2 * n - 2}>")
    if key == "og6":
        form = hyperbolic_sum(3).direct_sum(QuadraticForm.make([-1, -1]))
        return AmbientSpace("og6", None, 8, form, "H^3+<-2,-2>")
    if key == "hilbk3":
        form = hyperbolic_sum(3).direct_sum(_negatives(16)).direct_sum(
            QuadraticForm.make([-2 * n + 2]))
        return AmbientSpace("hilbk3", n, 23, form, f"H^3+E8^2+<{-2 * n + 2}>")
    if key == "og10":
        form = hyperbolic_sum(3).direct_sum(_negatives(16)).direct_sum(
            QuadraticForm.make([-2, -6]))
        return AmbientSpace("og10", None, 24, form, "H^3+E8^2+A2")
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# realizability reports


class RealizabilityReport(Record):
    """`mode` is rm or cm; `family_dimension` is an int, or "countable" for
    CM rank 1."""

    __slots__ = _fields = ("mode", "family_dimension", "pic_rank",
                           "hodge_group_label", "notes", "verdict")

    @property
    def status(self) -> str:
        """feasible | infeasible | needs_witness, as the verdict says."""
        return self.verdict.status

    @property
    def feasible(self) -> bool:
        return self.verdict.feasible


def hodge_group_label(E, m: int) -> str:
    """Hodge/special Mumford-Tate group of a rank-m structure over E, as a
    restriction-of-scalars label."""
    return _hodge_label(field_invariants(E), m)


def _hodge_label(finv, m: int) -> str:
    """`hodge_group_label` from the invariants of E."""
    group = "U" if finv.is_cm else "SO"
    return f"Res_{{E/Q}} {group}(W), m={m}"


class _FamilyText(Record):
    """What a report prints differently from one family to the next:
    `cm_bound` is the md bound a CM report names (b2 - 1 when None),
    `even_b2_note` adds "even field degree tightens the bound", and
    `square_disc_note` the K3 note at md = cm_bound."""

    __slots__ = _fields = ("cm_bound", "rank1_cm", "even_b2_note",
                           "square_disc_note", "rm_note")
    _defaults = (None, "countably many manifolds", True, False, None)


# CM fields have even degree, so for K3 the named bound 20 cuts the same
# rows as b2 - 1 = 21
_FAMILY_TEXT = {
    "k3": _FamilyText(cm_bound=20,
                      rank1_cm="countably many surfaces, each defined over "
                               "a number field",
                      even_b2_note=False, square_disc_note=True),
    "og6": _FamilyText(rm_note="with b2 = 8 the bounds leave only degree 2, "
                               "rank 3"),
}
# the text of every other family
_DEFAULT_TEXT = _FamilyText()


def k3_realizable(E, m: int, mode: str) -> RealizabilityReport:
    """Does some projective K3 surface carry real (rm) or complex (cm)
    multiplication by E acting with rank m on the transcendental part?"""
    return hk_realizable("k3", None, E, m, mode)


def hk_realizable(family: str, n: int | None, E, m: int,
                  mode: str) -> RealizabilityReport:
    """Realizability of real (rm) or complex (cm) multiplication by E with
    rank m on the ambient of a deformation type, K3 included: the one
    report of `hk_reports` for this m."""
    return next(hk_reports(family, n, E, mode, (m,)))


def hk_reports(family: str, n: int | None, E, mode: str, ms):
    """Yield a fresh `hk_realizable` report for each rank m in `ms`.  The
    mode, the field and the ambient are checked and looked up once, at the
    first report; a rank below 1 raises when its turn comes.

    Bounds first (rank below 3 in rm, or md above b2 - 1, give infeasible
    reports, not errors); a projective member needs at least one positive
    algebraic class left over.  Then the splitting engine on the ambient
    decides and certifies each rank.
    """
    mode, finv = check_mode(mode, E)
    amb = ambient(family, n)
    text = _FAMILY_TEXT.get(amb.family, _DEFAULT_TEXT)
    r = amb.b2
    bound = r - 1
    if mode == "cm" and text.cm_bound is not None:
        bound = text.cm_bound
    cell_notes = []
    if mode == "cm" and text.even_b2_note and r % 2 == 0:
        cell_notes.append(
            f"even field degree tightens the bound to md <= {r - 2}")
    if mode == "rm" and text.rm_note is not None:
        cell_notes.append(text.rm_note)
    for m in ms:
        if m < 1:
            raise ValueError("rank must be positive")
        md = m * finv.degree
        if mode == "rm" and m < 3:
            verdict = rm_rank_verdict(m)
        elif md > bound:
            verdict = infeasible("dimension-bound", f"md = {md} > {bound}")
        else:
            verdict = None
        if verdict is not None:
            yield RealizabilityReport(mode, 0, None, None,
                                      (verdict.obstruction["detail"],), verdict)
            continue
        notes = list(cell_notes)
        if (mode == "cm" and m == 1 and text.square_disc_note
                and md == bound and finv.disc_class == SquareClass(1)):
            notes.append("square discriminant at full dimension: the rank-2 "
                         "algebraic part is rationally hyperbolic, realized "
                         "by rescaled hyperbolic planes (infinitely many "
                         "surfaces, all elliptic)")
        if mode == "cm" and m == 1:
            notes.append("rank 1 over the field: " + text.rank1_cm)
        verdict = split_transfer_feasible(amb.rational_form, E, m, mode)
        if verdict.status == "infeasible":
            notes.append(str(verdict.obstruction))
            yield RealizabilityReport(mode, 0, None, None, (*notes,), verdict)
            continue
        if verdict.status == "needs_witness":
            notes.append("undecided: " + str(verdict.obstruction))
        dim = m - 2 if mode == "rm" else m - 1 if m >= 2 else "countable"
        yield RealizabilityReport(mode, dim, r - md, _hodge_label(finv, m),
                                  tuple(notes), verdict)


def report_to_json(rep: RealizabilityReport) -> dict:
    return {
        **verdict_to_json(rep.verdict),
        "mode": rep.mode,
        "family_dim": rep.family_dimension,
        "pic_rank": rep.pic_rank,
        "hodge_group": rep.hodge_group_label,
        "notes": list(rep.notes),
    }


# ---------------------------------------------------------------------------
# Picard-lattice compatibility


def picard_compatible(L: QuadraticForm, E, m: int, mode: str,
                      witness=None) -> TransferVerdict:
    """Can a K3 surface with rational Picard form L (signature (1, rank-1),
    rank + m*degree = 22) have multiplication by E of rank m on the
    transcendental side?  The caller asserts that an integral model of L
    embeds primitively into the K3 lattice.

    Both modes run the invariants of the complement C of L in the K3
    ambient through the mode's transfer criterion, with no form built.

    rm: an inadmissible C raises.  Over real quadratic fields the literal
    published phrasing of the even-degree condition disagrees in sign with
    the derived one; then the derived route wins and a warning is attached.

    cm: `cm_transfer_feasible(E, C)`, with C unvalidated, its (ii) named
    `disc` and its (iii) `split-prime-hyperbolic`: the K3 ambient is
    hyperbolic over every Q_p, so L is hyperbolic there exactly where C is.
    """
    mode, finv = check_mode(mode, E)
    li = invariants(L)
    d = finv.degree
    md = m * d
    if li.dim + md != 22:
        raise ValueError(f"rank {li.dim} + md {md} must equal 22")
    if li.signature != (1, li.dim - 1):
        raise ValueError(f"Picard form must have signature (1, {li.dim - 1})")
    if mode == "rm" and m < 3:
        return rm_rank_verdict(m)
    ci = complement_invariants(invariants(ambient("k3").rational_form), li)

    if mode == "rm":
        validate_invariants(ci)
        verdict = rm_transfer_feasible(E, ci, witness=witness)
        if d % 2 == 0 and isinstance(E, RealQuadratic):
            verdict = _attach_shortcut_warning(verdict)
        return verdict

    verdict = cm_transfer_feasible(E, ci)
    if verdict.feasible:
        verdict.certificate["picard_invariants"] = invariants_to_json(li)
        return verdict
    condition = verdict.obstruction.get("condition")
    if condition == "(ii)":
        want = finv.disc_class if m % 2 else SquareClass(1)
        return infeasible("disc", f"disc class {li.disc().n} differs from "
                                  "the m-th power of the field discriminant "
                                  f"class ({want.n})")
    if condition == "(iii)":
        p = verdict.obstruction["place"]
        return infeasible("split-prime-hyperbolic",
                          f"Picard form is not hyperbolic over Q_{p}", p)
    return verdict


def _attach_shortcut_warning(verdict: TransferVerdict) -> TransferVerdict:
    # L has even rank and signature (1, odd), so det(L) * disc < 0 and the
    # published phrasing is always False: only a feasible verdict disagrees
    if verdict.status != "feasible":
        return verdict
    cert = dict(verdict.certificate)
    cert.setdefault("warnings", []).append(
        "published even-degree phrasing (det(L) * disc in the totally "
        "positive norm classes) evaluates to False; the derived complement "
        "route decides True and is authoritative")
    return TransferVerdict(verdict.status, cert, verdict.obstruction)


# ---------------------------------------------------------------------------
# elliptic fibrations


def _part(reader, value, key: str):
    """`reader(value)` for a value of a context, its error named by the key."""
    try:
        return reader(value)
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"context {key}: {err}") from err


def _one_of(values: tuple, rule: str):
    """A reader of a context integer that only `values` can be, by `rule`:
    any other integer is refused, and the error names them."""
    named = ", ".join(map(str, values[:-1])) + f" or {values[-1]}"

    def read(value, key: str) -> int:
        n = json_int(value, key)
        if n not in values:
            raise ValueError(f"{key} must be {rule} ({named}), got {n}")
        return n
    return read


#: each case of an elliptic context, with the readers of the keys it needs:
#: a rank-2 algebraic part leaves md = 20 to a CM field, of even degree, and
#: CM of rank m by a degree-4 field leaves the Picard rank 22 - 4m
ELLIPTIC_KEYS = {
    "small-degree": {"degree": _one_of((2, 4, 10, 20),
                                       "an even divisor of 20")},
    "degree-20": {"field": partial(_part, desc_from_json)},
    "degree-4": {"field": partial(_part, desc_from_json),
                 "rho": _one_of((2, 6, 10, 14, 18),
                                "22 - 4m for m = 1, ..., 5")},
    "picard-form": {"form": partial(_part, form_from_json)},
}
ELLIPTIC_CASES = tuple(ELLIPTIC_KEYS)


def elliptic_context(context) -> dict:
    """`context` read by the keys of its case, its field a descriptor and its
    form a QuadraticForm; idempotent.  A bad field or form is a SchemaError."""
    if not isinstance(context, dict):
        raise ValueError("must be an object with 'case'")
    case = context.get("case")
    if case not in ELLIPTIC_CASES:
        raise ValueError(f"case must be one of {', '.join(ELLIPTIC_CASES)}; "
                         f"got {case!r}")
    readers = ELLIPTIC_KEYS[case]
    return json_object(context, {"case": json_str, **readers}, readers)


def elliptic_fibration_verdict(context: dict) -> dict:
    """Elliptic-fibration existence for the cases of `ELLIPTIC_KEYS`, read
    by `elliptic_context`.  Small-degree (rank-2 algebraic part, CM of that
    degree) reads degree 2, 4, 10 or 20 and decides 2 and 10 only.  A field
    that is not CM of the case's degree or a Picard form not of rank 2
    raises ValueError."""
    context = elliptic_context(context)
    case = context["case"]
    if case == "small-degree":
        deg = context["degree"]
        if deg in (2, 10):
            return {"verdict": "yes",
                    "reason": "rank-2 algebraic part is rationally hyperbolic "
                              "(field discriminant power is a square)"}
        return {"verdict": "undetermined",
                "reason": f"no decided criterion for degree {deg} here"}
    if case == "picard-form":
        f = context["form"]
        if invariants(f).dim != 2:
            raise ValueError("picard-form case expects a rank-2 form")
        iso = represents_zero(f)
        if iso.isotropic:
            out = {"verdict": "yes",
                   "reason": "algebraic part represents zero"}
            if iso.witness is not None:
                out["witness"] = [rational_str(x) for x in iso.witness]
            return out
        return {"verdict": "no",
                "reason": "algebraic part does not represent zero",
                "obstruction_place": place_str(iso.obstruction)}
    finv = field_invariants(context["field"])
    degree = 20 if case == "degree-20" else 4
    if not finv.is_cm or finv.degree != degree:
        raise ValueError(f"{case} case needs a CM field of degree {degree}")
    if degree == 4 and context["rho"] >= 6:
        return {"verdict": "yes",
                "reason": "indefinite algebraic part of rank >= 6 "
                          "represents zero"}
    if finv.disc_class == SquareClass(1):
        return {"verdict": "yes", "reason": "square discriminant"}
    if degree == 20:
        return {"verdict": "no",
                "reason": f"discriminant class {finv.disc_class.n} is not a "
                          "square, so the rank-2 algebraic part cannot "
                          "represent zero"}
    return {"verdict": "no",
            "reason": f"rank {context['rho']} < 6 and discriminant class "
                      f"{finv.disc_class.n} is not a square"}


# ---------------------------------------------------------------------------
# named examples


class FamousExample(Record):
    __slots__ = _fields = ("key", "summary", "field", "m", "mode",
                           "elliptic_context", "transcendental", "expected")


def _double_sextic_transcendental() -> QuadraticForm:
    # determinant class 1, signature (2, 4): the rational transcendental
    # form of a double plane branched along six general lines
    return QuadraticForm.make([1, 1, -1, -1, -1, -1])


def famous_examples() -> dict:
    """Built-in named cases with their expected verdicts."""
    entries = [
        FamousExample(
            "kondo-44", "degree-20 cyclotomic CM with square discriminant",
            Cyclotomic(44), 1, "cm",
            {"case": "degree-20", "field": Cyclotomic(44)}, None,
            {"k3_feasible": True, "family_dim": "countable", "elliptic": "yes"}),
        FamousExample(
            "kondo-66", "degree-20 cyclotomic CM with square discriminant",
            Cyclotomic(66), 1, "cm",
            {"case": "degree-20", "field": Cyclotomic(66)}, None,
            {"k3_feasible": True, "family_dim": "countable", "elliptic": "yes"}),
        FamousExample(
            "vorontsov-25", "degree-20 cyclotomic CM, nonsquare discriminant",
            Cyclotomic(25), 1, "cm",
            {"case": "degree-20", "field": Cyclotomic(25)}, None,
            {"k3_feasible": True, "family_dim": "countable", "elliptic": "no"}),
        FamousExample(
            "double-sextic-d2", "double plane over six lines, RM by Q(sqrt 2)",
            RealQuadratic(2), 3, "rm", None, _double_sextic_transcendental(),
            {"rm_feasible": True}),
        FamousExample(
            "double-sextic-d5", "double plane over six lines, RM by Q(sqrt 5)",
            RealQuadratic(5), 3, "rm", None, _double_sextic_transcendental(),
            {"rm_feasible": True}),
        FamousExample(
            "double-sextic-d3",
            "double plane over six lines, RM by Q(sqrt 3) is obstructed",
            RealQuadratic(3), 3, "rm", None, _double_sextic_transcendental(),
            {"rm_feasible": False}),
        FamousExample(
            "nonsympl-order3",
            "non-symplectic order-3 automorphism: CM by the third cyclotomic",
            Cyclotomic(3), 10, "cm",
            {"case": "small-degree", "degree": 2}, None,
            {"k3_feasible": True, "family_dim": 9, "elliptic": "yes"}),
        FamousExample(
            "nonsympl-order5",
            "non-symplectic order-5 automorphism: degree-4 CM, "
            "very general algebraic rank 2",
            Cyclotomic(5), 5, "cm",
            {"case": "degree-4", "field": Cyclotomic(5), "rho": 2}, None,
            {"k3_feasible": True, "family_dim": 4, "elliptic": "no"}),
    ]
    return {e.key: e for e in entries}


def evaluate_famous(key: str) -> dict:
    """Run the queries a named example stands for and compare with its
    recorded expectations."""
    reg = famous_examples()
    if key not in reg:
        raise KeyError(f"unknown example {key!r}; known: {sorted(reg)}")
    ex = reg[key]
    results = {}
    if ex.transcendental is not None:
        v = rm_transfer_feasible(ex.field, ex.transcendental)
        results["rm_feasible"] = v.status == "feasible"
        results["rm_verdict"] = v
    else:
        rep = k3_realizable(ex.field, ex.m, ex.mode)
        results["k3_feasible"] = rep.feasible
        results["family_dim"] = rep.family_dimension
        results["report"] = rep
    if ex.elliptic_context is not None:
        ev = elliptic_fibration_verdict(ex.elliptic_context)
        results["elliptic"] = ev["verdict"]
        results["elliptic_reason"] = ev["reason"]
    matches = all(results.get(k) == v for k, v in ex.expected.items())
    return {"key": key, "summary": ex.summary, "results": results,
            "expected": ex.expected, "matches": matches}
