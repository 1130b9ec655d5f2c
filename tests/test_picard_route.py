"""`picard_compatible` in cm mode decides through `cm_transfer_feasible`,
the one cm criterion, on the complement C of the Picard form L in the K3
ambient.

The tests compare it with a verbatim copy of the cm branch it replaced,
which had its own discriminant test and scanned the primes of L's entries
with `is_locally_hyperbolic` on L.  The K3 ambient is hyperbolic over every
Q_p, so L is hyperbolic there exactly where C is; the two routes differ only
in the primes they scan.  A prime that the old route scanned and the new
one does not is odd, prime to disc(E), and has disc(E) a non-square: on a
field that exists it cannot split.

- Over every catalog imaginary quadratic and cyclotomic field, and every
  m with md <= 20, the rendered verdicts are equal, on random L whose
  complement may be inadmissible.
- Over `general_cm` descriptors the statuses are equal, and the new list
  of pending primes is a sublist of the old one.  A prime it drops is odd,
  prime to the discriminant class and a non-residue (Euler's criterion,
  computed here).
- A descriptor that asserts a split at such a prime describes no CM field.
  There, every answer that changed traces back to one of those primes.
- Every feasible cm split of the grid has a transfer side that
  `cm_transfer_feasible` accepts, so `_split_cm` states the same rule.
"""

import json
import random

from conftest import GRID_FAMILIES, GRID_MD_BOUND
from traceforms import cli
from traceforms.exact import SquareClass
from traceforms.k3hk import ambient, hk_reports, picard_compatible
from traceforms.numfields import GeneralCM, field_invariants
from traceforms.qforms import (
    InvariantContradiction,
    QuadraticForm,
    complement_invariants,
    invariants,
    invariants_from_json,
    invariants_to_json,
    is_locally_hyperbolic,
    validate_invariants,
)
from traceforms.transfer import (
    TransferVerdict,
    bad_set,
    check_mode,
    cm_transfer_feasible,
    infeasible,
    split_prime_scan,
    undecided,
    verdict_to_json,
)


#: the primes that the entries of a random Picard form are made of
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
DRAWS = 24

#: real subfields of general CM descriptors: Q(sqrt 2), Q(sqrt 3), Q(sqrt 5)
#: and the quartic Q(zeta_16)^+
REAL_MINPOLYS = ((-2, 0, 1), (-3, 0, 1), (-1, -1, 1), (2, 0, -4, 0, 1))
DISC_CLASSES = (1, 2, 3, 5, -1, -2, -3, -7, 10, -13)
TABLES = ((), ((3, True),), ((3, False),), ((5, True), (7, True)),
          ((2, True), (3, True), (5, True), (7, True), (11, True)))


# ---------------------------------------------------------------------------
# the parent's cm branch, verbatim


def _parent_split_prime_verdict(E, primes, fails, condition, certificate,
                                detail=lambda p: None):
    """The verdict of a criterion whose last condition is a split-prime
    scan: infeasible by `condition` at the scan's hard prime p, detailed by
    `detail(p)`, else needs_witness on its pending primes, else feasible
    with `certificate`."""
    hard, pending = split_prime_scan(E, primes, fails)
    if hard is not None:
        return infeasible(condition, detail(hard), hard)
    if pending:
        return undecided("split-set-unknown", pending)
    return TransferVerdict("feasible", certificate, None)


def _parent_picard_cm(L, E, m):
    """The parent's `picard_compatible(L, E, m, "cm")`."""
    mode, finv = check_mode("cm", E)
    li = invariants(L)
    d = finv.degree
    md = m * d
    if li.dim + md != 22:
        raise ValueError(f"rank {li.dim} + md {md} must equal 22")
    if li.signature != (1, li.dim - 1):
        raise ValueError(f"Picard form must have signature (1, {li.dim - 1})")

    want = finv.disc_class if m % 2 else SquareClass(1)
    if li.disc() != want:
        return infeasible("disc", f"disc class {li.disc().n} differs from "
                                  "the m-th power of the field discriminant "
                                  f"class ({want.n})")
    return _parent_split_prime_verdict(
        E, bad_set(E, L), lambda p: not is_locally_hyperbolic(L, p),
        "split-prime-hyperbolic",
        {"m": m, "degree": d, "picard_invariants": invariants_to_json(li)},
        lambda p: f"Picard form is not hyperbolic over Q_{p}")


# ---------------------------------------------------------------------------
# draws


def _entry(rng) -> int:
    n = 1
    for p in PRIMES:
        if rng.random() < 0.25:
            n *= p
    return n


def _picard_forms(rng, E, m, count=DRAWS):
    """`count` random diagonal forms of signature (1, rho - 1), rho = 22 -
    md.  Two in three have their last entry scaled so that the discriminant
    condition can hold; the rest keep whatever discriminant they drew."""
    finv = field_invariants(E)
    want = finv.disc_class if m % 2 else SquareClass(1)
    rho = 22 - m * finv.degree
    for _ in range(count):
        diag = [_entry(rng)] + [-_entry(rng) for _ in range(rho - 1)]
        if rng.random() < 2 / 3:
            diag[-1] *= abs((invariants(QuadraticForm.make(diag)).disc()
                             * want).n)
        yield QuadraticForm.make(diag)


def _ranks(E):
    d = field_invariants(E).degree
    return range(1, 20 // d + 1)


def _catalog_cm_fields():
    return [E for _, E, _ in cli.catalog_fields(cli.load_catalog(), "cm")]


def _admissible_complement(L) -> bool:
    ci = complement_invariants(invariants(ambient("k3").rational_form),
                               invariants(L))
    try:
        validate_invariants(ci)
    except InvariantContradiction:
        return False
    return True


def _rendered(v) -> str:
    return json.dumps(verdict_to_json(v))


def _cannot_split(D: int, p: int) -> bool:
    """p is odd, prime to D, and D is a non-residue mod p by Euler's
    criterion: a field of discriminant class D has a non-square discriminant
    over Q_p, and a split prime has a square one."""
    return p % 2 == 1 and D % p != 0 and pow(D % p, (p - 1) // 2, p) == p - 1


def _impossible_splits(E) -> set:
    """The primes that E asserts split and that cannot split."""
    D = field_invariants(E).disc_class.n
    return {p for p, flag in E.se_assertions if flag and _cannot_split(D, p)}


def _general_cm_fields():
    out = []
    for minpoly in REAL_MINPOLYS:
        for disc in DISC_CLASSES:
            for table in TABLES:
                out.append(GeneralCM(minpoly, disc, table))
    return out


# ---------------------------------------------------------------------------
# the comparisons


def test_catalog_fields_render_as_the_parent_branch():
    rng = random.Random(4747)
    count = inadmissible = 0
    statuses = set()
    for E in _catalog_cm_fields():
        for m in _ranks(E):
            for L in _picard_forms(rng, E, m):
                new = picard_compatible(L, E, m, "cm")
                old = _parent_picard_cm(L, E, m)
                assert _rendered(new) == _rendered(old), (E, m, L)
                count += 1
                inadmissible += not _admissible_complement(L)
                statuses.add((new.status, (new.obstruction or {}).get(
                    "condition")))
    assert count == 70 * DRAWS
    # the draws reach inadmissible complements and every verdict
    assert inadmissible > 0
    assert statuses == {("feasible", None), ("infeasible", "disc"),
                        ("infeasible", "split-prime-hyperbolic")}


def test_general_cm_statuses_agree_and_pending_lists_shrink():
    rng = random.Random(4748)
    count = shrunk = 0
    dropped_seen = set()
    for E in _general_cm_fields():
        if _impossible_splits(E):
            continue
        D = field_invariants(E).disc_class.n
        for m in _ranks(E):
            for L in _picard_forms(rng, E, m, DRAWS // 2):
                new = picard_compatible(L, E, m, "cm")
                old = _parent_picard_cm(L, E, m)
                count += 1
                assert new.status == old.status, (E, m, L)
                if new.status != "needs_witness":
                    assert _rendered(new) == _rendered(old), (E, m, L)
                    continue
                kept, was = new.obstruction["primes"], old.obstruction["primes"]
                assert kept == [p for p in was if p in kept], (E, m, L)
                for p in set(was) - set(kept):
                    assert _cannot_split(D, p), (E, p)
                    dropped_seen.add(p)
                shrunk += kept != was
    assert count > 2000
    # the comparison reaches lists that shrink
    assert shrunk > 0 and dropped_seen


def test_an_impossible_split_assertion_is_all_that_changes_an_answer():
    rng = random.Random(4749)
    changed = 0
    for E in _general_cm_fields():
        impossible = _impossible_splits(E)
        if not impossible:
            continue
        D = field_invariants(E).disc_class.n
        for m in _ranks(E):
            for L in _picard_forms(rng, E, m, DRAWS // 2):
                new = picard_compatible(L, E, m, "cm")
                old = _parent_picard_cm(L, E, m)
                if _rendered(new) == _rendered(old):
                    continue
                changed += 1
                if old.status == "infeasible":
                    # the parent refuted at an asserted split that no field
                    # with this discriminant has
                    assert old.obstruction["condition"] == \
                        "split-prime-hyperbolic"
                    assert old.obstruction["place"] in impossible, (E, m, L)
                    continue
                assert old.status == new.status == "needs_witness"
                kept, was = new.obstruction["primes"], old.obstruction["primes"]
                assert kept == [p for p in was if p in kept]
                for p in set(was) - set(kept):
                    assert _cannot_split(D, p), (E, p)
    assert changed > 0


def test_grid_cm_splits_pass_the_one_criterion():
    cat = cli.load_catalog()
    feasible = 0
    for _, family, n in cli.parse_families(GRID_FAMILIES):
        for _, E, d in cli.catalog_fields(cat, "cm"):
            ms = range(1, GRID_MD_BOUND // d + 1)
            for m, rep in zip(ms, hk_reports(family, n, E, "cm", ms)):
                if not rep.feasible:
                    continue
                feasible += 1
                ui = invariants_from_json(
                    rep.verdict.certificate["transfer_invariants"])
                v = cm_transfer_feasible(E, ui)
                assert v.status == "feasible", (family, n, E, m)
                assert v.certificate == {"m": m, "degree": d}
    assert feasible == 340
