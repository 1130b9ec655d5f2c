"""Every place that builds an infeasible or needs_witness verdict, pinned by
the keys, their order and the text of its obstruction dict.

`hk_reports` writes `str(verdict.obstruction)` into a report's notes and the
goldens compare dicts, so the order of the keys is part of the answer.  Each
case below reaches one site (the rm split's multiplicity refutation is
pinned in `tests/test_verdict_owner.py`, with its new text).  The grid's
`criterion` column is checked against `_parent_row_criterion`, a verbatim
copy of the rule that read it out of the verdict before a verdict named
its own criterion.

A Hypothesis property shows that the published even-degree reading of
`picard_compatible` never disagrees with an infeasible verdict, so its
warning only ever lands in a certificate.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from traceforms import cli
from traceforms.exact import Poly, SquareClass
from traceforms.k3hk import ambient, hk_realizable, hk_reports, picard_compatible
from traceforms.numfields import (
    GeneralCM, GeneralTotallyReal, ImagQuadratic, RealQuadratic,
    field_invariants, lambda_plus_quadratic,
)
from traceforms.qforms import (
    FormInvariants, QuadraticForm, hyperbolic_sum, invariants,
)
from traceforms.transfer import (
    cm_transfer_feasible, rm_transfer_feasible, split_transfer_feasible,
    validate_cm_rank2_complement,
)

H3 = hyperbolic_sum(3)
QUARTIC = GeneralTotallyReal(minpoly=(2, 0, -4, 0, 1))
TWELVE = QuadraticForm.make([1, 1] + [-1] * 10)
K3 = ambient("k3").rational_form


def _cm(disc=5, table=()):
    """A general CM field over Q(sqrt 2) with a split-set table."""
    return GeneralCM(real_minpoly=(-2, 0, 1), disc_class=disc,
                     se_assertions=table)


def _form(*diagonal):
    return QuadraticForm.make(list(diagonal))


IMPOSSIBLE = ("no complement leaves the transfer side hyperbolic at the "
              "asserted split primes")

#: one query per site, and the items of the obstruction it gives
SITES = {
    # transfer.validate_cm_rank2_complement, the rank-2 complement check
    "rank2: asserted split prime": (
        lambda: validate_cm_rank2_complement(_cm(table=((3, True),)), 33,
                                             False),
        "infeasible", [("condition", "split-prime-symbol"), ("place", 3)]),
    "rank2: unknown split primes": (
        lambda: validate_cm_rank2_complement(_cm(), 33, False),
        "needs_witness",
        [("reason", "split-set-unknown"), ("primes", [2, 3, 11])]),
    # transfer.cm_transfer_feasible
    "cm: (ii) with (iv)": (
        lambda: cm_transfer_feasible(ImagQuadratic(1), _form(1, -3)),
        "infeasible",
        [("condition", "(ii)"), ("all_violated", ["(ii)", "(iv)"]),
         ("detail", "det class -3 != required 1")]),
    "cm: (iii)": (
        lambda: cm_transfer_feasible(ImagQuadratic(1), _form(1, -2, 5, -10)),
        "infeasible",
        [("condition", "(iii)"), ("all_violated", ["(iii)"]), ("place", 5),
         ("detail", "not hyperbolic over Q_5 at an asserted split prime")]),
    "cm: (iv)": (
        lambda: cm_transfer_feasible(ImagQuadratic(1), FormInvariants(
            20, SquareClass(1), (3, 17), frozenset())),
        "infeasible",
        [("condition", "(iv)"), ("all_violated", ["(iv)"]),
         ("detail", "signature (3, 17) not even")]),
    "cm: unknown split primes": (
        lambda: cm_transfer_feasible(_cm(), _form(1, 1, 1, 5)),
        "needs_witness",
        [("reason", "split-set-unknown"), ("primes", [2, 5])]),
    # transfer.rm_transfer_feasible and _norm_class_verdict
    "rm: witness rejected": (
        lambda: rm_transfer_feasible(QUARTIC, TWELVE,
                                     witness=Poly.make([0, 1])),
        "needs_witness", [("reason", "witness-rejected")]),
    "rm: norm class beyond quadratic fields": (
        lambda: rm_transfer_feasible(QUARTIC, TWELVE),
        "needs_witness", [("reason", "norm-class-witness-needed")]),
    "rm: norm class over Q(sqrt 3)": (
        lambda: rm_transfer_feasible(RealQuadratic(3),
                                     _form(1, 1, -1, -1, -1, -1)),
        "infeasible",
        [("condition", "norm-class"), ("place", 3),
         ("detail", "3 is not a totally positive norm class")]),
    # transfer.split_transfer_feasible
    "split: too few negative squares": (
        lambda: split_transfer_feasible(_form(1, 1, 1, 1, 1, 1, 1, -1),
                                        RealQuadratic(2), 3, "rm"),
        "infeasible",
        [("condition", "signature"),
         ("detail", "ambient has too few negative squares")]),
    # transfer._split_cm
    "split cm: unknown split primes": (
        lambda: split_transfer_feasible(K3, _cm(1), 2, "cm"),
        "needs_witness",
        [("reason", "split-set-unknown"), ("primes", [2, 3, 5])]),
    "split cm: (iii)": (
        lambda: split_transfer_feasible(
            K3, _cm(1, ((2, True), (3, True), (5, True))), 2, "cm"),
        "infeasible", [("condition", "(iii)"), ("detail", IMPOSSIBLE)]),
    # k3hk.hk_reports
    "hk: multiplicity": (
        lambda: hk_realizable("k3", None, RealQuadratic(2), 2, "rm").verdict,
        "infeasible",
        [("condition", "multiplicity"),
         ("detail", "rank 2 over the field is below 3")]),
    "hk: dimension bound": (
        lambda: hk_realizable("k3", None, RealQuadratic(10), 11,
                              "rm").verdict,
        "infeasible",
        [("condition", "dimension-bound"), ("detail", "md = 22 > 21")]),
    # k3hk.picard_compatible
    "picard rm: multiplicity": (
        lambda: picard_compatible(_form(1, *[-1] * 17), RealQuadratic(2), 2,
                                  "rm"),
        "infeasible",
        [("condition", "multiplicity"),
         ("detail", "rank 2 over the field is below 3")]),
    "picard cm: disc": (
        lambda: picard_compatible(_form(1, -3), ImagQuadratic(1), 10, "cm"),
        "infeasible",
        [("condition", "disc"),
         ("detail", "disc class 3 differs from the m-th power of the field "
                    "discriminant class (1)")]),
    "picard cm: asserted split prime": (
        lambda: picard_compatible(_form(5, -2, -10, -1, -1, -1),
                                  ImagQuadratic(1), 8, "cm"),
        "infeasible",
        [("condition", "split-prime-hyperbolic"), ("place", 5),
         ("detail", "Picard form is not hyperbolic over Q_5")]),
    "picard cm: unknown split primes": (
        lambda: picard_compatible(_form(3, -15), _cm(), 5, "cm"),
        "needs_witness",
        [("reason", "split-set-unknown"), ("primes", [2, 3, 5])]),
}


@pytest.mark.parametrize("name", SITES)
def test_obstruction_items_and_text(name):
    query, status, items = SITES[name]
    v = query()
    assert v.status == status
    assert v.certificate is None
    assert type(v.obstruction) is dict
    assert list(v.obstruction.items()) == items
    assert str(v.obstruction) == str(dict(items))


@pytest.mark.parametrize("name", SITES)
def test_each_call_builds_its_own_obstruction(name):
    query = SITES[name][0]
    first, second = query(), query()
    assert first.obstruction == second.obstruction
    assert first.obstruction is not second.obstruction
    for key, value in first.obstruction.items():
        if isinstance(value, list):
            assert value is not second.obstruction[key]
    first.obstruction["detail"] = "changed by a caller"
    assert query().obstruction == second.obstruction


def test_report_notes_carry_the_obstruction_text():
    bound = hk_realizable("k3", None, RealQuadratic(10), 11, "rm")
    assert bound.notes == ("md = 22 > 21",)
    rank = hk_realizable("k3", None, RealQuadratic(2), 2, "rm")
    assert rank.notes == ("rank 2 over the field is below 3",)
    blocked = hk_realizable("og6", None, _cm(-1), 1, "cm")
    assert blocked.status == "infeasible"
    assert blocked.notes == (
        "even field degree tightens the bound to md <= 6",
        "rank 1 over the field: countably many manifolds",
        "{'condition': '(iii)', 'detail': '" + IMPOSSIBLE + "'}")
    waiting = hk_realizable("k3", None, _cm(1), 2, "cm")
    assert waiting.status == "needs_witness"
    assert waiting.notes[-1] == ("undecided: {'reason': 'split-set-unknown', "
                                 "'primes': [2, 3, 5]}")


# ---------------------------------------------------------------------------
# the grid's criterion column


def _parent_row_criterion(v) -> str:
    if v.status == "feasible":
        cert = v.certificate or {}
        return cert.get("route", "within-bounds")
    obs = v.obstruction or {}
    return obs.get("condition") or obs.get("reason") or "unknown"


GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"


def test_grid_criterion_column_reads_the_verdict():
    cat = cli.load_catalog()
    families = cli.parse_families(GRID_FAMILIES)
    tally = Counter()
    for mode in ("rm", "cm"):
        fields = cli.catalog_fields(cat, mode)
        rows = cli.tabulate_rows(mode, families, fields, 23)
        verdicts = []
        for _, fam, n in sorted(families, key=lambda t: t[0]):
            for _, desc, degree in fields:
                ms = range(3 if mode == "rm" else 1, 23 // degree + 1)
                verdicts += [rep.verdict
                             for rep in hk_reports(fam, n, desc, mode, ms)]
        assert len(rows) == len(verdicts)
        for row, v in zip(rows, verdicts):
            assert row["status"] == v.status
            assert row["criterion"] == _parent_row_criterion(v)
            tally[mode, row["criterion"]] += 1
    assert tally == {
        ("cm", "split-prime-hyperbolic-pattern"): 340,
        ("rm", "even-degree-norm-class"): 270,
        ("rm", "dimension-bound"): 199,
        ("cm", "dimension-bound"): 178,
        ("rm", "odd-degree-transfer"): 28,
    }


# ---------------------------------------------------------------------------
# the shortcut warning of picard_compatible


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 14, 15]),
       m=st.integers(3, 10),
       data=st.data())
def test_shortcut_warning_only_meets_feasible_verdicts(d, m, data):
    # L has rank 22 - 2m, even, and signature (1, odd), so det(L) < 0 and the
    # published reading, det(L) * disc a totally positive norm, is False
    rank = 22 - 2 * m
    entries = data.draw(st.lists(
        st.integers(1, 30), min_size=rank, max_size=rank))
    L = _form(entries[0], *(-e for e in entries[1:]))
    E = RealQuadratic(d)
    disc = field_invariants(E).disc_class
    assert not lambda_plus_quadratic(disc, invariants(L).det * disc)
    v = picard_compatible(L, E, m, "rm")
    if v.feasible:
        assert v.obstruction is None
        assert len(v.certificate["warnings"]) == 1
        assert "authoritative" in v.certificate["warnings"][0]
    else:
        assert v.status == "infeasible"
        assert v.certificate is None
        assert "warnings" not in v.obstruction
