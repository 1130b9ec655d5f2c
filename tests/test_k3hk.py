"""Geometry-layer tests: ambient forms, realizability grids over the bundled
field catalog, Picard compatibility, elliptic verdicts, named examples.

The grids are swept past their boundaries on purpose; feasibility has to
flip exactly where the dimension and multiplicity bounds say it does.
"""

import pytest

from traceforms.exact import SquareClass, squarefree_class
from traceforms.numfields import (
    Cyclotomic, GeneralTotallyReal, ImagQuadratic, RealQuadratic,
    field_invariants,
)
from traceforms.qforms import QuadraticForm, invariants
from traceforms.k3hk import (
    ambient, ambient_to_json, elliptic_fibration_verdict, evaluate_famous,
    famous_examples, hk_realizable, hodge_group_label, k3_realizable,
    picard_compatible, report_to_json,
)
from traceforms.transfer import cm_twist_class

# same inventory as the bundled catalog, spelled out so these tests do not
# depend on the data file
TR_FIELDS = (
    [RealQuadratic(d) for d in (2, 3, 5, 6, 7, 10, 13)]
    + [GeneralTotallyReal(minpoly=(-1, -3, 0, 1)),
       GeneralTotallyReal(minpoly=(1, 3, -3, -4, 1, 1)),
       GeneralTotallyReal(minpoly=(-1, 3, 6, -4, -5, 1, 1))]
)
CM_FIELDS = (
    [ImagQuadratic(D) for D in (1, 2, 3, 7)]
    + [Cyclotomic(n) for n in (5, 7, 9, 11, 12, 13, 15, 16, 20,
                               25, 27, 32, 33, 44)]
)


def test_ambient_table():
    k3 = ambient("k3")
    fi = invariants(k3.rational_form)
    assert (fi.dim, fi.det.n, fi.signature) == (22, -1, (3, 19))
    assert k3.integral_label == "H^3+E8^2"

    expected = [
        ("kummer", 2, 7, "H^3+<-6>", 6),
        ("kummer", 3, 7, "H^3+<-8>", 8),
        ("og6", None, 8, "H^3+<-2,-2>", None),
        ("hilbk3", 2, 23, "H^3+E8^2+<-2>", 2),
        ("hilbk3", 3, 23, "H^3+E8^2+<-4>", 4),
        ("og10", None, 24, "H^3+E8^2+A2", None),
    ]
    for family, n, b2, label, line in expected:
        amb = ambient(family, n)
        fi = invariants(amb.rational_form)
        assert amb.b2 == b2
        assert fi.dim == b2
        assert fi.signature == (3, b2 - 3)
        assert amb.integral_label == label
        assert amb.scaled_line == line

    js = ambient_to_json(ambient("kummer", 2))
    assert js["family"] == "kummer" and js["n"] == 2


def test_ambient_argument_errors():
    with pytest.raises(ValueError):
        ambient("k3", 2)
    with pytest.raises(ValueError):
        ambient("kummer")
    with pytest.raises(ValueError):
        ambient("hilbk3", 1)
    with pytest.raises(ValueError):
        ambient("enriques")


def test_k3_rm_grid():
    """Sweep every totally real catalog field across the multiplicity range:
    feasible exactly when m >= 3 and md <= 21."""
    rows = 0
    for E in TR_FIELDS:
        d = field_invariants(E).degree
        for m in range(1, 21 // d + 2):
            rep = k3_realizable(E, m, "rm")
            expect = m >= 3 and m * d <= 21
            assert rep.feasible == expect, (E, m)
            if expect:
                rows += 1
                assert rep.family_dimension == m - 2
                assert rep.pic_rank == 22 - m * d
                assert rep.status == "feasible"
            else:
                assert rep.status == "infeasible"
                reason = rep.verdict.obstruction["condition"]
                assert reason in ("multiplicity", "dimension-bound")
    assert rows == 64


def test_k3_cm_grid():
    rows = 0
    for E in CM_FIELDS:
        d = field_invariants(E).degree
        for m in range(1, 20 // d + 2):
            rep = k3_realizable(E, m, "cm")
            expect = m * d <= 20
            assert rep.feasible == expect, (E, m)
            if expect:
                rows += 1
                want_dim = "countable" if m == 1 else m - 1
                assert rep.family_dimension == want_dim
                assert rep.pic_rank == 22 - m * d
            else:
                assert rep.verdict.obstruction["condition"] == "dimension-bound"
    assert rows == 70


def test_k3_cm_square_disc_note():
    # full-dimension rank-1 CM with square discriminant: the leftover
    # algebraic plane is rationally hyperbolic
    rep = k3_realizable(Cyclotomic(44), 1, "cm")
    assert rep.feasible
    assert any("rationally hyperbolic" in note for note in rep.notes)
    assert any("countably many" in note for note in rep.notes)

    plain = k3_realizable(Cyclotomic(25), 1, "cm")
    assert plain.feasible
    assert not any("rationally hyperbolic" in n for n in plain.notes)


def test_k3_mode_validation():
    with pytest.raises(ValueError):
        k3_realizable(RealQuadratic(2), 3, "cm")
    with pytest.raises(ValueError):
        k3_realizable(ImagQuadratic(1), 3, "rm")
    with pytest.raises(ValueError):
        k3_realizable(ImagQuadratic(1), 0, "cm")
    with pytest.raises(ValueError):
        k3_realizable(ImagQuadratic(1), 1, "tm")


def test_hodge_group_labels():
    rep = k3_realizable(ImagQuadratic(1), 10, "cm")
    assert rep.hodge_group_label == "Res_{E/Q} U(W), m=10"
    assert hodge_group_label(RealQuadratic(2), 3) == "Res_{E/Q} SO(W), m=3"


HK_CASES = [("kummer", 2), ("kummer", 3), ("og6", None),
            ("hilbk3", 2), ("hilbk3", 3), ("og10", None)]


def test_hk_rm_grids():
    for family, n in HK_CASES:
        r = ambient(family, n).b2
        for E in TR_FIELDS:
            d = field_invariants(E).degree
            for m in range(1, (r - 1) // d + 2):
                rep = hk_realizable(family, n, E, m, "rm")
                expect = m >= 3 and m * d <= r - 1
                assert rep.feasible == expect, (family, n, E, m)
                if expect:
                    assert rep.family_dimension == m - 2
                    assert rep.pic_rank == r - m * d


def test_hk_cm_grids():
    for family, n in HK_CASES:
        r = ambient(family, n).b2
        for E in CM_FIELDS:
            d = field_invariants(E).degree
            for m in range(1, (r - 1) // d + 2):
                rep = hk_realizable(family, n, E, m, "cm")
                expect = m * d <= r - 1
                assert rep.feasible == expect, (family, n, E, m)
                if expect:
                    assert rep.pic_rank == r - m * d


def test_og6_rm_uniqueness():
    """With second Betti number 8 the bounds leave exactly one slot for real
    multiplication: quadratic fields at rank 3, Picard rank 2."""
    feasible = []
    for E in TR_FIELDS:
        d = field_invariants(E).degree
        for m in range(1, 6):
            rep = hk_realizable("og6", None, E, m, "rm")
            if rep.feasible:
                feasible.append((d, m))
                assert rep.pic_rank == 2
    assert feasible == [(2, 3)] * 7


def test_forced_complement_lines():
    """At the top transcendental dimension of the odd-Betti families the
    complement is a single line whose class is pinned down by the field."""
    cases = []
    for n in (2, 3):
        for E in CM_FIELDS:
            d = field_invariants(E).degree
            for family, top in (("kummer", 6), ("hilbk3", 22)):
                if top % d == 0:
                    cases.append((family, n, E, top // d))
    assert cases
    for family, n, E, m in cases:
        amb = ambient(family, n)
        rep = hk_realizable(family, n, E, m, "cm")
        assert rep.feasible, (family, n, E)
        cert = rep.verdict.certificate
        assert cert["complement_shape"] == "forced-line"
        tw = cm_twist_class(field_invariants(E))
        want = squarefree_class(amb.scaled_line * tw.n)
        assert cert["forced_complement"] == str(want.n)


def test_picard_compatible_hyperbolic_plane():
    H = QuadraticForm.make([1, -1])
    v = picard_compatible(H, ImagQuadratic(1), 10, "cm")
    assert v.feasible
    assert v.certificate["picard_invariants"]["dim"] == 2


def test_picard_compatible_disc_obstruction():
    L = QuadraticForm.make([1, -3])
    v = picard_compatible(L, ImagQuadratic(1), 10, "cm")
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "disc"


def test_picard_compatible_split_prime_obstruction():
    # right discriminant class, but the Hasse invariant twists at 5, which
    # splits in Q(i)
    L = QuadraticForm.make([5, -2, -10, -1, -1, -1])
    li = invariants(L)
    assert li.signature == (1, 5)
    assert li.disc() == SquareClass(1)
    v = picard_compatible(L, ImagQuadratic(1), 8, "cm")
    assert v.status == "infeasible"
    assert v.obstruction["condition"] == "split-prime-hyperbolic"
    assert v.obstruction["place"] == 5


def test_picard_compatible_rm_routes():
    L = QuadraticForm.make([1] + [-1] * 15)
    good = picard_compatible(L, RealQuadratic(2), 3, "rm")
    assert good.feasible
    # the derived route disagrees with the literal even-degree reading here,
    # so the certificate carries a warning
    assert any("authoritative" in w for w in good.certificate["warnings"])

    bad = picard_compatible(L, RealQuadratic(3), 3, "rm")
    assert bad.status == "infeasible"
    assert bad.obstruction["condition"] == "norm-class"


def test_picard_compatible_validation():
    H = QuadraticForm.make([1, -1])
    with pytest.raises(ValueError):
        picard_compatible(H, ImagQuadratic(1), 9, "cm")  # 2 + 18 != 22
    with pytest.raises(ValueError):
        picard_compatible(QuadraticForm.make([1, 1]), ImagQuadratic(1),
                          10, "cm")
    with pytest.raises(ValueError):
        picard_compatible(H, RealQuadratic(2), 10, "cm")


def test_elliptic_small_degree():
    assert elliptic_fibration_verdict(
        {"case": "small-degree", "degree": 2})["verdict"] == "yes"
    assert elliptic_fibration_verdict(
        {"case": "small-degree", "degree": 10})["verdict"] == "yes"
    assert elliptic_fibration_verdict(
        {"case": "small-degree", "degree": 4})["verdict"] == "undetermined"


def test_elliptic_degree_20():
    for n, want in ((44, "yes"), (66, "yes"), (25, "no")):
        out = elliptic_fibration_verdict(
            {"case": "degree-20", "field": Cyclotomic(n)})
        assert out["verdict"] == want, n
    # the verdicts ride on these square classes
    assert field_invariants(Cyclotomic(44)).disc_class == SquareClass(1)
    assert field_invariants(Cyclotomic(66)).disc_class == SquareClass(1)
    assert field_invariants(Cyclotomic(25)).disc_class == SquareClass(5)
    with pytest.raises(ValueError):
        elliptic_fibration_verdict(
            {"case": "degree-20", "field": Cyclotomic(5)})


def test_elliptic_degree_4():
    out = elliptic_fibration_verdict(
        {"case": "degree-4", "field": Cyclotomic(5), "rho": 6})
    assert out["verdict"] == "yes"
    out = elliptic_fibration_verdict(
        {"case": "degree-4", "field": Cyclotomic(5), "rho": 2})
    assert out["verdict"] == "no"
    # square discriminant rescues the low-rank case
    out = elliptic_fibration_verdict(
        {"case": "degree-4", "field": Cyclotomic(12), "rho": 2})
    assert out["verdict"] == "yes"


def test_elliptic_picard_form():
    out = elliptic_fibration_verdict(
        {"case": "picard-form", "form": QuadraticForm.make([2, -2])})
    assert out["verdict"] == "yes"
    assert "witness" in out

    out = elliptic_fibration_verdict(
        {"case": "picard-form", "form": QuadraticForm.make([1, -3])})
    assert out["verdict"] == "no"
    assert out["obstruction_place"] == "3"

    out = elliptic_fibration_verdict(
        {"case": "picard-form",
         "form": {"diagonal": ["1", "3"]}})
    assert out["verdict"] == "no"

    with pytest.raises(ValueError):
        elliptic_fibration_verdict({"case": "picard-form",
                                    "form": QuadraticForm.make([1, -1, 2])})
    with pytest.raises(ValueError):
        elliptic_fibration_verdict({"case": "warp-drive"})
    with pytest.raises(ValueError):
        elliptic_fibration_verdict("not an object")


def test_famous_examples_all_match():
    reg = famous_examples()
    assert len(reg) == 8
    for key in reg:
        out = evaluate_famous(key)
        assert out["matches"], (key, out["results"])
    with pytest.raises(KeyError):
        evaluate_famous("banana")


def test_famous_examples_specifics():
    assert evaluate_famous("kondo-44")["results"]["elliptic"] == "yes"
    assert evaluate_famous("vorontsov-25")["results"]["elliptic"] == "no"
    assert evaluate_famous("double-sextic-d2")["results"]["rm_feasible"]
    assert not evaluate_famous("double-sextic-d3")["results"]["rm_feasible"]


def test_report_json_shape():
    rep = k3_realizable(ImagQuadratic(1), 10, "cm")
    js = report_to_json(rep)
    assert js["feasible"] is True
    assert js["family_dim"] == 9
    assert js["pic_rank"] == 2
    assert "certificate" in js

    rep = k3_realizable(RealQuadratic(2), 2, "rm")
    js = report_to_json(rep)
    assert js["feasible"] is False
    assert "obstruction" in js


def test_picard_compatible_reports_the_mode_first():
    # a Picard form of the wrong rank for a field of the wrong kind: the
    # mode check runs before the shape checks
    with pytest.raises(ValueError, match="rm mode needs a totally real"):
        picard_compatible(QuadraticForm.make([1, -1]), ImagQuadratic(1), 3,
                          "rm")
