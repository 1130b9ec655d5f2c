"""The contract of the library's frozen value records.

Every value type is a `__slots__` class on `exact.Record`, and none is a
dataclass.  Each keeps what a frozen dataclass gave it: fields cannot be
assigned or deleted, equality compares the class and then the fields, the
hash is that of the tuple of compared fields, and the repr is
`Name(field=value, ...)` unless the class writes its own.  Carried data
(`SquareClass.known_primes`, `QuadraticForm.known_classes`) stays out of all
three.  The normalizations that the constructors apply are pinned here too.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from traceforms.exact import INF, Poly, SquareClass
from traceforms.k3hk import (
    AmbientSpace,
    FamousExample,
    RealizabilityReport,
    _FamilyText,
)
from traceforms.numfields import (
    Cyclotomic,
    FieldInvariants,
    GeneralCM,
    GeneralTotallyReal,
    ImagQuadratic,
    RealQuadratic,
    field_invariants,
)
from traceforms.qforms import (
    FormInvariants,
    IsotropyVerdict,
    QuadraticForm,
    SplitResult,
    WittClassQ,
)
from traceforms.transfer import (
    QuadFieldElement,
    SignatureProfile,
    TransferVerdict,
)

F = Fraction
FORM = QuadraticForm((F(1), F(-1)))
INV = FormInvariants(2, SquareClass(-1), (1, 1), frozenset())
INV_REPR = ("FormInvariants(dim=2, det=SquareClass(-1), signature=(1, 1), "
            "hasse=frozenset())")
ELT_REPR = "QuadFieldElement(a=Fraction(1, 1), b=Fraction(1, 2))"

#: (build, compared fields, repr) per record class; `build` makes a fresh
#: instance on each call, so two calls give equal, distinct objects
RECORDS = [
    (lambda: SquareClass(-15, frozenset({3, 5})), ("n",), "SquareClass(-15)"),
    (lambda: Poly((F(-2), F(0), F(1))), ("coeffs",),
     "Poly(coeffs=(Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1)))"),
    (lambda: RealQuadratic(5), ("d",), "RealQuadratic(d=5)"),
    (lambda: ImagQuadratic(3), ("D",), "ImagQuadratic(D=3)"),
    (lambda: Cyclotomic(5), ("n",), "Cyclotomic(n=5)"),
    (lambda: GeneralTotallyReal([-1, -1, 1], 5), ("minpoly", "supplied_disc"),
     "GeneralTotallyReal(minpoly=(-1, -1, 1), supplied_disc=5)"),
    (lambda: GeneralCM([-3, 0, 1], -3, [[2, True]]),
     ("real_minpoly", "disc_class", "se_assertions"),
     "GeneralCM(real_minpoly=(-3, 0, 1), disc_class=-3, "
     "se_assertions=((2, True),))"),
    (lambda: FieldInvariants(4, SquareClass(5), True, 2),
     ("degree", "disc_class", "is_cm", "half_degree"),
     "FieldInvariants(degree=4, disc_class=SquareClass(5), is_cm=True, "
     "half_degree=2)"),
    (lambda: QuadraticForm((F(1), F(-1)), (SquareClass(1), SquareClass(-1))),
     ("diagonal",), "<1, -1>"),
    (lambda: FormInvariants(2, SquareClass(-1), [1, 1], set()),
     ("dim", "det", "signature", "hasse"), INV_REPR),
    (lambda: SplitResult(True, FORM, INV),
     ("feasible", "complement", "complement_invariants", "reason"),
     f"SplitResult(feasible=True, complement=<1, -1>, "
     f"complement_invariants={INV_REPR}, reason=None)"),
    (lambda: IsotropyVerdict(False, None, INF),
     ("isotropic", "witness", "obstruction"),
     "IsotropyVerdict(isotropic=False, witness=None, obstruction=inf)"),
    (lambda: WittClassQ(0, SquareClass(1), 0, frozenset(), True, None),
     ("dim_parity", "disc", "signature", "local", "torsion", "kernel"),
     "WittClassQ(dim_parity=0, disc=SquareClass(1), signature=0, "
     "local=frozenset(), torsion=True, kernel=None)"),
    (lambda: QuadFieldElement(F(1), F(1, 2)), ("a", "b"), ELT_REPR),
    (lambda: SignatureProfile(((2, 0), (0, 2)), 2, True),
     ("per_embedding", "multiplicity", "condition_ok"),
     "SignatureProfile(per_embedding=((2, 0), (0, 2)), multiplicity=2, "
     "condition_ok=True)"),
    (lambda: TransferVerdict("infeasible", None, {"condition": "disc"}),
     ("status", "certificate", "obstruction"),
     "TransferVerdict(status='infeasible', certificate=None, "
     "obstruction={'condition': 'disc'})"),
    (lambda: AmbientSpace("og6", None, 8, FORM, "H^3+<-2,-2>"),
     ("family", "n", "b2", "rational_form", "integral_label"),
     "AmbientSpace(family='og6', n=None, b2=8, rational_form=<1, -1>, "
     "integral_label='H^3+<-2,-2>')"),
    (lambda: RealizabilityReport("rm", 1, 19, "Res_{E/Q} SO(W), m=3",
                                 ("note",), TransferVerdict("feasible")),
     ("mode", "family_dimension", "pic_rank", "hodge_group_label", "notes",
      "verdict"),
     "RealizabilityReport(mode='rm', family_dimension=1, pic_rank=19, "
     "hodge_group_label='Res_{E/Q} SO(W), m=3', notes=('note',), "
     "verdict=TransferVerdict(status='feasible', certificate=None, "
     "obstruction=None))"),
    (lambda: _FamilyText(20), ("cm_bound", "rank1_cm", "even_b2_note",
                               "square_disc_note", "rm_note"),
     "_FamilyText(cm_bound=20, rank1_cm='countably many manifolds', "
     "even_b2_note=True, square_disc_note=False, rm_note=None)"),
    (lambda: FamousExample("k", "s", RealQuadratic(2), 3, "rm", None, FORM,
                           {"rm_feasible": True}),
     ("key", "summary", "field", "m", "mode", "elliptic_context",
      "transcendental", "expected"),
     "FamousExample(key='k', summary='s', field=RealQuadratic(d=2), m=3, "
     "mode='rm', elliptic_context=None, transcendental=<1, -1>, "
     "expected={'rm_feasible': True})"),
]
IDS = [type(build()).__name__ for build, _, _ in RECORDS]


def _values(x, fields):
    return tuple(getattr(x, name) for name in fields)


def test_every_record_class_is_covered():
    classes = {type(build()) for build, _, _ in RECORDS}
    assert len(classes) == 20
    assert not any(hasattr(c, "__dataclass_fields__") for c in classes)


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, fields, text):
    x = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown_attribute = 1
    assert _values(x, fields) == _values(build(), fields)


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=IDS)
def test_equality_compares_the_class_and_the_fields(build, fields, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    assert a != _values(a, fields)
    for name in fields:
        other = copy.copy(a)
        object.__setattr__(other, name, object())
        assert other != a


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=IDS)
def test_hash_is_that_of_the_compared_fields(build, fields, text):
    x = build()
    if isinstance(x, QuadraticForm):
        # forms have always hashed as their diagonal, computed once
        assert hash(x) == hash(x.diagonal) == hash(build())
        return
    try:
        expected = hash(_values(x, fields))
    except TypeError:
        # a dict field makes the record unhashable, as it made the dataclass
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == expected == hash(build())


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=IDS)
def test_repr(build, fields, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, fields, text", RECORDS, ids=IDS)
def test_deepcopy_and_pickle_round_trips(build, fields, text):
    x = build()
    for y in (copy.deepcopy(x), copy.copy(x),
              pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == text
        with pytest.raises(AttributeError):
            setattr(y, fields[0], None)


def test_descriptors_of_different_types_never_compare_equal():
    assert RealQuadratic(5) != ImagQuadratic(5)
    assert ImagQuadratic(3) != Cyclotomic(3)
    assert RealQuadratic(5).__eq__(ImagQuadratic(5)) is NotImplemented
    # the field_invariants memo is an untyped cache keyed on descriptors
    assert (field_invariants(RealQuadratic(5))
            != field_invariants(ImagQuadratic(5)))
    assert field_invariants(ImagQuadratic(5)).is_cm
    assert not field_invariants(RealQuadratic(5)).is_cm


def test_carried_data_stays_out_of_equality_hash_and_repr():
    bare, carried = SquareClass(15), SquareClass(15, frozenset({3, 5}))
    assert bare == carried and hash(bare) == hash(carried) == hash((15,))
    assert repr(carried) == "SquareClass(15)"
    assert carried.known_primes == frozenset({3, 5})
    assert bare.known_primes is None
    assert SquareClass(-1).known_primes == frozenset()

    plain = QuadraticForm.make([2, 3])
    known = QuadraticForm.make([2, 3], (SquareClass(2), SquareClass(3)))
    assert plain == known and hash(plain) == hash(known)
    assert hash(plain) == hash(plain.diagonal)
    assert repr(known) == "<2, 3>"
    assert plain.known_classes == (None, None)
    assert copy.deepcopy(known).known_classes == known.known_classes
    assert pickle.loads(pickle.dumps(carried)).known_primes == frozenset({3, 5})


def test_constructors_normalize():
    assert Cyclotomic(6).n == 3 and Cyclotomic(6) == Cyclotomic(3)
    assert Cyclotomic(4).n == 4
    assert GeneralTotallyReal([-2, 0, 1]).minpoly == (-2, 0, 1)
    cm = GeneralCM([-2, 0, 1], 5, [[3, False]])
    assert cm.real_minpoly == (-2, 0, 1)
    assert cm.se_assertions == ((3, False),)
    fi = FormInvariants(2, SquareClass(-1), [1, 1], {2, INF})
    assert fi.signature == (1, 1) and fi.hasse == frozenset({2, INF})
    assert type(fi.signature) is tuple and type(fi.hasse) is frozenset
    assert QuadraticForm([F(1), F(2)]).diagonal == (F(1), F(2))
    with pytest.raises(ValueError):
        SquareClass(0)
    with pytest.raises(ValueError):
        QuadraticForm((F(1), F(2)), (None,))


def test_construction_by_keyword():
    assert GeneralTotallyReal(minpoly=[-5, 0, 1], supplied_disc=5) == \
        GeneralTotallyReal((-5, 0, 1), 5)
    assert GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5,
                     se_assertions=((2, True),)) == \
        GeneralCM((-2, 0, 1), 5, ((2, True),))
    assert FormInvariants(dim=2, det=SquareClass(-1), signature=(1, 1),
                          hasse=frozenset()) == INV
    assert WittClassQ(dim_parity=0, disc=SquareClass(1), signature=0,
                      local=frozenset(), torsion=True, kernel=None) == \
        WittClassQ(0, SquareClass(1), 0, frozenset(), True, None)
    assert SquareClass(n=3, known_primes=frozenset({3})) == SquareClass(3)
    assert QuadraticForm(diagonal=(F(1),), known_classes=None) == \
        QuadraticForm((F(1),))
    text = _FamilyText(cm_bound=20, rank1_cm="r", even_b2_note=False,
                       square_disc_note=True, rm_note="n")
    assert (text.cm_bound, text.rank1_cm, text.even_b2_note,
            text.square_disc_note, text.rm_note) == (20, "r", False, True, "n")
    assert _FamilyText() == _FamilyText(None, "countably many manifolds",
                                        True, False, None)
    assert SplitResult(False, None, None).reason is None


# ---------------------------------------------------------------------------
# the generic constructor of `Record`


MISSING, SURPLUS = "missing", "positional arguments but"
UNKNOWN, REPEATED = "unexpected keyword argument", "multiple values"
W = (0, SquareClass(1), 0, frozenset(), True)


@pytest.mark.parametrize("build, message", [
    (lambda: Poly(), MISSING),
    (lambda: WittClassQ(*W), MISSING),
    (lambda: SplitResult(True, FORM), MISSING),
    (lambda: Poly((), ()), SURPLUS),
    (lambda: WittClassQ(*W, None, 7), SURPLUS),
    (lambda: SplitResult(True, FORM, INV, None, 1), SURPLUS),
    (lambda: _FamilyText(20, "r", False, True, "n", 1), SURPLUS),
    (lambda: Poly(coefs=()), UNKNOWN + " 'coefs'"),
    (lambda: WittClassQ(*W, kern=None), UNKNOWN + " 'kern'"),
    (lambda: SplitResult(True, FORM, INV, why="x"), UNKNOWN),
    (lambda: _FamilyText(cm=20), UNKNOWN + " 'cm'"),
    (lambda: Poly((), coeffs=()), REPEATED + " for argument 'coeffs'"),
    (lambda: WittClassQ(*W, None, dim_parity=0), REPEATED),
    (lambda: SplitResult(True, FORM, INV, feasible=True), REPEATED),
    (lambda: _FamilyText(20, cm_bound=20), REPEATED),
])
def test_generic_constructor_rejects_bad_arguments(build, message):
    with pytest.raises(TypeError, match=message):
        build()
