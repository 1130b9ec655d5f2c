"""Each local rule has one implementation, in the module that owns it, and
every method has a caller.

The quadratic norm obstruction of `numfields` is checked against verbatim
copies of the three functions it replaced, and local hyperbolicity against
its own copy.  A count pin, which does not depend on the machine, holds
the work that a single implementation saves: one Hilbert support per
infeasible norm verdict, read from `exact.COUNTS["support_at"]`.  One
squarefree part per sign query, and a perfect-power search bounded by the
trial divisor, are counted in `tests/test_counts.py`.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from traceforms import cli, exact, k3hk, qforms
from traceforms.exact import (
    COUNTS,
    INF,
    SquareClass,
    factorize,
    is_square_at,
    squarefree_class,
    support_at,
)
from traceforms.numfields import (
    RealQuadratic,
    _check_squarefree,
    is_norm_quadratic,
    lambda_plus_quadratic,
    norm_obstruction,
)
from traceforms.poly import Poly, isolate_real_roots, root_bound
from traceforms.qforms import (
    FormInvariants,
    QuadraticForm,
    _locally_hyperbolic_inv,
    hyperbolic_bit,
    invariants,
)
from traceforms.transfer import (
    TransferVerdict,
    rm_transfer_feasible,
    verdict_to_json,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# every method has a caller


def test_every_method_is_referenced():
    methods = []
    for path in sorted((ROOT / "src" / "traceforms").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods += [(path.name, cls.name, fn.name, fn.lineno)
                        for fn in cls.body
                        if isinstance(fn, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))]
    referenced = set()
    for part in ("src", "tests", "scripts", "perfbench"):
        for path in (ROOT / part).rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            referenced.update(node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute))
    dead = [f"{name}:{cls}.{fn} (line {line})"
            for name, cls, fn, line in methods if fn not in referenced]
    if dead:
        pytest.fail("methods without a caller: " + ", ".join(dead))


# ---------------------------------------------------------------------------
# the norm obstruction against the three functions it replaced


def _parent_is_norm_quadratic(d, a) -> bool:
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
    return not support_at(a.n, d.n, a.primes() + d.primes())


def _parent_lambda_plus_quadratic(d, a) -> bool:
    if (d.n if isinstance(d, SquareClass) else d) < 2:
        raise ValueError("need a real quadratic field")
    if (a.n if isinstance(a, SquareClass) else Fraction(a)) <= 0:
        return False
    return _parent_is_norm_quadratic(d, a)


def _parent_norm_obstruction_place(target: SquareClass, disc: SquareClass,
                                   totally_positive: bool = True):
    if totally_positive and target.n < 0:
        return INF
    supp = support_at(target.n, disc.n, target.primes() + disc.primes())
    odd = sorted(p for p in supp if p != INF and p != 2)
    if odd:
        return odd[0]
    return 2 if 2 in supp else INF


_SQUAREFREE = st.integers(-3000, 3000).filter(
    lambda n: n not in (0, 1) and squarefree_class(n).n == n)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(d=_SQUAREFREE, a=_SQUAREFREE | st.just(1))
def test_norm_obstruction_matches_the_parent_rules(d, a):
    place = norm_obstruction(d, a, False)
    assert (place is None) == _parent_is_norm_quadratic(d, a)
    assert is_norm_quadratic(d, a) == (place is None)
    if place is not None:
        assert place == _parent_norm_obstruction_place(
            squarefree_class(a), squarefree_class(d), totally_positive=False)
    if d < 2:
        with pytest.raises(ValueError, match="real quadratic"):
            norm_obstruction(d, a, True)
        return
    place = norm_obstruction(d, a, True)
    assert (place is None) == _parent_lambda_plus_quadratic(d, a)
    assert lambda_plus_quadratic(d, a) == (place is None)
    if place is not None:
        assert place == _parent_norm_obstruction_place(
            squarefree_class(a), squarefree_class(d))


def test_norm_obstruction_reads_carried_classes_and_rationals():
    d = SquareClass(6, frozenset({2, 3}))
    for a in (Fraction(-5, 7), Fraction(3, 2), 10):
        c = squarefree_class(a)
        for positive in (False, True):
            assert (norm_obstruction(d, a, positive)
                    == norm_obstruction(6, c, positive))


def test_infeasible_rm_norm_verdict_evaluates_one_support():
    # det 1 and m = 3 ask whether 3 is a totally positive norm from
    # Q(sqrt 3): (3, 3) is nontrivial at 3
    before = COUNTS["support_at"]
    v = rm_transfer_feasible(RealQuadratic(3),
                             QuadraticForm.make([1, 1, -1, -1, -1, -1]))
    assert v.status == "infeasible"
    assert v.obstruction["place"] == 3
    assert COUNTS["support_at"] - before == 1


# ---------------------------------------------------------------------------
# local hyperbolicity is local isomorphism to the hyperbolic invariants


def _parent_locally_hyperbolic_inv(fi: FormInvariants, place) -> bool:
    if fi.dim % 2:
        return False
    t = fi.dim // 2
    if place == INF:
        return fi.signature == (t, t)
    want_det = SquareClass((-1) ** t)
    if not is_square_at(fi.det * want_det, place):
        return False
    return fi.hasse_bit(place) == hyperbolic_bit(t, place)


_ENTRIES = st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(entries=_ENTRIES, place=st.sampled_from([2, 3, 5, 7, 11, INF]))
def test_locally_hyperbolic_matches_the_parent_rule(entries, place):
    fi = invariants(QuadraticForm.make(entries))
    assert (_locally_hyperbolic_inv(fi, place)
            == _parent_locally_hyperbolic_inv(fi, place))


# ---------------------------------------------------------------------------
# one renderer per value


def test_verdict_renderings_share_one_rule():
    v = TransferVerdict("infeasible", obstruction={"place": INF,
                                                    "primes": [3, 5]})
    assert verdict_to_json(v) == {"status": "infeasible", "feasible": False,
                                  "obstruction": v.obstruction}
    assert cli.verdict_json(v) == {
        "status": "infeasible", "feasible": False,
        "obstruction": {"place": "inf", "primes": ["3", "5"]}}
    rep = k3hk.k3_realizable(RealQuadratic(2), 3, "rm")
    js = k3hk.report_to_json(rep)
    assert {k: js[k] for k in verdict_to_json(rep.verdict)} == (
        verdict_to_json(rep.verdict))


def test_rational_str_has_one_owner():
    # each module that binds the name binds the object `exact` defines
    for module in (cli, k3hk, qforms):
        assert vars(module)["rational_str"] is exact.rational_str
    assert exact.rational_str(Fraction(-6, 4)) == "-3/2"
    assert exact.rational_str(Fraction(8, 4)) == "2"


# ---------------------------------------------------------------------------
# the root layer


def test_root_split_moves_off_a_root_midpoint():
    f = Poly.make([0, -4, 0, 1])        # x^3 - 4x, roots -2, 0, 2
    b = root_bound(f)
    assert f(Fraction(-b + b, 2)) == 0  # the first midpoint is the root 0
    out = isolate_real_roots(f)
    assert len(out) == 3
    for (lo, hi), (lo2, _) in zip(out, out[1:]):
        assert hi <= lo2
    for (lo, hi), root in zip(out, (-2, 0, 2)):
        assert lo < root <= hi
        assert f(lo) != 0 and f(hi) != 0
        assert sum(1 for r in (-2, 0, 2) if lo < r <= hi) == 1


# ---------------------------------------------------------------------------
# the perfect-power search of factorize


def test_perfect_power_search_still_finds_a_square():
    p = int(nextprime(10 ** 20))
    assert factorize(p ** 2) == {p: 2}
    assert factorize(7 * p ** 3) == {7: 1, p: 3}
