"""The one memoized cm split decision, `transfer._cm_split`, against the
bodies it folded: verbatim copies of the memoized plan `_cm_split_plan` and
of `_split_cm`, which asked `_choose_complement` once past the plan, and
once more with the asserted primes alone when the first ask was refused.

Both must render the same verdict bytes on 133,147 queries: seven ambients,
827 CM fields and every rank m = 1..23, a refused query compared by its
message.  The fields are `GeneralCM` over Q(sqrt 2) with ten discriminant
classes and each of 2, 3, 5 and 7 unknown, asserted in or asserted out (810
fields), 8 imaginary quadratic fields and 9 cyclotomic fields.
"""

import itertools
import json
from collections import Counter

from traceforms import transfer
from traceforms.exact import SquareClass, rational_str
from traceforms.k3hk import ambient
from traceforms.numfields import (
    OUT, UNKNOWN, Cyclotomic, GeneralCM, ImagQuadratic, desc_from_values,
    field_invariants, in_SE,
)
from traceforms.qforms import form_from_invariants, hyperbolic_bit
from traceforms.transfer import (
    TransferVerdict, _choose_complement, _class_key, _complement_base,
    cm_twist_class, infeasible, split_transfer_feasible, undecided,
    verdict_to_json,
)

AMBIENTS = (("k3", None), ("og6", None), ("kummer", 2), ("kummer", 3),
            ("og10", None), ("hilbk3", 2), ("hilbk3", 7))
DISC_CLASSES = (1, 2, 3, 5, -1, 7, -7, 6, 10, 15)
PRIMES = (2, 3, 5, 7)
M_BOUND = 23


def _fields():
    for disc in DISC_CLASSES:
        for bits in itertools.product((None, True, False), repeat=len(PRIMES)):
            yield GeneralCM((-2, 0, 1), disc, tuple(
                (p, b) for p, b in zip(PRIMES, bits) if b is not None))
    yield from (ImagQuadratic(D) for D in (1, 2, 3, 5, 6, 7, 11, 15))
    yield from (Cyclotomic(n) for n in (5, 7, 8, 9, 12, 15, 16, 20, 60))


# ---------------------------------------------------------------------------
# the bodies that the decision folded


def _parent_cm_split_plan(vi, kind, values, md):
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
    return (ukey, disc_primes, tuple(want), tuple(want_in),
            tuple(unknowns), rational_str(det_u.n), det_c.n == -1)


def _parent_split_cm(vi, E, finv, m, md, codim):
    ukey, disc_primes, want, want_in, unknowns, forced, minus_one = \
        _parent_cm_split_plan(vi, E.__class__, E._get(E), md)
    found = _choose_complement(vi, ukey, md, disc_primes, want)
    if found is None:
        if unknowns and _choose_complement(vi, ukey, md, disc_primes,
                                           want_in) is not None:
            return undecided("split-set-unknown", list(unknowns))
        return infeasible("(iii)", "no complement leaves the transfer side "
                                   "hyperbolic at the asserted split primes")
    extra = {"forced_determinant": forced}
    if codim == 2:
        extra["complement_count"] = ("unique-hyperbolic" if minus_one
                                     else "infinite-family")
    return TransferVerdict("feasible", (
        finv, m, "split-prime-hyperbolic-pattern", *found,
        form_from_invariants(found[0]), extra), None)


# ---------------------------------------------------------------------------
# the sweep


def _outcomes(V, E) -> list:
    """The rendered cm verdict of each rank m, or the message it raised."""
    out = []
    for m in range(1, M_BOUND + 1):
        try:
            out.append(verdict_to_json(split_transfer_feasible(V, E, m, "cm")))
        except ValueError as e:
            out.append(str(e))
    return out


def _kind(outcome) -> str:
    if isinstance(outcome, str):
        return "refused"
    if outcome["feasible"]:
        return "feasible"
    return (outcome["obstruction"].get("reason")
            or outcome["obstruction"]["condition"])


def test_decisions_render_the_parent_verdicts(monkeypatch):
    fields = list(_fields())
    assert len(fields) == 827
    tally = Counter()
    for family, n in AMBIENTS:
        V = ambient(family, n).rational_form
        for E in fields:
            new = _outcomes(V, E)
            with monkeypatch.context() as m:
                m.setattr(transfer, "_split_cm", _parent_split_cm)
                old = _outcomes(V, E)
            assert json.dumps(new) == json.dumps(old), (family, n, E)
            tally.update(map(_kind, new))
    # most ranks leave no room for a complement and are refused
    assert tally == {"feasible": 14_947, "(iii)": 2_642,
                     "split-set-unknown": 1_584, "refused": 113_974}


def test_four_unknown_primes_are_told_from_a_feasible_decision():
    # the primes that block the split are as many as the parts of a
    # feasible decision, which its tag tells apart
    V = ambient("k3").rational_form
    v = split_transfer_feasible(V, GeneralCM((-2, 0, 1), 7, ()), 2, "cm")
    assert v.obstruction == {"reason": "split-set-unknown",
                             "primes": [2, 3, 5, 7]}
