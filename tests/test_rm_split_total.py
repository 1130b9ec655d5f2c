"""The rm split never reaches its "rm split without an admissible complement
(bug)" error.

`_split_rm` asks for a complement whose transfer side has the determinant
disc^m * (+-1), and such a complement always exists, because parity never
needs a free place that the candidate pool lacks:

- of dimension 1, the complement has an empty Hasse set;
- of dimension 2, no rule forces a bit to 1, so parity needs a free place
  only when the real bit is set, that is at signature (0, 2) and det_c > 0.
  An odd prime of det_c is then free, and otherwise det_c is 1 or 2: -1 is
  no square at 3, and -2 is none at 5;
- of dimension 3 and up, no rule forces a pool place at all (the rank-2
  transfer rule needs md = 2, and rm has m >= 3).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.cli import catalog_fields, load_catalog
from traceforms.numfields import RealQuadratic
from traceforms.qforms import QuadraticForm
from traceforms.transfer import split_transfer_feasible

SQUAREFREE = [d for d in range(2, 60)
              if all(d % (p * p) for p in range(2, 8))]
CUBICS = [desc for _, desc, degree in catalog_fields(load_catalog(), "rm")
          if degree == 3]


@st.composite
def rm_splits(draw):
    """(ambient, field, m): a diagonal ambient of dimension md + 1 to md + 6
    with at least 2 positive and md - 2 negative squares."""
    if draw(st.booleans()):
        E, degree = RealQuadratic(draw(st.sampled_from(SQUAREFREE))), 2
    else:
        E, degree = draw(st.sampled_from(CUBICS)), 3
    m = draw(st.integers(3, 7))
    md = m * degree
    dim = md + draw(st.integers(1, 6))
    r = draw(st.integers(2, dim - (md - 2)))
    entries = draw(st.lists(st.integers(1, 60), min_size=dim, max_size=dim))
    diagonal = entries[:r] + [-e for e in entries[r:]]
    return QuadraticForm.make(diagonal), E, m


@given(rm_splits())
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_an_unhinted_rm_split_is_always_feasible(args):
    V, E, m = args
    assert split_transfer_feasible(V, E, m, "rm").status == "feasible"
