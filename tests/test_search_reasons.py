"""The bounded witness search over a real quadratic field,
`transfer.construct_witness_quadratic`, proves nothing when it finds no
witness.  Its outcome is then a `reason` (`budget-exhausted` or
`search-exhausted`), never a `condition`, the key that every obstruction
keeps for a proven refutation such as `determinant-norm`."""

import pytest

from traceforms.qforms import QuadraticForm
from traceforms.transfer import WitnessResult, construct_witness_quadratic

HYPERBOLIC = QuadraticForm.make([1, 1, -1, -1])


@pytest.mark.parametrize("node_budget", [0, 1, 2])
def test_a_spent_budget_is_a_reason(node_budget):
    res = construct_witness_quadratic(HYPERBOLIC, 2, node_budget=node_budget)
    assert res == WitnessResult("not_found", obstruction={
        "reason": "budget-exhausted"})


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("diagonal", [[3, -6], [5, -10]])
def test_an_exhausted_search_is_a_reason(height, diagonal):
    res = construct_witness_quadratic(QuadraticForm.make(diagonal), 2,
                                      height=height)
    assert res == WitnessResult("not_found", obstruction={
        "reason": "search-exhausted"})


def test_a_refutation_keeps_its_condition():
    res = construct_witness_quadratic(QuadraticForm.make([1, -3]), 2)
    assert res.obstruction == {"condition": "determinant-norm", "place": 3}


def test_no_spent_budget_yields_a_condition():
    for node_budget in range(0, 40, 3):
        for height in (1, 2, 3):
            res = construct_witness_quadratic(
                HYPERBOLIC, 2, height=height, node_budget=node_budget)
            if res.status == "not_found":
                assert "condition" not in res.obstruction
                assert res.obstruction["reason"] in ("budget-exhausted",
                                                     "search-exhausted")
