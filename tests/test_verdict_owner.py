"""`transfer` owns the obstruction format: every infeasible verdict is built
by `transfer.infeasible`, every needs_witness verdict by
`transfer.undecided`, and a verdict names its own grid criterion (checked
over the grid in `tests/test_obstruction_sites.py`).  The rm
refutation of a rank below 3 is written once, so the rm split,
`picard_compatible` and the realizability reports give equal obstructions.
"""

import ast
from pathlib import Path

from traceforms import cli
from traceforms.k3hk import hk_realizable, picard_compatible
from traceforms.numfields import ImagQuadratic, RealQuadratic
from traceforms.qforms import QuadraticForm, hyperbolic_sum
from traceforms.transfer import (
    cm_transfer_feasible, infeasible, split_transfer_feasible, undecided,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "traceforms"


def _tree(name):
    return ast.parse((SRC / name).read_text())


def test_rank_below_three_is_one_refutation():
    E = RealQuadratic(2)
    split = split_transfer_feasible(
        hyperbolic_sum(3).direct_sum(QuadraticForm.make([-1])), E, 2, "rm")
    picard = picard_compatible(QuadraticForm.make([1] + [-1] * 17), E, 2,
                               "rm")
    report = hk_realizable("k3", None, E, 2, "rm")
    want = {"condition": "multiplicity",
            "detail": "rank 2 over the field is below 3"}
    assert split.obstruction == picard.obstruction == \
        report.verdict.obstruction == want
    assert report.notes == (want["detail"],)


def test_constructors_keep_the_key_order():
    v = infeasible("(iii)", "not hyperbolic", 5, all_violated=["(iii)"])
    assert (v.status, v.certificate) == ("infeasible", None)
    assert list(v.obstruction) == ["condition", "all_violated", "place",
                                   "detail"]
    assert infeasible("signature").obstruction == {"condition": "signature"}
    w = undecided("split-set-unknown", [2, 3])
    assert (w.status, w.certificate) == ("needs_witness", None)
    assert list(w.obstruction.items()) == [("reason", "split-set-unknown"),
                                           ("primes", [2, 3])]
    assert undecided("witness-rejected").obstruction == {
        "reason": "witness-rejected"}


def test_criterion_outside_the_grid():
    # a feasible verdict of a given form names no route
    v = cm_transfer_feasible(ImagQuadratic(1), QuadraticForm.make([1, 1]))
    assert v.feasible and v.criterion is None
    assert cm_transfer_feasible(
        ImagQuadratic(1), QuadraticForm.make([1, -3])).criterion == "(ii)"
    assert undecided("witness-rejected").criterion == "witness-rejected"


def test_only_the_constructors_build_refutations():
    built = set()
    for name in ("transfer.py", "k3hk.py", "cli.py"):
        for fn in ast.walk(_tree(name)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "TransferVerdict"
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value != "feasible"):
                    built.add((name, fn.name, node.args[0].value))
    assert built == {("transfer.py", "infeasible", "infeasible"),
                     ("transfer.py", "undecided", "needs_witness")}


def test_no_obstruction_literal_outside_transfer():
    for name in ("k3hk.py", "cli.py"):
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Dict):
                keys = {k.value for k in node.keys
                        if isinstance(k, ast.Constant)}
                assert "condition" not in keys
                # an elliptic verdict gives its reason next to the verdict
                assert "reason" not in keys or "verdict" in keys
    assert not hasattr(cli, "_row_criterion")
