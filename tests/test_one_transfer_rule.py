"""Each transfer rule has one copy: the signs of every totally real field
come from `poly.signs_at_real_roots`, and one helper decides whether a
transfer side's class is a totally positive norm class.  The library
outputs that this moved are pinned here.
"""

import ast
from pathlib import Path

import pytest

from traceforms.numfields import RealQuadratic
from traceforms.transfer import QuadFieldElement, condition_C_profile

TRANSFER = (Path(__file__).resolve().parent.parent
            / "src" / "traceforms" / "transfer.py")


def test_transfer_asks_one_totally_positive_norm_question():
    tree = ast.parse(TRANSFER.read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "norm_obstruction"
             and len(node.args) == 3
             and getattr(node.args[2], "value", None) is True]
    assert len(calls) == 1
    assert not hasattr(QuadFieldElement, "sign_at")


def test_a_zero_real_quadratic_entry_is_rejected():
    one = QuadFieldElement.make(1, 0)
    with pytest.raises(ValueError, match="identically zero"):
        condition_C_profile(RealQuadratic(3),
                            (one, QuadFieldElement.make(0, 0), one))
