"""`qforms.invariants_from_json` reads JSON invariants through one key
table: `dim`, `det`, `signature` and `hasse` are all required and no other
key is allowed, `dim` and both signature entries are JSON integers, the
signature has exactly two entries, and each Hasse place is "inf" or a
prime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.exact import INF
from traceforms.qforms import (
    QuadraticForm, invariants, invariants_from_json, invariants_to_json,
)

GOOD = {"dim": 3, "det": "-2/3", "signature": [1, 2], "hasse": ["inf", 3]}


def test_a_valid_object_is_read():
    fi = invariants_from_json(GOOD)
    assert (fi.dim, fi.det.n, fi.signature) == (3, -6, (1, 2))
    assert fi.hasse == {INF, 3}


def test_floats_bools_and_unknown_keys_are_refused():
    # once read as dim 3 and signature (1, 2)
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        invariants_from_json({"dim": 3.7, "det": "1",
                              "signature": [True, "2"], "hasse": [],
                              "bogus": 1})


@pytest.mark.parametrize("key, value", [
    ("dim", 3.7), ("dim", True), ("dim", "x"), ("det", 1.5), ("det", True),
    ("det", "0"), ("signature", [True, 2]), ("signature", [1.0, 2]),
    ("signature", [1, 2, 0]), ("signature", [1]), ("signature", "12"),
    ("signature", {"0": 1, "1": 2}), ("hasse", "inf"), ("hasse", [1.5]),
    ("hasse", None), ("hasse", [True]), ("hasse", [4]), ("hasse", [-7]),
])
def test_a_bad_value_is_refused(key, value):
    with pytest.raises((TypeError, ValueError)):
        invariants_from_json({**GOOD, key: value})


@pytest.mark.parametrize("key", sorted(GOOD))
def test_every_key_is_required(key):
    with pytest.raises(KeyError):
        invariants_from_json({k: v for k, v in GOOD.items() if k != key})


@given(st.lists(st.fractions(max_denominator=12).filter(bool),
                min_size=1, max_size=8))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_invariants_round_trip(diagonal):
    fi = invariants(QuadraticForm.make(diagonal))
    assert invariants_from_json(invariants_to_json(fi)) == fi
