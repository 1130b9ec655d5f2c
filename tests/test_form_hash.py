"""A form hashes its integral entries as ints.

`hash(Fraction(n)) == hash(n)`, so `QuadraticForm.__hash__` hashes each
integral entry as its numerator and keeps the hash of the diagonal, without
a call of `Fraction.__hash__`, which is written in Python.  A non-integral
entry is hashed as the `Fraction` it is."""

import sys
from fractions import Fraction

from conftest import load_file
from traceforms.exact import FactorizationBudgetError
from traceforms.qforms import QuadraticForm


def test_forms_pass_calls_no_fraction_hash():
    wl = load_file("perfbench/workloads.py")
    pool = wl.forms_pool()
    target = Fraction.__hash__.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is target:
            calls += 1

    sys.setprofile(profile)
    try:
        for entries, query, k in pool:
            f = QuadraticForm.make(entries)
            try:
                wl.forms_query(query, f, k)
            except FactorizationBudgetError:
                pass
    finally:
        sys.setprofile(None)
    assert len(pool) == 150 and calls == 0


def test_hash_is_the_diagonal_hash_with_non_integral_entries():
    for entries in ([Fraction(1, 2), 3, Fraction(-5, 7)],
                    [Fraction(-3, 4)], [2, Fraction(9, 1), Fraction(1, 3)]):
        f = QuadraticForm.make(entries)
        # built directly, the integral entries stay ints
        raw = QuadraticForm(tuple(entries))
        assert f == raw
        assert hash(f) == hash(raw) == hash(f.diagonal) == hash(tuple(entries))
