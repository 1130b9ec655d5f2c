"""The `ValueError` guards of `traceforms.transfer`: each refuses an input
outside its function's contract, with a message that names the fault.

The explicit transfers refuse a field of the wrong kind, an empty form and a
zero entry; `rm_transfer_feasible` a dimension that is no multiple of the
degree; `split_transfer_feasible` a rank below 1, an ambient with no room
left and one with fewer than two positive squares;
`validate_cm_rank2_complement` a zero entry; and `condition_C_profile` an
empty form, a zero rational entry, a field without real-embedding data and a
general totally real entry that is not a polynomial."""

from fractions import Fraction

import pytest

from traceforms.numfields import (
    Cyclotomic, GeneralTotallyReal, ImagQuadratic, RealQuadratic,
)
from traceforms.qforms import QuadraticForm, hyperbolic_sum
from traceforms.transfer import (
    QuadFieldElement,
    condition_C_profile,
    rm_transfer_feasible,
    split_transfer_feasible,
    transfer_hermitian_imagquad,
    transfer_quadratic,
    validate_cm_rank2_complement,
)

ONE = QuadFieldElement.make(1, 0)
CUBIC = GeneralTotallyReal((-1, -3, 0, 1))     # x^3 - 3x - 1


@pytest.mark.parametrize("call, message", [
    (lambda: transfer_quadratic(1, [ONE]), "need a real quadratic field"),
    (lambda: transfer_quadratic(5, []), "empty form"),
    (lambda: transfer_quadratic(5, [ONE, QuadFieldElement.make(0, 0)]),
     "degenerate entry 0"),
    (lambda: transfer_hermitian_imagquad(0, [1]),
     "need an imaginary quadratic field"),
    (lambda: transfer_hermitian_imagquad(1, []), "empty form"),
    (lambda: transfer_hermitian_imagquad(1, [Fraction(1, 2), 0]),
     "degenerate entry 0"),
    (lambda: rm_transfer_feasible(
        RealQuadratic(5), QuadraticForm.make([1, 1, -1, -1, -1])),
     "dimension 5 is not a multiple of the degree 2"),
    (lambda: split_transfer_feasible(hyperbolic_sum(4), RealQuadratic(5), 0,
                                     "rm"),
     "rank must be positive"),
    (lambda: split_transfer_feasible(hyperbolic_sum(3), RealQuadratic(5), 3,
                                     "rm"),
     "cannot split off"),
    (lambda: split_transfer_feasible(
        QuadraticForm.make([1] + [-1] * 7), RealQuadratic(5), 3, "rm"),
     "at least two positive squares"),
    (lambda: validate_cm_rank2_complement(ImagQuadratic(1), 0, False),
     "zero entry"),
    (lambda: condition_C_profile(ImagQuadratic(1), []), "empty form"),
    (lambda: condition_C_profile(ImagQuadratic(1), [1, 0, -1]),
     "degenerate entry"),
    (lambda: condition_C_profile(Cyclotomic(5), [1, 1, 1]),
     "unsupported descriptor kind"),
    (lambda: condition_C_profile(CUBIC, [1, 1, 1]),
     "general totally real entries are polynomials"),
], ids=[
    "real-field", "real-empty", "real-zero", "imag-field", "imag-empty",
    "imag-zero", "rm-degree", "split-rank", "split-room", "split-positive",
    "rank2-zero", "profile-empty", "profile-zero", "profile-kind",
    "profile-poly",
])
def test_guard_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()
