"""The memoized complement choice of the splitting engine,
`transfer._choose_complement`: warm answers equal cold ones over the whole
grid, equal asks share one entry, and verdicts are still built fresh on
every call.  What a second grid pass spends is
counted in `tests/test_counts.py`."""

import json

import pytest

from traceforms import cli
from traceforms.exact import SquareClass, clear_memos, memos
from traceforms.k3hk import ambient, hk_realizable
from traceforms.numfields import ImagQuadratic, RealQuadratic
from traceforms.qforms import FormInvariants, invariants
from traceforms.transfer import (
    _choose_complement,
    _class_key,
    split_transfer_feasible,
    verdict_to_json,
)

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23


def _grid_cells():
    """(family, n, field, m, mode) for every row of the 7-family grid in
    both modes, with fresh descriptors, as one run of the grid script
    builds them."""
    cat = cli.load_catalog()
    out = []
    for mode in ("rm", "cm"):
        min_m = 3 if mode == "rm" else 1
        for _, fam, n in cli.parse_families(GRID_FAMILIES):
            for _, desc, degree in cli.catalog_fields(cat, mode):
                out += [(fam, n, desc, m, mode)
                        for m in range(min_m, GRID_MD_BOUND // degree + 1)]
    return out


def test_warm_verdicts_equal_cold_ones_over_the_grid():
    cells = _grid_cells()
    assert len(cells) == 1015
    for cell in cells:
        hk_realizable(*cell)
    choices = memos()["transfer.choose_complement"]
    before = choices.cache_info()
    warm = [verdict_to_json(hk_realizable(*cell).verdict) for cell in cells]
    after = choices.cache_info()
    assert after.misses == before.misses and after.hits > before.hits
    for cell, expected in zip(cells, warm):
        clear_memos()
        assert verdict_to_json(hk_realizable(*cell).verdict) == expected


def test_want_orders_share_one_entry():
    vi = invariants(ambient("k3").rational_form)
    # `want` travels as sorted (prime, bit) pairs, the order in which a cm
    # split builds it from the sorted candidate primes
    clear_memos()
    first = _choose_complement(vi, _class_key(SquareClass(1)), 4, (3,),
                               ((3, 1), (5, 1)))
    second = _choose_complement(vi, _class_key(SquareClass(1)), 4, (3,),
                                tuple(sorted({5: 1, 3: 1}.items())))
    info = memos()["transfer.choose_complement"].cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert first is second
    ci, ui = first
    assert ci == FormInvariants(18, SquareClass(-1), (1, 17),
                                frozenset({3, 5}))
    assert ui.hasse_bit(3) == 1 and ui.hasse_bit(5) == 1


@pytest.mark.parametrize("ambient_form, field, m, mode", [
    (ambient("k3").rational_form, RealQuadratic(2), 3, "rm"),
    (ambient("k3").rational_form, ImagQuadratic(1), 3, "cm"),
    (ambient("og6").rational_form, ImagQuadratic(3), 2, "cm"),
])
def test_mutated_certificate_leaves_the_next_call_alone(ambient_form, field,
                                                       m, mode):
    first = split_transfer_feasible(ambient_form, field, m, mode)
    expected = json.dumps(verdict_to_json(first), sort_keys=True)
    assert first.feasible
    cert = first.certificate
    cert["m"] = -1
    cert["complement_diagonal"].append("0")
    cert["transfer_invariants"]["hasse"].append(7)
    cert["complement_invariants"]["signature"][0] = 99
    again = split_transfer_feasible(ambient_form, field, m, mode)
    assert again.certificate is not cert
    assert json.dumps(verdict_to_json(again), sort_keys=True) == expected
