"""What a cold pass of the 7-family grid costs, counted in operations that do
not depend on the machine: Hilbert symbols, supports and admissibility
checks, read from `exact.COUNTS` with every memo of the package cleared
first.

The forms that back the feasible rows are built by peeling unit entries,
and that peel is forced (see `qforms.form_from_invariants`): each of the
two negative-peel supports is evaluated once, and the tuple the peel hands
on is checked once, instead of once per step.  The bounds hold that
saving; the construction memo must still miss once per distinct tuple.
The tighter bounds that the shared complement base brought are in
`tests/test_complement_base.py`.
"""

from traceforms import cli
from traceforms.exact import COUNTS, clear_memos, memos

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23

#: at most, on one cold pass; 7,448, 2,587 and 2,791 when every peel step
#: evaluated its support and checked its tuple, 4,441, 1,544 and 1,451
#: after the forced peel
BOUNDS = {
    "hilbert_symbol": 4500,
    "support_at": 1600,
    "validate_invariants": 1500,
}

#: the distinct invariant tuples a grid pass constructs a form for
CONSTRUCTIONS = 201


def _grid_pass():
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)


def test_cold_grid_pass_counts():
    clear_memos()
    before = dict(COUNTS)
    _grid_pass()
    got = {name: COUNTS[name] - before[name] for name in BOUNDS}
    assert all(0 < got[name] <= bound for name, bound in BOUNDS.items()), got
    info = memos()["qforms.form_from_invariants"].cache_info()
    assert info.misses == CONSTRUCTIONS
