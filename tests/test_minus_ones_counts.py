"""What a cold grid pass costs once the Hasse set of <-1>^k is written down
(`qforms._minus_ones_hasse`): {2, INF} when C(k, 2) is odd, empty otherwise
(Serre, A Course in Arithmetic, III.1.1).

The forced peel of `qforms.form_from_invariants` then evaluates one support
for an odd number of negative entries and none for an even one, where it
evaluated S(-1, -det) and S(-1, det) in turn.  Counted from
`exact.clear_memos()` on the count surface: 1,539 symbols and 753 supports
before, and the same 1,179 checks, 201 constructions and 37 rank-3 cores.
"""

from traceforms import cli
from traceforms.exact import COUNTS, clear_memos, memos

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23

#: at most, on one cold pass
BOUNDS = {"hilbert_symbol": 918, "support_at": 528}
#: exactly, on one cold pass
EXACT = {"validate_invariants": 1179, "construction": 201}
RANK3_CORES = 37


def test_cold_grid_pass_counts():
    clear_memos()
    before = dict(COUNTS)
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)
    got = {name: COUNTS[name] - before[name] for name in COUNTS}
    assert all(0 < got[name] <= bound for name, bound in BOUNDS.items()), got
    assert {name: got[name] for name in EXACT} == EXACT
    assert memos()["qforms.rank3_form"].cache_info().misses == RANK3_CORES
