"""What a grid pass costs once each cell is answered by one realizability
pass and each rank-3 core is built once, counted in operations that do not
depend on the machine, with every memo of the package cleared first.

`k3hk.hk_reports` checks a cell's mode and field and looks up its ambient
once, and yields a report per rank; the splitting engine still checks the
mode once per split.  `qforms.form_from_invariants` peels unit entries down
to a rank-3 tuple, and that tuple fixes the rest of the form, so
the memo labelled "qforms.rank3_form" builds it once per distinct tuple.
`clear_memos()` clears it with every other, so the construction pins of
`tests/test_counts.py` and `tests/test_core_walk.py` hold after a grid pass
too.  Cores are read from `exact.memos()` by label and supports from
`exact.COUNTS`; the cold symbol count is bounded in
`tests/test_complement_base.py`.
"""

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

from traceforms import cli, transfer
from traceforms.exact import COUNTS, clear_memos, memos, primes_below
from traceforms.qforms import QuadraticForm, form_from_invariants, invariants

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23

#: at most, on one warm pass of 1015 rows: 29,143 when each row checked its
#: mode twice and read its verdict through four properties; 20,566 after
WARM_CALLS_BOUND = 21_000
#: the rank-3 tuples a cold pass hands on, and their distinct values
RANK3_TUPLES, RANK3_CORES = 173, 37
CORES = memos()["qforms.rank3_form"]


def _grid_pass():
    """One pass as the `grid` benchmark workload makes it: fresh
    descriptors from the catalog, then one cell (mode, family, field) at a
    time.  Returns the number of cells."""
    cat = cli.load_catalog()
    fields = {mode: cli.catalog_fields(cat, mode) for mode in ("rm", "cm")}
    families = cli.parse_families(GRID_FAMILIES)
    cells = 0
    for mode in ("rm", "cm"):
        for family in families:
            for field in fields[mode]:
                cli.tabulate_rows(mode, [family], [field], GRID_MD_BOUND)
                cells += 1
    return cells


def _profiled_pass():
    """The "call" events of one grid pass, by code object, and its cells."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        cells = _grid_pass()
    finally:
        sys.setprofile(None)
    return calls, cells


def test_grid_pass_costs():
    clear_memos()
    cells = _grid_pass()
    cores = CORES.cache_info()
    warm, _ = _profiled_pass()
    assert (cores.misses, cores.hits + cores.misses) == (RANK3_CORES,
                                                        RANK3_TUPLES)
    assert sum(warm.values()) <= WARM_CALLS_BOUND
    # one check per cell, and the splitting engine's own per split
    splits = warm[transfer.split_transfer_feasible.__code__]
    assert cells == 196 and splits == 638
    assert warm[transfer.check_mode.__code__] <= cells + splits
    # a warm pass builds no core
    assert CORES.cache_info().misses == RANK3_CORES


# ---------------------------------------------------------------------------
# the construction pins, after a grid pass


def _pool_entry_142():
    """Operation 142 of the `forms` pool, whose construction
    tests/test_counts.py pins at 36 supports."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entries, query, _ = module.forms_pool()[142]
    assert query == "round_trip"
    return entries


def _wide_rank4(k):
    """As in tests/test_core_walk.py: <e_1, ..., e_4> with k distinct primes
    below 400, drawn with random.Random(7), dealt round the four entries,
    and random signs."""
    rng = random.Random(7)
    primes = rng.sample(primes_below(400), k)
    entries = []
    for i in range(4):
        e = rng.choice((1, -1))
        for p in primes[i::4]:
            e *= p
        entries.append(e)
    return entries


def test_construction_pins_hold_after_a_grid_pass():
    # the grid pass and one build of each form fill both construction
    # memos with these very cores; the one clear must empty them again
    _grid_pass()
    case_142 = invariants(QuadraticForm.make(_pool_entry_142()))
    wide = invariants(QuadraticForm.make(_wide_rank4(24)))
    for fi in (case_142, wide):
        form_from_invariants(fi)
    clear_memos()
    before = COUNTS["support_at"]
    g = form_from_invariants(case_142)
    assert g.diagonal[:6] == (1, 1, 1, -1, -1, -7910)
    assert COUNTS["support_at"] - before == 36
    before = COUNTS["support_at"]
    g = form_from_invariants(wide)
    assert COUNTS["support_at"] - before <= 29
    assert invariants(QuadraticForm.make(g.diagonal)) == wide
