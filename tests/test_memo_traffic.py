"""Every memo pays on the benchmark's traffic.

Each memo registered by `exact.memo` must record at least one hit, summed
over the runs of the three workloads, each read from cleared memos as the
workload starts it: a cold grid pass and then a warm one, one pass of the
`forms` pool (a fresh interpreter in the benchmark), and each golden `cli`
query (a fresh interpreter each).  A memo that no run hits only costs its
key and its entries, so it goes.

The cold pass is pinned here too, and only here, on the count surface: its
supports and Hilbert symbols at most, its checks, constructions and rank-3
cores exactly.
The positive peels of `qforms.form_from_invariants` evaluate no support,
since S(1, x) is empty.
"""

import contextlib
import importlib
import io
import json
import pkgutil
from pathlib import Path

import traceforms
from conftest import grid_pass, load_file
from traceforms import cli
from traceforms.exact import COUNTS, clear_memos, memos
from traceforms.qforms import QuadraticForm

# every module loaded, so that `exact.memos()` holds every memo of the package
for _module in pkgutil.iter_modules(traceforms.__path__):
    importlib.import_module(f"traceforms.{_module.name}")

ROOT = Path(__file__).resolve().parent.parent
QUERIES = json.loads((ROOT / "perfbench" / "golden" / "cli.json")
                     .read_text())["queries"]

#: at most, on one cold grid pass
BOUNDS = {"hilbert_symbol": 918, "support_at": 363}
#: exactly, on one cold grid pass
EXACT = {"validate_invariants": 1179, "construction": 201}
RANK3_CORES = 37


def _forms_pass():
    wl = load_file("perfbench/workloads.py")
    for entries, query, k in wl.forms_pool():
        wl.forms_query(query, QuadraticForm.make(entries), k)


def _hits():
    return {label: m.cache_info().hits for label, m in memos().items()}


def _traffic():
    """Each memo's hits on each run, by label; a run's hits are read
    before the next run clears the memos."""
    runs = {}
    clear_memos()
    grid_pass()
    runs["cold grid"] = _hits()
    grid_pass()
    warm = _hits()
    runs["warm grid"] = {label: warm[label] - runs["cold grid"][label]
                         for label in warm}
    clear_memos()
    _forms_pass()
    runs["forms"] = _hits()
    runs["cli"] = dict.fromkeys(memos(), 0)
    for query in QUERIES:
        clear_memos()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(query["argv"]))
        for label, hits in _hits().items():
            runs["cli"][label] += hits
    return runs


def test_every_memo_hits_on_the_benchmark_traffic():
    runs = _traffic()
    idle = [label for label in memos()
            if not any(hits[label] for hits in runs.values())]
    assert not idle, runs


def test_cold_grid_pass_counts():
    clear_memos()
    before = dict(COUNTS)
    grid_pass()
    got = {name: COUNTS[name] - before[name] for name in COUNTS}
    assert all(0 < got[name] <= bound for name, bound in BOUNDS.items()), got
    assert {name: got[name] for name in EXACT} == EXACT
    assert memos()["qforms.rank3_form"].cache_info().misses == RANK3_CORES
