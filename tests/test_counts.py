"""Operation and memo counts, read only through the package's count surface:
`exact.COUNTS`, which each counted operation raises in its own body, and the
memos that `exact.memo` registers by label, which `exact.clear_memos()`
empties.  No test here names a private function or replaces a module
binding, so a helper that is renamed, inlined or moved to another module
leaves every count as it is.  The counts do not depend on the machine.

Each bound took over a pin that counted through a module binding or a
private name, and is equal to it or tighter.  The cold grid pass and the
forms pool are counted through the same surface where their savings are
tested: `tests/test_memo_traffic.py`, `tests/test_local_arithmetic.py` and
`tests/test_scan_proofs.py`.  So are
the pins that once replaced a binding or read a private memo, each where
its behaviour is tested: `tests/test_prime_exponents.py`,
`tests/test_rule_owners.py`, `tests/test_cell_costs.py`,
`tests/test_core_walk.py`, `tests/test_interval_elimination.py`,
`tests/test_carried_primes.py`, `tests/test_exact.py`,
`tests/test_value_memos.py`, `tests/test_warm_grid_counts.py` and
`tests/test_deferred_certificates.py`.  `tests/test_count_surface_only.py`
keeps every test on the surface.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

from traceforms import cli, exact, k3hk, numfields, qforms, transfer
from traceforms.exact import (
    COUNTS, FactorizationBudgetError, Poly, clear_memos, factorize, memos,
    signs_at_real_roots,
)
from traceforms.qforms import QuadraticForm, form_from_invariants, invariants

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "traceforms").glob("*.py"))
MODULES = (exact, qforms, numfields, transfer, k3hk, cli)
GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23


def _grid_pass():
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)


def _since(before: dict) -> dict:
    """What each count has gained since `before`, a copy of `COUNTS`."""
    return {name: COUNTS[name] - before[name] for name in COUNTS}


def _info(label):
    return memos()[label].cache_info()


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# the grid


def test_cold_pass_shares_125_entries():
    # the rank-free part of a complement choice: 449 choices and 340 cm
    # split decisions read 125 entries
    clear_memos()
    _grid_pass()
    info = _info("transfer.complement_base")
    assert (info.misses, info.hits, info.currsize) == (125, 664, 125)
    assert _info("transfer.choose_complement").misses == 449
    assert _info("transfer.cm_split").misses == 340


def test_second_grid_pass_chooses_no_complement():
    # warm the other memos first, so that the count is the same when this
    # test runs alone: a cold construction checks what it builds.  A warm
    # cm decision asks no complement choice, so its memo is cleared too
    _grid_pass()
    for label in ("transfer.choose_complement", "transfer.complement_base",
                  "transfer.cm_split"):
        memos()[label].cache_clear()
    before = dict(COUNTS)
    _grid_pass()
    spent = _since(before)
    # 449 distinct choices among the 638 feasible rows, two checks each
    assert _info("transfer.choose_complement").misses == 449
    assert spent["hilbert_symbol"] > 0
    assert spent["validate_invariants"] == 2 * 449
    before = dict(COUNTS)
    _grid_pass()
    spent = _since(before)
    assert _info("transfer.choose_complement").misses == 449
    assert spent["hilbert_symbol"] == 0
    assert spent["validate_invariants"] == 0


# ---------------------------------------------------------------------------
# one construction of the benchmark's forms pool


def test_round_trip_142_support_count():
    # operation 142 of the pool builds <1, 1, 1, -1, -1, -7910, a * det>;
    # scored candidate by candidate, its construction evaluated 3,218
    # supports
    entries, query, _ = _workloads().forms_pool()[142]
    assert query == "round_trip"
    fi = invariants(QuadraticForm.make(entries))
    clear_memos()
    before = dict(COUNTS)
    g = form_from_invariants(fi)
    assert g.diagonal[:6] == (1, 1, 1, -1, -1, -7910)
    assert invariants(g) == fi
    assert _since(before)["support_at"] == 36


# ---------------------------------------------------------------------------
# the root layer and the perfect-power search


def test_signs_at_real_roots_takes_one_squarefree_part():
    f = Poly.make([-1, -3, 0, 1])       # x^3 - 3x - 1, roots -1.53, -0.35, 1.88
    before = dict(COUNTS)
    assert signs_at_real_roots(f, Poly.make([0, 1])) == (-1, -1, 1)
    assert _since(before)["poly_gcd"] == 1


def test_perfect_power_search_stops_at_the_trial_divisor():
    n = (10 ** 200 + 357) * (10 ** 200 + 627)
    before = dict(COUNTS)
    with pytest.raises(FactorizationBudgetError):
        factorize(n)
    # every prime factor is above 10^6, so only k <= 66 can give n = r^k
    assert 0 < _since(before)["iroot"] <= 65


# ---------------------------------------------------------------------------
# one registry of memos


#: names that would make a memo outside `exact.memo`
STRAY = {"lru_cache", "cache", "cached_property"}


def _memo_sites():
    """The labels of every `memo(...)` call in `src/`, and every use or
    import of a `functools` memo outside the body of `exact.memo`."""
    labels, stray = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(node) for stmt in tree.body
                  if isinstance(stmt, ast.FunctionDef) and stmt.name == "memo"
                  and path.name == "exact.py" for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "memo"):
                labels.append(node.args[0].value)
            names = ([getattr(node, "id", None), getattr(node, "attr", None)]
                     if id(node) not in inside else [])
            if isinstance(node, ast.ImportFrom) and path.name != "exact.py":
                names += [alias.name for alias in node.names]
            stray += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in STRAY]
    return labels, stray


def test_every_memo_is_registered_and_cleared():
    labels, stray = _memo_sites()
    assert not stray
    assert len(labels) == len(set(labels)) == 12
    assert sorted(labels) == sorted(memos())
    # each module binds the cache wrapper itself, which adds no frame
    wrapper = type(functools.lru_cache(1)(len))
    bound = {id(v) for module in MODULES for v in vars(module).values()}
    assert all(type(m) is wrapper and id(m) in bound
               for m in memos().values())
    _grid_pass()
    assert all(_info(label).currsize > 0
               for label in ("qforms.form_from_invariants", "qforms.rank3_form",
                             "transfer.complement_base", "numfields.in_SE"))
    clear_memos()
    for label, m in memos().items():
        info = m.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0), label
