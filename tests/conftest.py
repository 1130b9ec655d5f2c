"""Shared test plumbing: the acceptance suite records one line per criterion
and this hook prints them after the run, so the scoreboard is visible even
when pytest captures stdout.  The helpers that more than one test file uses
are defined here once, and pytest rewrites their asserts as it does a test
file's.  `cli` is imported here, not inside the grid passes, so that a pass
counted with `sys.setprofile` makes no import call."""

import ast
import contextlib
import importlib.util
import io
import json
import random
from pathlib import Path

from traceforms import cli
from traceforms.exact import primes_below

ROOT = Path(__file__).resolve().parent.parent
#: the seven families and the md bound of the grid benchmark workload
GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23

ACCEPTANCE_RESULTS = []


def record_acceptance(cid: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((cid, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{cid}] {status}: {detail}")


def reference_invariants(diagonal):
    """(dim, det, (r, s), hasse) of a diagonal form, from the primes that
    `sympy.factorint` finds in its entries: det is the squarefree signed
    representative of the determinant class, and the Hasse set is the sum
    over i < j of the Hilbert symbols (c_i, c_j)_v of the entry classes, at
    2, INF and every prime of an entry.  Nothing here reads a class, a prime
    set or an invariant from the library; it only evaluates symbols."""
    from fractions import Fraction

    from sympy import factorint
    from traceforms.exact import INF, hilbert_symbol

    classes, det_exps, places = [], {}, {2, INF}
    for e in diagonal:
        e = Fraction(e)
        odd = [p for p, k in factorint(abs(e.numerator * e.denominator)).items()
               if k % 2]
        c = -1 if e < 0 else 1
        for p in odd:
            c *= p
            det_exps[p] = det_exps.get(p, 0) ^ 1
        classes.append(c)
        places.update(odd)
    negatives = sum(1 for c in classes if c < 0)
    det = -1 if negatives % 2 else 1
    for p, k in det_exps.items():
        det *= p ** k
    hasse = set()
    for v in places:
        bit = 0
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                bit ^= hilbert_symbol(classes[i], classes[j], v)
        if bit:
            hasse.add(v)
    return (len(classes), det, (len(classes) - negatives, negatives),
            frozenset(hasse))


def load_file(path):
    """A fresh module run from `path`, relative to the repository root: the
    grid script or a `perfbench` file, which are not packages."""
    path = ROOT / path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_file(path) -> ast.Module:
    return ast.parse(Path(path).read_text(), filename=str(path))


def grid_pass():
    """One pass of the 7-family grid, each mode's rows asked in one call."""
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)


def grid_cell_pass():
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


def run_cli(argv):
    """(exit code, stdout) of `cli.main(argv)` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_cli_json(argv):
    """(exit code, the JSON document on stdout) of `cli.main(argv)`."""
    code, out = run_cli(argv)
    return code, json.loads(out)


def elliptic_argv(context):
    return ["elliptic", "--context", json.dumps(context)]


def entries_and_classes(f):
    """A form's diagonal and its known classes as (n, known primes)."""
    return f.diagonal, [(c.n, c.known_primes) for c in f.known_classes]


def wide_rank4(k):
    """<e_1, ..., e_4> with k distinct primes below 400, drawn with
    random.Random(7), dealt round the four entries, and random signs."""
    rng = random.Random(7)
    primes = rng.sample(primes_below(400), k)
    entries = []
    for i in range(4):
        e = rng.choice((1, -1))
        for p in primes[i::4]:
            e *= p
        entries.append(e)
    return entries
