"""The three benchmark workloads and the checks on their answers.

A workload yields operations as (run, check) pairs.  ``run()`` is the
timed call into traceforms; it may raise, which makes the operation a
failure.  ``check(value, error)`` is untimed: it raises
``WrongAnswer`` when an output is wrong and returns True when the operation
failed.  An operation that answered when the golden data was recorded must
answer again, so an error there is a wrong answer.  Where the golden data
records a failure, a budget error, any other exception and a nonzero exit
are failures, never wrong answers.

``passes`` is the number of passes of a 20-second run; a run of S seconds
makes round(passes * S / 20) of them, at least one, so every run of a given
length does the same work.

Library functions are always looked up as module attributes at call time, so
that the tracer's wrappers see the benchmark's own calls too.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from traceforms import cli, exact, qforms

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment of every child interpreter, replacing the caller's.  No child
#: writes bytecode, so no run can depend on what an earlier run compiled:
#: the package is compiled from source on every start, and the standard
#: library comes from the interpreter's own caches.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class WrongAnswer(Exception):
    """An output differs from its golden value or fails a consistency check."""


def _place(v):
    return "inf" if v == exact.INF else str(v)


def render_invariants(fi):
    hasse = ",".join(_place(v) for v in sorted(fi.hasse))
    return (f"dim={fi.dim} det={fi.det.n} "
            f"sig={fi.signature[0]},{fi.signature[1]} hasse=[{hasse}]")


def _require(cond, what):
    if not cond:
        raise WrongAnswer(what)


def _count(failures, kind):
    failures[kind] = failures.get(kind, 0) + 1


def _require_even_hasse(fi, what):
    _require(len(fi.hasse) % 2 == 0,
             f"{what}: odd Hasse set {sorted(fi.hasse)}")


# ---------------------------------------------------------------------------
# grid: the realizability grid of the paper, one cell per operation

GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MODES = ("rm", "cm")
GRID_MD_BOUND = 23
GRID_SETUP = ("from traceforms import cli\n"
              "cat = cli.load_catalog()\n"
              "cli.catalog_fields(cat, 'rm')\n"
              "cli.catalog_fields(cat, 'cm')\n")


class Grid:
    """Every (mode, family, field) cell of the 7-family grid in both modes.

    Each pass first redoes the script's set-up (catalog and field
    invariants, untimed), so a traced pass counts all the work of one run
    of ``scripts/run_realizability_grids.py``.  The seed shuffles the order
    of the cells.  Every cell answered when the golden grid was recorded,
    so a cell that raises is a wrong answer.  Each cell's rows must equal that cell's rows in the
    golden grid; after a pass the rows, put back in the script's order and
    rendered as JSON, must equal the golden bytes.
    """

    name = "grid"
    passes = 3
    setup_code = GRID_SETUP
    fresh_process = False

    def __init__(self, golden_bytes=None):
        self.golden_bytes = (golden_bytes if golden_bytes is not None
                             else (GOLDEN / "grid.json").read_bytes())
        expected = {}
        for row in json.loads(self.golden_bytes)["rows"]:
            key = (row["mode"], row["family"], row["field"])
            expected.setdefault(key, []).append(row)
        self.expected = expected
        self.failures = {}

    @staticmethod
    def cells():
        cat = cli.load_catalog()
        fields = {mode: cli.catalog_fields(cat, mode) for mode in GRID_MODES}
        families = sorted(cli.parse_families(GRID_FAMILIES),
                          key=lambda t: t[0])
        return [(mode, fam, field) for mode in GRID_MODES
                for fam in families for field in fields[mode]]

    def ops(self, rng):
        cells = self.cells()
        order = list(range(len(cells)))
        rng.shuffle(order)
        rows = [None] * len(cells)
        for i in order:
            yield self._cell_op(cells[i], i, rows)
        flat = [row for cell in rows for row in cell]
        got = cli.render_table(flat, "json").encode()
        _require(got == self.golden_bytes,
                 "grid: rendered rows differ from the golden grid bytes")

    def _cell_op(self, cell, i, rows):
        mode, fam, field = cell
        key = (mode, fam[0], field[0])

        def run():
            return cli.tabulate_rows(mode, [fam], [field], GRID_MD_BOUND)

        def check(value, error):
            _require(error is None,
                     f"grid: cell {key} raised {error!r}; the golden grid "
                     "answers it")
            _require(value == self.expected.get(key, []),
                     f"grid: rows of cell {key} differ from the golden grid")
            rows[i] = value
            return False

        return run, check


# ---------------------------------------------------------------------------
# forms: fresh diagonal forms, one library query each

FORMS_POOL_SEED = 2401
FORMS_POOL_SIZE = 150
FORMS_RANKS = (3, 8)
FORMS_SMALL = tuple(x for x in range(-30, 31) if x)
#: share of entries multiplied by one prime in [1e5, 1e7]; a form with two
#: such entries above the trial-division bound cannot be classified
FORMS_WIDE_SHARE = 0.10
FORMS_WIDE_RANGE = (100_001, 10_000_000)
FORMS_QUERIES = ("invariants", "represents_zero", "round_trip", "split")
FORMS_SETUP = "from traceforms import qforms\n"


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24;
    kept apart from the library so that the inputs never depend on it."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _wide_prime(rng):
    lo, hi = FORMS_WIDE_RANGE
    while True:
        n = rng.randrange(lo, hi, 2)
        if _is_prime(n):
            return n


def forms_pool():
    """[(entries, query, split index)], drawn from ``FORMS_POOL_SEED``."""
    rng = random.Random(FORMS_POOL_SEED)
    pool = []
    for _ in range(FORMS_POOL_SIZE):
        n = rng.randint(*FORMS_RANKS)
        entries = []
        for _ in range(n):
            x = rng.choice(FORMS_SMALL)
            if rng.random() < FORMS_WIDE_SHARE:
                x *= _wide_prime(rng)
            entries.append(x)
        pool.append((tuple(entries), rng.choice(FORMS_QUERIES),
                     rng.randint(1, n - 1)))
    return pool


def forms_query(query, f, k):
    """The library calls of one query (timed): their raw results."""
    if query == "invariants":
        return qforms.invariants(f)
    if query == "represents_zero":
        return qforms.represents_zero(f)
    if query == "round_trip":
        fi = qforms.invariants(f)
        g = qforms.form_from_invariants(fi)
        return fi, g, qforms.is_isomorphic(f, g)
    u = qforms.QuadraticForm.make(f.diagonal[:k])
    res = qforms.split_complement(f, u)
    iso = (res.complement is not None
           and qforms.is_isomorphic(u.direct_sum(res.complement), f))
    return res, iso


def forms_verdict(query, f, result):
    """The verdict line of a query's result (witness vectors excluded),
    after the consistency checks that need no golden value."""
    if query == "invariants":
        _require_even_hasse(result, "invariants")
        return "invariants " + render_invariants(result)
    if query == "represents_zero":
        if not result.isotropic:
            _require(result.obstruction is not None,
                     "represents_zero: anisotropic verdict without a place")
            return "anisotropic at " + _place(result.obstruction)
        if result.witness is not None:
            w = [Fraction(x) for x in result.witness]
            _require(any(w), "represents_zero: zero witness")
            value = sum((e * x * x for e, x in zip(f.diagonal, w)),
                        Fraction(0))
            _require(value == 0, f"represents_zero: witness gives {value}")
        return "isotropic"
    if query == "round_trip":
        fi, g, iso = result
        _require_even_hasse(fi, "round_trip")
        _require(iso, f"round_trip: {g} is not isomorphic to its input")
        return "round_trip " + render_invariants(fi)
    res, iso = result
    _require(res.feasible and res.complement is not None,
             f"split: no complement for a leading subform ({res.reason})")
    _require(iso, "split: U + W is not isomorphic to the input")
    _require_even_hasse(res.complement_invariants, "split")
    return "split " + render_invariants(res.complement_invariants)


class Forms:
    """A fixed pool of fresh diagonal forms of ranks 3-8, each with one query.

    The pool is drawn once from ``FORMS_POOL_SEED``; the run seed shuffles
    its order.  Each pass is one walk over the pool in a fresh interpreter
    (``forms_pass.py``), so every form is new to the process.  Each answer
    passes the consistency checks of ``forms_verdict``.  An operation with a
    golden verdict must give it, and raising there is a wrong answer; one
    that failed when the golden data was recorded has none.
    """

    name = "forms"
    passes = 3
    setup_code = FORMS_SETUP
    fresh_process = True

    def __init__(self, golden_verdicts=None):
        self.pool = forms_pool()
        if golden_verdicts is None:
            golden = json.loads((GOLDEN / "forms.json").read_text())
            _require(golden["pool_seed"] == FORMS_POOL_SEED
                     and len(golden["verdicts"]) == len(self.pool),
                     "forms: golden verdicts are for another pool")
            golden_verdicts = golden["verdicts"]
        self.golden = golden_verdicts
        self.failures = {}

    def ops(self, rng):
        order = list(range(len(self.pool)))
        rng.shuffle(order)
        for i in order:
            yield self.op(i)

    def op(self, i):
        entries, query, k = self.pool[i]
        f = qforms.QuadraticForm.make(entries)

        def run():
            return forms_query(query, f, k)

        def check(value, error):
            want = self.golden[i]
            if error is not None:
                _require(want is None,
                         f"forms: op {i} {query} {list(entries)} raised "
                         f"{error!r}, golden {want!r}")
                _count(self.failures, type(error).__name__)
                return True
            verdict = forms_verdict(query, f, value)
            _require(want is None or verdict == want,
                     f"forms: op {i} {query} {list(entries)} gave "
                     f"{verdict!r}, golden {want!r}")
            return False

        return run, check


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per query

CLI_QUERIES = (
    ("form-invariants", "--form", '{"diagonal": [1, -1, 2, 3, -5]}'),
    ("form-invariants", "--form",
     '{"diagonal": ["1000000016000000063", 2]}'),
    ("form-isomorphic", "--a", '{"diagonal": [-2, -2]}',
     "--b", '{"diagonal": [-1, -1]}'),
    ("form-split", "--ambient", '{"diagonal": [1, 1, 1, -1, -1, -1]}',
     "--sub", '{"diagonal": [1, -1]}'),
    ("represents-zero", "--form", '{"diagonal": [1, 3, -5]}'),
    ("represents-zero", "--form", '{"diagonal": [1, 1, -1]}'),
    ("transfer-compute", "--field", '{"kind": "real_quadratic", "d": 5}',
     "--entries", '[[1, 1], [1, 1], [-1, 0]]'),
    ("transfer-feasible", "--field", '{"kind": "imag_quadratic", "D": 1}',
     "--form", '{"diagonal": [1, -2, 5, -10]}', "--mode", "cm"),
    ("k3", "--field", '{"kind": "cyclotomic", "n": 5}', "--m", "5",
     "--mode", "cm"),
    ("hk", "--family", "og6", "--field", '{"kind": "real_quadratic", "d": 2}',
     "--m", "3", "--mode", "rm"),
    ("picard", "--form", '{"diagonal": [1, -1]}',
     "--field", '{"kind": "imag_quadratic", "D": 1}', "--m", "10",
     "--mode", "cm"),
    ("elliptic", "--case", "kondo-44"),
    ("tabulate", "--mode", "rm", "--families", "k3,og6",
     "--format", "markdown"),
    ("tabulate", "--mode", "cm", "--families", "k3,kummer:2",
     "--md-bound", "10", "--format", "csv"),
)
CLI_SETUP = "import traceforms.cli\n"


def cli_child(argv, timeout=120):
    """Run ``python -m traceforms.cli`` once in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "traceforms.cli", *argv],
                          env=CHILD_ENV, cwd=ROOT, capture_output=True,
                          timeout=timeout, check=False)


def cli_in_process(argv):
    """Run ``cli.main(argv)`` in this process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


class Cli:
    """Every subcommand, one fresh interpreter per query.

    The seed permutes the query order of each pass.  Stdout bytes and the
    exit code of every query must equal the golden values; a query that
    exits 0 there must not raise here.
    The one query that exits 4 there (a factorization budget error) is a
    failure; if a later version answers it, the answer must be a well-formed
    invariants document for the known factorization.
    """

    name = "cli"
    passes = 7
    setup_code = CLI_SETUP
    fresh_process = False

    def __init__(self, golden=None, in_process=False):
        if golden is None:
            golden = json.loads((GOLDEN / "cli.json").read_text())["queries"]
        _require([tuple(g["argv"]) for g in golden] == list(CLI_QUERIES),
                 "cli: golden values are for another query list")
        self.golden = golden
        self.in_process = in_process
        self.failures = {}

    def ops(self, rng):
        order = list(range(len(CLI_QUERIES)))
        rng.shuffle(order)
        for i in order:
            yield self.op(i)

    def op(self, i):
        argv = CLI_QUERIES[i]
        want = self.golden[i]

        def run():
            if self.in_process:
                return cli_in_process(argv)
            proc = cli_child(argv)
            return proc.returncode, proc.stdout

        def check(value, error):
            if error is not None:
                _require(want["exit"] != 0,
                         f"cli: {argv[0]} query {i} raised {error!r}")
                _count(self.failures, type(error).__name__)
                return True
            code, out = value
            if want["exit"] != 0 and code == 0:
                _check_recovered_answer(argv, out)
                return False
            _require(code == want["exit"] and out == want["stdout"].encode(),
                     f"cli: {argv[0]} query {i} gave exit {code} and "
                     f"{out[:200]!r}, golden exit {want['exit']}")
            if code != 0:
                _count(self.failures, f"exit {code}")
            return code != 0

        return run, check


def _check_recovered_answer(argv, out):
    """The budget-error query of the golden data is <p*q, 2> with p = 1e9+7 and
    q = 1e9+9 prime, so its determinant class is 2pq and it is positive
    definite."""
    _require(argv[2] == '{"diagonal": ["1000000016000000063", 2]}',
             f"cli: {argv[0]} exited 0 where the golden data failed")
    doc = json.loads(out)
    p, q = 1_000_000_007, 1_000_000_009
    _require(doc.get("dim") == 2 and doc.get("det") == str(2 * p * q)
             and doc.get("signature") == [2, 0]
             and len(doc.get("hasse", [None])) % 2 == 0,
             f"cli: wrong invariants for <pq, 2>: {doc}")


WORKLOADS = {"grid": Grid, "forms": Forms, "cli": Cli}
