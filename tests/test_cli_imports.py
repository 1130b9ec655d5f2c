"""Which modules a cold `tf` query loads.

A query runs in a fresh interpreter, so every module it imports is compiled
and run on every call.  The form queries need only `exact` and `qforms`; the
transfer queries also need `numfields` and `transfer`, never `k3hk`.  Each
query of the benchmark's golden list runs in its own interpreter, which
reports the `traceforms` modules it loaded on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUERIES = json.loads((ROOT / "perfbench" / "golden" / "cli.json")
                     .read_text())["queries"]

FORM_QUERIES = ("form-invariants", "form-isomorphic", "form-split",
                "represents-zero")
TRANSFER_QUERIES = ("transfer-compute", "transfer-feasible")
FORM_LAYERS = {"traceforms", "traceforms.cli", "traceforms.exact",
               "traceforms.qforms"}

CHILD = """\
import sys
from traceforms.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules
                      if m.split(".")[0] == "traceforms")), file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(argv):
    """(exit code, stdout, traceforms modules loaded) of one cold query."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)
    return (proc.returncode, proc.stdout,
            set(proc.stderr.strip().splitlines()[-1].split()))


#: the one golden query that records a budget error of trial division alone:
#: Brent's rho now splits the entry 1000000007 * 1000000009, and the answer
#: is the determinant class 2 * 1000000007 * 1000000009 of a positive form
#: with no Hasse place ((2/p) = 1 at both primes, which are 7 and 1 mod 8,
#: and (pq, 2)_2 = 1 as pq = 7 mod 8)
SEMIPRIME_ARGV = ["form-invariants", "--form",
                  '{"diagonal": ["1000000016000000063", 2]}']
RECOVERED = {"det": str(2 * 1000000007 * 1000000009), "dim": 2, "hasse": [],
             "signature": [2, 0]}


def _queries(commands):
    return [pytest.param(q, id=f"{i}-{q['argv'][0]}")
            for i, q in enumerate(QUERIES) if q["argv"][0] in commands]


def test_every_form_and_transfer_subcommand_is_covered():
    covered = {q["argv"][0] for q in QUERIES}
    assert set(FORM_QUERIES + TRANSFER_QUERIES) <= covered


@pytest.mark.parametrize("query", _queries(FORM_QUERIES))
def test_form_queries_load_only_exact_and_qforms(query):
    code, out, modules = loaded_modules(query["argv"])
    if query["argv"] == SEMIPRIME_ARGV:
        assert query["exit"] == 4
        assert (code, json.loads(out)) == (0, RECOVERED)
    else:
        assert (code, out) == (query["exit"], query["stdout"])
    assert modules == FORM_LAYERS


@pytest.mark.parametrize("query", _queries(TRANSFER_QUERIES))
def test_transfer_queries_skip_k3hk(query):
    code, out, modules = loaded_modules(query["argv"])
    assert (code, out) == (query["exit"], query["stdout"])
    assert "traceforms.transfer" in modules
    assert "traceforms.k3hk" not in modules
