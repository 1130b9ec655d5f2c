"""The CLI queries of the benchmark, run in-process through `cli.main`,
against the committed golden stdout bytes and exit codes.

One golden query, `form-invariants` of <1000000007 * 1000000009, 2>, records
the budget error (exit 4) of trial division alone.  Brent's rho now splits
the entry, so that query is checked against its known factorization
instead; every other query is byte-identical to the golden data."""

import json
from pathlib import Path

import pytest

from conftest import reference_invariants
from traceforms.cli import EXIT_BUDGET, EXIT_OK, main

GOLDEN = (Path(__file__).resolve().parent.parent
          / "perfbench" / "golden" / "cli.json")
QUERIES = json.loads(GOLDEN.read_text())["queries"]

SEMIPRIME_ARGV = ["form-invariants", "--form",
                  '{"diagonal": ["1000000016000000063", 2]}']


def test_every_subcommand_is_queried():
    assert len(QUERIES) == 14
    assert len({q["argv"][0] for q in QUERIES}) == 11


@pytest.mark.parametrize("query", QUERIES,
                         ids=[f"{i}-{q['argv'][0]}" for i, q in enumerate(QUERIES)])
def test_query_matches_golden(capsys, query):
    code = main(list(query["argv"]))
    out = capsys.readouterr().out
    if query["argv"] != SEMIPRIME_ARGV:
        assert (code, out.encode()) == (query["exit"], query["stdout"].encode())
        return
    assert query["exit"] == EXIT_BUDGET
    dim, det, signature, hasse = reference_invariants(
        [1000000016000000063, 2])
    assert (det, hasse) == (2 * 1000000007 * 1000000009, frozenset())
    assert code == EXIT_OK
    assert json.loads(out) == {"det": str(det), "dim": dim, "hasse": [],
                               "signature": list(signature)}
