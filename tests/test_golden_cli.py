"""The CLI queries of the benchmark, run in-process through `cli.main`,
against the committed golden stdout bytes and exit codes."""

import json
from pathlib import Path

import pytest

from traceforms.cli import main

GOLDEN = (Path(__file__).resolve().parent.parent
          / "perfbench" / "golden" / "cli.json")
QUERIES = json.loads(GOLDEN.read_text())["queries"]


def test_every_subcommand_is_queried():
    assert len(QUERIES) == 14
    assert len({q["argv"][0] for q in QUERIES}) == 11


@pytest.mark.parametrize("query", QUERIES,
                         ids=[f"{i}-{q['argv'][0]}" for i, q in enumerate(QUERIES)])
def test_query_matches_golden(capsys, query):
    code = main(list(query["argv"]))
    out = capsys.readouterr().out
    assert (code, out.encode()) == (query["exit"], query["stdout"].encode())
