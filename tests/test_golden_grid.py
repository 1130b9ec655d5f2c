"""The full 7-family realizability grid, both modes, md_bound 23, rendered
as JSON by scripts/run_realizability_grids.py, against the committed golden
bytes of the benchmark, once and twice in one process."""

from pathlib import Path

from conftest import load_file
from traceforms.exact import clear_memos
from traceforms.qforms import form_from_invariants

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "grid.json"
SCRIPT = "scripts/run_realizability_grids.py"


def test_grid_matches_golden_bytes(capsys):
    script = load_file(SCRIPT)
    assert script.main(["--format", "json", "--md-bound", "23"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == GOLDEN.read_bytes()


def test_grid_twice_in_one_process(capsys):
    # the second run reads every construction from the memo, so a caller
    # that mutated a memoized object would change its bytes
    clear_memos()
    script = load_file(SCRIPT)
    for _ in range(2):
        assert script.main(["--format", "json", "--md-bound", "23"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == GOLDEN.read_bytes()
    # 201 distinct complements among the 638 feasible rows of each run
    assert form_from_invariants.cache_info().misses == 201
