"""The full 7-family realizability grid, both modes, md_bound 23, rendered
as JSON by scripts/run_realizability_grids.py, against the committed golden
bytes of the benchmark."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "grid.json"


def _grid_script():
    path = ROOT / "scripts" / "run_realizability_grids.py"
    spec = importlib.util.spec_from_file_location("run_realizability_grids",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_matches_golden_bytes(capsys):
    assert _grid_script().main(["--format", "json", "--md-bound", "23"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == GOLDEN.read_bytes()
