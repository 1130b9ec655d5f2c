#!/usr/bin/env python3
"""Regenerate the golden data under perfbench/golden from the current tree.

    python3 perfbench/make_golden.py

- ``grid.json``: the bytes of ``scripts/run_realizability_grids.py --format
  json``;
- ``forms.json``: the verdict line of every operation of the forms pool, or
  null where the operation fails;
- ``cli.json``: stdout and exit code of every cli query.

Only run this on a commit whose answers are known to be right: the benchmark
treats these values as the truth.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from traceforms import qforms  # noqa: E402


def main():
    out = workloads.GOLDEN
    out.mkdir(exist_ok=True)

    grid = subprocess.run(
        [sys.executable, str(workloads.ROOT / "scripts"
                             / "run_realizability_grids.py"),
         "--format", "json"],
        env=workloads.CHILD_ENV, cwd=workloads.ROOT, capture_output=True,
        check=True).stdout
    (out / "grid.json").write_bytes(grid)
    print(f"grid.json md5 {hashlib.md5(grid).hexdigest()}")

    verdicts = []
    for entries, query, k in workloads.forms_pool():
        f = qforms.QuadraticForm.make(entries)
        try:
            result = workloads.forms_query(query, f, k)
        except Exception as err:  # failures have no golden verdict
            print(f"forms: {query} {list(entries)} fails: "
                  f"{type(err).__name__}")
            verdicts.append(None)
            continue
        verdicts.append(workloads.forms_verdict(query, f, result))
    doc = {"pool_seed": workloads.FORMS_POOL_SEED, "verdicts": verdicts}
    (out / "forms.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"forms.json: {len(verdicts)} verdicts, "
          f"{verdicts.count(None)} failures")

    queries = []
    for argv in workloads.CLI_QUERIES:
        proc = workloads.cli_child(argv)
        queries.append({"argv": list(argv), "exit": proc.returncode,
                        "stdout": proc.stdout.decode()})
    (out / "cli.json").write_text(
        json.dumps({"queries": queries}, indent=1) + "\n")
    print("cli.json exits: " + " ".join(str(q["exit"]) for q in queries))


if __name__ == "__main__":
    main()
