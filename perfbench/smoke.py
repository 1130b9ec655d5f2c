#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs a short pass of every workload through ``run.py``, then checks that
the answer checks trip: a corrupted golden value, or an error where the
golden data has an answer, must abort as a wrong answer, and a
factorization budget error must count as a failed operation, not as a wrong
answer.  Finally runs the benchmark in a directory that holds
only ``BENCHMARK.json`` and ``perfbench``, where it must fail without a
result.  Exits 1 when any check fails.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def report(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}"
          + (f": {detail}" if detail else ""))


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    ours = [(m, u) for m, u, _, _ in run.PER_LAYER]
    ours += list(run.CLI_LAYER) + [run.TRACE_OVERHEAD]
    report("BENCHMARK.json end_to_end matches run.py",
           e2e == list(run.END_TO_END))
    report("BENCHMARK.json per_layer matches run.py", layer == ours)
    return spec


def check_short_runs(spec):
    for name in ("grid", "forms", "cli"):
        code, last, err = bench(["--workload", name, "--seed", "7",
                                 "--seconds", "1", "--trace", "0"])
        try:
            doc = json.loads(last)
        except json.JSONDecodeError:
            report(f"{name} short run", False, f"exit {code}: {err[-300:]}")
            continue
        want = {m["name"] for m in spec["end_to_end"]}
        ok = (code == 0 and doc["correct"] and doc["attempted"] > 0
              and set(doc["metrics"]) == want)
        if name in ("forms", "cli"):
            ok = ok and doc["failed"] > 0
        report(f"{name} short run", ok,
               f"attempted {doc['attempted']}, failed {doc['failed']}")
    code, last, err = bench(["--workload", "cli", "--seed", "7",
                             "--seconds", "1", "--trace", "1"])
    doc = json.loads(last) if last.startswith("{") else {}
    want = {m["name"] for m in spec["per_layer"]}
    report("cli traced short run",
           code == 0 and doc.get("correct") is True
           and set(doc.get("metrics", {})) == want,
           f"exit {code}")


def expect_wrong_answer(name, ops):
    try:
        _run_ops(ops)
    except workloads.WrongAnswer as err:
        report(name, True, str(err)[:100])
        return
    report(name, False, "corruption went unnoticed")


class _Only:
    """A workload made of the chosen operations."""

    def __init__(self, ops):
        self.chosen = ops

    def ops(self, rng):
        return iter(self.chosen)


def _run_ops(ops):
    """Run operations the way ``run.py`` does; the Tally."""
    with clock.Clock() as clk:
        tally = run.Tally(clk)
        tally.run_pass(_Only(ops), random.Random(0))
    return tally


def check_corrupted_golden():
    good = (workloads.GOLDEN / "grid.json").read_bytes()
    bad = good.replace(b'"feasible": true', b'"feasible": false', 1)
    grid = workloads.Grid(golden_bytes=bad)
    try:
        _run_ops(grid.ops(random.Random(0)))
        report("grid: corrupted golden grid is a wrong answer", False)
    except workloads.WrongAnswer as err:
        report("grid: corrupted golden grid is a wrong answer", True,
               str(err)[:100])

    forms = workloads.Forms()
    i = next(j for j, v in enumerate(forms.golden) if v is not None)
    forms.golden = list(forms.golden)
    forms.golden[i] = forms.golden[i] + " corrupted"
    expect_wrong_answer("forms: corrupted golden verdict is a wrong answer",
                        [forms.op(i)])

    golden = json.loads((workloads.GOLDEN / "cli.json").read_text())["queries"]
    golden[0] = dict(golden[0], stdout=golden[0]["stdout"] + " ")
    cli = workloads.Cli(golden=golden)
    expect_wrong_answer("cli: corrupted golden stdout is a wrong answer",
                        [cli.op(0)])


def _raising(op):
    """The operation with a run that raises."""
    def run():
        raise RuntimeError("injected failure")
    return run, op[1]


def check_lost_answers():
    grid_op = next(workloads.Grid().ops(random.Random(0)))
    expect_wrong_answer("grid: a cell that raises is a wrong answer",
                        [_raising(grid_op)])
    forms = workloads.Forms()
    i = next(j for j, v in enumerate(forms.golden) if v is not None)
    expect_wrong_answer("forms: raising where the golden data answers is a "
                        "wrong answer", [_raising(forms.op(i))])


def check_budget_errors_fail():
    forms = workloads.Forms()
    forms.pool = [((2000003, -3000017, 1), "invariants", 1)]
    forms.golden = [None]
    tally = _run_ops([forms.op(0)])
    report("forms: budget error counts as a failure", tally.failed == 1,
           json.dumps(forms.failures))

    cli = workloads.Cli()
    i = next(j for j, q in enumerate(cli.golden) if q["exit"] == 4)
    tally = _run_ops([cli.op(i)])
    report("cli: exit-4 query counts as a failure", tally.failed == 1)


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, last, _ = bench(["--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    report("bare directory fails without a result",
           code != 0 and not last.startswith("{"), f"exit {code}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = check_declared_metrics()
    check_short_runs(spec)
    check_corrupted_golden()
    check_lost_answers()
    check_budget_errors_fail()
    check_bare_directory()
    print(f"{sum(RESULTS)}/{len(RESULTS)} smoke checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
