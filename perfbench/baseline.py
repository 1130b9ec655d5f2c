#!/usr/bin/env python3
"""Measure a baseline: two sets of seeded runs of every workload, plus one
traced run each.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Each set of ``SETS`` runs ``run.py`` once per seed on every workload of
``BENCHMARK.json``, one run at a time, for ``run_seconds``.  For every
end-to-end metric it records the median, the quartiles and the spread (the
quartile distance over the median, as ``statistics.quantiles(n=4)`` gives
the quartiles), of the reported reference-time values and of the wall-clock
figures ``run.py`` prints next to them.  ``agreement`` holds, per metric,
the spread of each set and how much worse the second median is than the
first, both as a share of the metric's bound: ``ok`` is true when each
spread but that of ``setup_s`` and the change stay within the bound.  The
per-layer metrics come from one traced run with the first seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETS = (range(1, 11), range(11, 21))


def bench(workload, seed, seconds, trace):
    """(JSON result, {name: value} of the wall-clock figures, environment)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed: "
                         f"{proc.stderr[-800:]}")
    notes = {line.split(" ", 2)[1]: line.split(" ", 2)[2] for line in lines
             if line.startswith(("# env ", "# wall "))}
    return (result, json.loads(notes.get("wall", "{}")),
            json.loads(notes["env"]))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def run_set(spec, seeds):
    out = {}
    for w in (x["name"] for x in spec["workloads"]):
        runs, walls = [], []
        for seed in seeds:
            result, wall, env = bench(w, seed, spec["run_seconds"], 0)
            runs.append(result)
            walls.append(wall)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        out[w] = {
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
            "end_to_end": {
                m: dict(summarize([r["metrics"][m]["value"] for r in runs]),
                        unit=runs[0]["metrics"][m]["unit"])
                for m in runs[0]["metrics"]},
            "wall": {m: summarize([x[m] for x in walls]) for m in walls[0]},
        }
    return out, env


def agreement(spec, first, second, key):
    """Per workload and metric of first[w][key]: spreads and the change of
    the median in the metric's worse direction, with the verdict."""
    out = {}
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        for w, a in first.items():
            if name not in a[key]:
                continue
            x, y = a[key][name], second[w][key][name]
            change = sign * (y["median"] - x["median"]) / x["median"]
            spreads = [x["spread"], y["spread"]]
            ok = change <= bound and (name == "setup_s"
                                      or max(spreads) <= bound)
            out.setdefault(w, {})[name] = {
                "bound": bound, "spreads": spreads, "change": change,
                "ok": ok}
            print(f"{key} {w} {name}: spreads {spreads[0]:.4f} "
                  f"{spreads[1]:.4f}, change {change:+.4f}, bound {bound}"
                  f"{'' if ok else '  NOT OK'}", flush=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for seeds in SETS:
        workloads, env = run_set(spec, seeds)
        sets.append({"seeds": list(seeds), "workloads": workloads})
    first, second = sets[0]["workloads"], sets[1]["workloads"]
    doc = {
        "run_seconds": spec["run_seconds"],
        "environment": {k: env[k] for k in
                        ("python", "nproc", "pinned_cpu", "commit",
                         "source_sha256", "PYTHONDONTWRITEBYTECODE")},
        "sets": sets,
        "agreement": {key: agreement(spec, first, second, key)
                      for key in ("end_to_end", "wall")},
        "per_layer": {
            w: {m: v["value"] for m, v in
                bench(w, SETS[0][0], spec["run_seconds"], 1)[0]["metrics"]
                .items()}
            for w in first},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    main()
