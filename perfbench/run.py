#!/usr/bin/env python3
"""Benchmark for traceforms: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run, ``--trace
1`` the per-layer metrics of a traced run.  Workloads, answer checks and
metrics are described in ``README.md``.  All times are reference seconds
(see ``clock.py``); an untraced run also prints the wall-clock figures on a
``# wall`` line.  A wrong answer exits 1; the last stdout line is the JSON
result.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import clock as refclock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 7
CLI_PROBE_STARTS = 5
TAIL_ABOVE = 10
#: exit code of a forms pass whose answers were wrong
WRONG_ANSWER_EXIT = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: (metric, unit, span name, field of the tracer summary or a ratio rule)
PER_LAYER = (
    ("exact.hilbert_symbol.calls", "count", "exact.hilbert_symbol", "calls"),
    ("exact.hilbert_symbol.self_s", "s", "exact.hilbert_symbol", "self_s"),
    ("exact.is_prime.calls", "count", "exact.is_prime", "calls"),
    ("exact.is_prime.self_s", "s", "exact.is_prime", "self_s"),
    ("exact.factorize.calls", "count", "exact.factorize", "calls"),
    ("exact.factorize.self_s", "s", "exact.factorize", "self_s"),
    ("exact.factorize.budget_errors", "count", "exact.factorize",
     "budget_error"),
    ("exact.squarefree_class.calls", "count", "exact.squarefree_class",
     "calls"),
    ("exact.squarefree_class.self_s", "s", "exact.squarefree_class",
     "self_s"),
    ("exact.hilbert_support.calls", "count", "exact.hilbert_support",
     "calls"),
    ("qforms.invariants.calls", "count", "qforms.invariants", "calls"),
    ("qforms.invariants.busy_s", "s", "qforms.invariants", "busy_s"),
    ("qforms.form_from_invariants.calls", "count",
     "qforms.form_from_invariants", "calls"),
    ("qforms.form_from_invariants.busy_s", "s",
     "qforms.form_from_invariants", "busy_s"),
    ("qforms.validate_invariants.calls", "count",
     "qforms.validate_invariants", "calls"),
    ("qforms.validate_invariants.accept_ratio", "ratio",
     "qforms.validate_invariants", "accept_ratio"),
    ("qforms.represents_zero.calls", "count", "qforms.represents_zero",
     "calls"),
    ("qforms.represents_zero.busy_s", "s", "qforms.represents_zero",
     "busy_s"),
    ("qforms.represents_zero.witness_ratio", "ratio",
     "qforms.represents_zero", "witness_ratio"),
    ("qforms.split_complement.calls", "count", "qforms.split_complement",
     "calls"),
    ("qforms.split_complement.busy_s", "s", "qforms.split_complement",
     "busy_s"),
    ("numfields.field_invariants.calls", "count",
     "numfields.field_invariants", "calls"),
    ("numfields.field_invariants.busy_s", "s", "numfields.field_invariants",
     "busy_s"),
    ("numfields.lambda_plus_quadratic.calls", "count",
     "numfields.lambda_plus_quadratic", "calls"),
    ("numfields.in_SE.calls", "count", "numfields.in_SE", "calls"),
    ("transfer.split_transfer_feasible.rm.calls", "count",
     "transfer.split_transfer_feasible.rm", "calls"),
    ("transfer.split_transfer_feasible.rm.busy_s", "s",
     "transfer.split_transfer_feasible.rm", "busy_s"),
    ("transfer.split_transfer_feasible.cm.calls", "count",
     "transfer.split_transfer_feasible.cm", "calls"),
    ("transfer.split_transfer_feasible.cm.busy_s", "s",
     "transfer.split_transfer_feasible.cm", "busy_s"),
    ("transfer.rm_transfer_feasible.calls", "count",
     "transfer.rm_transfer_feasible", "calls"),
    ("transfer.cm_transfer_feasible.calls", "count",
     "transfer.cm_transfer_feasible", "calls"),
    ("k3hk.k3_realizable.calls", "count", "k3hk.k3_realizable", "calls"),
    ("k3hk.k3_realizable.busy_s", "s", "k3hk.k3_realizable", "busy_s"),
    ("k3hk.hk_realizable.calls", "count", "k3hk.hk_realizable", "calls"),
    ("k3hk.hk_realizable.busy_s", "s", "k3hk.hk_realizable", "busy_s"),
)
CLI_LAYER = (("cli.interpreter_s", "s"), ("cli.import_s", "s"),
             ("cli.handler_s", "s"))
TRACE_OVERHEAD = ("trace.overhead_ratio", "ratio")

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import traceforms.cli\n"
                "print(repr(time.perf_counter() - t))\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["grid", "forms", "cli"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    pkg = SRC / "traceforms"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(pkg).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, child_env):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "child_env": child_env,
        # a bytecode cache here would let children skip compiling the package
        "package_pycache": (SRC / "traceforms" / "__pycache__").exists(),
    }


# ---------------------------------------------------------------------------
# fresh interpreters


def _child(code, child_env, clock):
    """Run one fresh interpreter: (reference seconds, wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          cwd=ROOT, capture_output=True, timeout=120,
                          check=False)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {proc.stderr[-500:]!r}")
    return clock.reference(t0, t1), t1 - t0, proc.stdout


def setup_seconds(code, child_env, clock):
    """Median set-up time of SETUP_STARTS fresh interpreters: (reference,
    wall) seconds."""
    starts = [_child(code, child_env, clock) for _ in range(SETUP_STARTS)]
    return (statistics.median(ref for ref, _, _ in starts),
            statistics.median(wall for _, wall, _ in starts))


def cli_startup_split(child_env, clock):
    """(interpreter start, import of traceforms.cli), reference seconds;
    the import is timed inside the child."""
    interp = statistics.median(_child("pass", child_env, clock)[0]
                               for _ in range(CLI_PROBE_STARTS))
    imports = []
    for _ in range(CLI_PROBE_STARTS):
        ref, wall, out = _child(IMPORT_PROBE, child_env, clock)
        imports.append(float(out) * ref / wall)
    return interp, statistics.median(imports)


# ---------------------------------------------------------------------------
# measuring


class Tally:
    """Latencies (reference and wall seconds) and failures of the
    operations run."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.walls = []
        self.failed = 0

    def run_pass(self, workload, rng):
        """One pass of the workload in this process; returns (wall,
        reference) seconds spent in its operations."""
        busy = raw_busy = 0.0
        perf = time.perf_counter
        for run, check in workload.ops(rng):
            t0 = perf()
            try:
                value, error = run(), None
            except Exception as err:  # a failed operation, not a crash
                value, error = None, err
            t1 = perf()
            dt = self.clock.reference(t0, t1)
            raw_busy += t1 - t0
            busy += dt
            self.latencies.append(dt)
            self.walls.append(t1 - t0)
            self.failed += bool(check(value, error))
        return raw_busy, busy

    def absorb(self, report, workload):
        """Add a pass that ran in a child (see ``forms_pass.py``)."""
        self.latencies.extend(report["latencies"])
        self.walls.extend(report["walls"])
        self.failed += report["failed"]
        for kind, count in report["failures"].items():
            workload.failures[kind] = workload.failures.get(kind, 0) + count


def tail_latency(latencies):
    """(value, percentile, samples above it): the highest order statistic
    with at least TAIL_ABOVE samples above it (the maximum for tiny runs)."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - TAIL_ABOVE - 1 if n > TAIL_ABOVE else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - i - 1


def fresh_pass(seed, trace, child_env):
    """One pass of a fresh-process workload (forms) in a child interpreter;
    the child's JSON report."""
    proc = subprocess.run([sys.executable, str(HERE / "forms_pass.py"),
                           str(seed), str(int(trace))],
                          env=child_env, cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=False)
    if proc.returncode == WRONG_ANSWER_EXIT:
        import workloads
        raise workloads.WrongAnswer(proc.stderr.strip().splitlines()[-1])
    if proc.returncode != 0:
        raise RuntimeError(f"forms pass failed: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes(workload, seconds):
    """Passes per run: a fixed number for a given --seconds, so that every
    run does the same work and ranks the same number of samples."""
    return max(1, round(workload.passes * seconds / 20))


def measure(workload, rng, seconds, child_env, clock):
    """Untraced run: end-to-end metrics."""
    setup, wall_setup = setup_seconds(workload.setup_code, child_env, clock)
    tally = Tally(clock)
    busy = raw_busy = 0.0
    start = time.perf_counter()
    for _ in range(passes(workload, seconds)):
        if workload.fresh_process:
            report = fresh_pass(rng.randrange(2**32), False, child_env)
            tally.absorb(report, workload)
            raw, ref = report["raw_s"], report["ref_s"]
        else:
            raw, ref = tally.run_pass(workload, rng)
        raw_busy += raw
        busy += ref
    n = len(tally.latencies)
    ok = n - tally.failed
    tail, pct, above = tail_latency(tally.latencies)
    # the operations run in children on the cli and forms workloads
    who = (resource.RUSAGE_SELF if workload.name == "grid"
           else resource.RUSAGE_CHILDREN)
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(f"# {n} operations, {tally.failed} failed, "
          f"{time.perf_counter() - start:.3f} s wall, "
          f"{raw_busy:.3f} s wall in operations = {busy:.3f} reference s")
    print(f"# calibration loop median {1e6 * clock.median_loop_s():.1f} us, "
          f"reference {1e6 * refclock.REF_S:.1f} us")
    print(f"# latency_tail_ms is p{pct:.2f} of {n} samples "
          f"({above} above it)")
    print("# wall " + json.dumps({
        "setup_s": wall_setup,
        "ops_per_s": ok / raw_busy if raw_busy > 0 else 0.0,
        "latency_p50_ms": 1000.0 * statistics.median(tally.walls),
        "latency_tail_ms": 1000.0 * tail_latency(tally.walls)[0],
    }, sort_keys=True))
    values = {
        "setup_s": setup,
        "ops_per_s": ok / busy if busy > 0 else 0.0,
        "latency_p50_ms": 1000.0 * statistics.median(tally.latencies),
        "latency_tail_ms": 1000.0 * tail,
        "success_rate": ok / n,
        "peak_rss_mb": rss_mb,
    }
    return tally, values


def _ratio(row, key):
    if key == "accept_ratio":
        return row["ok"] / row["calls"] if row["calls"] else 0.0
    iso = row["isotropic_with_witness"] + row["isotropic_without_witness"]
    return row["isotropic_with_witness"] / iso if iso else 0.0


def layer_values(summary, factor):
    """Per-layer metrics of one traced pass; span times (wall) are scaled by
    `factor`, the pass's reference/wall ratio."""
    zero = {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "ok": 0,
            "budget_error": 0, "isotropic_with_witness": 0,
            "isotropic_without_witness": 0}
    out = {}
    for metric, unit, span, key in PER_LAYER:
        row = summary.get(span, zero)
        if key.endswith("_ratio"):
            out[metric] = _ratio(row, key)
        else:
            out[metric] = row[key] * factor if unit == "s" else row[key]
    return out


def traced_pass(workload, rng, tally, first, env):
    """One traced pass of fixed work: (wall seconds, reference seconds,
    layer values)."""
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        raw, ref = tally.run_pass(workload, rng)
    finally:
        tr.uninstall()
    if first:
        tr.write(OUT / f"trace-{workload.name}.bin", env)
    return raw, ref, layer_values(tr.summary(), ref / raw)


def measure_traced(workload, rng, seconds, child_env, clock, env):
    """Traced run: rounds of one untraced and one traced pass of fixed work
    (the whole grid, the whole forms pool in fresh interpreters, the cli
    query list in-process) until --seconds is used up."""
    import workloads

    interp, imports = cli_startup_split(child_env, clock)
    tally = Tally(clock)
    plain, traced, handler, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        if workload.fresh_process:
            report = fresh_pass(rng.randrange(2**32), False, child_env)
            tally.absorb(report, workload)
            plain.append(report["ref_s"])
            report = fresh_pass(rng.randrange(2**32), True, child_env)
            tally.absorb(report, workload)
            traced.append(report["ref_s"])
            layers.append(report["layers"])
        else:
            busy = tally.run_pass(workload, rng)[1]
            plain.append(busy)
            if workload.name == "cli":
                handler.append(busy / len(workloads.CLI_QUERIES))
            _, ref, values = traced_pass(workload, rng, tally, not layers,
                                         env)
            traced.append(ref)
            layers.append(values)
        if time.perf_counter() - start >= seconds:
            break
    values = dict(layers[0])
    for metric, unit, _, _ in PER_LAYER:
        if unit == "s":
            values[metric] = statistics.median(v[metric] for v in layers)
    counts_same = all(v[m] == values[m] for v in layers[1:]
                      for m, u, _, _ in PER_LAYER if u == "count")
    print(f"# {len(layers)} traced pass(es); counts identical across "
          f"traced passes: {counts_same}")
    values["cli.interpreter_s"] = interp
    values["cli.import_s"] = imports
    if not handler:
        # the cli start-up split is measured on every workload; run the
        # query list in-process last, so that it warms nothing traced above
        cli = workloads.Cli(in_process=True)
        busy = Tally(clock).run_pass(cli, rng)[1]
        handler.append(busy / len(workloads.CLI_QUERIES))
    values["cli.handler_s"] = statistics.median(handler)
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(plain))
    return tally, values


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "traceforms" / "__init__.py").is_file():
        print(f"perfbench: no traceforms package under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment(args, workloads.CHILD_ENV)
    # the clock only tracks the speed of the CPU its loop runs on, and
    # children inherit the affinity (see clock.py)
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("# env " + json.dumps(env, sort_keys=True))
    rng = random.Random(args.seed)
    try:
        if args.workload == "cli":
            workload = workloads.Cli(in_process=bool(args.trace))
        else:
            workload = workloads.WORKLOADS[args.workload]()
        with refclock.Clock() as clock:
            if args.trace:
                tally, values = measure_traced(workload, rng, args.seconds,
                                               workloads.CHILD_ENV, clock,
                                               env)
                units = [(m, u) for m, u, _, _ in PER_LAYER]
                units += list(CLI_LAYER) + [TRACE_OVERHEAD]
            else:
                tally, values = measure(workload, rng, args.seconds,
                                        workloads.CHILD_ENV, clock)
                units = list(END_TO_END)
    except workloads.WrongAnswer as err:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    if workload.failures:
        print("# failures by kind: "
              + json.dumps(workload.failures, sort_keys=True))
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"# {name} = {values[name]} {unit}")
    print(json.dumps({"correct": True,
                      "attempted": len(tally.latencies),
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
