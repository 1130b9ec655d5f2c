#!/usr/bin/env python3
"""One pass of the forms workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/forms_pass.py SEED TRACE

Runs every operation of the forms pool once, in the order SEED gives, and
prints one JSON line: the reference and wall latency of each operation, the
failures and the pass's wall and reference seconds.  With TRACE=1 the pass is traced:
the line also carries the per-layer values, and the spans go to
``perfbench/out/trace-forms.bin``.  A wrong answer exits 3.  ``run.py``
starts this once per pass, so that no form is ever seen twice by one
process.
"""

import json
import random
import sys

sys.dont_write_bytecode = True

import clock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    seed, trace = int(argv[1]), argv[2] == "1"
    forms = workloads.Forms()
    layers = None
    with clock.Clock() as clk:
        tally = run.Tally(clk)
        rng = random.Random(seed)
        try:
            if trace:
                header = {"workload": "forms", "pass_seed": seed}
                raw, ref, layers = run.traced_pass(forms, rng, tally, True,
                                                   header)
            else:
                raw, ref = tally.run_pass(forms, rng)
        except workloads.WrongAnswer as err:
            print(err, file=sys.stderr)
            return run.WRONG_ANSWER_EXIT
    print(json.dumps({"latencies": tally.latencies, "walls": tally.walls,
                      "failed": tally.failed,
                      "failures": forms.failures, "raw_s": raw,
                      "ref_s": ref, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
