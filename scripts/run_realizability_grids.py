#!/usr/bin/env python3
"""Tabulate the full realizability grid for every ambient family.

Covers K3 plus all four hyperkahler deformation types (Kummer-type and
Hilbert-scheme-type at n = 2, 3) in both multiplication modes, over the
built-in field catalog, or the field catalog JSON file `--catalog`.  Rows
run up to m*degree = `--md-bound`, by default 23, the top of the biggest
ambient lattice.  Output goes to stdout.  From the command line, bad input
(an unknown flag, a repeated family, an empty --catalog, a catalog without
a section, a negative --md-bound) prints the JSON error document of
`tf tabulate` and exits with its code, 2; `--help` prints the flags.

    python3 scripts/run_realizability_grids.py --format markdown
    python3 scripts/run_realizability_grids.py --mode cm --format csv
"""

import gc
import sys

from traceforms.cli import (
    catalog_fields, choice, exit_code, load_catalog, parse_families,
    parse_nonnegative, read_flags, render_table, tabulate_rows,
)
from traceforms.exact import json_str

ALL_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"

#: the script's flags, read as `tf tabulate` reads its own
FLAGS = {"mode": (choice("rm", "cm", "both"), "both"),
         "families": (json_str, ALL_FAMILIES),
         "md-bound": (parse_nonnegative, 23),
         "format": (choice("json", "csv", "markdown"), "markdown"),
         "catalog": (json_str, None)}


def main(argv=None):
    args = read_flags(sys.argv[1:] if argv is None else argv, FLAGS,
                      "run_realizability_grids.py", __doc__.splitlines()[0])
    if isinstance(args, str):
        sys.stdout.write(args)
        return 0
    cat = load_catalog(args["catalog"])
    families = parse_families(args["families"])
    modes = ["rm", "cm"] if args["mode"] == "both" else [args["mode"]]
    rows = []
    for mode in modes:
        rows.extend(tabulate_rows(mode, families, catalog_fields(cat, mode),
                                  args["md-bound"]))
    sys.stdout.write(render_table(rows, args["format"]))
    feasible = sum(1 for r in rows if r["feasible"])
    print(f"\n{len(rows)} rows, {feasible} feasible", file=sys.stderr)
    return 0


def run() -> int:
    """Process entry, as `tf`'s `run`: freeze what start-up made, which lives
    until exit, then answer `main`, which itself never freezes."""
    gc.freeze()
    return exit_code(main)


if __name__ == "__main__":
    sys.exit(run())
