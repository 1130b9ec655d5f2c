#!/usr/bin/env python3
"""Tabulate the full realizability grid for every ambient family.

Covers K3 plus all four hyperkahler deformation types (Kummer-type and
Hilbert-scheme-type at n = 2, 3) in both multiplication modes, over the
built-in field catalog.  Output goes to stdout.  From the command line, bad
input (a repeated family, a catalog without a section, a negative
--md-bound) prints the JSON error document of `tf tabulate` and exits with
its code, 2.

    python3 scripts/run_realizability_grids.py --format markdown
    python3 scripts/run_realizability_grids.py --mode cm --format csv
"""

import argparse
import sys

from traceforms.cli import (
    catalog_fields, exit_code, load_catalog, parse_families,
    parse_nonnegative, render_table, tabulate_rows,
)

ALL_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"


def build_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["rm", "cm", "both"], default="both")
    ap.add_argument("--families", default=ALL_FAMILIES)
    ap.add_argument("--md-bound", type=int, default=23,
                    help="largest m*degree row to include (23 reaches the "
                         "top of the biggest ambient lattice)")
    ap.add_argument("--format", choices=["json", "csv", "markdown"],
                    default="markdown")
    ap.add_argument("--catalog", default=None,
                    help="alternate field catalog JSON file")
    return ap.parse_args(argv)


def main(argv=None):
    args = build_args(argv)
    md_bound = parse_nonnegative(args.md_bound, "md-bound")
    cat = load_catalog(args.catalog)
    families = parse_families(args.families)
    modes = ["rm", "cm"] if args.mode == "both" else [args.mode]
    rows = []
    for mode in modes:
        rows.extend(tabulate_rows(mode, families,
                                  catalog_fields(cat, mode), md_bound))
    sys.stdout.write(render_table(rows, args.format))
    feasible = sum(1 for r in rows if r["feasible"])
    print(f"\n{len(rows)} rows, {feasible} feasible", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
