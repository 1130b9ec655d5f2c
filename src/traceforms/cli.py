"""Command-line surface.

One subcommand per library query, its flags read by the table `COMMANDS`;
JSON in via flags, a single JSON document out on stdout (tables also come as
csv or markdown on request).  Exit codes: 0 ok, 2 malformed input or command
line, 3 a library precondition rejected the input, 4 a factorization or
search budget ran out.
"""

import gc
import io
import json
import sys
from pathlib import Path

# A cold `tf` query compiles and runs every module it imports, so only the
# form layers load here; whatever needs poly, numfields, transfer or k3hk
# imports the names it uses inside the function.
from .exact import (
    DEFAULT_FACTOR_BUDGET, FactorizationBudgetError, SchemaError,
    json_array, json_int, json_minpoly, json_object, json_str,
)
from .qforms import (
    WITNESS_BUDGET, QuadraticForm, form_from_json, form_to_json, invariants,
    invariants_to_json, is_isomorphic, place_str, rational_from,
    rational_str, represents_zero, split_complement,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CRITERION = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# serialization helpers


def jsonable(obj):
    """A library document with its places rendered as strings ("2", "inf"),
    so documents stay type-stable: the values under `place`,
    `obstruction_place` and `primes`.  Every other value is a str, int,
    bool, None, list, tuple or dict already."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k in ("place", "obstruction_place") and v is not None:
                out[k] = place_str(v)
            elif k == "primes":
                out[k] = [place_str(p) for p in v]
            else:
                out[k] = jsonable(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def verdict_json(v) -> dict:
    from .transfer import verdict_to_json
    return jsonable(verdict_to_json(v))


def emit(doc) -> None:
    """`doc` on stdout: a str as it is, anything else as a JSON document."""
    sys.stdout.write(doc if isinstance(doc, str) else
                     json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# input parsing


def parse_json_arg(raw: str, what: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{what}: invalid JSON ({err})") from err


def read(what: str, reader, obj):
    """`reader(obj)`, the one gate between outside input and the library:
    a KeyError, TypeError or ValueError that the reader raises becomes the
    schema error that names `what`.  A SchemaError or a budget error passes
    through unchanged."""
    try:
        return reader(obj)
    except (SchemaError, FactorizationBudgetError):
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{what}: {err}") from err


def parse_form(raw: str, what="form") -> QuadraticForm:
    return read(what, form_from_json, parse_json_arg(raw, what))


def parse_nonnegative(value, what: str) -> int:
    """`value`, a JSON integer, if it is nonnegative."""
    value = json_int(value, what)
    if value < 0:
        raise SchemaError(f"{what}: must be nonnegative, got {value}")
    return value


def parse_field(raw: str):
    from .numfields import desc_from_json
    return read("field", desc_from_json, parse_json_arg(raw, "field"))


def _quadratic_element(pair):
    """An [a, b] pair of JSON rationals as a + b*sqrt(d)."""
    from .transfer import QuadFieldElement
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"expected an [a, b] pair, got {pair!r}")
    return QuadFieldElement(rational_from(pair[0]), rational_from(pair[1]))


def parse_entries(E, raw: str):
    """Diagonal entries of a form over E: pairs [a, b] meaning a + b*sqrt(d)
    over a real quadratic field, plain rationals over an imaginary quadratic
    one."""
    from .numfields import ImagQuadratic, RealQuadratic
    obj = parse_json_arg(raw, "entries")
    if not isinstance(obj, list) or not obj:
        raise SchemaError("entries: need a nonempty JSON array")
    if isinstance(E, RealQuadratic):
        entry = _quadratic_element
    elif isinstance(E, ImagQuadratic):
        entry = rational_from
    else:
        raise SchemaError("entries: explicit transfer needs a real or "
                          "imaginary quadratic field")
    return read("entries", lambda items: list(map(entry, items)), obj)


def parse_witness(E, raw: str):
    """[a, b] over a real quadratic field, else polynomial coefficients."""
    from .numfields import RealQuadratic
    from .poly import Poly
    obj = parse_json_arg(raw, "witness")
    if not isinstance(obj, list):
        raise SchemaError("witness: need a JSON array")
    if isinstance(E, RealQuadratic):
        return read("witness", _quadratic_element, obj)
    return read("witness",
                lambda coeffs: Poly.make(list(map(rational_from, coeffs))), obj)


# ---------------------------------------------------------------------------
# catalogs


def default_catalog_path() -> Path:
    return Path(__file__).parent / "data" / "fields.json"


def load_catalog(path=None) -> dict:
    """The catalog at `path` (the built-in one if None), read by its keys."""
    if path == "":
        raise SchemaError("catalog: the path is empty")
    p = default_catalog_path() if path is None else Path(path)
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(p, encoding="utf-8") as fh:
            cat = json.load(fh)
    except OSError as err:
        raise SchemaError(f"catalog: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise SchemaError(f"catalog: invalid JSON ({err})") from err
    if not (isinstance(cat, dict) and "totally_real" in cat and "cm" in cat):
        raise SchemaError("catalog: need totally_real and cm sections")
    return read("catalog", lambda obj: json_object(obj, CATALOG_KEYS), cat)


def _section(entries):
    """A catalog section's reader; `entries` reads one entry of each key."""
    def section(obj, name):
        if not isinstance(obj, dict):
            raise ValueError(f"section {name} must be an object")

        def entry_list(items, key):
            # an array and each of its entries name themselves as name.key
            what = f"{name}.{key}"
            items = read("catalog", lambda v: json_array(v, what), items)
            return [read(f"catalog: {what} entry {e!r}", entries[key], e)
                    for e in items]
        return read(f"catalog: section {name}", lambda obj: json_object(
            obj, dict.fromkeys(entries, entry_list)), obj)
    return section


#: a `higher` entry's keys and readers; the library uses `name` and `minpoly`
HIGHER_ENTRY_KEYS = {"name": json_str, "minpoly": json_minpoly,
                     "degree": json_int, "disc": json_int,
                     "disc_class": json_int, "comment": json_str}

#: the keys of a catalog and their readers
CATALOG_KEYS = {
    "version": json_int, "comment": json_str,
    "totally_real": _section({
        "quadratic": lambda d: json_int(d, "d"),
        "higher": lambda e: json_object(e, HIGHER_ENTRY_KEYS,
                                        ("name", "minpoly"))}),
    "cm": _section({"imag_quadratic": lambda D: json_int(D, "D"),
                    "cyclotomic": lambda n: json_int(n, "n")}),
}


def catalog_fields(cat: dict, mode: str):
    """(label, descriptor, degree) triples of a catalog that `load_catalog`
    read, for one mode, sorted by (degree, label)."""
    from .numfields import (Cyclotomic, GeneralTotallyReal, ImagQuadratic,
                            RealQuadratic, field_invariants)
    section = cat["totally_real" if mode == "rm" else "cm"]
    if mode == "rm":
        out = [(f"Q(sqrt {d})", RealQuadratic(d))
               for d in section.get("quadratic", ())]
        out += [(e["name"], GeneralTotallyReal(e["minpoly"]))
                for e in section.get("higher", ())]
    else:
        out = [(f"Q(sqrt -{D})", ImagQuadratic(D))
               for D in section.get("imag_quadratic", ())]
        out += [(f"Q(zeta {n})", Cyclotomic(n))
                for n in section.get("cyclotomic", ())]
    return sorted(((label, desc, field_invariants(desc).degree)
                   for label, desc in out), key=lambda t: (t[2], t[0]))


def parse_families(raw: str):
    """Comma list like "k3,kummer:2,og6,hilbk3:2,og10" into ambient family
    tokens, each family and n read as `tf hk` reads them."""
    from .k3hk import ambient
    out, seen = [], set()
    for token in filter(None, map(str.strip, raw.split(","))):
        fam, colon, n = token.partition(":")
        n = read("families", lambda n: json_int(n, f"n in {token!r}"),
                 n) if colon else None
        amb = read("families", lambda n: ambient(fam, n), n)
        if (amb.family, amb.n) in seen:
            raise SchemaError(f"families: {token!r} repeats an earlier family")
        seen.add((amb.family, amb.n))
        out.append((f"{fam}:{n}" if colon else token, fam, n))
    if not out:
        raise SchemaError("families: empty list")
    return out


# ---------------------------------------------------------------------------
# tabulate


def tabulate_rows(mode: str, families, fields, md_bound: int):
    from .k3hk import hk_reports
    rows = []
    min_m = 3 if mode == "rm" else 1
    for label, fam, n in sorted(families, key=lambda t: t[0]):
        for field_label, desc, degree in fields:
            ms = range(min_m, md_bound // degree + 1)
            for m, rep in zip(ms, hk_reports(fam, n, desc, mode, ms)):
                v = rep.verdict
                feasible = v.status == "feasible"
                rows.append({
                    "family": label,
                    "field": field_label,
                    "degree": degree,
                    "m": m,
                    "md": m * degree,
                    "mode": mode,
                    "feasible": feasible,
                    "status": v.status,
                    "family_dim": rep.family_dimension if feasible else None,
                    "pic_rank": rep.pic_rank,
                    "criterion": v.criterion,
                })
    return rows


_COLUMNS = ["family", "field", "degree", "m", "md", "mode", "feasible",
            "status", "family_dim", "pic_rank", "criterion"]


def render_table(rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows, "count": len(rows)},
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        import csv
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_COLUMNS)
        for r in rows:
            w.writerow(["" if r[c] is None else r[c] for c in _COLUMNS])
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(_COLUMNS) + " |",
                 "|" + "|".join(" --- " for _ in _COLUMNS) + "|"]
        for r in rows:
            lines.append("| " + " | ".join(
                "" if r[c] is None else str(r[c]) for c in _COLUMNS) + " |")
        return "\n".join(lines) + "\n"
    raise SchemaError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# command handlers


def cmd_form_invariants(args) -> dict:
    f = parse_form(args["form"])
    return invariants_to_json(invariants(f, budget=args["budget"]))


def cmd_form_isomorphic(args) -> dict:
    a = parse_form(args["a"], "a")
    b = parse_form(args["b"], "b")
    return {"isomorphic": is_isomorphic(a, b)}


def cmd_form_split(args) -> dict:
    v = parse_form(args["ambient"], "ambient")
    u = parse_form(args["sub"], "sub")
    res = split_complement(v, u)
    out = {"feasible": res.feasible}
    if res.complement is not None:
        out["complement"] = form_to_json(res.complement)
    if res.complement_invariants is not None:
        out["complement_invariants"] = invariants_to_json(
            res.complement_invariants)
    if res.reason is not None:
        out["reason"] = res.reason
    return out


def cmd_represents_zero(args) -> dict:
    f = parse_form(args["form"])
    verdict = represents_zero(f, height=args["height"],
                              budget=args["budget"])
    out = {"isotropic": verdict.isotropic}
    if verdict.witness is not None:
        out["witness"] = [rational_str(x) for x in verdict.witness]
    if verdict.obstruction is not None:
        out["obstruction_place"] = place_str(verdict.obstruction)
    return out


def cmd_transfer_compute(args) -> dict:
    from .numfields import RealQuadratic, field_invariants
    from .transfer import transfer_hermitian_imagquad, transfer_quadratic
    E = parse_field(args["field"])
    entries = parse_entries(E, args["entries"])
    field_invariants(E)     # validates the descriptor, as every query does
    if isinstance(E, RealQuadratic):
        t = transfer_quadratic(E.d, entries)
    else:
        t = transfer_hermitian_imagquad(E.D, entries)
    return {"transfer": form_to_json(t),
            "invariants": invariants_to_json(invariants(t))}


def cmd_transfer_feasible(args) -> dict:
    from .transfer import cm_transfer_feasible, rm_transfer_feasible
    E = parse_field(args["field"])
    f = parse_form(args["form"])
    witness = parse_witness(E, args["witness"]) if args["witness"] else None
    if args["mode"] == "rm":
        v = rm_transfer_feasible(E, f, witness=witness)
    else:
        v = cm_transfer_feasible(E, f)
    return verdict_json(v)


def cmd_hk(args) -> dict:
    from .k3hk import ambient, hk_realizable, report_to_json
    E = parse_field(args["field"])
    read("family", lambda n: ambient(args["family"], n), args["n"])
    rep = hk_realizable(args["family"], args["n"], E, args["m"],
                        args["mode"])
    return jsonable(report_to_json(rep))


def cmd_picard(args) -> dict:
    from .k3hk import picard_compatible
    E = parse_field(args["field"])
    f = parse_form(args["form"])
    witness = parse_witness(E, args["witness"]) if args["witness"] else None
    v = picard_compatible(f, E, args["m"], args["mode"], witness=witness)
    return verdict_json(v)


def cmd_elliptic(args) -> dict:
    from .k3hk import (elliptic_context, elliptic_fibration_verdict,
                       famous_examples)
    case, context = args["case"], args["context"]
    if (case is None) == (context is None):
        raise SchemaError("elliptic: pass exactly one of --case, --context")
    if case is not None:
        reg = famous_examples()
        if case not in reg:
            raise SchemaError(f"elliptic: unknown case {case!r}; "
                              f"known: {', '.join(sorted(reg))}")
        ctx = reg[case].elliptic_context
        if ctx is None:
            raise ValueError(
                f"case {case!r} has no elliptic-fibration question")
    else:
        ctx = read("context", elliptic_context,
                   parse_json_arg(context, "context"))
    return jsonable(elliptic_fibration_verdict(ctx))


def cmd_tabulate(args) -> str:
    cat = load_catalog(args["catalog"])
    fields = catalog_fields(cat, args["mode"])
    families = parse_families(args["families"])
    rows = tabulate_rows(args["mode"], families, fields, args["md-bound"])
    return render_table(rows, args["format"])


# ---------------------------------------------------------------------------
# argv


#: the default of a flag that must be given
REQUIRED = object()


def choice(*names):
    """The reader of a flag whose value is one of `names`."""
    def reader(value, what):
        if value not in names:
            raise ValueError(f"{what} must be one of {', '.join(names)}, "
                             f"got {value!r}")
        return value
    reader.choices = names
    return reader


def usage(prog: str, flags: dict, text: str) -> str:
    """`prog`'s usage line, its optional flags bracketed, then `text`."""
    words = [prog]
    for name, (reader, default) in flags.items():
        flag = f"--{name} " + "|".join(getattr(reader, "choices",
                                               [name.upper()]))
        words.append(flag if default is REQUIRED else f"[{flag}]")
    return f"usage: {' '.join(words)}\n\n{text}\n"


def read_flags(argv, flags: dict, prog: str, text: str):
    """The values of `argv`, words `--flag value` or `--flag=value` read by
    `flags`, which maps each flag's name to its (reader, default); or, given
    -h or --help, the `usage` text.  An unknown, abbreviated, repeated or
    value-less flag, a stray word and a missing REQUIRED flag are schema
    errors."""
    out, words = {}, iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return usage(prog, flags, text)
        name, eq, value = word[2:].partition("=")
        if not word.startswith("--") or name not in flags:
            raise SchemaError(f"argv: {prog} has no flag {word!r}")
        if name in out:
            raise SchemaError(f"argv: --{name} given twice")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise SchemaError(f"argv: --{name} needs a value")
        out[name] = read("argv", lambda v: flags[name][0](v, name), value)
    for name, (reader, default) in flags.items():
        if name not in out:
            if default is REQUIRED:
                raise SchemaError(f"argv: {prog} needs --{name}")
            out[name] = default
    return out


JSON_FLAG, OPTIONAL_FLAG = (json_str, REQUIRED), (json_str, None)
MODE_FLAG = (choice("rm", "cm"), REQUIRED)
#: the flags of a realizability query
REALIZE_FLAGS = {"field": JSON_FLAG, "m": (json_int, REQUIRED),
                 "mode": MODE_FLAG}

#: each subcommand's handler, its one-line help and its `read_flags` table
COMMANDS = {
    "form-invariants": (
        cmd_form_invariants, "classifying invariants of a rational form",
        {"form": JSON_FLAG,
         "budget": (parse_nonnegative, DEFAULT_FACTOR_BUDGET)}),
    "form-isomorphic": (cmd_form_isomorphic, "rational isomorphism of two "
                        "forms", {"a": JSON_FLAG, "b": JSON_FLAG}),
    "form-split": (cmd_form_split, "orthogonal complement of a subform",
                   {"ambient": JSON_FLAG, "sub": JSON_FLAG}),
    "represents-zero": (
        cmd_represents_zero, "global isotropy with witness or obstruction",
        {"form": JSON_FLAG, "height": (parse_nonnegative, 50),
         "budget": (parse_nonnegative, WITNESS_BUDGET)}),
    "transfer-compute": (cmd_transfer_compute, "explicit trace-form transfer "
                         "over a quadratic or imaginary quadratic field",
                         {"field": JSON_FLAG, "entries": JSON_FLAG}),
    "transfer-feasible": (
        cmd_transfer_feasible, "is a rational form a transfer from the field",
        {"field": JSON_FLAG, "form": JSON_FLAG, "mode": MODE_FLAG,
         "witness": OPTIONAL_FLAG}),
    "k3": (lambda args: cmd_hk({**args, "family": "k3", "n": None}),
           "K3 realizability for a field and rank", REALIZE_FLAGS),
    "hk": (cmd_hk, "hyperkahler realizability",
           {"family": (choice("kummer", "og6", "hilbk3", "og10"), REQUIRED),
            "n": (json_int, None), **REALIZE_FLAGS}),
    "picard": (cmd_picard, "compatibility of a prescribed Picard form",
               {"form": JSON_FLAG, **REALIZE_FLAGS,
                "witness": OPTIONAL_FLAG}),
    "elliptic": (cmd_elliptic, "elliptic-fibration verdict for decided cases",
                 {"case": OPTIONAL_FLAG, "context": OPTIONAL_FLAG}),
    "tabulate": (cmd_tabulate, "realizability grids over a catalog",
                 {"mode": MODE_FLAG, "families": (json_str, "k3"),
                  "md-bound": (parse_nonnegative, 21),
                  "format": (choice("json", "csv", "markdown"), "json"),
                  "catalog": OPTIONAL_FLAG}),
}


def read_argv(argv):
    """The handler of a `tf` command line and its flags, or the help text
    that `-h` or `--help` asks for in place of the flags."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None, usage("tf <command>", {}, "K3 and hyperkahler "
                           "multiplication queries; `tf <command> --help` "
                           "shows a command's flags.\n\n" + "\n".join(
                               f"  {name:<18} {text}"
                               for name, (_, text, _) in COMMANDS.items()))
    if command not in COMMANDS:
        raise SchemaError("argv: need a command, one of "
                          f"{', '.join(COMMANDS)}; got {command!r}")
    handler, text, flags = COMMANDS[command]
    return handler, read_flags(argv[1:], flags, f"tf {command}", text)


def exit_code(query, *args) -> int:
    """Run `query(*args)` and return EXIT_OK; if it rejects its input, print
    the JSON error document on stdout and return the exit code of the
    rejection instead.  `main` and the grid script both answer through
    this."""
    try:
        query(*args)
    except SchemaError as err:
        emit({"status": "error", "kind": "schema", "error": str(err)})
        return EXIT_SCHEMA
    except FactorizationBudgetError as err:
        emit({"status": "error", "kind": "budget", "error": str(err)})
        return EXIT_BUDGET
    except (ValueError, KeyError) as err:
        emit({"status": "error", "kind": "criterion", "error": str(err)})
        return EXIT_CRITERION
    return EXIT_OK


def _answer(argv) -> None:
    handler, args = read_argv(argv)
    emit(args if isinstance(args, str) else handler(args))


def main(argv=None) -> int:
    return exit_code(_answer, sys.argv[1:] if argv is None else list(argv))


def run() -> int:
    """Process entry (`tf`, `python -m traceforms.cli`): freeze what start-up
    made, which lives until exit, so no collection walks it and shutdown does
    not tear it down, then answer `main`.  `main` itself never freezes."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
