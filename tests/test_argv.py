"""`tf` reads its command line by one table, `cli.COMMANDS`.

- `--flag=value` is read as `--flag value`, for every golden query;
- a bad command line makes `cli.main` return 2 with the schema error
  document, and never raise SystemExit;
- `--help` prints the usage of `tf` and of each command, exit 0;
- no golden query, no bare `import traceforms.cli` and no run of the grid
  script loads `argparse`, `gettext` or `locale`, counted in fresh
  interpreters;
- an elliptic `degree-4` context takes only a Picard rank 22 - 4m, and a
  `small-degree` one only a degree 2, 4, 10 or 20.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_file, run_cli
from traceforms.cli import COMMANDS, EXIT_OK, EXIT_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_realizability_grids.py"
QUERIES = json.loads((ROOT / "perfbench" / "golden" / "cli.json")
                     .read_text())["queries"]
IDS = [f"{i}-{q['argv'][0]}" for i, q in enumerate(QUERIES)]
FIELD = json.dumps({"kind": "real_quadratic", "d": 2})
FORM = json.dumps({"diagonal": [1, -1]})
HEAVY = ("argparse", "gettext", "locale")


def _joined(argv):
    """`argv` with each `--flag value` pair written as `--flag=value`."""
    out, words = [argv[0]], iter(argv[1:])
    for word in words:
        out.append(f"{word}={next(words)}")
    return out


# ---------------------------------------------------------------------------
# --flag=value


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_flag_equals_value_reads_as_flag_value(query):
    argv = query["argv"]
    joined = _joined(argv)
    assert joined != argv and len(joined) == (len(argv) + 1) // 2
    assert run_cli(joined) == run_cli(argv)


# ---------------------------------------------------------------------------
# argv errors


BAD_ARGV = {
    "no command": [],
    "unknown command": ["k4", "--field", FIELD],
    "flag before the command": ["--field", FIELD, "k3"],
    "unknown flag": ["form-invariants", "--form", FORM, "--colour", "red"],
    "abbreviated flag": ["tabulate", "--mode", "rm", "--fo", "csv"],
    "abbreviated flag=value": ["tabulate", "--mode", "rm", "--fo=csv"],
    "single-dash flag": ["form-invariants", "-form", FORM],
    "stray word": ["form-invariants", "--form", FORM, "extra"],
    "repeated flag": ["form-invariants", "--form", FORM, "--form", FORM],
    "repeated flag=value": ["k3", "--field", FIELD, "--m", "3", "--m=4",
                            "--mode", "rm"],
    "value-less flag at the end": ["k3", "--field", FIELD, "--mode", "rm",
                                   "--m"],
    "value-less flag before a flag": ["k3", "--field", FIELD, "--m",
                                      "--mode", "rm"],
    "missing required flag": ["k3", "--field", FIELD, "--mode", "rm"],
    "missing mode": ["k3", "--field", FIELD, "--m", "3"],
    "m not an integer": ["k3", "--field", FIELD, "--m", "x", "--mode", "rm"],
    "md-bound not an integer": ["tabulate", "--mode", "rm", "--md-bound",
                                "1.5"],
    "unknown mode": ["k3", "--field", FIELD, "--m", "3", "--mode", "xx"],
    "unknown format": ["tabulate", "--mode", "rm", "--format", "xx"],
    "k3 is no hk family": ["hk", "--family", "k3", "--field", FIELD,
                           "--m", "3", "--mode", "rm"],
    "n not an integer": ["hk", "--family", "kummer", "--n", "2.0",
                         "--field", FIELD, "--m", "3", "--mode", "rm"],
}


@pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV)
def test_bad_argv_is_a_schema_error(argv):
    try:
        code, out = run_cli(argv)
    except SystemExit as err:   # what argparse did
        pytest.fail(f"main raised SystemExit({err.code})")
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert set(doc) == {"status", "kind", "error"}
    assert (doc["status"], doc["kind"]) == ("error", "schema")
    assert doc["error"].startswith("argv: ")


def test_argv_errors_name_what_is_wrong():
    def error(argv):
        return json.loads(run_cli(argv)[1])["error"]
    assert "'--fo'" in error(BAD_ARGV["abbreviated flag"])
    assert "--form given twice" in error(BAD_ARGV["repeated flag"])
    assert "--m needs a value" in error(BAD_ARGV["value-less flag at the end"])
    assert "needs --m" in error(BAD_ARGV["missing required flag"])
    assert "one of rm, cm" in error(BAD_ARGV["unknown mode"])
    assert "one of kummer, og6, hilbk3, og10" in error(
        BAD_ARGV["k3 is no hk family"])


def test_a_value_may_start_with_one_dash():
    assert run_cli(["represents-zero", "--form", FORM, "--height", "-3"]) == \
        run_cli(["represents-zero", "--form", FORM, "--height=-3"])


# ---------------------------------------------------------------------------
# help


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_tf_help_names_every_command(flag):
    code, out = run_cli([flag])
    assert code == EXIT_OK and out.startswith("usage: tf")
    for name, (_, text, _) in COMMANDS.items():
        assert f"  {name} " in out and text in out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_names_every_flag(command):
    code, out = run_cli([command, "--help"])
    assert code == EXIT_OK and out.startswith(f"usage: tf {command} ")
    assert COMMANDS[command][1] in out
    for flag in COMMANDS[command][2]:
        assert f"--{flag} " in out


def test_help_after_flags_is_still_help():
    assert run_cli(["k3", "--m", "3", "-h"]) == run_cli(["k3", "--help"])


# ---------------------------------------------------------------------------
# start-up gate: no argparse, gettext or locale


CHILD = """\
import sys
{run}
print("loaded:", *(m for m in {heavy!r} if m in sys.modules), file=sys.stderr)
"""


def _heavy_modules(run, *argv):
    """The modules of HEAVY that a fresh `python -S` interpreter holds after
    `run`, and its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(run=run, heavy=HEAVY),
         *argv], env=env, capture_output=True, text=True, timeout=120,
        check=False)
    report = proc.stderr.strip().splitlines()[-1].split()
    assert report[0] == "loaded:", proc.stderr
    return set(report[1:]), proc.stdout


def test_bare_import_loads_no_argument_parser():
    assert _heavy_modules("import traceforms.cli")[0] == set()


@pytest.mark.parametrize("query", QUERIES, ids=IDS)
def test_golden_query_loads_no_argument_parser(query):
    run = "from traceforms.cli import main\nmain(sys.argv[1:])"
    modules, out = _heavy_modules(run, *query["argv"])
    assert modules == set()
    assert out == run_cli(query["argv"])[1]


def test_grid_script_loads_no_argument_parser():
    run = (f"import runpy\nscript = runpy.run_path({str(SCRIPT)!r})\n"
           "script['exit_code'](script['main'], ['--mode', 'cm', "
           "'--md-bound', '4', '--format', 'csv'])")
    modules, out = _heavy_modules(run)
    assert modules == set()
    assert out.startswith("family,field,degree,")


def test_no_source_imports_argparse():
    sources = [*sorted((ROOT / "src" / "traceforms").glob("*.py")), SCRIPT]
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "import argparse" not in text, path.name


# ---------------------------------------------------------------------------
# the grid script reads its flags by the same reader


GRID_BAD_ARGV = {
    "unknown flag": ["--colour", "red"],
    "abbreviated flag": ["--fam", "k3"],
    "repeated flag": ["--mode", "rm", "--mode", "cm"],
    "value-less flag": ["--format"],
    "unknown mode": ["--mode", "xx"],
    "md-bound not an integer": ["--md-bound=1.5"],
}


@pytest.mark.parametrize("argv", GRID_BAD_ARGV.values(), ids=GRID_BAD_ARGV)
def test_grid_script_bad_flag_is_a_schema_error(argv):
    from traceforms.cli import exit_code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = exit_code(load_file(SCRIPT).main, argv)
    assert code == EXIT_SCHEMA
    doc = json.loads(out.getvalue())
    assert (doc["status"], doc["kind"]) == ("error", "schema")


def test_grid_script_help_names_every_flag():
    module = load_file(SCRIPT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert module.main(["--help"]) == 0
    for flag in module.FLAGS:
        assert f"--{flag} " in out.getvalue()


def test_grid_script_bad_flag_from_the_command_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--fo", "csv"],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == EXIT_SCHEMA
    assert json.loads(proc.stdout)["kind"] == "schema"
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# the Picard rank of a degree-4 elliptic context


def _degree_4(rho):
    return ["elliptic", "--context", json.dumps(
        {"case": "degree-4", "field": {"kind": "cyclotomic", "n": 5},
         "rho": rho})]


@pytest.mark.parametrize("rho", [-7, 0, 1, 3, 4, 5, 30])
def test_degree_4_refuses_a_rank_that_is_not_22_minus_4m(rho):
    code, out = run_cli(_degree_4(rho))
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert doc["kind"] == "schema" and "rho must be 22 - 4m" in doc["error"]


@pytest.mark.parametrize("rho", [2, 6, 10, 14, 18])
def test_degree_4_answers_every_rank_22_minus_4m(rho):
    code, out = run_cli(_degree_4(rho))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == ("yes" if rho >= 6 else "no")


# ---------------------------------------------------------------------------
# the field degree of a small-degree elliptic context


def _small_degree(degree):
    return ["elliptic", "--context", json.dumps(
        {"case": "small-degree", "degree": degree})]


@pytest.mark.parametrize("degree", [-4, 0, 1, 3, 5, 6, 8, 12, 22])
def test_small_degree_refuses_a_degree_that_does_not_divide_20(degree):
    # a rank-2 algebraic part leaves md = 20 to a CM field, of even degree
    code, out = run_cli(_small_degree(degree))
    assert code == EXIT_SCHEMA
    doc = json.loads(out)
    assert doc["kind"] == "schema"
    assert doc["error"] == ("context: degree must be an even divisor of 20 "
                            f"(2, 4, 10 or 20), got {degree}")


#: the answer to each degree that can occur, byte for byte; the reader
#: changes none of them
SMALL_DEGREE_ANSWERS = {
    degree: '{\n  "reason": "%s",\n  "verdict": "%s"\n}\n' % pair
    for degree, pair in (
        (2, ("rank-2 algebraic part is rationally hyperbolic (field "
             "discriminant power is a square)", "yes")),
        (4, ("no decided criterion for degree 4 here", "undetermined")),
        (10, ("rank-2 algebraic part is rationally hyperbolic (field "
              "discriminant power is a square)", "yes")),
        (20, ("no decided criterion for degree 20 here", "undetermined")))}


@pytest.mark.parametrize("degree", sorted(SMALL_DEGREE_ANSWERS))
def test_small_degree_answers_every_even_divisor_of_20(degree):
    assert run_cli(_small_degree(degree)) == (EXIT_OK,
                                              SMALL_DEGREE_ANSWERS[degree])
