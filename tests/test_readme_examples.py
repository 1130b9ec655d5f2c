"""README's "Command line" section, run as written.

Every `tf` command in its shell blocks runs through `cli.main` and exits 0,
and where README prints the answer (a `# {...}` line after the command) the
JSON document equals it.  Each input rule that the section states has one
case below, with the exit code the section gives it."""

import json
import re
import shlex
from pathlib import Path

import pytest

from traceforms.cli import EXIT_BUDGET, EXIT_OK, EXIT_SCHEMA, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section() -> str:
    text = README.read_text()
    start = text.index("## Command line")
    return text[start:text.index("\n## ", start + 1)]


def _examples():
    """(argv, printed answer or None) per `tf` command of the section."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", _section(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("tf "):
                continue
            nxt = lines[i + 1] if i + 1 < len(lines) else ""
            answer = json.loads(nxt[2:]) if nxt.startswith("# {") else None
            out.append((shlex.split(line)[1:], answer))
    return out


EXAMPLES = _examples()


def test_the_section_has_examples_with_answers():
    assert len(EXAMPLES) >= 7
    assert sum(answer is not None for _, answer in EXAMPLES) >= 2


@pytest.mark.parametrize("argv, answer", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_command_runs(capsys, argv, answer):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    if answer is not None:
        assert json.loads(out) == answer


# ---------------------------------------------------------------------------
# one case per stated input rule

N = "1000000016000000063"      # 1000000007 * 1000000009, past trial division
# the product of the two primes after 10^20: past trial division and past
# the iteration cap of Brent's rho, which splits N in form data
W = str(100000000000000000039 * 100000000000000000129)
RQ5 = {"kind": "real_quadratic", "d": 5}


def _form(*entries, key="diagonal"):
    return ["form-invariants", "--form", json.dumps({key: list(entries)})]


def _k3(field, mode="rm", m=3):
    return ["k3", "--field", json.dumps(field), "--m", str(m), "--mode", mode]


def _elliptic(context):
    return ["elliptic", "--context", json.dumps(context)]


GENERAL_CM = {"kind": "general_cm", "minpoly": [-2, 0, 1], "disc": 5}
SEXTIC = [-1, 3, 6, -4, -5, 1, 1]

RULES = [
    # rationals: a JSON integer or a "p/q" string, one reader for all
    ("form entry integer", _form(1, -1, 2), EXIT_OK),
    ("form entry p/q", _form("1/2", -1, 2), EXIT_OK),
    ("form entry float", _form(1.5, -1), EXIT_SCHEMA),
    ("form entry zero denominator", _form("1/0", -1), EXIT_SCHEMA),
    ("form entry boolean", _form(True, -1), EXIT_SCHEMA),
    ("diagonal not an array", ["form-invariants", "--form",
                               '{"diagonal": "11"}'], EXIT_SCHEMA),
    ("gram not an array", ["form-invariants", "--form", '{"gram": "11"}'],
     EXIT_SCHEMA),
    ("minpoly float", _k3({"kind": "general_tr",
                           "minpoly": [-1.0, -3, 0, 1]}), EXIT_SCHEMA),
    ("entries p/q pair", ["transfer-compute", "--field", json.dumps(RQ5),
                          "--entries", '[["1/2", 0], [2, 1]]'], EXIT_OK),
    ("entries float", ["transfer-compute", "--field", json.dumps(RQ5),
                       "--entries", "[[1, 0], [2, 1.0]]"], EXIT_SCHEMA),
    ("witness float", ["picard", "--form", '{"diagonal": [1, -1, -1, -1]}',
                       "--field", json.dumps({"kind": "general_tr",
                                              "minpoly": SEXTIC}),
                       "--m", "3", "--mode", "rm", "--witness", "[2.0, -1]"],
     EXIT_SCHEMA),
    ("witness p/q", ["picard", "--form", '{"diagonal": [1, -1, -1, -1]}',
                     "--field", json.dumps({"kind": "general_tr",
                                            "minpoly": SEXTIC}),
                     "--m", "3", "--mode", "rm", "--witness", '["2", "-1/1"]'],
     EXIT_OK),
    # a form object has the keys diagonal or gram and no other
    ("form unknown key", ["form-invariants", "--form",
                          '{"diagonal": [1, 2], "extra": 1}'], EXIT_SCHEMA),
    # descriptor and context integers: a JSON integer or a string of one
    ("d as a string", _k3({"kind": "real_quadratic", "d": "5"}), EXIT_OK),
    ("d float", _k3({"kind": "real_quadratic", "d": 5.9}), EXIT_SCHEMA),
    ("d boolean", _k3({"kind": "real_quadratic", "d": True}), EXIT_SCHEMA),
    ("D float", _k3({"kind": "imag_quadratic", "D": 1.5}, "cm", 10),
     EXIT_SCHEMA),
    ("n float", _k3({"kind": "cyclotomic", "n": 5.0}, "cm", 5), EXIT_SCHEMA),
    ("disc float", _k3(dict(GENERAL_CM, disc=5.5), "cm", 4), EXIT_SCHEMA),
    ("se prime float", _k3(dict(GENERAL_CM, se=[[3.7, True]]), "cm", 4),
     EXIT_SCHEMA),
    ("se flag string", _k3(dict(GENERAL_CM, se=[[3, "false"]]), "cm", 4),
     EXIT_SCHEMA),
    ("se flag boolean", _k3(dict(GENERAL_CM, se=[[3, False]]), "cm", 4),
     EXIT_OK),
    ("degree as a string", _elliptic({"case": "small-degree",
                                      "degree": "2"}), EXIT_OK),
    ("degree float", _elliptic({"case": "small-degree", "degree": 2.9}),
     EXIT_SCHEMA),
    ("rho float", _elliptic({"case": "degree-4", "rho": 5.9,
                             "field": {"kind": "cyclotomic", "n": 5}}),
     EXIT_SCHEMA),
    ("negative height", ["represents-zero", "--height", "-3", "--form",
                         '{"diagonal": [1, 1, 1]}'], EXIT_SCHEMA),
    ("negative budget", ["form-invariants", "--budget", "-1", "--form",
                         '{"diagonal": [1, 2]}'], EXIT_SCHEMA),
    # exit 4 wherever a number is factored past the budget: form data by
    # trial division and rho, a field's d or D by trial division only
    ("budget: form entry", _form(W, 2), EXIT_BUDGET),
    ("budget: d", _k3({"kind": "real_quadratic", "d": N}), EXIT_BUDGET),
    ("budget: D", _k3({"kind": "imag_quadratic", "D": N}, "cm", 10),
     EXIT_BUDGET),
    ("budget: Picard form", ["picard", "--form",
                             json.dumps({"diagonal": [W, -1]}), "--field",
                             '{"kind": "imag_quadratic", "D": 1}', "--m", "10",
                             "--mode", "cm"], EXIT_BUDGET),
    ("budget: elliptic context", _elliptic(
        {"case": "picard-form", "form": {"diagonal": [W, -1]}}), EXIT_BUDGET),
]


@pytest.mark.parametrize("argv, code", [(argv, code) for _, argv, code in RULES],
                         ids=[name for name, _, _ in RULES])
def test_stated_input_rule(capsys, argv, code):
    assert main(argv) == code
    doc = json.loads(capsys.readouterr().out)
    kind = {EXIT_SCHEMA: "schema", EXIT_BUDGET: "budget"}.get(code)
    if kind is not None:
        assert (doc["status"], doc["kind"]) == ("error", kind)
