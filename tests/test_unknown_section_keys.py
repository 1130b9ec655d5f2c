"""A catalog section and an elliptic context take only the keys they read:
`totally_real` takes `quadratic` and `higher`, `cm` takes `imag_quadratic`
and `cyclotomic`, and each context case takes `case` and the keys of
`k3hk.ELLIPTIC_KEYS`.  Any other key is malformed input (exit 2), named in
the schema error, instead of being dropped without a word."""

import json

import pytest

from traceforms.cli import EXIT_OK, EXIT_SCHEMA, load_catalog, main
from traceforms.k3hk import ELLIPTIC_CASES, ELLIPTIC_KEYS


def _run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("mode", ["rm", "cm"])
@pytest.mark.parametrize("catalog, error", [
    ({"totally_real": {"quadratic": [2], "bogus": [3]}, "cm": {}},
     "catalog: section totally_real: unknown key 'bogus'"),
    ({"totally_real": {}, "cm": {"cyclotomic": [5], "quadratic": [2]}},
     "catalog: section cm: unknown key 'quadratic'"),
    ({"totally_real": {"Higher": []}, "cm": {}},
     "catalog: section totally_real: unknown key 'Higher'"),
])
def test_unknown_section_key_exits_2(tmp_path, capsys, mode, catalog, error):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, doc = _run(capsys, ["tabulate", "--mode", mode, "--catalog",
                              str(path)])
    assert code == EXIT_SCHEMA
    assert doc == {"status": "error", "kind": "schema", "error": error}


def test_the_bundled_catalog_has_only_known_keys():
    cat = load_catalog()
    assert set(cat["totally_real"]) == {"quadratic", "higher"}
    assert set(cat["cm"]) == {"imag_quadratic", "cyclotomic"}


CYCLOTOMIC_44 = {"kind": "cyclotomic", "n": 44}


@pytest.mark.parametrize("context, key", [
    ({"case": "degree-20", "field": CYCLOTOMIC_44, "bogus": 1}, "'bogus'"),
    ({"case": "small-degree", "degree": 2, "rho": 6}, "'rho'"),
    ({"case": "degree-4", "field": {"kind": "cyclotomic", "n": 5}, "rho": 2,
      "form": {"diagonal": [1, -1]}}, "'form'"),
    ({"case": "picard-form", "form": {"diagonal": [1, -1]}, "field": 1},
     "'field'"),
])
def test_unknown_context_key_exits_2(capsys, context, key):
    code, doc = _run(capsys, ["elliptic", "--context", json.dumps(context)])
    assert code == EXIT_SCHEMA
    assert doc == {"status": "error", "kind": "schema",
                   "error": "context: unknown key " + key}


def test_every_case_answers_with_its_own_keys(capsys):
    assert ELLIPTIC_CASES == tuple(ELLIPTIC_KEYS)
    contexts = [
        {"case": "small-degree", "degree": 2},
        {"case": "degree-20", "field": CYCLOTOMIC_44},
        {"case": "degree-4", "field": {"kind": "cyclotomic", "n": 5},
         "rho": 2},
        {"case": "picard-form", "form": {"diagonal": [1, -1]}},
    ]
    for context in contexts:
        assert set(context) == {"case", *ELLIPTIC_KEYS[context["case"]]}
        code, doc = _run(capsys, ["elliptic", "--context",
                                  json.dumps(context)])
        assert code == EXIT_OK
        assert doc["verdict"] in ("yes", "no")
