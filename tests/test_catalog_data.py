"""The certified data of the built-in catalog's higher-degree fields.

Each `higher` entry of `data/fields.json` ships a `degree`, the integer
`disc` and its square class `disc_class` next to its minimal polynomial.
The library reads only `name` and `minpoly`; this checks the other three
against the polynomial, through `sympy.discriminant` as an independent
route and through `squarefree_class` and `field_invariants`."""

import json
from pathlib import Path

import pytest
import sympy

from traceforms.cli import default_catalog_path
from traceforms.exact import squarefree_class
from traceforms.numfields import GeneralTotallyReal, field_invariants

HIGHER = json.loads(Path(default_catalog_path()).read_text())[
    "totally_real"]["higher"]


def test_the_catalog_has_higher_fields():
    assert len(HIGHER) >= 3


@pytest.mark.parametrize("entry", HIGHER, ids=lambda e: e["name"])
def test_certified_data_matches_the_minimal_polynomial(entry):
    x = sympy.Symbol("x")
    coeffs = entry["minpoly"]
    poly = sympy.Poly(list(reversed(coeffs)), x)
    assert poly.is_monic and poly.is_irreducible
    assert entry["degree"] == poly.degree() == len(coeffs) - 1
    disc = int(sympy.discriminant(poly))
    assert entry["disc"] == disc
    assert entry["disc_class"] == squarefree_class(disc).n

    finv = field_invariants(GeneralTotallyReal(tuple(coeffs)))
    assert (finv.degree, finv.disc_class.n, finv.is_cm) == (
        entry["degree"], entry["disc_class"], False)
    # a supplied discriminant is checked against the computed class
    assert field_invariants(GeneralTotallyReal(tuple(coeffs),
                                               entry["disc"])) == finv
