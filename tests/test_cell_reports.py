"""`k3hk.hk_reports`, the realizability engine of a grid cell: it yields,
for each rank, the report `hk_realizable` gives for that rank alone, raises
the same errors in the same order, and hands out fresh reports."""

import json

import pytest

from conftest import GRID_FAMILIES, GRID_MD_BOUND
from traceforms import cli
from traceforms.k3hk import hk_realizable, hk_reports, report_to_json
from traceforms.numfields import Cyclotomic, ImagQuadratic, RealQuadratic


def _cells():
    """(mode, family, n, field, ranks) for every cell of the 7-family grid
    in both modes, as `cli.tabulate_rows` asks them."""
    cat = cli.load_catalog()
    for mode in ("rm", "cm"):
        min_m = 3 if mode == "rm" else 1
        for _, fam, n in cli.parse_families(GRID_FAMILIES):
            for _, desc, degree in cli.catalog_fields(cat, mode):
                yield (mode, fam, n, desc,
                       range(min_m, GRID_MD_BOUND // degree + 1))


def _texts(reports):
    return [json.dumps(report_to_json(rep), sort_keys=True)
            for rep in reports]


def test_each_report_is_the_one_rank_report():
    cells = rows = 0
    for mode, fam, n, E, ms in _cells():
        got = _texts(hk_reports(fam, n, E, mode, ms))
        assert got == _texts(hk_realizable(fam, n, E, m, mode) for m in ms), \
            (mode, fam, E)
        cells += 1
        rows += len(got)
    assert (cells, rows) == (196, 1015)


@pytest.mark.parametrize("family, n, E, m, mode, error", [
    # the mode and field first, then the family, then the rank
    ("nope", None, RealQuadratic(2), 0, "tm", "mode must be 'rm' or 'cm'"),
    ("nope", None, ImagQuadratic(1), 0, "rm", "rm mode needs a totally real"),
    ("nope", None, RealQuadratic(2), 0, "cm", "cm mode needs a CM field"),
    ("nope", None, RealQuadratic(2), 0, "rm", "unknown family 'nope'"),
    ("kummer", None, ImagQuadratic(1), 0, "cm", "kummer needs n"),
    ("k3", 2, ImagQuadratic(1), 0, "cm", "k3 does not take n"),
    ("k3", None, ImagQuadratic(1), 0, "cm", "rank must be positive"),
    ("og6", None, RealQuadratic(5), -1, " RM ", "rank must be positive"),
])
def test_errors_come_in_the_one_rank_order(family, n, E, m, mode, error):
    with pytest.raises(ValueError, match=error):
        hk_realizable(family, n, E, m, mode)
    with pytest.raises(ValueError, match=error):
        next(hk_reports(family, n, E, mode, (m,)))


def test_a_rank_below_one_raises_in_its_turn():
    reports = hk_reports("k3", None, Cyclotomic(5), "cm", (5, 0, 1))
    assert next(reports).feasible
    with pytest.raises(ValueError, match="rank must be positive"):
        next(reports)


def test_an_empty_rank_list_is_still_checked():
    with pytest.raises(ValueError, match="mode must be"):
        list(hk_reports("k3", None, RealQuadratic(2), "tm", ()))
    with pytest.raises(ValueError, match="unknown family"):
        list(hk_reports("nope", None, RealQuadratic(2), "rm", ()))
    assert list(hk_reports("k3", None, RealQuadratic(2), "rm", ())) == []


@pytest.mark.parametrize("family, n, E, mode, ms", [
    ("k3", None, RealQuadratic(2), "rm", range(3, 12)),
    ("og6", None, ImagQuadratic(3), "cm", range(1, 5)),
    ("hilbk3", 2, Cyclotomic(5), "cm", range(1, 6)),
])
def test_mutated_reports_leave_the_next_pass_alone(family, n, E, mode, ms):
    first = list(hk_reports(family, n, E, mode, ms))
    expected = _texts(first)
    feasible = [rep for rep in first if rep.feasible]
    assert feasible
    for rep in feasible:
        cert = rep.verdict.certificate
        cert["m"] = -1
        cert["complement_diagonal"].append("0")
        cert["transfer_invariants"]["hasse"].append(7)
        cert["complement_invariants"]["signature"][0] = 99
    again = list(hk_reports(family, n, E, mode, ms))
    assert all(a.verdict.certificate is not b.verdict.certificate
               for a, b in zip(first, again) if a.feasible)
    assert _texts(again) == expected
