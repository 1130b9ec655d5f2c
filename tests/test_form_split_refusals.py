"""`tf form-split` when no complement exists, in both ways it can refuse.

<1, 1, 1> = <7> + W would need a W of rank 2 with det 7 and Hasse set
{2, 7}; -7 is a square in Q_2, so condition 3 rules that tuple out and the
document keeps the complement invariants with the reason.  Independently:
7 is 7 mod 8, so it is no sum of three integer squares (Legendre), and by
Davenport-Cassels no sum of three rational squares either, so <1, 1, 1>
does not represent 7 at all.  <1, 1> has no negative entry, so <-1> does
not embed in it: condition 1, found before any complement is derived.
"""

import json
from math import isqrt

from traceforms.cli import EXIT_OK, main


def _split(capsys, ambient, sub):
    code = main(["form-split", "--ambient", json.dumps({"diagonal": ambient}),
                 "--sub", json.dumps({"diagonal": sub})])
    return code, json.loads(capsys.readouterr().out)


def test_seven_in_three_squares_is_condition_3(capsys):
    code, doc = _split(capsys, [1, 1, 1], [7])
    assert code == EXIT_OK
    assert doc == {
        "feasible": False,
        "complement_invariants": {"dim": 2, "det": "7", "signature": [2, 0],
                                  "hasse": [2, 7]},
        "reason": "condition-3",
    }
    # no integer point on x^2 + y^2 + z^2 = 7
    assert not any(7 - x * x - y * y == isqrt(7 - x * x - y * y) ** 2
                   for x in range(3) for y in range(3) if x * x + y * y <= 7)


def test_a_negative_line_in_a_positive_plane_is_condition_1(capsys):
    code, doc = _split(capsys, [1, 1], [-1])
    assert code == EXIT_OK
    assert doc == {"feasible": False, "reason": "condition-1"}
