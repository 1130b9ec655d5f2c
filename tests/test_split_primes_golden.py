"""Split-prime verdicts pinned in full.

Three queries scan the primes of a bad set against the asserted split set
of a CM field: `picard_compatible` in cm mode, `cm_transfer_feasible` and
`validate_cm_rank2_complement`.  The first asserted split prime where the
local condition fails is a hard obstruction; unasserted primes where it
fails are pending.  The cases below run each query over one real subfield
Q(sqrt 2) with disc class 5 and several split-set tables that mix asserted
(IN), asserted-out (OUT) and absent (UNKNOWN) primes.  In "in3_out5" the
failing UNKNOWN prime 2 sorts before the failing IN prime 3, and the
verdict is still infeasible at 3.
"""

import pytest

from traceforms.k3hk import picard_compatible
from traceforms.numfields import GeneralCM
from traceforms.qforms import QuadraticForm
from traceforms.transfer import (
    cm_transfer_feasible, validate_cm_rank2_complement,
)

TABLES = {
    "blank": (),
    "out2_in3_in7": ((2, False), (3, True), (7, True)),
    "in3_out5": ((3, True), (5, False)),
    "out2_in11": ((2, False), (11, True)),
    "in5_in2": ((5, True), (2, True)),
    "all_decided": ((2, False), (3, False), (5, False), (7, True), (11, True)),
}

# picard: (diagonal of L, m); cm: diagonal of U; rank2: (a, twisted)
CASES = {
    "picard": {"L6": ((1, -3, -3, -5, -7, -35), 4), "L2": ((3, -15), 5)},
    "cm": {"U_split": (3, 11, -15, -11), "U_positive": (1, 1, 1, 5),
           "U_wrong_det": (3, 11, -15, -1)},
    "rank2": {"a33": (33, False), "a105_twisted": (105, True),
              "a1": (1, False)},
}


def _verdict(query, case, table):
    E = GeneralCM(real_minpoly=(-2, 0, 1), disc_class=5,
                  se_assertions=TABLES[table])
    arg = CASES[query][case]
    if query == "picard":
        v = picard_compatible(QuadraticForm.make(list(arg[0])), E, arg[1], "cm")
    elif query == "cm":
        v = cm_transfer_feasible(E, QuadraticForm.make(list(arg)))
    else:
        v = validate_cm_rank2_complement(E, *arg)
    return {"status": v.status, "certificate": v.certificate,
            "obstruction": v.obstruction}


EXPECTED = {('picard', 'L6', 'blank'): {'status': 'needs_witness',
                             'certificate': None,
                             'obstruction': {'reason': 'split-set-unknown',
                                             'primes': [2, 3, 5]}},
 ('picard', 'L2', 'blank'): {'status': 'needs_witness',
                             'certificate': None,
                             'obstruction': {'reason': 'split-set-unknown',
                                             'primes': [2, 3, 5]}},
 ('cm', 'U_split', 'blank'): {'status': 'needs_witness',
                              'certificate': None,
                              'obstruction': {'reason': 'split-set-unknown',
                                              'primes': [2, 3, 5]}},
 ('cm', 'U_positive', 'blank'): {'status': 'needs_witness',
                                 'certificate': None,
                                 'obstruction': {'reason': 'split-set-unknown',
                                                 'primes': [2, 5]}},
 ('cm', 'U_wrong_det', 'blank'): {'status': 'infeasible',
                                  'certificate': None,
                                  'obstruction': {'condition': '(ii)',
                                                  'all_violated': ['(ii)'],
                                                  'detail': 'det class 55 != required '
                                                            '5'}},
 ('rank2', 'a33', 'blank'): {'status': 'needs_witness',
                             'certificate': None,
                             'obstruction': {'reason': 'split-set-unknown',
                                             'primes': [2, 3, 11]}},
 ('rank2', 'a105_twisted', 'blank'): {'status': 'needs_witness',
                                      'certificate': None,
                                      'obstruction': {'reason': 'split-set-unknown',
                                                      'primes': [2, 3, 5]}},
 ('rank2', 'a1', 'blank'): {'status': 'needs_witness',
                            'certificate': None,
                            'obstruction': {'reason': 'split-set-unknown',
                                            'primes': [2]}},
 ('picard', 'L6', 'out2_in3_in7'): {'status': 'infeasible',
                                    'certificate': None,
                                    'obstruction': {'condition': 'split-prime-hyperbolic',
                                                    'place': 3,
                                                    'detail': 'Picard form is not '
                                                              'hyperbolic over Q_3'}},
 ('picard', 'L2', 'out2_in3_in7'): {'status': 'infeasible',
                                    'certificate': None,
                                    'obstruction': {'condition': 'split-prime-hyperbolic',
                                                    'place': 3,
                                                    'detail': 'Picard form is not '
                                                              'hyperbolic over Q_3'}},
 ('cm', 'U_split', 'out2_in3_in7'): {'status': 'infeasible',
                                     'certificate': None,
                                     'obstruction': {'condition': '(iii)',
                                                     'all_violated': ['(iii)'],
                                                     'place': 3,
                                                     'detail': 'not hyperbolic over '
                                                               'Q_3 at an asserted '
                                                               'split prime'}},
 ('cm', 'U_positive', 'out2_in3_in7'): {'status': 'needs_witness',
                                        'certificate': None,
                                        'obstruction': {'reason': 'split-set-unknown',
                                                        'primes': [5]}},
 ('cm', 'U_wrong_det', 'out2_in3_in7'): {'status': 'infeasible',
                                         'certificate': None,
                                         'obstruction': {'condition': '(ii)',
                                                         'all_violated': ['(ii)',
                                                                          '(iii)'],
                                                         'detail': 'det class 55 != '
                                                                   'required 5'}},
 ('rank2', 'a33', 'out2_in3_in7'): {'status': 'infeasible',
                                    'certificate': None,
                                    'obstruction': {'condition': 'split-prime-symbol',
                                                    'place': 3}},
 ('rank2', 'a105_twisted', 'out2_in3_in7'): {'status': 'infeasible',
                                             'certificate': None,
                                             'obstruction': {'condition': 'split-prime-symbol',
                                                             'place': 3}},
 ('rank2', 'a1', 'out2_in3_in7'): {'status': 'feasible',
                                   'certificate': {'entry': '1',
                                                   'symbol': ['-1', '-1']},
                                   'obstruction': None},
 ('picard', 'L6', 'in3_out5'): {'status': 'infeasible',
                                'certificate': None,
                                'obstruction': {'condition': 'split-prime-hyperbolic',
                                                'place': 3,
                                                'detail': 'Picard form is not '
                                                          'hyperbolic over Q_3'}},
 ('picard', 'L2', 'in3_out5'): {'status': 'infeasible',
                                'certificate': None,
                                'obstruction': {'condition': 'split-prime-hyperbolic',
                                                'place': 3,
                                                'detail': 'Picard form is not '
                                                          'hyperbolic over Q_3'}},
 ('cm', 'U_split', 'in3_out5'): {'status': 'infeasible',
                                 'certificate': None,
                                 'obstruction': {'condition': '(iii)',
                                                 'all_violated': ['(iii)'],
                                                 'place': 3,
                                                 'detail': 'not hyperbolic over Q_3 at '
                                                           'an asserted split prime'}},
 ('cm', 'U_positive', 'in3_out5'): {'status': 'needs_witness',
                                    'certificate': None,
                                    'obstruction': {'reason': 'split-set-unknown',
                                                    'primes': [2]}},
 ('cm', 'U_wrong_det', 'in3_out5'): {'status': 'infeasible',
                                     'certificate': None,
                                     'obstruction': {'condition': '(ii)',
                                                     'all_violated': ['(ii)', '(iii)'],
                                                     'detail': 'det class 55 != '
                                                               'required 5'}},
 ('rank2', 'a33', 'in3_out5'): {'status': 'infeasible',
                                'certificate': None,
                                'obstruction': {'condition': 'split-prime-symbol',
                                                'place': 3}},
 ('rank2', 'a105_twisted', 'in3_out5'): {'status': 'infeasible',
                                         'certificate': None,
                                         'obstruction': {'condition': 'split-prime-symbol',
                                                         'place': 3}},
 ('rank2', 'a1', 'in3_out5'): {'status': 'needs_witness',
                               'certificate': None,
                               'obstruction': {'reason': 'split-set-unknown',
                                               'primes': [2]}},
 ('picard', 'L6', 'out2_in11'): {'status': 'needs_witness',
                                 'certificate': None,
                                 'obstruction': {'reason': 'split-set-unknown',
                                                 'primes': [3, 5]}},
 ('picard', 'L2', 'out2_in11'): {'status': 'needs_witness',
                                 'certificate': None,
                                 'obstruction': {'reason': 'split-set-unknown',
                                                 'primes': [3, 5]}},
 ('cm', 'U_split', 'out2_in11'): {'status': 'needs_witness',
                                  'certificate': None,
                                  'obstruction': {'reason': 'split-set-unknown',
                                                  'primes': [3, 5]}},
 ('cm', 'U_positive', 'out2_in11'): {'status': 'needs_witness',
                                     'certificate': None,
                                     'obstruction': {'reason': 'split-set-unknown',
                                                     'primes': [5]}},
 ('cm', 'U_wrong_det', 'out2_in11'): {'status': 'infeasible',
                                      'certificate': None,
                                      'obstruction': {'condition': '(ii)',
                                                      'all_violated': ['(ii)', '(iii)'],
                                                      'detail': 'det class 55 != '
                                                                'required 5'}},
 ('rank2', 'a33', 'out2_in11'): {'status': 'infeasible',
                                 'certificate': None,
                                 'obstruction': {'condition': 'split-prime-symbol',
                                                 'place': 11}},
 ('rank2', 'a105_twisted', 'out2_in11'): {'status': 'needs_witness',
                                          'certificate': None,
                                          'obstruction': {'reason': 'split-set-unknown',
                                                          'primes': [3, 5]}},
 ('rank2', 'a1', 'out2_in11'): {'status': 'feasible',
                                'certificate': {'entry': '1', 'symbol': ['-1', '-1']},
                                'obstruction': None},
 ('picard', 'L6', 'in5_in2'): {'status': 'infeasible',
                               'certificate': None,
                               'obstruction': {'condition': 'split-prime-hyperbolic',
                                               'place': 2,
                                               'detail': 'Picard form is not '
                                                         'hyperbolic over Q_2'}},
 ('picard', 'L2', 'in5_in2'): {'status': 'infeasible',
                               'certificate': None,
                               'obstruction': {'condition': 'split-prime-hyperbolic',
                                               'place': 2,
                                               'detail': 'Picard form is not '
                                                         'hyperbolic over Q_2'}},
 ('cm', 'U_split', 'in5_in2'): {'status': 'infeasible',
                                'certificate': None,
                                'obstruction': {'condition': '(iii)',
                                                'all_violated': ['(iii)'],
                                                'place': 2,
                                                'detail': 'not hyperbolic over Q_2 at '
                                                          'an asserted split prime'}},
 ('cm', 'U_positive', 'in5_in2'): {'status': 'infeasible',
                                   'certificate': None,
                                   'obstruction': {'condition': '(iii)',
                                                   'all_violated': ['(iii)'],
                                                   'place': 2,
                                                   'detail': 'not hyperbolic over Q_2 '
                                                             'at an asserted split '
                                                             'prime'}},
 ('cm', 'U_wrong_det', 'in5_in2'): {'status': 'infeasible',
                                    'certificate': None,
                                    'obstruction': {'condition': '(ii)',
                                                    'all_violated': ['(ii)', '(iii)'],
                                                    'detail': 'det class 55 != '
                                                              'required 5'}},
 ('rank2', 'a33', 'in5_in2'): {'status': 'infeasible',
                               'certificate': None,
                               'obstruction': {'condition': 'split-prime-symbol',
                                               'place': 2}},
 ('rank2', 'a105_twisted', 'in5_in2'): {'status': 'infeasible',
                                        'certificate': None,
                                        'obstruction': {'condition': 'split-prime-symbol',
                                                        'place': 2}},
 ('rank2', 'a1', 'in5_in2'): {'status': 'infeasible',
                              'certificate': None,
                              'obstruction': {'condition': 'split-prime-symbol',
                                              'place': 2}},
 ('picard', 'L6', 'all_decided'): {'status': 'feasible',
                                   'certificate': {'m': 4,
                                                   'degree': 4,
                                                   'picard_invariants': {'dim': 6,
                                                                         'det': '-1',
                                                                         'signature': [1,
                                                                                       5],
                                                                         'hasse': [3,
                                                                                   5]}},
                                   'obstruction': None},
 ('picard', 'L2', 'all_decided'): {'status': 'feasible',
                                   'certificate': {'m': 5,
                                                   'degree': 4,
                                                   'picard_invariants': {'dim': 2,
                                                                         'det': '-5',
                                                                         'signature': [1,
                                                                                       1],
                                                                         'hasse': [3,
                                                                                   5]}},
                                   'obstruction': None},
 ('cm', 'U_split', 'all_decided'): {'status': 'feasible',
                                    'certificate': {'m': 1, 'degree': 4},
                                    'obstruction': None},
 ('cm', 'U_positive', 'all_decided'): {'status': 'feasible',
                                       'certificate': {'m': 1, 'degree': 4},
                                       'obstruction': None},
 ('cm', 'U_wrong_det', 'all_decided'): {'status': 'infeasible',
                                        'certificate': None,
                                        'obstruction': {'condition': '(ii)',
                                                        'all_violated': ['(ii)',
                                                                         '(iii)'],
                                                        'detail': 'det class 55 != '
                                                                  'required 5'}},
 ('rank2', 'a33', 'all_decided'): {'status': 'infeasible',
                                   'certificate': None,
                                   'obstruction': {'condition': 'split-prime-symbol',
                                                   'place': 11}},
 ('rank2', 'a105_twisted', 'all_decided'): {'status': 'feasible',
                                            'certificate': {'entry': '105',
                                                            'symbol': ['-3', '-210']},
                                            'obstruction': None},
 ('rank2', 'a1', 'all_decided'): {'status': 'feasible',
                                  'certificate': {'entry': '1', 'symbol': ['-1', '-1']},
                                  'obstruction': None}}


def test_every_case_is_pinned():
    keys = {(q, c, t) for q in CASES for c in CASES[q] for t in TABLES}
    assert keys == set(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
def test_split_prime_verdict(key):
    assert _verdict(*key) == EXPECTED[key]


def test_unknown_before_in_is_still_infeasible():
    """The failing UNKNOWN prime 2 comes first; the IN prime 3 decides."""
    for query, case in (("picard", "L6"), ("cm", "U_split"),
                        ("rank2", "a33")):
        v = _verdict(query, case, "in3_out5")
        assert v["status"] == "infeasible"
        assert v["obstruction"]["place"] == 3
