"""A `k3hk.hk_reports` cell goes on to its next rank after the splitting
engine refuses one.

Over Q(zeta_60), K3 in cm mode, rank 1 reaches `split_transfer_feasible`
and is refused there, and rank 2 (md = 32) is over the bound.  Each report
the generator yields must equal the one `hk_realizable` gives for its rank
alone.  Only that equality is asserted, not the verdicts: the rank-1
refusal is an open question of its own.
"""

from traceforms.k3hk import hk_realizable, hk_reports, report_to_json
from traceforms.numfields import Cyclotomic


def test_the_reports_after_a_refusal_are_those_of_each_rank_alone():
    E = Cyclotomic(60)
    cell = list(hk_reports("k3", None, E, "cm", range(1, 3)))
    alone = [hk_realizable("k3", None, E, m, "cm") for m in (1, 2)]
    assert len(cell) == 2
    assert cell == alone
    assert ([report_to_json(rep) for rep in cell]
            == [report_to_json(rep) for rep in alone])
