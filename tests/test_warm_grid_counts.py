"""What a warm pass of the 7-family grid still costs once every memo holds
its answers: lookups keyed by values that hash and compare in C, not the
generic `Record.__eq__` and `__hash__` of the descriptors and invariants.

Each pass builds fresh descriptors from the catalog, once per pass, and
answers one cell (mode, family, field) at a time, as the `grid` benchmark
workload does.  The field memo is read by its label in `exact.memos()`, and
`exact.clear_memos()` empties every memo first: one filled by earlier tests
may hold keys equal to, but not the same objects as, the ones a grid pass
builds, and comparing those costs dunder calls that a run of the grid
script does not make.
"""

from conftest import grid_cell_pass
from traceforms.exact import Record, clear_memos, memos


#: 3,938 at the time of writing, down from 5,170 earlier and from 11,994
#: when the field memos were keyed by the descriptor and each complement
#: was rendered afresh
DUNDER_CALLS_BOUND = 5500


def test_warm_grid_pass_makes_few_record_dunder_calls(monkeypatch):
    clear_memos()
    grid_cell_pass()
    calls = [0]
    eq, hash_ = Record.__eq__, Record.__hash__

    def counting_eq(self, other):
        calls[0] += 1
        return eq(self, other)

    def counting_hash(self):
        calls[0] += 1
        return hash_(self)

    monkeypatch.setattr(Record, "__eq__", counting_eq)
    monkeypatch.setattr(Record, "__hash__", counting_hash)
    fields = memos()["numfields.field_invariants"]
    before = fields.cache_info()
    grid_cell_pass()
    after = fields.cache_info()
    monkeypatch.undo()
    assert 0 < calls[0] <= DUNDER_CALLS_BOUND
    assert after.misses == before.misses
    assert after.hits > before.hits
