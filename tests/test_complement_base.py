"""The rank-free part of a complement choice, `transfer._complement_base`.

Neither the Hasse base w(V) + supp(det_u, det_c) nor the candidate primes
depend on the rank md, so one memo entry per (ambient invariants, det_u,
extra primes) serves every rank's `_choose_complement` miss and the cm split
decision `_cm_split` that asks before it.  A cold grid pass makes 449
choices and 340 decisions from 125 entries (`tests/test_counts.py` counts
them, and `tests/test_memo_traffic.py` bounds the operations of that pass).
Each choice and decision is checked against verbatim copies of the bodies
that computed the base per miss, and the grid script, run as a one-shot
process, still prints the golden bytes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from traceforms import cli, transfer
from traceforms.exact import (
    INF, SquareClass, clear_memos, is_square_at, rational_str, support_at,
)
from traceforms.numfields import (
    OUT, UNKNOWN, desc_from_values, field_invariants, in_SE,
)
from traceforms.qforms import (
    FormInvariants, InvariantContradiction, hyperbolic_bit,
    validate_invariants,
)
from traceforms.transfer import (
    _choose_complement, _class_key, _cm_split, _complement_target,
    _hasse_candidates, cm_twist_class,
)

ROOT = Path(__file__).resolve().parent.parent
GRID_FAMILIES = "k3,kummer:2,kummer:3,og6,hilbk3:2,hilbk3:3,og10"
GRID_MD_BOUND = 23
GRID_MD5 = "67f0f49dfc95d5a8ee9860499dc8f6c7"


def _grid_pass():
    for mode in ("rm", "cm"):
        cli.tabulate_rows(mode, cli.parse_families(GRID_FAMILIES),
                          cli.catalog_fields(cli.load_catalog(), mode),
                          GRID_MD_BOUND)


# ---------------------------------------------------------------------------
# the bodies that computed the base on every miss


def _parent_choose_complement(vi, ukey, md, extra_primes, want_items):
    det_u = SquareClass(*ukey)
    dim_c, det_c, sig_c = _complement_target(vi, det_u, md)
    if sig_c[0] < 0 or sig_c[1] < 0:
        return None
    want = dict(want_items)
    base = vi.hasse ^ support_at(det_u.n, det_c.n,
                                 det_u.primes() + det_c.primes())
    minus_c, minus_u = -det_c, -det_u
    hasse_c, free = set(), []
    for p in _hasse_candidates(vi, det_u, det_c, extra_primes):
        in_base = int(p in base)
        bits = set()
        if dim_c == 1 or (dim_c == 2 and is_square_at(minus_c, p)):
            bits.add(0)
        if md == 2 and is_square_at(minus_u, p):
            bits.add(in_base)
        if p in want:
            bits.add(in_base ^ want[p])
        if len(bits) > 1:
            return None
        if bits == {1}:
            hasse_c.add(p)
        elif not bits:
            free.append(p)
    if (sig_c[1] * (sig_c[1] - 1) // 2) % 2:
        hasse_c.add(INF)
    if len(hasse_c) % 2:
        if not free:
            return None
        hasse_c.add(free[0])
    ci = FormInvariants(dim_c, det_c, sig_c, frozenset(hasse_c))
    ui = FormInvariants(md, det_u, (2, md - 2), frozenset(base ^ ci.hasse))
    try:
        validate_invariants(ci)
        validate_invariants(ui)
    except InvariantContradiction:
        return None
    return ci, ui


def _parent_cm_split_plan(vi, kind, values, md):
    E = desc_from_values(kind, values)
    finv = field_invariants(E)
    det_u = cm_twist_class(finv) if md // finv.degree % 2 else SquareClass(1)
    det_c = vi.det * det_u
    disc_primes = finv.disc_class.primes()
    want, want_in, unknowns = [], [], []
    for p in _hasse_candidates(vi, det_u, det_c, disc_primes):
        status = in_SE(E, p)
        if status != OUT:
            pair = (p, hyperbolic_bit(md // 2, p))
            want.append(pair)
            if status == UNKNOWN:
                unknowns.append(p)
            else:
                want_in.append(pair)
    return (_class_key(det_u), disc_primes, tuple(want), tuple(want_in),
            tuple(unknowns), rational_str(det_u.n), det_c.n == -1)


def _parent_decision(vi, kind, values, md):
    """What `_split_cm` took from the plan and the choices it asked."""
    ukey, disc_primes, want, want_in, unknowns, forced, minus_one = \
        _parent_cm_split_plan(vi, kind, values, md)
    found = _parent_choose_complement(vi, ukey, md, disc_primes, want)
    if found is not None:
        return (*found, forced, minus_one)
    if unknowns and _parent_choose_complement(vi, ukey, md, disc_primes,
                                              want_in) is not None:
        return None, unknowns
    return None, ()


# ---------------------------------------------------------------------------
# the choices and decisions of a cold pass


def _recording(monkeypatch, name, seen):
    """Record the distinct arguments of `transfer.name` in `seen`."""
    original = getattr(transfer, name)

    def record(*args):
        seen.setdefault(args, None)
        return original(*args)

    monkeypatch.setattr(transfer, name, record)


def test_choices_and_plans_equal_the_parent_bodies(monkeypatch):
    clear_memos()
    choices, decisions = {}, {}
    _recording(monkeypatch, "_choose_complement", choices)
    _recording(monkeypatch, "_cm_split", decisions)
    _grid_pass()
    monkeypatch.undo()
    assert (len(choices), len(decisions)) == (449, 340)
    for args in choices:
        assert _choose_complement(*args) == _parent_choose_complement(*args)
    for args in decisions:
        assert _cm_split(*args) == _parent_decision(*args)


# ---------------------------------------------------------------------------
# the one-shot cold path, as a process


@pytest.mark.parametrize("seed", ["0", "1"])
def test_grid_script_prints_the_golden_bytes_in_a_fresh_interpreter(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_realizability_grids.py"),
         "--format", "json"],
        capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.md5(proc.stdout).hexdigest() == GRID_MD5
