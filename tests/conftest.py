"""Shared test plumbing: the acceptance suite records one line per criterion
and this hook prints them after the run, so the scoreboard is visible even
when pytest captures stdout."""

ACCEPTANCE_RESULTS = []


def record_acceptance(cid: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((cid, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{cid}] {status}: {detail}")


def reference_invariants(diagonal):
    """(dim, det, (r, s), hasse) of a diagonal form, from the primes that
    `sympy.factorint` finds in its entries: det is the squarefree signed
    representative of the determinant class, and the Hasse set is the sum
    over i < j of the Hilbert symbols (c_i, c_j)_v of the entry classes, at
    2, INF and every prime of an entry.  Nothing here reads a class, a prime
    set or an invariant from the library; it only evaluates symbols."""
    from fractions import Fraction

    from sympy import factorint
    from traceforms.exact import INF, hilbert_symbol

    classes, det_exps, places = [], {}, {2, INF}
    for e in diagonal:
        e = Fraction(e)
        odd = [p for p, k in factorint(abs(e.numerator * e.denominator)).items()
               if k % 2]
        c = -1 if e < 0 else 1
        for p in odd:
            c *= p
            det_exps[p] = det_exps.get(p, 0) ^ 1
        classes.append(c)
        places.update(odd)
    negatives = sum(1 for c in classes if c < 0)
    det = -1 if negatives % 2 else 1
    for p, k in det_exps.items():
        det *= p ** k
    hasse = set()
    for v in places:
        bit = 0
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                bit ^= hilbert_symbol(classes[i], classes[j], v)
        if bit:
            hasse.add(v)
    return (len(classes), det, (len(classes) - negatives, negatives),
            frozenset(hasse))
