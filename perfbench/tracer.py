"""Span tracer that instruments traceforms from the outside.

Each traced function is replaced by a wrapper on every module attribute that
is bound to the same function object.  The package imports names with
``from .x import y``, so one function can be reachable from several modules;
calls that stay inside the defining module resolve through that module's
globals, which are rebound too.

A span is (name, start, end, parent, outcome).  Spans are kept in flat
``array`` columns so that the millions of spans of one grid pass fit in a few
tens of megabytes, and are written out in one go by ``write``.
"""

import json
import time
from array import array

from traceforms import cli, exact, k3hk, numfields, qforms, transfer

MODULES = (exact, qforms, numfields, transfer, k3hk, cli)

# outcome codes stored per span
OK, RAISED, BUDGET, ISO_WITNESS, ISO_BARE = range(5)
OUTCOMES = ("ok", "raised", "budget_error", "isotropic_with_witness",
            "isotropic_without_witness")


def _isotropy_outcome(verdict):
    if not verdict.isotropic:
        return OK
    return ISO_WITNESS if verdict.witness is not None else ISO_BARE


def _transfer_mode(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["mode"]


# (defining module, function, outcome classifier, span-name suffix chooser)
TARGETS = (
    (exact, "hilbert_symbol", None, None),
    (exact, "is_prime", None, None),
    (exact, "factorize", None, None),
    (exact, "squarefree_class", None, None),
    (exact, "hilbert_support", None, None),
    (qforms, "invariants", None, None),
    (qforms, "form_from_invariants", None, None),
    (qforms, "validate_invariants", None, None),
    (qforms, "represents_zero", _isotropy_outcome, None),
    (qforms, "split_complement", None, None),
    (numfields, "field_invariants", None, None),
    (numfields, "lambda_plus_quadratic", None, None),
    (numfields, "in_SE", None, None),
    (transfer, "split_transfer_feasible", None, _transfer_mode),
    (transfer, "rm_transfer_feasible", None, None),
    (transfer, "cm_transfer_feasible", None, None),
    (k3hk, "k3_realizable", None, None),
    (k3hk, "hk_realizable", None, None),
)

_SUFFIXES = ("rm", "cm")


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Install with ``install()``, run the workload, ``uninstall()``.

    ``summary()`` folds the recorded spans into per-function calls, self
    time, outermost (busy) time and outcome counts; ``write()`` saves them.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.outcome_col = array("B")
        self.outer_col = array("B")
        self._stack = [-1]
        self._depth = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, fname, classify, suffix_of in TARGETS:
            fn = getattr(module, fname)
            base = f"{_layer(module)}.{fname}"
            if suffix_of is None:
                ids = self._name_id(base)
            else:
                ids = {s: self._name_id(f"{base}.{s}") for s in _SUFFIXES}
            wrapper = self._wrap(fn, ids, classify, suffix_of)
            for m in MODULES:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, ids, classify, suffix_of):
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        outcomes, outers = self.outcome_col, self.outer_col
        stack, depth = self._stack, self._depth
        perf = time.perf_counter
        budget_error = exact.FactorizationBudgetError

        def wrapper(*args, **kwargs):
            nid = ids if suffix_of is None else ids[suffix_of(args, kwargs)]
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outers.append(depth[nid] == 0)
            outcomes.append(OK)
            ends.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                outcomes[idx] = BUDGET
                raise
            except BaseException:
                outcomes[idx] = RAISED
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                depth[nid] -= 1
            if classify is not None:
                outcomes[idx] = classify(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """{span name: {"calls", "self_s", "busy_s", outcome counts...}}."""
        n = len(self.start_col)
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        outcomes, outers = self.outcome_col, self.outer_col
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        busy_s = [0.0] * k
        counts = [[0] * len(OUTCOMES) for _ in range(k)]
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_s[nid] += dur - child_time[i]
            if outers[i]:
                busy_s[nid] += dur
            counts[nid][outcomes[i]] += 1
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": calls[nid], "self_s": self_s[nid],
                   "busy_s": busy_s[nid]}
            row.update(zip(OUTCOMES, counts[nid]))
            out[name] = row
        return out

    def write(self, path, header):
        """One JSON header line, then the raw columns in header order."""
        cols = (("name", self.name_col), ("parent", self.parent_col),
                ("start", self.start_col), ("end", self.end_col),
                ("outcome", self.outcome_col), ("outermost", self.outer_col))
        head = dict(header, spans=len(self.start_col), names=self.names,
                    outcomes=list(OUTCOMES),
                    columns=[[name, col.typecode, col.itemsize]
                             for name, col in cols])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for _, col in cols:
                col.tofile(fh)
