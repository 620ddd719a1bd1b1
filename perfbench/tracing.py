"""Spans and counters recorded from outside the program, at its layer boundaries.

Each boundary is a public function of pwlmip.  While tracing, the function is
replaced by a wrapper under every name a caller looks it up by: the module
attributes of every loaded ``pwlmip`` module that hold the function, and the
values of module-level dicts that dispatch to it (the CLI's solver tables).
A wrapper records a span (name, start, end, parent span, instance id) in
memory and feeds the deterministic counters from the call's arguments and
result.  A boundary whose module or function no longer exists is reported as
absent, and its metrics read zero.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter


def _kernel_counts(counts, span, args, result):
    _, _, nrows, ncols = args
    entries = (nrows + 1) * (ncols + 1)
    counts["kernel.calls"] += 1
    counts["kernel.pivots"] += result
    counts["kernel.tableau_entries"] += entries
    counts["kernel.entry_updates_computed"] += result * entries
    counts["kernel.max_tableau_rows"] = max(counts["kernel.max_tableau_rows"], nrows)
    counts["kernel.max_tableau_cols"] = max(counts["kernel.max_tableau_cols"], ncols)


def _lp_counts(counts, span, args, result):
    counts["milp.lp.calls"] += 1
    counts["milp.lp.infeasible"] += not result[0]


def _bb_counts(counts, span, args, result):
    counts["milp.branch_bound.calls"] += 1
    counts["milp.branch_bound.nodes"] += result.stats.nodes
    if span.parent_name == "milp.maximize":
        counts["milp.maximize.probes"] += 1
        counts["milp.maximize.infeasible_probes"] += not result.feasible


def _lower_counts(counts, span, args, result):
    lowered = result[0]
    counts["reduction.lower.calls"] += 1
    counts["reduction.lower.rows"] += len(lowered.rows)
    counts["reduction.lower.cols"] += len(lowered.variables)


def _calls(name):
    def count(counts, span, args, result):
        counts[name] += 1
    return count


# (module, function, span name, counter update).  Span names are layer names;
# approx.decompose is a sub-span whose self time belongs to the approx layer.
BOUNDARIES = (
    ("pwlmip.cli", "main", "cli", _calls("cli.calls")),
    ("pwlmip.voting", "solve_bribery_priced", "voting", _calls("voting.calls")),
    ("pwlmip.voting", "solve_ccdv_priced", "voting", _calls("voting.calls")),
    ("pwlmip.voting", "solve_ccav_priced", "voting", _calls("voting.calls")),
    ("pwlmip.voting", "solve_ccdv_weighted", "voting", _calls("voting.calls")),
    ("pwlmip.voting", "solve_ccav_weighted", "voting", _calls("voting.calls")),
    ("pwlmip.voting", "solve_scoring_ccdv", "voting", _calls("voting.calls")),
    ("pwlmip.approx", "almost_cover", "approx", _calls("approx.calls")),
    ("pwlmip.approx", "decompose", "approx.decompose", _calls("approx.decompose.calls")),
    ("pwlmip.covering", "solve_wsm", "covering", _calls("covering.calls")),
    ("pwlmip.covering", "solve_umm", "covering", _calls("covering.calls")),
    ("pwlmip.emip", "normalize_with_map", "emip.normalize", _calls("emip.normalize.calls")),
    ("pwlmip.reduction", "lower", "reduction.lower", _lower_counts),
    ("pwlmip.reduction", "witness_lift", "reduction.witness_lift", _calls("reduction.witness_lift.calls")),
    ("pwlmip.milp.branch_bound", "maximize", "milp.maximize", _calls("milp.maximize.calls")),
    ("pwlmip.milp.branch_bound", "solve_feasibility", "milp.branch_bound", _bb_counts),
    ("pwlmip.milp.lp", "solve_lp_feasibility", "milp.lp", _lp_counts),
    ("pwlmip._kernel", "phase1", "kernel", _kernel_counts),
)

SPAN_LAYER = {"approx.decompose": "approx"}
LAYERS = (
    "cli", "voting", "approx", "covering", "emip.normalize", "reduction.lower",
    "reduction.witness_lift", "milp.maximize", "milp.branch_bound", "milp.lp", "kernel",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "parent_name", "instance")

    def __init__(self, name, start, parent, parent_name, instance):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.parent_name = parent_name
        self.instance = instance


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.instance = None
        self.absent = []
        self._stack = []
        self._patches = []
        self._first = 0

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, clock(), parent,
                        spans[parent].name if parent >= 0 else None, self.instance)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            count(self.counts, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Trace one pass: fresh counters, wrappers installed until the end."""
        self.counts = Counter()
        self._first = len(self.spans)
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self):
        """Wrap every boundary under every name that refers to it."""
        self.absent = []
        wrappers = {}
        for module_name, attr, name, count in BOUNDARIES:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append("%s.%s" % (module_name, attr))
                continue
            wrappers[id(fn)] = self._wrap(name, fn, count)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "pwlmip":
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patch(value, k, wrappers[id(v)])

    def _patch(self, table, key, wrapper):
        self._patches.append((table, key, table[key]))
        table[key] = wrapper

    def _uninstall(self):
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches = []

    def self_times(self):
        """Per-layer self time in the last traced pass, and the time its
        top-level spans cover.  Self time is duration minus child spans."""
        spans, first = self.spans, self._first
        child = [0.0] * len(spans)
        top = 0.0
        for span in spans[first:]:
            duration = span.end - span.start
            if span.parent >= first:
                child[span.parent] += duration
            else:
                top += duration
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(first, len(spans)):
            span = spans[i]
            layer = SPAN_LAYER.get(span.name, span.name)
            out[layer] += span.end - span.start - child[i]
        return out, top

    def dump(self):
        return [[s.name, s.start, s.end, s.parent, s.instance] for s in self.spans]
