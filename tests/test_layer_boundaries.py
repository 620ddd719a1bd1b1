"""The layer boundaries an outside tracer wraps, and what each returns.

A tracer can record per-layer spans and counters without touching the
program: it replaces each boundary function under every name a ``pwlmip``
module holds it by, and reads counters off the arguments and results.  That
only works while the layers call each other through those module names and
the results keep their shapes.  These tests wrap the boundaries the same
way, run one solve through every layer, and pin both, so that a refactor
cannot silently leave a per-layer counter at zero.  The last test checks
that every boundary the benchmark's tracer (``perfbench/tracing.py``) names
still exists, and that its counters agree with a solve's own stats.
"""

import importlib
import importlib.util
import json
import os
import sys

import pytest

from pwlmip import _kernel, covering, reduction
from pwlmip.covering import CoverInstance
from pwlmip.emip import EmipModel, normalize
from pwlmip.milp import branch_bound, lp
from pwlmip.pipeline import maximize_emip

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")
# Boundaries the benchmark's tracer names that no longer exist; each reads
# zero in every traced run until the tracer follows the program.
STALE_TRACER_BOUNDARIES = {"pwlmip.emip.normalize_with_map"}

BOUNDARIES = (
    (_kernel, "phase1"),
    (lp, "solve_lp_feasibility"),
    (branch_bound, "solve_feasibility"),
    (branch_bound, "maximize"),
    (reduction, "lower"),
)


@pytest.fixture
def traced(monkeypatch):
    """Wrap every boundary under every module name that refers to it."""
    calls = {attr: [] for _, attr in BOUNDARIES}
    for module, attr in BOUNDARIES:
        fn = getattr(module, attr)

        def wrapper(*args, _fn=fn, _log=calls[attr], **kwargs):
            result = _fn(*args, **kwargs)
            _log.append((args, result))
            return result

        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "pwlmip":
                continue
            for key, value in list(vars(loaded).items()):
                if value is fn:
                    monkeypatch.setattr(loaded, key, wrapper)
    return calls


def _knapsack():
    with open(os.path.join(FIXTURES, "knapsackish.json")) as fh:
        return EmipModel.from_json(json.load(fh))


def _branching_knapsack():
    """x + 4y <= 10 and 4x <= y + 10 over integers in [0, 6], maximizing
    x + y: the root vertex rounded up or down leaves the rows, so the search
    tree branches."""
    ints = [{"name": v, "kind": "integer", "lower": "0", "upper": "6"}
            for v in ("x", "y")]
    return EmipModel.from_json({
        "format": "emip-v1",
        "variables": ints,
        "constraints": [
            {"lhs": {"x": "1", "y": "4"}, "rhs": {}, "b": "10"},
            {"lhs": {"x": "4"}, "rhs": {"y": "1"}, "b": "10"},
        ],
        "objective": {"sense": "max", "coeffs": {"x": "1", "y": "1"}},
    })


def test_one_solve_passes_every_boundary(traced):
    result = maximize_emip(_knapsack())
    assert result.feasible
    for attr, calls in traced.items():
        assert calls, "%s was not reached through its module name" % attr
    stats = result.stats
    assert len(traced["maximize"]) == 1 and len(traced["lower"]) == 1
    # one search, which settles at its first threshold level
    assert len(traced["solve_feasibility"]) == stats.probes == 1
    assert len(traced["solve_lp_feasibility"]) == stats.lp_calls
    assert sum(r for _, r in traced["phase1"]) == stats.pivots


def test_kernel_returns_its_pivot_count(traced):
    maximize_emip(_knapsack())
    for args, result in traced["phase1"]:
        tableau, basis, nrows, ncols = args
        assert type(result) is int and result >= 0
        assert len(tableau) == nrows + 1 and len(basis) == nrows
        assert all(len(row) == ncols + 2 for row in tableau)


def test_lp_returns_its_verdict_first(traced):
    maximize_emip(_knapsack())  # the rounded-up box holds no point
    verdicts = set()
    for _, result in traced["solve_lp_feasibility"]:
        assert isinstance(result, tuple)
        verdicts.add(result[0])
    assert verdicts == {True, False}


def test_searches_return_verdict_and_nodes(traced):
    result = maximize_emip(_knapsack())
    searches = traced["solve_feasibility"] + traced["maximize"]
    for _, found in searches:
        assert isinstance(found.feasible, bool)
        assert type(found.stats.nodes) is int and found.stats.nodes >= 1
    (_, best), = traced["maximize"]
    assert best.stats.nodes == result.stats.nodes
    assert sum(found.stats.nodes for _, found in traced["solve_feasibility"]) \
        == best.stats.nodes


def test_lower_returns_model_and_map(traced):
    model = normalize(_knapsack())
    lowered, lmap = reduction.lower(model)
    ((_, result),) = traced["lower"]
    assert isinstance(result, tuple) and len(result) == 2
    assert result[0] is lowered and result[1] is lmap
    assert len(lowered.rows) > 0 and len(lowered.variables) > len(model.variables)
    assert lmap.n_original == len(model.variables)


def _benchmark_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_boundaries_resolve():
    tracing = _benchmark_tracing()
    missing = set()
    for module_name, attr, _, _ in tracing.BOUNDARIES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is None:
            missing.add("%s.%s" % (module_name, attr))
        else:
            assert callable(fn), "%s.%s" % (module_name, attr)
    assert missing <= STALE_TRACER_BOUNDARIES, sorted(missing)


def test_benchmark_tracer_counts_match_solve_stats():
    """The benchmark's tracer unpacks every kernel call as four positional
    arguments and reads counters off the results; through it, a branching
    ``maximize_emip`` and a branching minimum-cost cover count what their
    ``SolveStats`` count."""
    tracer = _benchmark_tracing().Tracer()
    multiset = CoverInstance(3, [{0: 2, 1: 4, 2: 5}, {1: 4, 2: 5},
                                 {0: 5, 1: 1, 2: 3}, {1: 4}, {0: 2, 1: 4}],
                             [5, 8, 8], 3)
    solves = (lambda: maximize_emip(_branching_knapsack()),
              lambda: covering.solve_wsm(multiset, minimize_cost=True))
    for solve in solves:
        with tracer.tracing():
            result = solve()
        stats = result.stats
        counts = tracer.counts
        assert result.feasible and stats.max_depth > 0
        assert counts["milp.branch_bound.nodes"] == stats.nodes
        assert counts["milp.lp.calls"] == stats.lp_calls
        assert counts["kernel.pivots"] == stats.pivots
        assert counts["milp.maximize.probes"] == counts["milp.maximize.calls"] == 1
        # every feasible node LP ends with a phase-2 kernel call
        assert counts["kernel.calls"] >= stats.lp_calls - stats.infeasible_lps


def test_benchmark_tracer_counts_rounding_lps():
    """A rounding LP is an LP: through the benchmark's tracer, a solve that
    rounds (knapsackish: the ceiling box is empty, the floor box holds the
    optimum) counts its rounding LPs among its LP calls and their pivots
    among the kernel's."""
    tracer = _benchmark_tracing().Tracer()
    with tracer.tracing():
        result = maximize_emip(_knapsack())
    stats = result.stats
    assert result.feasible and stats.rounding_lps == 2
    assert tracer.counts["milp.lp.calls"] == stats.lp_calls == stats.nodes + 2
    assert tracer.counts["kernel.pivots"] == stats.pivots
