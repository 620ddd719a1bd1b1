"""Command-line frontend: load instances, dispatch solvers, report results.

Reports are deterministic: the JSON report for an invocation depends only
on the input files and flags — wall time goes to stderr in human
mode and never into the JSON.  The argparse tree is built once per process,
on the first ``main`` call, and reused by every later call; each parse
still gets a fresh namespace.  Exit codes: 0 for any completed solve
(feasible or infeasible alike), 2 for a refused input, 3 when the node
budget runs out, and 1 when stdout is a pipe whose reader has gone
(``pwlmip ... --json | head``): the rest of the report is dropped without a
traceback, as the Python docs advise for SIGPIPE.  A human report ends with
one line of every ``SolveStats`` counter, in field order.  Every refusal, by a
loader or a solver, is a ``ValueError`` and reads ``error: FILE: reason``:
``main`` alone puts the input file in front.  An ``OSError`` names its own
file, the input or the ``-o`` output.  An answer that fails its exact
re-check is a bug, never exit 2: ``SolverInternalError`` leaves ``main``
with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import time

from . import __version__
from .approx import almost_cover, decomposition_json
from .covering import CoverInstance, solve_umm, solve_wsm
from .emip import EmipModel
from .milp import DEFAULT_NODE_LIMIT, ResourceExhausted, export_lp
from .oracle import (DEFAULT_MAX_ITEMS, OracleBudget, brute_cover,
                     brute_manipulate, gen_hard_instances)
from .pipeline import maximize_emip, solve_emip
from .rationals import parse_integer, parse_rational
from .reduction import lower
from .voting import (DEFAULT_CANDIDATE_CAP, ApprovalElection, OrdinalElection,
                     solve_bribery_priced, solve_ccav_priced,
                     solve_ccav_weighted, solve_ccdv_priced,
                     solve_ccdv_weighted, solve_scoring_ccdv)


def _load(path, from_json):
    """``from_json`` of the JSON in ``path``; a syntax error names its place."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("line %d column %d: %s"
                             % (exc.lineno, exc.colno, exc.msg)) from exc
    return from_json(obj)


def _stats_json(stats):
    """A report's ``stats``: each counter by name, in field order."""
    return {name: getattr(stats, name) for name in stats._fields}


def _report(command, result, fields_if_feasible, **always):
    """A solve's report: its verdict and stats, the ``always`` entries, and
    when the result is feasible each entry of ``fields_if_feasible(result)``
    that is not None."""
    out = {"command": command,
           "status": "feasible" if result.feasible else "infeasible",
           "stats": _stats_json(result.stats), **always}
    if result.feasible:
        out.update((key, value) for key, value in fields_if_feasible(result).items()
                   if value is not None)
    return out


def _almost_cover_fields(sol):
    return {"chosen": [v.to_json() for v in sol.chosen],
            "coverage": list(sol.coverage),
            "misses": [str(x) for x in sol.misses],
            "miss_total": str(sol.miss_total),
            "miss_bound": str(sol.miss_bound),
            "origins": list(sol.origins)}


def _manipulation_fields(result):
    return {"action": list(result.action), "kind": result.kind,
            "cost": result.cost,
            "new_votes": [sorted(ballot) for ballot in result.new_votes] or None}


def _approval_variant(election, command):
    """Pick priced vs weighted from the ballots; reject mixed instances."""
    weighted = election.is_weighted
    priced = election.is_priced
    if weighted and priced:
        raise ValueError(
            "election mixes non-unit weights and non-unit prices; "
            "use weights with unit prices or prices with unit weights"
        )
    if weighted and command == "bribery":
        raise ValueError("bribery supports priced voters only, not weights")
    return "weighted" if weighted else "priced"


def _run_solve_emip(args):
    model = _load(args.file, EmipModel.from_json)
    if model.objective is not None:
        result = maximize_emip(model, node_limit=args.node_limit)
    else:
        result = solve_emip(model, node_limit=args.node_limit)
    return _report("solve-emip", result, lambda r: {
        "assignment": {model.variables[i].name: str(v)
                       for i, v in sorted(r.assignment.items())},
        "best": r.best if r.best is None or r.best.denominator == 1
        else str(r.best)})


_COVER_SOLVERS = {"wsm": solve_wsm, "umm": solve_umm}


def _run_cover(args):
    instance = _load(args.file, CoverInstance.from_json)
    sol = _COVER_SOLVERS[args.command](
        instance, minimize_cost=args.minimize_cost, node_limit=args.node_limit)
    return _report(args.command, sol, lambda s: {
        "chosen": list(s.chosen), "cost": s.cost, "coverage": list(s.coverage)})


def _run_mmc_approx(args):
    instance = _load(args.file, CoverInstance.from_json)
    sol = almost_cover(instance, args.epsilon, node_limit=args.node_limit)
    out = _report("mmc-approx", sol, _almost_cover_fields,
                  epsilon=str(args.epsilon))
    if args.dump_decomposition:
        out["decomposition"] = decomposition_json(instance, args.epsilon)
    return out


_VOTING_SOLVERS = {
    ("ccdv", "priced"): solve_ccdv_priced,
    ("ccdv", "weighted"): solve_ccdv_weighted,
    ("ccav", "priced"): solve_ccav_priced,
    ("ccav", "weighted"): solve_ccav_weighted,
    ("bribery", "priced"): solve_bribery_priced,
}


def _run_approval(args):
    election = _load(args.file, ApprovalElection.from_json)
    variant = _approval_variant(election, args.command)
    solver = _VOTING_SOLVERS[(args.command, variant)]
    result = solver(election, unique_winner=args.unique_winner,
                    minimize_cost=args.minimize_cost, node_limit=args.node_limit)
    return _report(args.command, result, _manipulation_fields, variant=variant)


def _run_scoring_ccdv(args):
    election = _load(args.file, OrdinalElection.from_json)
    result = solve_scoring_ccdv(
        election, unique_winner=args.unique_winner,
        minimize_cost=args.minimize_cost, node_limit=args.node_limit,
        max_candidates=args.max_candidates,
    )
    return _report("scoring-ccdv", result, _manipulation_fields, variant="priced")


def _run_export_lp(args):
    model = _load(args.file, EmipModel.from_json)
    lowered, _ = lower(model)
    objective, sense = None, "min"
    if model.objective is not None:
        # original variables keep their indices in the lowered model
        objective, sense = model.objective.coeffs, model.objective.sense
    text = export_lp(lowered, objective, sense)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {
        "command": "export-lp",
        "status": "exported",
        "path": args.output,
        "variables": lowered.n_vars,
        "rows": len(lowered.rows),
    }


def _run_oracle(args):
    out = {"command": _command(args)}
    if args.oracle_command == "gen":
        rng = random.Random(args.seed)
        pairs = gen_hard_instances(args.kind, args.count, rng)
        out.update(status="generated", kind=args.kind, instances=[
            {"instance": inst.to_json(), "feasible": label}
            for inst, label in pairs
        ])
        return out
    caps = OracleBudget(args.max_items)
    if args.oracle_command == "cover":
        answer = brute_cover(_load(args.file, CoverInstance.from_json), caps)
    else:
        out["problem"] = args.problem
        election = _load(args.file, OrdinalElection.from_json
                         if args.problem == "scoring-ccdv"
                         else ApprovalElection.from_json)
        answer = brute_manipulate(args.problem, election,
                                  election.preferred, caps,
                                  unique_winner=args.unique_winner)
    out["status"] = "feasible" if answer.feasible else "infeasible"
    if answer.feasible:
        out["cost"] = answer.best_cost
        out["witness"] = list(answer.witness)
    return out


def _command(args):
    """The command every report of an invocation names (``oracle cover``)."""
    if args.command == "oracle":
        return "oracle " + args.oracle_command
    return args.command


def _positive(parse):
    """An argparse type: ``parse`` of a flag's text, which must be positive;
    a refusal is a usage error that names the flag."""
    def positive(text):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value <= 0:
            raise argparse.ArgumentTypeError("must be positive, got %s" % text)
        return value
    return positive


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes ``-p/q`` for a value, as it does ``-3``
    and ``-0.5``, so ``--epsilon -1/2`` reaches the flag's type check.  Its
    subparsers are of its class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared afterwards."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a JSON report to stdout")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--node-limit", type=_positive(parse_integer),
                        default=None, metavar="N",
                        help="search node budget (default %d)" % DEFAULT_NODE_LIMIT)

    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--minimize-cost", action="store_true",
                       help="report a minimum-cost action, not just any")

    winner = argparse.ArgumentParser(add_help=False)
    winner.add_argument("--unique-winner", action="store_true",
                        help="require strict victory instead of a tie")

    parser = _Parser(
        prog="pwlmip",
        description="Solvers for piecewise-linear mixed integer programs "
                    "and their covering and election applications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-emip", parents=[common, budget],
                       help="solve a piecewise-linear model from JSON")
    p.add_argument("file")

    for name, text in (("wsm", "weighted multiset multicover"),
                       ("umm", "uniform multiset multicover")):
        p = sub.add_parser(name, parents=[common, budget, solve],
                           help="solve a " + text)
        p.add_argument("file")

    p = sub.add_parser("mmc-approx", parents=[common, budget],
                       help="almost-cover a multiset multicover instance")
    p.add_argument("file")
    p.add_argument("--epsilon", type=_positive(parse_rational), required=True,
                   metavar="P/Q",
                   help="allowed total miss fraction, an exact rational")
    p.add_argument("--dump-decomposition", action="store_true",
                   help="include every emitted vector in the report")

    for name, text in (("ccdv", "control by deleting voters"),
                       ("ccav", "control by adding voters"),
                       ("bribery", "bribery to approve only p")):
        p = sub.add_parser(name, parents=[common, budget, solve, winner],
                           help="approval " + text)
        p.add_argument("file")

    p = sub.add_parser("scoring-ccdv", parents=[common, budget, solve, winner],
                       help="scoring-rule control by deleting voters")
    p.add_argument("file")
    p.add_argument("--max-candidates", type=_positive(parse_integer),
                   default=DEFAULT_CANDIDATE_CAP, metavar="M",
                   help="refuse elections with more candidates than this")

    p = sub.add_parser("export-lp", parents=[common],
                       help="lower a model and write it in LP format")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("oracle",
                       help="exhaustive reference solvers (development tool)")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    oc = osub.add_parser("cover", parents=[common])
    oc.add_argument("file")
    oc.add_argument("--max-items", type=_positive(parse_integer),
                    default=DEFAULT_MAX_ITEMS)
    om = osub.add_parser("manipulate", parents=[common, winner])
    om.add_argument("problem",
                    choices=["ccdv", "ccav", "bribery", "scoring-ccdv"])
    om.add_argument("file")
    om.add_argument("--max-items", type=_positive(parse_integer),
                    default=DEFAULT_MAX_ITEMS)
    og = osub.add_parser("gen", parents=[common])
    og.add_argument("kind", choices=["partition-wmm", "subsetsum-mmc"])
    og.add_argument("--count", type=_positive(parse_integer), default=10)
    og.add_argument("--seed", type=int, default=0,
                    help="seed for the generated instances")
    return parser


_RUNNERS = {
    "solve-emip": _run_solve_emip,
    "wsm": _run_cover,
    "umm": _run_cover,
    "mmc-approx": _run_mmc_approx,
    "ccdv": _run_approval,
    "ccav": _run_approval,
    "bribery": _run_approval,
    "scoring-ccdv": _run_scoring_ccdv,
    "export-lp": _run_export_lp,
    "oracle": _run_oracle,
}


def _emit(report, as_json, elapsed):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    for key in ("command", "status", "variant", "kind", "cost", "best",
                "miss_total", "miss_bound", "path"):
        if key in report:
            print("%s: %s" % (key, report[key]))
    for key in ("chosen", "action", "origins", "witness"):
        if key in report:
            print("%s: %s" % (key, " ".join(str(x) for x in report[key])))
    if "assignment" in report:
        print("assignment:",
              " ".join("%s=%s" % kv for kv in report["assignment"].items()))
    if "stats" in report:
        # every counter in SolveStats field order; a tableau shape reads RxC
        print("  ".join(
            "%s: %s" % (key.replace("_", " "), "x".join(map(str, value))
                        if isinstance(value, tuple) else value)
            for key, value in report["stats"].items()))
    print("wall time: %.3fs" % elapsed, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _command(args)
    started = time.monotonic()
    code = 0
    try:
        report = _RUNNERS[args.command](args)
    except ResourceExhausted as exc:
        code, report = 3, {"status": "resource-exhausted",
                           "nodes": exc.nodes, "limit": exc.limit,
                           "command": command}
        print("error: %s" % exc, file=sys.stderr)
    except (OSError, ValueError) as exc:
        # an OSError names its own file, the input or the -o output; every
        # other refusal is the input file's
        if not isinstance(exc, OSError):
            error = "%s: %s" % (args.file, exc)
        elif exc.filename:
            error = "%s: %s" % (exc.filename, exc.strerror)
        else:
            error = str(exc)
        code, report = 2, {"status": "error", "error": error,
                           "command": command}
        print("error: %s" % error, file=sys.stderr)
    try:
        if not code:
            _emit(report, args.json, time.monotonic() - started)
        elif args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
