"""Command-line frontend: load instances, dispatch solvers, report results.

Reports are deterministic: the JSON report for an invocation depends only
on the input files and flags — wall time goes to stderr in human
mode and never into the JSON.  The argparse tree is built once per process,
on the first ``main`` call, and reused by every later call; each parse
still gets a fresh namespace.  Exit codes: 0 for any completed solve
(feasible or infeasible alike), 2 for input errors, 3 when the node
budget runs out.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
import time

from . import __version__
from .approx import almost_cover, decomposition_json
from .covering import CoverInstance, solve_umm, solve_wsm
from .emip import EmipModel, InvalidModelError, normalize
from .milp import DEFAULT_NODE_LIMIT, ResourceExhausted, SolveStats, export_lp
from .oracle import (CapExceeded, OracleBudget, brute_cover, brute_manipulate,
                     gen_hard_instances)
from .pipeline import maximize_emip, solve_emip
from .rationals import parse_rational
from .reduction import lower
from .voting import (ApprovalElection, OrdinalElection, load_election,
                     solve_bribery_priced, solve_ccav_priced,
                     solve_ccav_weighted, solve_ccdv_priced,
                     solve_ccdv_weighted, solve_scoring_ccdv)


class InputError(Exception):
    """A problem with the invocation or an input file (exit code 2)."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc


def _load_cover(path):
    try:
        return CoverInstance.from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def _load_emip(path):
    try:
        return EmipModel.from_json(_load_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def _load_election(path, kind):
    obj = _load_json(path)
    try:
        election = load_election(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("%s: %s" % (path, exc)) from exc
    want = OrdinalElection if kind == "ordinal" else ApprovalElection
    if not isinstance(election, want):
        raise InputError("%s: expected a %s election" % (path, kind))
    return election


def _cover_report(command, sol):
    if not sol.feasible:
        return {"command": command, "status": "infeasible",
                "stats": dataclasses.asdict(sol.stats)}
    return {
        "command": command,
        "status": "feasible",
        "chosen": list(sol.chosen),
        "cost": sol.cost,
        "coverage": list(sol.coverage),
        "stats": dataclasses.asdict(sol.stats),
    }


def _manipulation_report(command, result, variant):
    out = {
        "command": command,
        "status": "feasible" if result.feasible else "infeasible",
        "variant": variant,
        "stats": dataclasses.asdict(result.stats),
    }
    if result.feasible:
        out["action"] = list(result.action)
        out["kind"] = result.kind
        out["cost"] = result.cost
        if result.new_votes:
            out["new_votes"] = [sorted(ballot) for ballot in result.new_votes]
    return out


def _approval_variant(election, command):
    """Pick priced vs weighted from the ballots; reject mixed instances."""
    weighted = election.is_weighted
    priced = election.is_priced
    if weighted and priced:
        raise InputError(
            "election mixes non-unit weights and non-unit prices; "
            "use weights with unit prices or prices with unit weights"
        )
    if weighted and command == "bribery":
        raise InputError("bribery supports priced voters only, not weights")
    return "weighted" if weighted else "priced"


def _run_solve_emip(args):
    model = _load_emip(args.file)
    try:
        if model.objective is not None:
            result = maximize_emip(model, node_limit=args.node_limit)
        else:
            result = solve_emip(model, node_limit=args.node_limit)
    except (InvalidModelError, ValueError) as exc:
        raise InputError("%s: %s" % (args.file, exc)) from exc
    out = {
        "command": "solve-emip",
        "status": "feasible" if result.feasible else "infeasible",
        "stats": dataclasses.asdict(result.stats),
    }
    if result.feasible:
        out["assignment"] = {
            model.variables[i].name: str(v)
            for i, v in sorted(result.assignment.items())
        }
        if result.best is not None:
            out["best"] = result.best
    return out


_COVER_SOLVERS = {"wsm": solve_wsm, "umm": solve_umm}


def _run_cover(args):
    instance = _load_cover(args.file)
    try:
        sol = _COVER_SOLVERS[args.command](
            instance, minimize_cost=args.minimize_cost,
            node_limit=args.node_limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _cover_report(args.command, sol)


def _run_mmc_approx(args):
    instance = _load_cover(args.file)
    try:
        epsilon = parse_rational(args.epsilon)
        stats = SolveStats()
        sol = almost_cover(instance, epsilon, node_limit=args.node_limit,
                           stats=stats)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = {"command": "mmc-approx", "epsilon": str(epsilon),
           "stats": dataclasses.asdict(stats)}
    if sol is None:
        out["status"] = "infeasible"
    else:
        out.update(
            status="feasible",
            chosen=[v.to_json() for v in sol.chosen],
            coverage=list(sol.coverage),
            misses=[str(x) for x in sol.misses],
            miss_total=str(sol.miss_total),
            miss_bound=str(sol.miss_bound),
            origins=list(sol.origins),
        )
    if args.dump_decomposition:
        out["decomposition"] = decomposition_json(instance, epsilon)
    return out


_VOTING_SOLVERS = {
    ("ccdv", "priced"): solve_ccdv_priced,
    ("ccdv", "weighted"): solve_ccdv_weighted,
    ("ccav", "priced"): solve_ccav_priced,
    ("ccav", "weighted"): solve_ccav_weighted,
    ("bribery", "priced"): solve_bribery_priced,
}


def _run_approval(args):
    election = _load_election(args.file, "approval")
    variant = _approval_variant(election, args.command)
    solver = _VOTING_SOLVERS[(args.command, variant)]
    try:
        result = solver(election, unique_winner=args.unique_winner,
                        minimize_cost=args.minimize_cost,
                        node_limit=args.node_limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _manipulation_report(args.command, result, variant)


def _run_scoring_ccdv(args):
    election = _load_election(args.file, "ordinal")
    try:
        result = solve_scoring_ccdv(
            election, unique_winner=args.unique_winner,
            minimize_cost=args.minimize_cost, node_limit=args.node_limit,
            max_candidates=args.max_candidates,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return _manipulation_report("scoring-ccdv", result, "priced")


def _run_export_lp(args):
    model = _load_emip(args.file)
    try:
        lowered, _ = lower(normalize(model))
        text = export_lp(lowered)
    except (InvalidModelError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("%s: %s" % (args.output, exc.strerror or exc)) from exc
    return {
        "command": "export-lp",
        "status": "exported",
        "path": args.output,
        "variables": lowered.n_vars,
        "rows": len(lowered.rows),
    }


def _run_oracle(args):
    if args.oracle_command == "cover":
        instance = _load_cover(args.file)
        try:
            answer = brute_cover(instance, OracleBudget(args.max_items))
        except CapExceeded as exc:
            raise InputError(str(exc)) from exc
        out = {"command": "oracle cover",
               "status": "feasible" if answer.feasible else "infeasible"}
        if answer.feasible:
            out["cost"] = answer.best_cost
            out["witness"] = list(answer.witness)
        return out
    if args.oracle_command == "manipulate":
        kind = "ordinal" if args.problem == "scoring-ccdv" else "approval"
        election = _load_election(args.file, kind)
        try:
            answer = brute_manipulate(args.problem, election,
                                      election.preferred,
                                      OracleBudget(args.max_items),
                                      unique_winner=args.unique_winner)
        except CapExceeded as exc:
            raise InputError(str(exc)) from exc
        out = {"command": "oracle manipulate", "problem": args.problem,
               "status": "feasible" if answer.feasible else "infeasible"}
        if answer.feasible:
            out["cost"] = answer.best_cost
            out["witness"] = list(answer.witness)
        return out
    # generate
    rng = random.Random(args.seed)
    pairs = gen_hard_instances(args.kind, args.count, rng)
    return {
        "command": "oracle gen",
        "status": "generated",
        "kind": args.kind,
        "instances": [
            {"instance": inst.to_json(), "feasible": label}
            for inst, label in pairs
        ],
    }


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive, got %d" % value)
    return value


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared afterwards."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print a JSON report to stdout")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--node-limit", type=_positive_int, default=None, metavar="N",
                        help="search node budget (default %d)" % DEFAULT_NODE_LIMIT)

    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--minimize-cost", action="store_true",
                       help="report a minimum-cost action, not just any")

    winner = argparse.ArgumentParser(add_help=False)
    winner.add_argument("--unique-winner", action="store_true",
                        help="require strict victory instead of a tie")

    parser = argparse.ArgumentParser(
        prog="pwlmip",
        description="Solvers for piecewise-linear mixed integer programs "
                    "and their covering and election applications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-emip", parents=[common, budget],
                       help="solve a piecewise-linear model from JSON")
    p.add_argument("file")

    for name, text in (("wsm", "weighted set multicover"),
                       ("umm", "uniform multiset multicover")):
        p = sub.add_parser(name, parents=[common, budget, solve],
                           help="solve a " + text)
        p.add_argument("file")

    p = sub.add_parser("mmc-approx", parents=[common, budget],
                       help="almost-cover a multiset multicover instance")
    p.add_argument("file")
    p.add_argument("--epsilon", required=True, metavar="P/Q",
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
    p.add_argument("--max-candidates", type=int, default=5, metavar="M",
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
    oc.add_argument("--max-items", type=_positive_int,
                    default=OracleBudget.max_items)
    om = osub.add_parser("manipulate", parents=[common, winner])
    om.add_argument("problem",
                    choices=["ccdv", "ccav", "bribery", "scoring-ccdv"])
    om.add_argument("file")
    om.add_argument("--max-items", type=_positive_int,
                    default=OracleBudget.max_items)
    og = osub.add_parser("gen", parents=[common])
    og.add_argument("kind", choices=["partition-wmm", "subsetsum-mmc"])
    og.add_argument("--count", type=_positive_int, default=10)
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
        s = report["stats"]
        print("nodes: %d  lp calls: %d  pivots: %d  probes: %d  "
              "infeasible lps: %d  max depth: %d  max tableau: %dx%d"
              % (s["nodes"], s["lp_calls"], s["pivots"], s["probes"],
                 s["infeasible_lps"], s["max_depth"], *s["max_tableau"]))
    print("wall time: %.3fs" % elapsed, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        report = _RUNNERS[args.command](args)
    except InputError as exc:
        report = {"command": args.command, "status": "error",
                  "error": str(exc)}
        if args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceExhausted as exc:
        report = {"command": args.command, "status": "resource-exhausted",
                  "nodes": exc.nodes, "limit": exc.limit}
        if args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        print("error: %s" % exc, file=sys.stderr)
        return 3
    _emit(report, args.json, time.monotonic() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
