"""Independent replay of answers, from the instance data alone.

Nothing here imports pwlmip: covers are recounted, ballots are recounted and
piecewise-linear terms are evaluated with this file's own exact arithmetic.
Every function returns a list of problems; an empty list means the answer
replays.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def _sets(data):
    return [{int(e): int(t) for e, t in s.items()} for s in data["sets"]]


def cover(data, chosen, cost, coverage=None):
    """Chosen sets meet every requirement within the budget, at the stated cost."""
    sets = _sets(data)
    if len(set(chosen)) != len(chosen) or any(not 0 <= k < len(sets) for k in chosen):
        return ["chosen sets %r are not distinct set indices" % (chosen,)]
    got = [0] * data["m"]
    for k in chosen:
        for e, t in sets[k].items():
            got[e] += t
    spent = sum(data["weights"][k] for k in chosen)
    problems = []
    if any(g < r for g, r in zip(got, data["requirements"])):
        problems.append("coverage %s misses requirements %s" % (got, data["requirements"]))
    if spent != cost:
        problems.append("stated cost %s, recounted %s" % (cost, spent))
    if spent > data["budget"]:
        problems.append("cost %s exceeds budget %s" % (spent, data["budget"]))
    if coverage is not None and list(coverage) != got:
        problems.append("stated coverage %s, recounted %s" % (list(coverage), got))
    return problems


def _wins(scores, candidates, unique_winner):
    p = scores[candidates[0]]
    rivals = [scores[c] for c in candidates[1:]]
    return all(p > s if unique_winner else p >= s for s in rivals)


def _approval(ballots, candidates):
    scores = dict.fromkeys(candidates, 0)
    for approved, weight in ballots:
        for c in approved:
            scores[c] += weight
    return scores


def election(problem, data, action, cost, unique_winner):
    """Recount the ballots after the action and price the action."""
    candidates = data["candidates"]
    voters = data["voters"]
    pool = data.get("pool", [])
    actors = pool if problem.startswith("ccav") else voters
    if len(set(action)) != len(action) or any(not 0 <= i < len(actors) for i in action):
        return ["action %r is not a set of voter indices" % (action,)]
    acted = set(action)
    if problem == "scoring-ccdv":
        alpha = data["scoring_vector"]
        scores = dict.fromkeys(candidates, 0)
        for i, v in enumerate(voters):
            if i not in acted:
                for pos, c in enumerate(v["ranking"]):
                    scores[c] += alpha[pos]
    else:
        ballots = [(v["approved"], v.get("weight", 1)) for v in voters]
        if problem.startswith("ccdv"):
            ballots = [b for i, b in enumerate(ballots) if i not in acted]
        elif problem.startswith("ccav"):
            ballots += [(pool[i]["approved"], pool[i].get("weight", 1)) for i in action]
        else:  # bribery: a bribed voter approves only p
            ballots = [
                ([candidates[0]], w) if i in acted else (a, w)
                for i, (a, w) in enumerate(ballots)
            ]
        scores = _approval(ballots, candidates)
    spent = sum(actors[i].get("price", 1) for i in action)
    problems = []
    if not _wins(scores, candidates, unique_winner):
        problems.append("recounted scores %s do not make p win" % scores)
    if spent != cost:
        problems.append("stated cost %s, recounted %s" % (cost, spent))
    if spent > data["budget"]:
        problems.append("cost %s exceeds budget %s" % (spent, data["budget"]))
    return problems


def pwl_value(term, x):
    """Exact value of a bare coefficient or a piecewise-linear function at x.

    f(x) = f(0) + the integral of the slope from 0 to x; piece k has slope
    ``slopes[k]`` between ``breakpoints[k-1]`` and ``breakpoints[k]``.
    """
    if not isinstance(term, dict):
        return Fraction(term) * x
    bps = [Fraction(b) for b in term["breakpoints"]]
    slopes = [Fraction(s) for s in term["slopes"]]
    edges = [None] + bps + [None]
    lo, hi = (Fraction(0), x) if x >= 0 else (x, Fraction(0))
    area = Fraction(0)
    for k, slope in enumerate(slopes):
        a = lo if edges[k] is None else max(lo, edges[k])
        b = hi if edges[k + 1] is None else min(hi, edges[k + 1])
        if b > a:
            area += slope * (b - a)
    return Fraction(term["value_at_zero"]) + (area if x >= 0 else -area)


def _index(data, name):
    return [v["name"] for v in data["variables"]].index(name)


def emip_point_problems(data, point):
    """Bounds, integrality and every constraint sum(lhs) <= sum(rhs) + b at a point."""
    problems = []
    for i, v in enumerate(data["variables"]):
        x = point[i]
        if x < Fraction(v["lower"]) or (v["upper"] is not None and x > Fraction(v["upper"])):
            problems.append("%s=%s outside its bounds" % (v["name"], x))
        if v["kind"] == "integer" and x.denominator != 1:
            problems.append("%s=%s is not integral" % (v["name"], x))
    for j, cons in enumerate(data["constraints"]):
        lhs = sum((pwl_value(t, point[_index(data, k)]) for k, t in cons["lhs"].items()), Fraction(0))
        rhs = sum((pwl_value(t, point[_index(data, k)]) for k, t in cons["rhs"].items()), Fraction(0))
        if lhs > rhs + Fraction(cons["b"]):
            problems.append("constraint %d violated: %s > %s" % (j, lhs, rhs + Fraction(cons["b"])))
    return problems


def emip_objective(data, point):
    coeffs = data["objective"]["coeffs"]
    return sum((Fraction(c) * point[_index(data, k)] for k, c in coeffs.items()), Fraction(0))


def emip(data, assignment, best=None):
    """A reported assignment (name -> rational string) satisfies the model."""
    names = [v["name"] for v in data["variables"]]
    if sorted(assignment) != sorted(names):
        return ["assignment names %s differ from the model's %s" % (sorted(assignment), names)]
    point = [Fraction(assignment[n]) for n in names]
    problems = emip_point_problems(data, point)
    if best is not None and data.get("objective"):
        value = emip_objective(data, point)
        if value != best:
            problems.append("objective at the witness is %s, reported best %s" % (value, best))
    return problems


def almost_cover(data, epsilon, report):
    """Emitted vectors: realized = floor(beta*shape), within their origin sets,
    at most budget of them, and the stated coverage and misses recount."""
    sets = _sets(data)
    m = data["m"]
    chosen = report["chosen"]
    problems = []
    if len(chosen) > data["budget"]:
        problems.append("%d vectors chosen, budget %d" % (len(chosen), data["budget"]))
    got = [0] * m
    per_origin = {}
    for vec in chosen:
        beta = Fraction(vec["beta"])
        realized = [math.floor(beta * Fraction(s)) for s in vec["shape"]]
        if realized != vec["realized"]:
            problems.append("vector realized %s, recomputed %s" % (vec["realized"], realized))
        acc = per_origin.setdefault(vec["origin"], [0] * m)
        for e, c in enumerate(realized):
            got[e] += c
            acc[e] += c
    for origin, acc in per_origin.items():
        if any(a > sets[origin].get(e, 0) for e, a in enumerate(acc)):
            problems.append("vectors of set %d exceed the set" % origin)
    misses = [max(0, r - g) for r, g in zip(data["requirements"], got)]
    bound = Fraction(epsilon) * sum(data["requirements"])
    if got != report["coverage"]:
        problems.append("stated coverage %s, recounted %s" % (report["coverage"], got))
    if Fraction(report["miss_total"]) != sum(misses):
        problems.append("stated miss %s, recounted %s" % (report["miss_total"], sum(misses)))
    if Fraction(report["miss_bound"]) != bound or sum(misses) > bound:
        problems.append("miss %s against bound %s" % (sum(misses), bound))
    return problems


def lp_file(data, path, report):
    """The exported LP text is complete and names every model variable."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return ["cannot read exported LP file: %s" % exc]
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    problems = []
    if not lines or lines[-1] != "End" or "Subject To" not in lines:
        problems.append("LP file lacks its Subject To section or End line")
    missing = [v["name"] for v in data["variables"]
               if not re.search(r"\b%s\b" % re.escape(v["name"]), text)]
    if missing:
        problems.append("LP file does not name %s" % missing)
    if report.get("rows", -1) < len(data["constraints"]):
        problems.append("fewer LP rows than model constraints")
    return problems
