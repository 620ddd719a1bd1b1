"""Seeded instance pools for the three workloads and their per-pass presentation.

Every instance is kept as plain data in the package's own JSON file formats
(``cover-v1``, ``election-v1``, ``emip-v1``), so the same dict feeds the
library call, the CLI file and the benchmark's independent replay.

A *pool* is generated once from a pool seed and has one recorded reference
answer per instance (``references.json``).  The run's ``--seed`` only changes
how the pool is *presented*: the order of the solves, the order of the sets
in every cover and of the voters in every election.  The solvers group sets
by support and voters by ballot before building a model, so a presentation
changes the inputs and the witnesses but neither the models nor the optimum;
every seed therefore does the same solver work, which is what keeps the
run-to-run spread small on a shared machine.
"""

from __future__ import annotations

import random

POOL_SEEDS = {"default": 1709, "heldout": 2850}

# (m, n) rungs of the covering ladder and how many instances of each kind.
LADDER_RUNGS = ((3, 16), (4, 18), (5, 20), (6, 22))
LADDER_PER_RUNG = {"wsm": 3, "umm": 3}

ELECTION_COUNTS = {
    "bribery-priced": 4,
    "ccdv-priced": 4,
    "ccav-priced": 4,
    "ccdv-weighted": 4,
    "ccav-weighted": 4,
    "scoring-ccdv": 4,
}

CLI_COUNTS = {"wsm": 40, "umm": 40, "mmc": 40, "emip": 40}
CLI_FIXTURE_CALLS = (
    ("wsm", "wsm3.json", ()),
    ("umm", "uniformish.json", ()),
    ("mmc-approx", "uniformish.json", ("--epsilon", "1/4")),
    ("solve-emip", "knapsackish.json", ()),
    ("export-lp", "knapsackish.json", ()),
    ("solve-emip", "empty.json", ()),
    ("export-lp", "empty.json", ()),
)
INFEASIBLE_EVERY = 4  # every fourth seeded CLI instance is infeasible by construction


def _pool_rng(pool, workload):
    return random.Random("%d/%s" % (POOL_SEEDS[pool], workload))


def _cover(m, sets, requirements, budget, weights=None):
    return {
        "format": "cover-v1",
        "m": m,
        "sets": [{str(e): t for e, t in sorted(s.items())} for s in sets],
        "weights": list(weights) if weights is not None else [1] * len(sets),
        "requirements": list(requirements),
        "budget": budget,
    }


def _random_support(rng, m):
    mask = rng.randrange(1, 1 << m)
    return [e for e in range(m) if mask >> e & 1]


# -- cover-ladder -----------------------------------------------------------


def ladder_cover(rng, m, n, kind):
    """The scaling-ladder recipe: nonempty random supports, requirements 2..3n/m;
    UMM multiplicities 1-6 with budget n/2, WSM weights 1-9 with budget half
    the total weight."""
    sets = []
    for _ in range(n):
        t = rng.randint(1, 6) if kind == "umm" else 1
        sets.append({e: t for e in _random_support(rng, m)})
    requirements = [rng.randint(2, max(2, 3 * n // m)) for _ in range(m)]
    if kind == "umm":
        return _cover(m, sets, requirements, n // 2)
    weights = [rng.randint(1, 9) for _ in range(n)]
    return _cover(m, sets, requirements, sum(weights) // 2, weights)


def ladder_pool(pool):
    rng = _pool_rng(pool, "cover-ladder")
    out = []
    for m, n in LADDER_RUNGS:
        for kind, count in LADDER_PER_RUNG.items():
            for j in range(count):
                out.append(("m%d-%s-%d" % (m, kind, j), kind, ladder_cover(rng, m, n, kind)))
    return out


# -- elections --------------------------------------------------------------


def _approval_scores(candidates, voters):
    scores = dict.fromkeys(candidates, 0)
    for v in voters:
        for c in v["approved"]:
            scores[c] += v.get("weight", 1)
    return scores


def _approval_voter(rng, candidates, p_rate, weighted):
    approved = [c for c in candidates if rng.random() < (p_rate if c == "p" else 0.5)]
    if not approved:
        approved = [rng.choice(candidates[1:])]
    if weighted:
        return {"approved": approved, "weight": rng.randint(1, 6), "price": 1}
    return {"approved": approved, "weight": 1, "price": rng.randint(1, 9)}


def approval_election(rng, problem):
    """Five candidates, sixteen voters; p trails, so some action is needed."""
    weighted = problem.endswith("weighted")
    candidates = ["p", "c1", "c2", "c3", "c4"]
    while True:
        voters = [_approval_voter(rng, candidates, 0.4, weighted) for _ in range(16)]
        pool = []
        if problem.startswith("ccav"):
            pool = [_approval_voter(rng, candidates, 0.8, weighted) for _ in range(16)]
        scores = _approval_scores(candidates, voters)
        if max(scores[c] for c in candidates[1:]) > scores["p"]:
            break
    # A budget between a quarter and half of what all actionable voters
    # cost gives a mix of feasible and infeasible verdicts.
    actors = pool if problem.startswith("ccav") else voters
    total = sum(v["price"] for v in actors)
    budget = rng.randint(total // 4, total // 2)
    return {
        "format": "election-v1",
        "kind": "approval",
        "candidates": candidates,
        "voters": voters,
        "pool": pool,
        "budget": budget,
    }


def borda_election(rng):
    """Borda with four or five candidates, twelve to sixteen priced voters."""
    candidates = ["p", "a", "b", "c", "d"][: rng.randint(4, 5)]
    m = len(candidates)
    alpha = list(range(m - 1, -1, -1))
    while True:
        voters = []
        for _ in range(rng.randint(12, 16)):
            ranking = list(candidates)
            rng.shuffle(ranking)
            voters.append({"ranking": ranking, "price": rng.randint(1, 9)})
        scores = dict.fromkeys(candidates, 0)
        for v in voters:
            for pos, c in enumerate(v["ranking"]):
                scores[c] += alpha[pos]
        if max(scores[c] for c in candidates[1:]) > scores["p"]:
            break
    total = sum(v["price"] for v in voters)
    return {
        "format": "election-v1",
        "kind": "ordinal",
        "candidates": candidates,
        "voters": voters,
        "scoring_vector": alpha,
        "budget": rng.randint(total // 4, total // 2),
    }


def elections_pool(pool):
    rng = _pool_rng(pool, "elections")
    out = []
    for problem, count in ELECTION_COUNTS.items():
        for j in range(count):
            data = borda_election(rng) if problem == "scoring-ccdv" else approval_election(rng, problem)
            out.append(("%s-%d" % (problem, j), problem, data, j % 2 == 1))
    return out


# -- cli-small --------------------------------------------------------------


def small_wsm(rng, infeasible):
    m, n = 3, rng.randint(5, 9)
    sets = [{e: 1 for e in _random_support(rng, m)} for _ in range(n)]
    weights = [rng.randint(1, 9) for _ in range(n)]
    requirements = [rng.randint(1, 3) for _ in range(m)]
    if infeasible:
        e = rng.randrange(m)
        requirements[e] = sum(1 for s in sets if e in s) + 1
    return _cover(m, sets, requirements, sum(weights), weights)


def small_umm(rng, infeasible):
    m, n = 3, rng.randint(5, 9)
    sets = []
    for _ in range(n):
        t = rng.randint(1, 4)
        sets.append({e: t for e in _random_support(rng, m)})
    requirements = [rng.randint(1, 6) for _ in range(m)]
    if infeasible:
        e = rng.randrange(m)
        requirements[e] = sum(s.get(e, 0) for s in sets) + 1
    return _cover(m, sets, requirements, n // 2 + 1)


def small_mmc(rng, infeasible):
    """General multisets; a zero budget leaves the whole requirement missed."""
    m, n = rng.randint(2, 3), rng.randint(4, 7)
    sets = []
    for _ in range(n):
        s = {e: rng.randint(1, 4) for e in _random_support(rng, m)}
        sets.append(s)
    requirements = [rng.randint(1, 6) for _ in range(m)]
    budget = 0 if infeasible else rng.randint(1, 3)
    data = _cover(m, sets, requirements, budget)
    data["epsilon"] = rng.choice(("1/4", "1/2"))
    return data


def _pwl(shape, breakpoints, slopes):
    return {
        "shape": shape,
        "value_at_zero": "0",
        "breakpoints": [str(b) for b in breakpoints],
        "slopes": [str(s) for s in slopes],
    }


def small_emip(rng, infeasible):
    """Three integer variables, a convex-vs-concave row and a demand row.

    The infeasible ones add 2*x0 - 2*x1 = 1, which the LP relaxation
    satisfies, so branch and bound has to prove emptiness by branching.
    """
    bp = rng.randint(1, 3)
    lo, hi = rng.randint(1, 2), rng.randint(3, 4)
    convex = _pwl("convex", [bp], [lo, hi])
    cbp = rng.randint(1, 3)
    concave = _pwl("concave", [cbp], [rng.randint(2, 3), rng.randint(0, 1)])
    constraints = [
        {"lhs": {"x0": convex, "x1": "1"}, "rhs": {"x2": concave}, "b": str(rng.randint(2, 8))},
        {"lhs": {"x0": "-1", "x1": "-1", "x2": "-1"}, "rhs": {}, "b": str(-rng.randint(2, 6))},
    ]
    if infeasible:
        constraints.append({"lhs": {"x0": "2", "x1": "-2"}, "rhs": {}, "b": "1"})
        constraints.append({"lhs": {"x0": "-2", "x1": "2"}, "rhs": {}, "b": "-1"})
    return {
        "format": "emip-v1",
        "variables": [
            {"name": "x%d" % i, "kind": "integer", "lower": "0", "upper": "6"}
            for i in range(3)
        ],
        "constraints": constraints,
        "objective": None,
    }


_CLI_MAKERS = {"wsm": small_wsm, "umm": small_umm, "mmc": small_mmc, "emip": small_emip}


def cli_pool(pool):
    """(id, subcommand, data or fixture name, extra args) per CLI call."""
    rng = _pool_rng(pool, "cli-small")
    out = [
        ("fixture-%s-%s" % (sub, name[: -len(".json")]), sub, name, args)
        for sub, name, args in CLI_FIXTURE_CALLS
    ]
    for family, count in CLI_COUNTS.items():
        for j in range(count):
            data = _CLI_MAKERS[family](rng, j % INFEASIBLE_EVERY == INFEASIBLE_EVERY - 1)
            if family == "emip":
                out.append(("solve-emip-%d" % j, "solve-emip", data, ()))
                out.append(("export-lp-%d" % j, "export-lp", data, ()))
            elif family == "mmc":
                out.append(("mmc-approx-%d" % j, "mmc-approx", data, ("--epsilon", data["epsilon"])))
            else:
                out.append(("%s-%d" % (family, j), family, data, ()))
    return out


POOLS = {"cover-ladder": ladder_pool, "elections": elections_pool, "cli-small": cli_pool}


# -- presentation -----------------------------------------------------------


def present(data, rng):
    """A copy of an instance with its sets or voters in a seeded order."""
    if not isinstance(data, dict):
        return data  # a committed fixture, used as it is
    data = dict(data)
    if data["format"] == "cover-v1":
        order = list(range(len(data["sets"])))
        rng.shuffle(order)
        data["sets"] = [data["sets"][k] for k in order]
        data["weights"] = [data["weights"][k] for k in order]
    elif data["format"] == "election-v1":
        for key in ("voters", "pool"):
            if key in data:
                data[key] = rng.sample(data[key], len(data[key]))
    return data


def presentation(entries, seed, pass_no):
    """The pool for one pass: shuffled solve order, permuted sets and voters."""
    rng = random.Random("%d:%d" % (seed, pass_no))
    entries = list(entries)
    rng.shuffle(entries)
    return [(e[0], e[1], present(e[2], rng)) + tuple(e[3:]) for e in entries]

