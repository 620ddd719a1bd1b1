#!/usr/bin/env python3
"""Record the reference answers in ``references.json``, checked by an oracle.

    python3 perfbench/make_refs.py

For both pools (``default`` and ``heldout``) and every workload, each
instance is solved once in its generated order and its verdict and optimum
(or CLI status, best value and miss) are recorded after the answer replays.
Every instance that fits an exhaustive reference is cross-checked first:
``oracle.brute_cover`` for covers of at most 20 sets,
``oracle.brute_manipulate`` for elections with at most 20 actionable voters,
and grid enumeration with ``replay``'s own evaluator for the small
piecewise-linear models.  Any disagreement stops the script.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

import instances
import replay
import run
import workloads

ORACLE_CAP = 20
MANIPULATION = {"bribery-priced": "bribery", "ccdv-priced": "ccdv", "ccav-priced": "ccav",
                "ccdv-weighted": "ccdv", "ccav-weighted": "ccav", "scoring-ccdv": "scoring-ccdv"}


def brute_emip(data):
    """(feasible, best objective or None) by enumerating the integer grid."""
    ranges = [range(int(Fraction(v["lower"])), int(Fraction(v["upper"])) + 1)
              for v in data["variables"]]
    objective = data.get("objective")
    values = []
    for point in itertools.product(*ranges):
        point = [Fraction(x) for x in point]
        if not replay.emip_point_problems(data, point):
            if not objective:
                return True, None
            values.append(replay.emip_objective(data, point))
    if not values:
        return False, None
    return True, (max(values) if objective["sense"] == "max" else min(values))


def oracle_answer(workload, job):
    """The oracle's view of a job's answer, or None when it does not fit."""
    from pwlmip import oracle, voting
    from pwlmip.covering import CoverInstance

    data = job.data
    if workload == "cover-ladder":
        if len(data["sets"]) > ORACLE_CAP:
            return None
        got = oracle.brute_cover(CoverInstance.from_json(data))
        return {"feasible": got.feasible, "optimum": got.best_cost}
    if workload == "elections":
        actors = data["pool"] if job.kind.startswith("ccav") else data["voters"]
        if len(actors) > ORACLE_CAP:
            return None
        got = oracle.brute_manipulate(MANIPULATION[job.kind], voting.load_election(data),
                                      data["candidates"][0], unique_winner=job.extra)
        return {"feasible": got.feasible, "optimum": got.best_cost}
    if job.kind in ("wsm", "umm"):
        if len(data["sets"]) > ORACLE_CAP:
            return None
        feasible = oracle.brute_cover(CoverInstance.from_json(data)).feasible
        return {"exit": 0, "status": "feasible" if feasible else "infeasible"}
    if job.kind == "solve-emip":
        feasible, best = brute_emip(data)
        out = {"exit": 0, "status": "feasible" if feasible else "infeasible"}
        if best is not None:
            out["best"] = int(best)
        return out
    return None


def agrees(workload, job, answer, expected):
    if job.kind == "mmc-approx":
        # An exact cover within the budget forces a miss strictly below eps*sum(r).
        if len(job.data["sets"]) > ORACLE_CAP:
            return None
        from pwlmip import oracle
        from pwlmip.covering import CoverInstance

        exact = oracle.brute_cover(CoverInstance.from_json(job.data)).feasible
        if not exact:
            return True
        epsilon = Fraction(job.extra["args"][job.extra["args"].index("--epsilon") + 1])
        return (answer["status"] == "feasible"
                and Fraction(answer["miss_total"]) < epsilon * sum(job.data["requirements"]))
    if expected is None:
        return None
    return answer == expected


def main():
    sys.path.insert(0, str(run.SRC))
    references, coverage = {}, {}
    for pool in instances.POOL_SEEDS:
        for name, make_pool in instances.POOLS.items():
            workload = workloads.make(name, str(run.FIXTURES))
            jobs = workload.jobs(make_pool(pool), str(run.OUT / ("refs-" + pool)))
            recorded, checked, unchecked = {}, 0, []
            for job in jobs:
                result = job.call()
                answer = workload.answer(job, result)
                problems = workload.check(job, result, answer)
                if problems:
                    sys.exit("%s/%s/%s does not replay: %s" % (pool, name, job.id, problems))
                verdict = agrees(name, job, answer, oracle_answer(name, job))
                if verdict is False:
                    sys.exit("%s/%s/%s: solver %s disagrees with the oracle"
                             % (pool, name, job.id, answer))
                if verdict:
                    checked += 1
                else:
                    unchecked.append(job.id)
                recorded[job.id] = answer
            references.setdefault(pool, {})[name] = recorded
            coverage.setdefault(pool, {})[name] = {"oracle_checked": checked, "unchecked": unchecked}
            print("%s %s: %d answers, %d oracle-checked" % (pool, name, len(recorded), checked))
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"pools": references, "oracle": coverage}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
