"""The three workloads: how each presented instance is solved and checked.

A job's ``call`` is the only thing timed.  Calls look pwlmip functions up on
their module at call time, so the tracer's wrappers are seen.  ``answer``
reduces a result to the verdict and optimum that ``references.json``
records, and ``check`` compares against the reference and replays the
witness with :mod:`replay`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import replay


class Job:
    __slots__ = ("id", "kind", "data", "call", "extra")

    def __init__(self, id, kind, data, call, extra=None):
        self.id = id
        self.kind = kind
        self.data = data
        self.call = call
        self.extra = extra


def _compare(answer, ref):
    if ref is None:
        return ["no reference answer recorded"]
    if answer != ref:
        return ["answer %s, reference %s" % (answer, ref)]
    return []


class CoverLadder:
    name = "cover-ladder"

    def jobs(self, entries, workdir):
        from pwlmip import covering

        out = []
        for id_, kind, data in entries:
            instance = covering.CoverInstance.from_json(data)

            def call(instance=instance, solver="solve_" + kind):
                return getattr(covering, solver)(instance, minimize_cost=True)

            out.append(Job(id_, kind, data, call))
        return out

    def answer(self, job, sol):
        return {"feasible": sol.feasible, "optimum": sol.cost if sol.feasible else None}

    def check(self, job, sol, ref):
        problems = _compare(self.answer(job, sol), ref)
        if sol.feasible:
            problems += replay.cover(job.data, list(sol.chosen), sol.cost, sol.coverage)
        return problems


VOTING_SOLVERS = {
    "bribery-priced": "solve_bribery_priced",
    "ccdv-priced": "solve_ccdv_priced",
    "ccav-priced": "solve_ccav_priced",
    "ccdv-weighted": "solve_ccdv_weighted",
    "ccav-weighted": "solve_ccav_weighted",
    "scoring-ccdv": "solve_scoring_ccdv",
}


class Elections:
    name = "elections"

    def jobs(self, entries, workdir):
        from pwlmip import voting

        out = []
        for id_, problem, data, unique_winner in entries:
            election = voting.load_election(data)

            def call(election=election, solver=VOTING_SOLVERS[problem], unique=unique_winner):
                return getattr(voting, solver)(election, unique_winner=unique, minimize_cost=True)

            out.append(Job(id_, problem, data, call, unique_winner))
        return out

    def answer(self, job, result):
        return {"feasible": result.feasible, "optimum": result.cost if result.feasible else None}

    def check(self, job, result, ref):
        problems = _compare(self.answer(job, result), ref)
        if result.feasible:
            problems += replay.election(job.kind, job.data, list(result.action), result.cost, job.extra)
        return problems


class CliSmall:
    name = "cli-small"

    def __init__(self, fixtures):
        self.fixtures = fixtures

    def jobs(self, entries, workdir):
        from pwlmip import cli

        os.makedirs(workdir, exist_ok=True)
        out = []
        for id_, sub, data, extra in entries:
            if isinstance(data, str):
                path = os.path.join(self.fixtures, data)
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            else:
                path = os.path.join(workdir, id_ + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
            argv = [sub, path, *extra, "--json"]
            lp_path = None
            if sub == "export-lp":
                lp_path = os.path.join(workdir, id_ + ".lp")
                argv += ["-o", lp_path]

            def call(argv=argv):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
                return code, buffer.getvalue()

            out.append(Job(id_, sub, data, call, {"args": list(extra), "lp": lp_path}))
        return out

    def answer(self, job, result):
        code, text = result
        report = json.loads(text)
        answer = {"exit": code, "status": report["status"]}
        if "best" in report:
            answer["best"] = report["best"]
        if job.kind == "mmc-approx" and report["status"] == "feasible":
            answer["miss_total"] = report["miss_total"]
        return answer

    def check(self, job, result, ref):
        try:
            answer = self.answer(job, result)
        except (ValueError, KeyError) as exc:
            return ["unreadable report: %s" % exc]
        problems = _compare(answer, ref)
        report = json.loads(result[1])
        if report["status"] == "feasible":
            if job.kind in ("wsm", "umm"):
                problems += replay.cover(job.data, report["chosen"], report["cost"], report["coverage"])
            elif job.kind == "solve-emip":
                problems += replay.emip(job.data, report["assignment"], report.get("best"))
            elif job.kind == "mmc-approx":
                epsilon = job.extra["args"][job.extra["args"].index("--epsilon") + 1]
                problems += replay.almost_cover(job.data, epsilon, report)
        elif job.kind == "export-lp":
            problems += replay.lp_file(job.data, job.extra["lp"], report)
        return problems


def make(name, fixtures):
    return {"cover-ladder": CoverLadder(), "elections": Elections(),
            "cli-small": CliSmall(fixtures)}[name]
