#!/usr/bin/env python3
"""Benchmark of pwlmip's exact solvers, one workload per process.

    python3 perfbench/run.py --workload cover-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One client runs a
closed loop: the next solve starts when the previous one has returned.  The
run sets up the workload several times (the median is ``setup_s``), then
repeats passes over the workload's instances until ``--seconds`` would be
exceeded, checks every answer against ``references.json`` and an independent
replay, and prints a human-readable summary followed by one JSON line.

The gated times are in *reference seconds*.  A short, fixed pure-Fraction
loop (the speed probe) runs around every set-up and between every two
solves, more often after a long solve; an interval is scaled by the probe's
reference time over the mean of the probes around it.  A shared machine that runs at half speed for a
while then slows the probe as much as the solve, and the scaled time stays
put.  The raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer counters and self times
(see ``tracing.py``); tracing overhead is the traced minus the untraced
median pass time.  Full results, and the spans of a traced run, are written
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import instances
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 15
PROBE_ITERATIONS = 1000
PROBE_REF_S = 0.002    # the speed probe's time on an unloaded 2-core x86-64 VM, Python 3.11
PROBE_EVERY_S = 0.05   # after a solve, one more probe per this much solve time
DRIFT_ITERATIONS = 20000
P90_MIN_SOLVES_PER_PASS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.POOLS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=sorted(instances.POOL_SEEDS), default="default",
                        help="instance pool; 'heldout' checks a claim on unseen instances")
    return parser.parse_args(argv)


def fraction_loop(iterations):
    """A fixed pure-Fraction loop that measures machine speed, not pwlmip."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, iterations + 1):
        total += Fraction(i % 97 + 1, i % 89 + 1)
    return time.perf_counter() - start


def speed_probe():
    return fraction_loop(PROBE_ITERATIONS)


def reference_seconds(seconds, probe_seconds):
    """``seconds`` as they would read at the probe's reference speed."""
    return seconds * PROBE_REF_S / probe_seconds


def import_seconds():
    """Cold start of the package in a fresh interpreter, as a CLI user pays it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PWLMIP_")}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pwlmip.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def configuration(args, cleared):
    import pwlmip

    def present(module):
        try:
            return importlib.util.find_spec(module) is not None
        except (ImportError, ValueError):
            return False

    def probe(module, function):
        try:
            return getattr(importlib.import_module(module), function)()
        except (ImportError, AttributeError):
            return "absent"

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "gmpy2": present("gmpy2"),
        "cython": present("Cython"),
        "kernel": probe("pwlmip._kernel", "active_kernel_name"),
        "scalar_backend": probe("pwlmip.rationals", "scalar_backend_name"),
        "pwlmip": getattr(pwlmip, "__version__", "unknown"),
        "cleared_env": cleared,
        "workload": args.workload,
        "pool": args.pool,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_references(pool, workload):
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["pools"].get(pool, {}).get(workload, {})


class Setup(NamedTuple):
    seconds: float
    scaled: float          # the same in reference seconds
    import_s: float
    entries: list
    refs: dict
    jobs: list


def setup(workload, args, workdir):
    """Import cost, pool generation, references and the first pass's inputs."""
    before = speed_probe()
    start = time.perf_counter()
    import_s = import_seconds()
    entries = instances.POOLS[workload.name](args.pool)
    refs = load_references(args.pool, workload.name)
    jobs = workload.jobs(instances.presentation(entries, args.seed, 0), workdir)
    seconds = time.perf_counter() - start
    scaled = reference_seconds(seconds, (before + speed_probe()) / 2)
    return Setup(seconds, scaled, import_s, entries, refs, jobs)


class Pass(NamedTuple):
    traced: bool
    wall: float            # seconds the pass's solves took, probes excluded
    times: dict            # instance id -> seconds its solve took
    scaled: list           # each solve in reference seconds
    probes: list           # every speed probe of the pass
    counts: dict | None    # deterministic counters, traced passes only
    layer_self: dict       # layer -> self seconds, traced passes only
    harness_self: float    # traced pass time that no span covers


def run_pass(jobs, tracer):
    """Solve every job back to back, with speed probes between solves.

    Only the calls are timed.  The gap after a solve holds one probe per
    ``PROBE_EVERY_S`` of it, at least one, so probes sample the machine's
    speed evenly over time; a solve is scaled by the gaps before and after it.
    """
    results, gaps = [], [[speed_probe()]]
    for job in jobs:
        if tracer is not None:
            tracer.instance = job.id
        began = time.perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # noqa: BLE001 - any exception is a failed solve
            result = exc
        took = time.perf_counter() - began
        results.append((result, took))
        gaps.append([speed_probe() for _ in range(1 + int(took / PROBE_EVERY_S))])
    means = [statistics.mean(gap) for gap in gaps]
    scaled = [reference_seconds(t, (before + after) / 2)
              for (_, t), before, after in zip(results, means, means[1:])]
    return sum(t for _, t in results), results, scaled, [t for gap in gaps for t in gap]


def check_pass(workload, jobs, results, refs, answers, failures, pass_no):
    for job, (result, _) in zip(jobs, results):
        if isinstance(result, Exception):
            problems = ["%s: %s" % (type(result).__name__, result)]
        else:
            try:
                problems = workload.check(job, result, refs.get(job.id))
                answer = workload.answer(job, result)
            except Exception as exc:  # noqa: BLE001 - a malformed answer is a failure
                problems, answer = ["check raised %s: %s" % (type(exc).__name__, exc)], None
            if not problems and answers.setdefault(job.id, answer) != answer:
                problems = ["answer changed between passes"]
        if problems:
            failures.append({"pass": pass_no, "id": job.id, "problems": problems})


def measure(workload, args, entries, jobs, refs, workdir, tracer):
    """Repeat passes until the next one would overrun ``--seconds``.

    Every pass gets a fresh presentation of the pool.  With a tracer the
    passes alternate untraced and traced, and at least one of each runs.
    """
    passes, answers, failures = [], {}, []
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_no = len(passes)
        if pass_no:
            jobs = workload.jobs(instances.presentation(entries, args.seed, pass_no), workdir)
        traced = tracer is not None and pass_no % 2 == 1
        began = time.perf_counter()
        with tracer.tracing() if traced else contextlib.nullcontext():
            wall, results, scaled, probes = run_pass(jobs, tracer if traced else None)
        times = {job.id: t for job, (_, t) in zip(jobs, results)}
        if traced:
            layer_self, covered = tracer.self_times()
            passes.append(Pass(True, wall, times, scaled, probes, dict(tracer.counts),
                               layer_self, wall - covered))
        else:
            passes.append(Pass(False, wall, times, scaled, probes, None, {}, 0.0))
        check_pass(workload, jobs, results, refs, answers, failures, pass_no)
        now = time.perf_counter()
        if len(passes) >= (2 if tracer else 1) and 2 * now - began > deadline:
            return passes, answers, failures


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(passes, setups):
    """The gated metrics, from untraced passes, with a note on each.

    ``wall_s`` scales the mean pass by the run's mean probe; a single solve
    is scaled by the probes around it (see ``run_pass``).
    """
    untraced = [p for p in passes if not p.traced]
    walls = [p.wall for p in untraced]
    probes = [t for p in untraced for t in p.probes]
    solves = [t for p in untraced for t in p.scaled]
    raw = [t for p in untraced for t in p.times.values()]
    metrics = {
        "wall_s": (reference_seconds(statistics.mean(walls), statistics.mean(probes)), "s",
                   "reference s, mean of %d passes (raw mean pass %.4f s)"
                   % (len(walls), statistics.mean(walls))),
        "solve_s.p50": (statistics.median(solves), "s", "reference s, n=%d solves (raw %.4f s)"
                        % (len(solves), statistics.median(raw))),
        "setup_s": (statistics.median(s.scaled for s in setups), "s",
                    "reference s, median of %d set-ups (raw %.4f s, import %.4f s)"
                    % (len(setups), statistics.median(s.seconds for s in setups),
                       statistics.median(s.import_s for s in setups))),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of this process"),
    }
    p90 = None
    if len(solves) >= P90_MIN_SOLVES_PER_PASS * len(walls):
        p90 = (percentile(solves, 90), "s", "reference s, 90th percentile of the same %d solves"
               % len(solves))
    return metrics, p90


COUNTED = (
    "kernel.calls", "kernel.pivots", "kernel.tableau_entries", "kernel.max_tableau_rows",
    "kernel.max_tableau_cols", "kernel.entry_updates_computed", "reduction.lower.calls",
    "reduction.lower.rows", "reduction.lower.cols", "reduction.witness_lift.calls",
    "milp.maximize.calls", "milp.maximize.probes", "milp.branch_bound.calls",
    "milp.branch_bound.nodes", "milp.lp.calls", "cli.calls", "emip.normalize.calls",
    "approx.calls", "approx.decompose.calls", "covering.calls", "voting.calls",
)


def layer_metrics(passes):
    """Counters and self times of the median traced pass.

    Its layers' self times plus ``bench.self_s`` add up to ``trace.wall_s``.
    """
    traced = sorted((p for p in passes if p.traced), key=lambda p: p.wall)
    rep = traced[(len(traced) - 1) // 2]
    counts = rep.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: (counts.get(name, 0), "count") for name in COUNTED}
    out["milp.maximize.infeasible_probe_frac"] = (ratio(
        counts.get("milp.maximize.infeasible_probes", 0), counts.get("milp.maximize.probes", 0)), "ratio")
    out["milp.lp.infeasible_frac"] = (ratio(
        counts.get("milp.lp.infeasible", 0), counts.get("milp.lp.calls", 0)), "ratio")
    for layer in tracing.LAYERS:
        out[layer + ".self_s"] = (rep.layer_self[layer], "s")
    out["kernel.us_per_pivot"] = (
        ratio(out["kernel.self_s"][0] * 1e6, counts.get("kernel.pivots", 0)), "us")
    out["bench.self_s"] = (rep.harness_self, "s")
    out["trace.wall_s"] = (rep.wall, "s")
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in passes if not p.traced), "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pwlmip" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print("error: %s has no src/pwlmip package and fixtures/ directory; "
              "run from the root of a pwlmip checkout" % ROOT, file=sys.stderr)
        return 2
    cleared = sorted(k for k in os.environ if k.startswith("PWLMIP_"))
    for key in cleared:  # the benchmark measures the default configuration
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import pwlmip
    import pwlmip.cli  # noqa: F401 - loads every layer, so all boundaries can be wrapped

    if Path(pwlmip.__file__).resolve().parent != (SRC / "pwlmip").resolve():
        print("error: imported pwlmip from %s, not from %s" % (pwlmip.__file__, SRC),
              file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, str(FIXTURES))
    workdir = str(OUT / ("%s-seed%d" % (args.workload, args.seed)))
    OUT.mkdir(exist_ok=True)
    config = configuration(args, cleared)
    setups = [setup(workload, args, workdir) for _ in range(SETUP_REPEATS)]
    entries, refs, jobs = setups[-1].entries, setups[-1].refs, setups[-1].jobs

    drift_start = fraction_loop(DRIFT_ITERATIONS)
    tracer = tracing.Tracer() if args.trace else None
    passes, answers, failures = measure(workload, args, entries, jobs, refs, workdir, tracer)
    drift_end = fraction_loop(DRIFT_ITERATIONS)

    metrics, p90 = end_to_end_metrics(passes, setups)
    attempted = sum(len(p.times) for p in passes)
    failed = len(failures)
    ungated = {
        "failed_frac": (failed / attempted, "ratio", "%d of %d solves" % (failed, attempted)),
        "drift.start_s": (drift_start, "s", "fixed Fraction loop, ungated"),
        "drift.end_s": (drift_end, "s", ""),
    }
    if p90:
        ungated["solve_s.p90"] = p90
    run_problems = []
    per_layer = {}
    if tracer:
        if any(p.counts != passes[1].counts for p in passes if p.traced):
            run_problems.append("deterministic counters differ between traced passes")
        per_layer = layer_metrics(passes)
        per_layer["drift.start_s"] = ungated["drift.start_s"][:2]
        per_layer["drift.end_s"] = ungated["drift.end_s"][:2]
    digest = hashlib.sha256(json.dumps(sorted(answers.items()), sort_keys=True).encode()).hexdigest()

    print("perfbench %s pool=%s seed=%d trace=%d passes=%d (%d traced) solves=%d"
          % (args.workload, args.pool, args.seed, args.trace, len(passes),
             sum(p.traced for p in passes), attempted))
    print("config " + json.dumps(config, sort_keys=True))
    for name, (value, unit, note) in {**metrics, **ungated}.items():
        print("  %-22s %14.6f %-6s %s" % (name, value, unit, note))
    for name, (value, unit) in per_layer.items():
        print("  %-40s %18.6f %s" % (name, value, unit))
    if tracer and tracer.absent:
        print("absent boundaries: " + ", ".join(tracer.absent))
    print("answers sha256 %s" % digest)
    for failure in failures[:10]:
        print("FAILED %s" % json.dumps(failure), file=sys.stderr)
    for problem in run_problems:
        print("FAILED %s" % problem, file=sys.stderr)

    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    everything = {k: v[:2] for k, v in {**metrics, **ungated}.items()} | per_layer
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "config": config,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in everything.items()},
            "counters": passes[1].counts if tracer else None,
            "answers": answers,
            "answers_sha256": digest,
            "absent": tracer.absent if tracer else [],
            "failures": failures,
            "run_problems": run_problems,
        }, fh, indent=1, sort_keys=True)
    if tracer:
        with open(str(stem) + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": tracer.dump()}, fh)

    reported = per_layer if tracer else {k: v[:2] for k, v in metrics.items()}
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
