#!/usr/bin/env python3
"""Self-check: traced runs repeat their counters and answers exactly.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seconds S]

For each workload, runs ``run.py --trace 1`` three times, one after the
other: twice with seed 1 and once with seed 2.  All three must report
``correct``, identical deterministic counters and identical canonical
answers (verdict and optimum per instance; a seed changes only the
presentation of the pool, so even the second seed must agree).  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import instances
import run


def traced_run(workload, seed, seconds):
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(command, cwd=run.ROOT, check=True, capture_output=True, text=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(run.OUT / ("%s-seed%d-trace1.json" % (workload, seed)), encoding="utf-8") as fh:
        result = json.load(fh)
    return last["correct"], result["counters"], result["answers"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(instances.POOLS))
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or sorted(instances.POOLS):
        runs = [traced_run(workload, seed, args.seconds) for seed in (1, 1, 2)]
        same_counters = all(r[1] == runs[0][1] for r in runs)
        same_answers = all(r[2] == runs[0][2] for r in runs)
        all_correct = all(r[0] for r in runs)
        print("%-13s correct=%s counters identical=%s answers identical=%s"
              % (workload, all_correct, same_counters, same_answers))
        ok = ok and all_correct and same_counters and same_answers
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
