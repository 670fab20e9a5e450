#!/usr/bin/env python3
"""Steadiness report for the sweep benchmark.

Runs the benchmark repeatedly on each workload, one seed per run, and
prints for every end-to-end metric the median, the quartiles and the
spread - (Q3 - Q1) / median, with statistics.quantiles(values, n=4) - next
to the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is flagged "wide", above the bound "UNSTEADY".  Every run lasts
BENCHMARK.json's run_seconds, and run k uses seed k.  It also prints the
hypervisor's share of the vCPUs during the runs (host.steal_share), which
explains most of the drift between runs.

Run from the repository root:

    python3 sweepbench/steady.py --runs 10
    python3 sweepbench/steady.py --runs 5 --workload fig5-streams

Exit status 1 when a run fails or a metric is UNSTEADY.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    """One benchmark run; returns its end-to-end metrics, the host steal
    share it printed and whether it was flagged DISTURBED (0 or 1)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (
            workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d was not correct" % (workload, seed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["disturbed"] = int(any(line.startswith("DISTURBED")
                                  for line in lines))
    for line in lines:
        if line.startswith("host.steal_share "):
            values["host.steal_share"] = float(line.split()[1])
    return values


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    end_decl, _ = run.load_declared()
    unsteady = False
    for workload in args.workload or run.WORKLOADS:
        samples = {m["name"]: [] for m in end_decl}
        steal = []
        disturbed = 0
        for k in range(args.runs):
            seed = 1 + k
            values = run_once(workload, seed, spec["run_seconds"])
            for name in samples:
                samples[name].append(values[name])
            steal.append(values.get("host.steal_share", 0.0))
            disturbed += values["disturbed"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % kv for kv in values.items())), flush=True)
        print("\n%s: %d runs of %d s" % (workload, args.runs,
                                         spec["run_seconds"]))
        print("%-12s %12s %12s %12s %8s %7s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for m in end_decl:
            med, q1, q3, s = spread(samples[m["name"]])
            if s > m["bound"]:
                verdict = "UNSTEADY"
                unsteady = True
            elif s > m["bound"] / 3:
                verdict = "wide"
            else:
                verdict = "steady"
            print("%-12s %12.6g %12.6g %12.6g %8.4f %7.3f  %s" % (
                m["name"], med, q1, q3, s, m["bound"], verdict))
        print("host steal share per run (hypervisor's take of the vCPUs): "
              "median %.3f, max %.3f; %d of %d runs flagged DISTURBED" % (
                  statistics.median(steal), max(steal), disturbed,
                  args.runs))
        print(flush=True)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
