#!/usr/bin/env python3
"""Self-tests of the sweep benchmark's own code.

Run from the repository root:

    python3 sweepbench/test_run.py

Checks metric-name validity, that the per-layer -> end-to-end map names
only declared metrics, the aggregation arithmetic of run.py, its cell
counts of a failed run, how it sets aside and replaces repetitions
disturbed by host steal, and builds
and runs the C++ self-tests (span nesting, self-time arithmetic, the
Chrome trace writer, the result digest, the workload grids).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def write_spec(spec):
    """Writes a spec to a temporary file under the build directory (inside
    the checkout) and returns its path."""
    os.makedirs(run.build_dir(), exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     dir=run.build_dir(), delete=False) as f:
        json.dump(spec, f)
    return f.name


def record(mode, digest="d", cells=10, **metrics):
    return {"mode": mode, "workload": "w", "cells": cells, "failed": 0,
            "digest": digest, "metrics": metrics}


class DeclaredMetricsTest(unittest.TestCase):
    def setUp(self):
        self.end, self.layers = run.load_declared(SPEC)

    def test_names_are_valid(self):
        for m in self.end + self.layers:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], run.UNIT_RE)

    def test_layer_map_covers_exactly_the_declared_layers(self):
        self.assertEqual(set(run.LAYER_MAP),
                         {m["name"] for m in self.layers})

    def test_layer_map_names_only_declared_end_to_end_metrics(self):
        declared = {m["name"] for m in self.end}
        for name, (layer, moves) in run.LAYER_MAP.items():
            self.assertTrue(moves, name)
            self.assertTrue(set(moves) <= declared, (name, moves))
            self.assertRegex(layer, run.NAME_RE)

    def test_workloads_match_run_py(self):
        with open(SPEC) as f:
            spec = json.load(f)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)

    def test_invalid_names_are_refused(self):
        with open(SPEC) as f:
            spec = json.load(f)
        first = spec["per_layer"][0]["name"]
        for bad in ("has space", "_leading", "x" * 65, "slash/name", first):
            broken = json.loads(json.dumps(spec))
            # `first` reused as the second metric's name is a duplicate.
            broken["per_layer"][0 if bad != first else 1]["name"] = bad
            path = write_spec(broken)
            try:
                with self.assertRaises(ValueError):
                    run.load_declared(path)
            finally:
                os.unlink(path)


class AggregationTest(unittest.TestCase):
    def test_end_to_end_is_the_median_of_timed_and_final(self):
        by_mode = {
            "warmup": [record("timed", sweep_s=100.0)],
            "timed": [record("timed", sweep_s=s) for s in (1.0, 3.0, 2.0)],
            "final": [record("final", sweep_s=10.0)],
        }
        values = run.end_to_end(by_mode, [{"name": "sweep_s"}])
        self.assertEqual(values["sweep_s"], 2.5)  # warm-up excluded

    def test_per_layer_derivations(self):
        declared = [{"name": n} for n in run.LAYER_MAP]
        by_mode = {
            "warmup": [],
            "timed": [record("timed", sweep_s=2.0, cpu_s=6.0),
                      record("timed", sweep_s=2.0, cpu_s=6.0)],
            "traced": [record("traced", sweep_s=2.2,
                              **{"des.busy_s": 1.5}),
                       record("traced", sweep_s=2.2,
                              **{"des.busy_s": 2.5})],
            "final": [record("final", sweep_s=2.0, cpu_s=6.0,
                             **{"lanes.serial_s": 5.0})],
        }
        values = run.per_layer(by_mode, declared)
        self.assertEqual(values["des.busy_s"], 2.0)
        self.assertEqual(values["lanes.busy_cores"], 3.0)
        self.assertEqual(values["lanes.speedup"], 2.5)
        self.assertAlmostEqual(values["trace.overhead_share"], 0.1)
        self.assertEqual(values["net.bytes_in"], 0.0)  # not applicable

    def test_remote_pass_journal_wins_over_the_replay(self):
        declared = [{"name": n} for n in run.LAYER_MAP]
        by_mode = {
            "warmup": [],
            "timed": [record("timed", sweep_s=1.0, cpu_s=2.0)],
            "traced": [record("traced", sweep_s=1.0)],
            "remote": [record("remote", **{"journal.bytes": 7.0,
                                           "remote.sweep_s": 3.0}),
                       record("remote", **{"journal.bytes": 9.0,
                                           "remote.sweep_s": 5.0})],
            "final": [record("final", sweep_s=1.0, cpu_s=2.0,
                             **{"lanes.serial_s": 1.0,
                                "journal.bytes": 100.0,
                                "journal.append_s": 0.5})],
        }
        values = run.per_layer(by_mode, declared)
        self.assertEqual(values["journal.bytes"], 8.0)
        self.assertEqual(values["remote.sweep_s"], 4.0)
        self.assertEqual(values["journal.append_s"], 0.5)

    def test_digest_mismatch_is_a_problem(self):
        ok = {"timed": [record("timed"), record("timed")],
              "final": [record("final")]}
        self.assertEqual(run.check_records(ok), ([], 0))
        bad = {"timed": [record("timed"), record("timed", digest="e")],
               "final": [record("final")]}
        problems, failed = run.check_records(bad)
        self.assertEqual((len(problems), failed), (1, 10))
        short = {"timed": [record("timed", cells=9)],
                 "final": [record("final")]}
        problems, failed = run.check_records(short)
        self.assertEqual((len(problems), failed), (1, 9))

    def test_failure_counts_the_cells_that_ran(self):
        by_mode = {"warmup": [record("timed")],
                   "timed": [record("timed"), record("timed")]}
        # The gate reported 3 differing cells of the failing repetition.
        gate = run.RepFailed("final", cells=10, failed=3)
        self.assertEqual(run.failure_counts(by_mode, gate), (40, 3))
        # A crash after the plan line: all of its cells failed.
        crash = run.RepFailed("final", cells=10)
        self.assertEqual(run.failure_counts(by_mode, crash), (40, 10))
        # No plan line: the size comes from the finished repetitions.
        silent = run.RepFailed("final")
        self.assertEqual(run.failure_counts(by_mode, silent), (40, 10))
        self.assertEqual(run.failure_counts({}, silent), (0, 0))


class CollectTest(unittest.TestCase):
    """collect() against a fake repetition runner and a fake clock: each
    repetition takes one second."""

    def collect(self, steal_shares, seconds=3):
        shares = iter(steal_shares)
        clock = [0.0]

        def fake_rep(exe, args, workload, mode, extra=()):
            clock[0] += 1.0
            steal = next(shares) if mode == "timed" else 0.0
            return record(mode, sweep_s=1.0,
                          **{"host.steal_share": steal})

        saved = run.run_rep, run.time.monotonic
        run.run_rep, run.time.monotonic = fake_rep, lambda: clock[0]
        try:
            args = argparse.Namespace(workload="fig5-streams", trace=0,
                                      seconds=seconds, out="")
            by_mode = {}
            wanted = run.collect(None, args, by_mode)
        finally:
            run.run_rep, run.time.monotonic = saved
        return wanted, by_mode

    def test_clean_run_stops_at_the_deadline(self):
        wanted, by_mode = self.collect([0.0] * 10)
        self.assertEqual(wanted, 3)
        self.assertEqual(len(by_mode["timed"]), 3)
        self.assertEqual(by_mode["disturbed"], [])
        self.assertEqual(len(by_mode["final"]), 1)

    def test_disturbed_repetitions_are_replaced(self):
        wanted, by_mode = self.collect([0.0, 0.5, 0.0, 0.0, 0.0])
        self.assertEqual(wanted, 3)
        self.assertEqual(len(by_mode["timed"]), 3)
        self.assertEqual(len(by_mode["disturbed"]), 1)
        self.assertEqual(run.end_to_end(by_mode, [{"name": "sweep_s"}]),
                         {"sweep_s": 1.0})

    def test_replacement_stops_at_twice_the_seconds(self):
        wanted, by_mode = self.collect([0.5] * 10)
        self.assertEqual(wanted, 3)
        self.assertEqual(by_mode["timed"], [])
        self.assertEqual(len(by_mode["disturbed"]), 6)


class NativeSelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        out = run.build(["sweepbench_selftest"])
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            proc = subprocess.run(
                [os.path.join(out, "sweepbench_selftest")], cwd=tmp,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
