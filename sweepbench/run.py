#!/usr/bin/env python3
"""Sweep benchmark: whole-sweep wall time, CPU, set-up and memory of the
repository's sweep stack, with a traced per-layer budget.

Run from the repository root:

    python3 sweepbench/run.py --workload fig5-streams --seed 1 \
        --seconds 20 --trace 0

The first run builds the library, the worker daemon and the bench
program from source into $CARGO_TARGET_DIR (default .bench_build).  A
run repeats the workload, each repetition a fresh `sweepbench` process
(cold caches, new lanes, new daemons), for --seconds, then runs one
final repetition that also passes the correctness gate.  Medians over
the repetitions are reported.  A timed repetition that lost more than 3%
of the vCPUs to the hypervisor is set aside and replaced, for up to
--seconds more; a run left with fewer than half the undisturbed
repetitions it should have is flagged DISTURBED.  --trace 1 interleaves traced repetitions
(and, on analytic-grid, remote passes through loopback worker daemons)
and reports the per-layer metrics instead of the end-to-end ones.

Every metric is printed with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit status 0 on a
correct run, 1 otherwise.  See sweepbench/README.md.
"""

import argparse
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig5-streams", "analytic-grid")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
REP_TIMEOUT_S = 120
# A timed repetition whose sweep lost more than this share of the vCPUs to
# the hypervisor (host.steal_share) is set aside and run again: its times
# measure other tenants, not the program.  40 repetitions of one
# analytic-grid seed took 0.51-0.61 s at a share up to 0.03 and 0.63-0.69 s
# from 0.05 on; in the steady 10-run proofs the median run's share was
# 0.002-0.009.
STEAL_LIMIT = 0.03

# Which end-to-end metric each per-layer metric should move, and the layer
# it measures.  Names must match BENCHMARK.json (test_run.py checks it).
LAYER_MAP = {
    "des.busy_s": ("des", ("cpu_s",)),
    "des.ns_per_sample": ("des", ("cpu_s",)),
    "des.max_cell_s": ("des", ("sweep_s",)),
    "des.samples": ("des", ("cpu_s",)),
    "analytic.busy_s": ("core.analytic", ("cpu_s",)),
    "analytic.calls": ("core.analytic", ("cpu_s",)),
    "analytic.hit_ratio": ("core.analytic", ("cpu_s", "sweep_s")),
    "analytic.miss_s": ("core.analytic", ("sweep_s", "cpu_s")),
    "analytic.hit_s": ("core.analytic", ("cpu_s",)),
    "dispatch.gap_us": ("core.dispatch", ("sweep_s", "cpu_s")),
    "dispatch.tail_s": ("core.dispatch", ("sweep_s",)),
    "dispatch.first_cell_s": ("core.dispatch", ("sweep_s",)),
    "lanes.busy_share": ("core.lane", ("sweep_s",)),
    "lanes.busy_cores": ("core.lane", ("cpu_s", "sweep_s")),
    "lanes.serial_s": ("core.lane", ("sweep_s",)),
    "lanes.speedup": ("core.lane", ("sweep_s",)),
    "wire.encode_s": ("support.wire", ("cpu_s",)),
    "wire.decode_s": ("support.wire", ("cpu_s",)),
    "wire.bytes": ("support.wire", ("cpu_s",)),
    "remote.sweep_s": ("net", ("sweep_s",)),
    "remote.worker_cpu_s": ("net", ("cpu_s", "sweep_s")),
    "remote.coordinator_cpu_s": ("net", ("cpu_s", "sweep_s")),
    "remote.worker_busy_share": ("net", ("sweep_s",)),
    "net.bytes_in": ("net", ("sweep_s", "cpu_s")),
    "net.bytes_out": ("net", ("sweep_s", "cpu_s")),
    "journal.bytes": ("recov.journal", ("sweep_s",)),
    "journal.records": ("recov.journal", ("sweep_s",)),
    "journal.append_s": ("recov.journal", ("sweep_s",)),
    "journal.analyze_s": ("recov.journal", ("setup_s",)),
    "cache.hit_ratio": ("recov.cache", ("cpu_s",)),
    "cache.bytes": ("recov.cache", ("sweep_s",)),
    "trace.overhead_share": ("trace", ("sweep_s",)),
    "host.steal_share": ("host", ("sweep_s", "cpu_s")),
}

# Per-layer metrics a workload cannot produce, and why; they are reported
# as 0 there.
NO_REMOTE = "the remote pass runs in analytic-grid's traced run"
NOT_APPLICABLE = {
    "des.": "no monte-carlo cells",
    "remote.": NO_REMOTE,
    "net.": NO_REMOTE,
    "cache.": NO_REMOTE,
}


def load_declared(path="BENCHMARK.json"):
    """The benchmark's declared metrics: (end_to_end, per_layer) lists of
    metric dicts, from BENCHMARK.json at the repository root.  Raises
    ValueError for a metric or workload name outside [A-Za-z0-9_.-] (64
    at most, starting with a letter or digit), a malformed unit or a
    name used twice."""
    with open(path) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in spec["workloads"]]
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError("invalid name %r in %s" % (name, path))
    if len(set(names)) != len(names):
        raise ValueError("a name is declared twice in %s" % path)
    for m in metrics:
        if not UNIT_RE.match(m["unit"]):
            raise ValueError("invalid unit %r of %s" % (m["unit"],
                                                        m["name"]))
    return spec["end_to_end"], spec["per_layer"]


def median(values):
    return statistics.median(values) if values else 0.0


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds the benchmark package in Release."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target"] +
                   list(targets), stdout=sys.stderr, check=True)
    return out


class RepFailed(Exception):
    """A repetition that failed; `cells` is its grid's size when known and
    `failed` how many of them failed (all of them unless the gate said)."""

    def __init__(self, message, cells=None, failed=None):
        super().__init__(message)
        self.cells = cells
        self.failed = cells if failed is None else failed


def become_subreaper():
    """Orphaned daemons of a crashed repetition are re-parented to this
    process, so it can reap them instead of leaving them to init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    """Kills whatever is left of a repetition's process group and waits
    for every process of it to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_rep(exe, args, workload, mode, extra=()):
    """One repetition in a fresh process; returns its JSON record.  Its
    first stdout line gives the cell count, its last the record."""
    cmd = [exe, "--workload=" + workload, "--seed=%d" % args.seed,
           "--mode=" + mode, "--work-dir=" + args.work_dir] + list(extra)
    # Flush what earlier repetitions wrote and deleted (journals and worker
    # caches, ~180 MB per remote pass), so its writeback does not land in
    # this repetition.
    os.sync()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        timed_out = True
    finally:
        reap_group(proc.pid)
    lines = [json.loads(line) for line in out.strip().splitlines()
             if line.startswith("{")]
    cells = int(lines[0]["cells"]) if lines else None
    record = lines[-1] if lines and "digest" in lines[-1] else None
    if timed_out:
        raise RepFailed("%s repetition timed out" % mode, cells)
    if proc.returncode != 0:
        raise RepFailed("%s repetition exited with %d" % (
            mode, proc.returncode), cells,
            int(record["failed"]) if record else None)
    if record is None:
        raise RepFailed("%s repetition printed no result" % mode, cells)
    return record


def modes_for(workload, trace):
    if not trace:
        return ["timed"]
    if workload == "analytic-grid":
        # The remote pass (daemons, journal, worker caches) on the same
        # cells; its figures are per-layer only, see README.md.
        return ["timed", "traced", "remote"]
    return ["timed", "traced"]


def disturbed(record):
    return record["metrics"].get("host.steal_share", 0.0) > STEAL_LIMIT


def collect(exe, args, by_mode):
    """Runs the repetitions, filling `by_mode` with their records by mode
    (so a caller still has them when one fails).  Returns the number of
    timed repetitions the run should have had: those started within
    --seconds."""
    modes = modes_for(args.workload, args.trace)
    by_mode.update({m: [] for m in ["warmup"] + modes +
                    ["disturbed", "final"]})
    # One uncounted repetition first: the first sweep of a series often
    # runs far slower than the rest (2.1 s against a 1.4 s median, fig5 on
    # 4 vCPUs), which no later repetition pays.
    by_mode["warmup"].append(run_rep(exe, args, args.workload, "timed"))
    start = time.monotonic()
    wanted = None
    k = 0
    while True:
        mode = modes[k % len(modes)]
        extra = ["--out=" + args.out] if (mode == "traced" and
                                          not by_mode["traced"]) else []
        rec = run_rep(exe, args, args.workload, mode, extra)
        by_mode["disturbed" if mode == "timed" and disturbed(rec)
                else mode].append(rec)
        k += 1
        if k % len(modes):
            continue
        elapsed = time.monotonic() - start
        if wanted is None and elapsed >= args.seconds:
            wanted = len(by_mode["timed"]) + len(by_mode["disturbed"])
        # Disturbed repetitions are replaced for up to --seconds more.
        if wanted is not None and (len(by_mode["timed"]) >= wanted or
                                   elapsed >= 2 * args.seconds):
            break
    extra = ["--replay"] if args.trace else []
    by_mode["final"].append(run_rep(exe, args, args.workload, "final",
                                    extra))
    return wanted


def metric_values(records, name):
    return [r["metrics"][name] for r in records if name in r["metrics"]]


def end_to_end(by_mode, declared):
    timed = by_mode["timed"] + by_mode["final"]
    return {m["name"]: median(metric_values(timed, m["name"]))
            for m in declared}


def per_layer(by_mode, declared):
    timed = by_mode["timed"] + by_mode["final"]
    sweep = median(metric_values(timed, "sweep_s"))
    values = {}
    for m in declared:
        name = m["name"]
        # Span-derived metrics come from the traced repetitions; the remote
        # pass's real journal wins over the final repetition's replay; the
        # rest come from every untraced repetition that measured them.
        values[name] = median(metric_values(by_mode["traced"], name) or
                              metric_values(by_mode.get("remote", []),
                                            name) or
                              metric_values(timed, name))
    values["lanes.busy_cores"] = median(metric_values(timed, "cpu_s")) / sweep
    values["lanes.speedup"] = values["lanes.serial_s"] / sweep
    traced = median(metric_values(by_mode["traced"], "sweep_s"))
    values["trace.overhead_share"] = traced / sweep - 1.0
    return values


def check_records(by_mode):
    """Every repetition must produce the final repetition's result digest
    (the one the gate checked) over as many cells.  Returns the problems
    and the cells of the repetitions that did not."""
    reference = by_mode["final"][0]
    problems = []
    failed = 0
    for r in (r for rs in by_mode.values() for r in rs):
        if r["digest"] != reference["digest"]:
            problems.append("%s repetition's result digest %s differs from "
                            "the gated %s" % (r["mode"], r["digest"],
                                              reference["digest"]))
        elif r["cells"] != reference["cells"]:
            problems.append("%s repetition ran %d cells, the gated one %d" %
                            (r["mode"], r["cells"], reference["cells"]))
        else:
            continue
        failed += int(r["cells"])
    return problems, failed


def failure_counts(by_mode, error):
    """(attempted, failed) cells of a run that stopped at `error`: every
    cell of the repetitions that finished, plus the failing one's, whose
    count comes from its own output or else from the finished ones."""
    done = [int(r["cells"]) for rs in by_mode.values() for r in rs]
    cells = error.cells if error.cells is not None else (
        done[0] if done else 0)
    failed = error.failed if error.failed is not None else cells
    return sum(done) + cells, failed


def print_table(rows):
    for name, value, unit, note in rows:
        print("%-26s %18.6f %-6s %s" % (name, value, unit, note))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    end_decl, layer_decl = load_declared()
    try:
        out = build(["sweepbench", "sweep_workerd"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("sweepbench: build failed: %s" % e, file=sys.stderr)
        return 1
    exe = os.path.join(out, "sweepbench")
    args.work_dir = os.path.join(out, "runs", str(os.getpid()))
    args.out = os.path.join(out, "trace")
    shutil.rmtree(args.work_dir, ignore_errors=True)
    os.makedirs(args.work_dir)
    os.makedirs(args.out, exist_ok=True)
    become_subreaper()

    by_mode = {}
    try:
        wanted = collect(exe, args, by_mode)
        problems, failed = check_records(by_mode)
        attempted = sum(int(r["cells"]) for rs in by_mode.values()
                        for r in rs)
    except RepFailed as e:
        problems = [str(e)]
        attempted, failed = failure_counts(by_mode, e)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)

    if problems:
        for p in problems:
            print("sweepbench: %s" % p, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    records = [r for rs in by_mode.values() for r in rs]
    print("workload %s seed %d: %d repetitions (%s), digest %s" % (
        args.workload, args.seed, len(records),
        ", ".join("%d %s" % (len(v), k) for k, v in by_mode.items() if v),
        records[0]["digest"]))
    print_table([("cells_attempted", attempted, "count", "all repetitions"),
                 ("cells_failed", 0, "count", "")])
    set_aside = len(by_mode["disturbed"])
    if 2 * len(by_mode["timed"]) < wanted:
        # Flagged, not failed: the outputs are correct, but the times are
        # from under half the undisturbed repetitions the run should have.
        flag = ("DISTURBED: only %d of %d timed repetitions had a host "
                "steal share at most %.2f" % (len(by_mode["timed"]), wanted,
                                              STEAL_LIMIT))
        print(flag)
        print("sweepbench: %s" % flag, file=sys.stderr)
    if args.trace:
        values = per_layer(by_mode, layer_decl)
        rows = []
        for m in layer_decl:
            layer, moves = LAYER_MAP[m["name"]]
            note = "%s -> %s" % (layer, ",".join(moves))
            for prefix, why in NOT_APPLICABLE.items():
                if m["name"].startswith(prefix) and values[m["name"]] == 0:
                    note += " (0: %s)" % why
            rows.append((m["name"], values[m["name"]], m["unit"], note))
        print_table(rows)
        print("trace files: %s/%s-trace.json, %s-layers.txt" % (
            args.out, args.workload, args.workload))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in layer_decl}
    else:
        values = end_to_end(by_mode, end_decl)
        timed = by_mode["timed"] + by_mode["final"]
        print_table([(m["name"], values[m["name"]], m["unit"],
                      "median of %d" % len(timed)) for m in end_decl])
        # Context for the times above, not a metric of this run.
        print_table([("host.steal_share",
                      median(metric_values(timed + by_mode["disturbed"],
                                           "host.steal_share")),
                      "share", "vCPU time taken by the hypervisor; %d "
                      "repetitions above %.2f set aside" % (set_aside,
                                                             STEAL_LIMIT))])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in end_decl}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
