// sweepbench: one repetition of one benchmark workload, in a fresh
// process so every repetition pays the same cold start a bench user pays
// (empty analytic solution cache, new lanes, new daemons).
//
//   sweepbench --workload=NAME --seed=N --mode=MODE --work-dir=DIR
//              [--out=DIR] [--replay]
//
// Modes:
//   timed   set up, run the workload's sweep once on the 4-thread
//           in-process lane (untraced) and measure it from outside: wall
//           time, process CPU, set-up time, peak memory;
//   final   a timed repetition followed by the correctness gate (an
//           untimed serial evaluate_plan loop compared cell by cell, bit
//           for bit); --replay adds the wire and journal replays that
//           time those layers on the sweep's cells;
//   traced  the same lane through a CellFn that opens spans around every
//           cell and backend step; reports the per-layer numbers and,
//           with --out, writes a Chrome trace and a per-layer self-time
//           summary;
//   remote  the remote pass: the cells through --connect to 2 loopback
//           sweep_workerd daemons with --journal and fresh result caches,
//           then an untimed re-sweep; reports the net, journal and cache
//           layers.
//
// The first stdout line is {"cells": N}, the grid's size, so a repetition
// that dies before its record still says how many cells it attempted.
// The last stdout line is one JSON object: {"mode", "workload", "cells",
// "failed", "digest", "metrics": {name: value}}, where "failed" counts the
// cells the gate found different; it is printed on a gate mismatch too.
// Exit status 1 when a cell fails, the gate finds a mismatch or a
// measurement cannot be taken; 2 on a usage error.
#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analytic_backend.h"
#include "core/api.h"
#include "daemon.h"
#include "digest.h"
#include "perf/json.h"
#include "probe.h"
#include "trace.h"
#include "workloads.h"

namespace sweepbench {
namespace {

using rbx::CellFn;
using rbx::EvalPlan;
using rbx::ExperimentOptions;
using rbx::ResultSet;
using rbx::Scenario;
using rbx::SweepRunner;
using rbx::perf::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode;
  std::string work_dir;
  std::string out;
  bool replay = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sweepbench: %s\n"
               "usage: sweepbench --workload=NAME --seed=N "
               "--mode=timed|final|traced|remote --work-dir=DIR [--out=DIR] "
               "[--replay]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.compare(0, prefix.size(), prefix) == 0) {
        return arg.substr(prefix.size());
      }
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      a.workload = *v;
    } else if (auto v = value("--seed")) {
      if (!rbx::parse_strict_u64(v->c_str(), &a.seed)) {
        usage("bad --seed '" + *v + "'");
      }
      seed_given = true;
    } else if (auto v = value("--mode")) {
      a.mode = *v;
    } else if (auto v = value("--work-dir")) {
      a.work_dir = *v;
    } else if (auto v = value("--out")) {
      a.out = *v;
    } else if (arg == "--replay") {
      a.replay = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown --workload '" + a.workload + "'");
  }
  if (!seed_given || a.work_dir.empty()) {
    usage("--seed and --work-dir are required");
  }
  if (a.mode != "timed" && a.mode != "final" && a.mode != "traced" &&
      a.mode != "remote") {
    usage("unknown --mode '" + a.mode + "'");
  }
  return a;
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) {
    return hi;
  }
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) +
          hi) /
         2.0;
}

std::vector<std::byte> encoded(const ResultSet& r) {
  rbx::wire::Writer w;
  r.encode(w);
  return w.take();
}

// A fresh directory for this repetition's files under the run's work dir.
std::string make_rep_dir(const std::string& work_dir) {
  std::string templ = work_dir + "/rep-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("cannot create a directory under " + work_dir);
  }
  return templ;
}

std::string sibling_exe(const char* name) {
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path() / name).string();
}

// The local lane every timed and traced sweep runs on.
ExperimentOptions thread_lane_options() {
  ExperimentOptions opts;
  opts.threads = kLaneThreads;
  opts.threads_given = true;
  return opts;
}

// --- the correctness gate ------------------------------------------------

// Re-evaluates every cell serially through evaluate_plan and compares the
// encodings with the sweep's results.  Returns the number of mismatching
// cells; *seconds gets the loop's wall time.
std::size_t serial_gate(const Workload& w, const std::vector<ResultSet>& got,
                        double* seconds) {
  std::size_t mismatches = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const ResultSet want =
        rbx::evaluate_plan(w.plan_fn(w.cells[i], i), w.cells[i]);
    if (i >= got.size() || encoded(want) != encoded(got[i])) {
      if (mismatches < 5) {
        std::fprintf(stderr, "gate: cell %zu (%s) differs from serial\n", i,
                     w.cells[i].label().c_str());
      }
      ++mismatches;
    }
  }
  *seconds = seconds_between(t0, now_ns());
  return mismatches;
}

// --- replays -------------------------------------------------------------

// Seals and parses the sweep's cells and results as the lanes do: cell
// batches carrying plans out, result batches back, 64 cells a frame.
void wire_replay(const Workload& w, const std::vector<ResultSet>& results,
                 Json& metrics) {
  constexpr std::size_t kBatch = 64;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  std::size_t bytes = 0;
  for (std::size_t lo = 0; lo < w.cells.size(); lo += kBatch) {
    const std::size_t hi = std::min(w.cells.size(), lo + kBatch);
    rbx::CellBatch cells;
    rbx::ResultBatch answers;
    for (std::size_t i = lo; i < hi; ++i) {
      cells.cells.push_back(
          rbx::BatchCell{i, w.cells[i], true, w.plan_fn(w.cells[i], i)});
      answers.entries.push_back(
          rbx::ResultBatch::Entry{i, rbx::CellOutcome{results[i], ""}});
    }
    std::int64_t t = now_ns();
    const std::vector<std::byte> out = cells.seal();
    const std::vector<std::byte> back = answers.seal();
    encode_ns += now_ns() - t;
    bytes += out.size() + back.size();

    t = now_ns();
    rbx::wire::Frame frame;
    std::size_t consumed = 0;
    if (!rbx::wire::parse_frame(out.data(), out.size(), &frame, &consumed)) {
      throw std::runtime_error("wire replay: cell batch did not parse");
    }
    rbx::wire::Reader cr(frame.payload);
    const rbx::CellBatch cells_in = rbx::CellBatch::decode(cr);
    if (!rbx::wire::parse_frame(back.data(), back.size(), &frame,
                                &consumed)) {
      throw std::runtime_error("wire replay: result batch did not parse");
    }
    rbx::wire::Reader rr(frame.payload);
    const rbx::ResultBatch answers_in = rbx::ResultBatch::decode(rr);
    decode_ns += now_ns() - t;
    if (cells_in.cells.size() != hi - lo ||
        answers_in.entries.size() != hi - lo) {
      throw std::runtime_error("wire replay: batch size changed in transit");
    }
    for (std::size_t k = 0; k < answers_in.entries.size(); ++k) {
      if (encoded(answers_in.entries[k].outcome.result) !=
          encoded(results[lo + k])) {
        throw std::runtime_error("wire replay: result changed in transit");
      }
    }
  }
  metrics.set("wire.encode_s", Json::number(encode_ns / 1e9));
  metrics.set("wire.decode_s", Json::number(decode_ns / 1e9));
  metrics.set("wire.bytes", Json::number(static_cast<double>(bytes)));
}

struct JournalStats {
  std::uint64_t bytes = 0;
  std::size_t records = 0;
  double analyze_s = 0.0;
};

// Runs the analysis pass over a sweep journal and checks it recovered
// every cell with the sweep's exact bytes.
JournalStats read_journal(const std::string& path,
                          const std::vector<ResultSet>& results) {
  JournalStats st;
  st.bytes = std::filesystem::file_size(path);
  const std::int64_t t0 = now_ns();
  const rbx::recov::JournalAnalysis a = rbx::recov::analyze_journal(path);
  st.analyze_s = seconds_between(t0, now_ns());
  if (a.sweeps.size() != 1 || !a.sweeps[0].ended ||
      a.sweeps[0].committed.size() != results.size() || a.torn_tail) {
    throw std::runtime_error("journal " + path +
                             " did not recover the whole sweep");
  }
  for (const auto& [index, result] : a.sweeps[0].committed) {
    if (encoded(result) != encoded(results.at(index))) {
      throw std::runtime_error("journal " + path + " changed cell " +
                               std::to_string(index));
    }
  }
  // One begin, one record per cell, one end.
  st.records = a.sweeps[0].committed.size() + 2;
  return st;
}

// Appends the sweep's results to a fresh journal as the coordinator does
// (begin, one commit per cell with the writer's batched fsyncs, end).
void journal_replay(const Workload& w, const std::vector<ResultSet>& results,
                    const std::string& dir, Json& metrics) {
  const std::string path = dir + "/replay.rbxj";
  rbx::recov::JournalWriter::Options jopts;
  jopts.truncate = true;
  const std::int64_t t0 = now_ns();
  {
    rbx::recov::JournalWriter journal(path, jopts);
    journal.sweep_begin(0, rbx::grid_fingerprint(w.cells), w.cells.size(),
                        "sweepbench replay");
    for (std::size_t i = 0; i < results.size(); ++i) {
      journal.cell_committed(0, i, results[i]);
    }
    rbx::recov::SweepEndStats stats;
    stats.committed_cells = results.size();
    stats.evaluated_cells = results.size();
    journal.sweep_end(0, stats);
  }
  metrics.set("journal.append_s",
              Json::number(seconds_between(t0, now_ns())));
  const JournalStats st = read_journal(path, results);
  std::filesystem::remove(path);
  metrics.set("journal.bytes", Json::number(static_cast<double>(st.bytes)));
  metrics.set("journal.records",
              Json::number(static_cast<double>(st.records)));
  metrics.set("journal.analyze_s", Json::number(st.analyze_s));
}

// --- the traced sweep ----------------------------------------------------

const char* step_span_name(const std::string& backend) {
  if (backend == "analytic") {
    return "analytic";
  }
  if (backend == "monte-carlo") {
    return "monte-carlo";
  }
  return "backend";
}

// The analytic backend's solution-cache inputs (scheme, rates, t_record):
// calls with equal keys share one solve.
std::string analytic_key(const Scenario& s) {
  rbx::wire::Writer w;
  w.u8(static_cast<std::uint8_t>(s.scheme()));
  w.f64_vec(s.params().mu());
  w.f64_vec(s.params().lambda_flat());
  w.f64(s.t_record());
  const std::vector<std::byte>& b = w.data();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// evaluate_plan's exact semantics (first step evaluates, later steps merge
// under their prefix) with a span around the cell and each step.  The
// serial gate proves the results are bitwise those of evaluate_plan.
CellFn traced_cell_fn(Recorder& rec, const rbx::PlanFn& plan_fn) {
  return [&rec, &plan_fn](const Scenario& s, std::size_t i) {
    const std::int64_t cell = static_cast<std::int64_t>(i);
    Span span(rec, "evaluate_plan", cell);
    const EvalPlan plan = plan_fn(s, i);
    ResultSet out;
    for (std::size_t k = 0; k < plan.steps.size(); ++k) {
      const rbx::EvalStep& step = plan.steps[k];
      const rbx::EvalBackend* backend = rbx::find_backend(step.backend);
      if (backend == nullptr) {
        throw std::runtime_error("unknown backend '" + step.backend + "'");
      }
      ResultSet r;
      {
        Span step_span(rec, step_span_name(step.backend), cell);
        r = backend->evaluate(s);
      }
      if (k == 0) {
        out = std::move(r);
      } else {
        out.merge(r, step.prefix);
      }
    }
    return out;
  };
}

// Human name of the layer a span's self time belongs to.
const char* layer_of(const std::string& span) {
  if (span == "sweep") {
    return "core.dispatch";  // no cell running on any worker
  }
  if (span == "evaluate_plan") {
    return "core.plan";  // plan build, backend lookup, merge
  }
  if (span == "analytic") {
    return "core.analytic";
  }
  if (span == "monte-carlo") {
    return "des";
  }
  return "other";
}

void traced_metrics(const Workload& w, const std::vector<SpanRecord>& spans,
                    const SpanRecord& sweep, Json& metrics) {
  std::map<std::uint32_t, std::vector<const SpanRecord*>> cells_by_thread;
  std::vector<const SpanRecord*> analytic;
  double des_busy = 0.0;
  double des_max = 0.0;
  double des_samples = 0.0;
  double cell_busy = 0.0;
  std::int64_t first_start = sweep.end_ns;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "evaluate_plan") {
      cells_by_thread[s.tid].push_back(&s);
      cell_busy += s.duration_ns() / 1e9;
      first_start = std::min(first_start, s.start_ns);
    } else if (name == "analytic") {
      analytic.push_back(&s);
    } else if (name == "monte-carlo") {
      des_busy += s.duration_ns() / 1e9;
      des_max = std::max(des_max, s.duration_ns() / 1e9);
      des_samples +=
          static_cast<double>(w.cells.at(static_cast<std::size_t>(s.arg))
                                  .samples());
    }
  }

  // Dispatch: gaps between consecutive cells on one worker, the tail from
  // the first worker running dry to the sweep's end, the first cell's
  // latency from the sweep call.
  std::vector<double> gaps_us;
  std::int64_t first_idle = sweep.end_ns;
  for (auto& [tid, cells] : cells_by_thread) {
    std::sort(cells.begin(), cells.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_ns < b->start_ns;
              });
    for (std::size_t k = 1; k < cells.size(); ++k) {
      gaps_us.push_back((cells[k]->start_ns - cells[k - 1]->end_ns) / 1e3);
    }
    first_idle = std::min(first_idle, cells.back()->end_ns);
  }
  const double sweep_s = sweep.duration_ns() / 1e9;
  metrics.set("dispatch.gap_us", Json::number(median(gaps_us)));
  metrics.set("dispatch.tail_s",
              Json::number(seconds_between(first_idle, sweep.end_ns)));
  metrics.set("dispatch.first_cell_s",
              Json::number(seconds_between(sweep.start_ns, first_start)));
  metrics.set("lanes.busy_share",
              Json::number(cell_busy / (kLaneThreads * sweep_s)));

  // Analytic: a call is a miss (it solved) when no call with its key had
  // finished before it started; the first finisher of a key always is.
  std::map<std::string, std::int64_t> first_done;
  std::vector<std::string> keys(analytic.size());
  for (std::size_t k = 0; k < analytic.size(); ++k) {
    keys[k] = analytic_key(
        w.cells.at(static_cast<std::size_t>(analytic[k]->arg)));
    auto [it, fresh] = first_done.emplace(keys[k], analytic[k]->end_ns);
    if (!fresh) {
      it->second = std::min(it->second, analytic[k]->end_ns);
    }
  }
  double busy = 0.0;
  double miss_s = 0.0;
  double hit_s = 0.0;
  std::size_t misses = 0;
  for (std::size_t k = 0; k < analytic.size(); ++k) {
    const double d = analytic[k]->duration_ns() / 1e9;
    busy += d;
    if (analytic[k]->start_ns < first_done[keys[k]]) {
      ++misses;
      miss_s += d;
    } else {
      hit_s += d;
    }
  }
  // Every distinct key was solved once and stored: the backend's cache
  // (cold at process start) must hold exactly that many models.
  const auto& backend =
      dynamic_cast<const rbx::AnalyticBackend&>(rbx::analytic_backend());
  if (backend.cached_models() != first_done.size()) {
    throw std::runtime_error(
        "analytic cache holds " + std::to_string(backend.cached_models()) +
        " models, the trace saw " + std::to_string(first_done.size()) +
        " distinct keys");
  }
  const double calls = static_cast<double>(analytic.size());
  metrics.set("analytic.busy_s", Json::number(busy));
  metrics.set("analytic.calls", Json::number(calls));
  metrics.set("analytic.hit_ratio",
              Json::number(calls > 0 ? 1.0 - misses / calls : 0.0));
  metrics.set("analytic.miss_s", Json::number(miss_s));
  metrics.set("analytic.hit_s", Json::number(hit_s));

  metrics.set("des.busy_s", Json::number(des_busy));
  metrics.set("des.ns_per_sample",
              Json::number(des_samples > 0 ? des_busy * 1e9 / des_samples
                                           : 0.0));
  metrics.set("des.max_cell_s", Json::number(des_max));
  metrics.set("des.samples", Json::number(des_samples));
}

void write_layer_summary(const std::vector<SpanRecord>& spans,
                         const SpanRecord& sweep, const std::string& path) {
  std::string text = "layer           span            spans    total_s"
                     "     self_s  self/sweep\n";
  const double sweep_s = sweep.duration_ns() / 1e9;
  for (const LayerTime& l : layer_times(spans)) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-15s %-15s %7zu %10.4f %10.4f %10.3f\n",
                  layer_of(l.name), l.name.c_str(), l.spans,
                  l.total_ns / 1e9, l.self_ns / 1e9,
                  l.self_ns / 1e9 / sweep_s);
    text += line;
  }
  std::fputs(text.c_str(), stderr);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fputs(text.c_str(), f) < 0 ||
      std::fclose(f) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

// --- one repetition ------------------------------------------------------

// The workload's sweep on the local 4-thread lane, untraced or traced;
// sets the end-to-end metrics (and the per-layer ones when traced).
std::vector<ResultSet> local_sweep(const Workload& w, const Args& args,
                                   std::int64_t t_start, Json& metrics) {
  SweepRunner runner(thread_lane_options());
  const std::int64_t t_sweep = now_ns();
  const double cpu0 = self_cpu_s();
  const double steal0 = host_steal_s();
  std::optional<std::vector<ResultSet>> out;
  if (args.mode == "traced") {
    Recorder rec;
    const CellFn fn = traced_cell_fn(rec, w.plan_fn);
    const std::uint64_t sweep_id = rec.begin("sweep");
    rec.set_root(sweep_id);
    out = runner.run(w.cells, fn);
    rec.end(sweep_id);
    const std::vector<SpanRecord> spans = rec.spans();
    const auto sweep =
        std::find_if(spans.begin(), spans.end(),
                     [&](const SpanRecord& s) { return s.id == sweep_id; });
    traced_metrics(w, spans, *sweep, metrics);
    if (!args.out.empty()) {
      write_chrome_trace(spans, args.out + "/" + w.name + "-trace.json");
      write_layer_summary(spans, *sweep,
                          args.out + "/" + w.name + "-layers.txt");
    }
    metrics.set("sweep_s", Json::number(sweep->duration_ns() / 1e9));
  } else {
    out = runner.run(w.cells, w.plan_fn);
    metrics.set("sweep_s", Json::number(seconds_between(t_sweep, now_ns())));
  }
  metrics.set("cpu_s", Json::number(self_cpu_s() - cpu0));
  metrics.set("peak_rss_mb", Json::number(peak_rss_mb()));
  metrics.set("setup_s", Json::number(seconds_between(t_start, t_sweep)));
  // The share of the machine's vCPU time the hypervisor took during the
  // sweep: wall-time figures from repetitions with a high share are
  // slowed by other tenants, not by the program.
  const double vcpus = std::max(1u, std::thread::hardware_concurrency());
  metrics.set("host.steal_share",
              Json::number((host_steal_s() - steal0) /
                           (vcpus * metrics.number_at("sweep_s"))));
  return std::move(*out);
}

// The remote pass: the cells through --connect to loopback sweep_workerd
// daemons (fresh cache dirs) with --journal on, then an untimed re-sweep
// in new sessions, answered from the caches the first pass wrote
// wherever a cell lands on the daemon that evaluated it before.  Sets the
// net, recov.journal and recov.cache per-layer metrics.
std::vector<ResultSet> remote_pass(const Workload& w,
                                   const std::string& rep_dir,
                                   Json& metrics) {
  DaemonPool pool({sibling_exe("sweep_workerd"), rep_dir});
  ExperimentOptions opts;
  opts.connect = pool.endpoints();
  opts.journal = rep_dir + "/sweep.rbxj";
  auto runner = std::make_unique<SweepRunner>(opts);
  const std::vector<pid_t> pids = pool.pids();
  std::vector<double> worker_cpu0;
  std::vector<IoCounters> worker_io0;
  for (pid_t pid : pids) {
    worker_cpu0.push_back(proc_cpu_s(pid));
    worker_io0.push_back(io_counters(pid));
  }
  const double cpu0 = self_cpu_s();
  const IoCounters io0 = io_counters();
  const std::int64_t t_sweep = now_ns();
  std::vector<ResultSet> results = std::move(*runner->run(w.cells, w.plan_fn));
  const std::int64_t t_done = now_ns();
  const IoCounters io1 = io_counters();
  const double coordinator_cpu = self_cpu_s() - cpu0;
  double worker_cpu = 0.0;
  double bytes_out = 0.0;  // what the daemons read off their sockets
  for (std::size_t k = 0; k < pids.size(); ++k) {
    worker_cpu += proc_cpu_s(pids[k]) - worker_cpu0[k];
    bytes_out +=
        static_cast<double>(io_counters(pids[k]).rchar - worker_io0[k].rchar);
  }
  runner.reset();  // ends the sessions and closes the journal
  const double sweep_s = seconds_between(t_sweep, t_done);
  metrics.set("remote.sweep_s", Json::number(sweep_s));
  metrics.set("remote.worker_cpu_s", Json::number(worker_cpu));
  metrics.set("remote.coordinator_cpu_s", Json::number(coordinator_cpu));
  metrics.set("remote.worker_busy_share",
              Json::number(worker_cpu /
                           (kDaemons * kDaemonEvalThreads * sweep_s)));
  // The coordinator reads only its sockets during the sweep (the journal
  // is write-only), so its rchar is the bytes received.
  metrics.set("net.bytes_in",
              Json::number(static_cast<double>(io1.rchar - io0.rchar)));
  metrics.set("net.bytes_out", Json::number(bytes_out));
  const JournalStats journal = read_journal(opts.journal, results);
  metrics.set("journal.bytes",
              Json::number(static_cast<double>(journal.bytes)));
  metrics.set("journal.records",
              Json::number(static_cast<double>(journal.records)));
  metrics.set("journal.analyze_s", Json::number(journal.analyze_s));

  ExperimentOptions again;
  again.connect = opts.connect;
  auto reader = std::make_unique<SweepRunner>(again);
  const std::vector<ResultSet> second =
      std::move(*reader->run(w.cells, w.plan_fn));
  reader.reset();
  if (digest_of(second) != digest_of(results)) {
    throw std::runtime_error("re-sweep: results differ from the first pass");
  }
  const auto sessions = pool.wait_sessions(2, 60000);
  double cells = 0.0;
  double cached = 0.0;
  for (const auto& per_daemon : sessions) {
    cells += static_cast<double>(per_daemon[1].cells);
    cached += static_cast<double>(per_daemon[1].cached);
  }
  metrics.set("cache.hit_ratio", Json::number(cached / cells));
  metrics.set("cache.bytes",
              Json::number(static_cast<double>(pool.cache_bytes())));
  return results;
}

int run(const Args& args) {
  std::int64_t t_start = now_ns();
  const Workload w = make_workload(args.workload, args.seed);
  // The line is the benchmark's own plumbing (its first printf costs about
  // 13 us on a 4-vCPU VM, a fifth of fig5's set-up), so its time is taken
  // out of setup_s.
  const std::int64_t t_print = now_ns();
  std::printf("{\"cells\": %zu}\n", w.cells.size());
  t_start += now_ns() - t_print;
  Json metrics = Json::object();
  std::string rep_dir;
  if (args.mode == "remote" || args.replay) {
    rep_dir = make_rep_dir(args.work_dir);
  }
  const std::vector<ResultSet> results =
      args.mode == "remote" ? remote_pass(w, rep_dir, metrics)
                            : local_sweep(w, args, t_start, metrics);
  std::size_t mismatches = 0;
  if (args.mode == "final") {
    double serial_s = 0.0;
    mismatches = serial_gate(w, results, &serial_s);
    metrics.set("lanes.serial_s", Json::number(serial_s));
    if (mismatches != 0) {
      std::fprintf(stderr, "gate: %zu of %zu cells differ\n", mismatches,
                   w.cells.size());
    } else if (args.replay) {
      wire_replay(w, results, metrics);
      journal_replay(w, results, rep_dir, metrics);
    }
  }
  if (!rep_dir.empty()) {
    std::filesystem::remove_all(rep_dir);
  }

  Json line = Json::object();
  line.set("mode", Json::string(args.mode));
  line.set("workload", Json::string(w.name));
  line.set("cells", Json::number(static_cast<double>(w.cells.size())));
  line.set("failed", Json::number(static_cast<double>(mismatches)));
  line.set("digest", Json::string(digest_of(results)));
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump(-1).c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sweepbench

int main(int argc, char** argv) {
  const sweepbench::Args args = sweepbench::parse_args(argc, argv);
  try {
    return sweepbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench: %s\n", e.what());
    return 1;
  }
}
