#include "core/experiment.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/dispatch.h"
#include "core/lane.h"
#include "fleet/auth.h"
#include "fleet/lane.h"
#include "net/cluster.h"
#include "recov/journal.h"
#include "recov/resume.h"

namespace rbx {

namespace {

[[noreturn]] void usage_error(const char* prog, const char* arg,
                              const char* why) {
  std::fprintf(stderr, "%s: bad argument '%s' (%s)\n", prog, arg, why);
  std::fprintf(stderr,
               "usage: %s [--samples=N] [--streams=K] [--nmax=N] [--seed=N]\n"
               "          [--threads=N] [--workers=N]\n"
               "          [--connect=HOST:PORT,... | --fleet=HOST:PORT\n"
               "           [--fleet-workers=N]] [--auth-key-file=PATH]\n"
               "          [--batch=N] [--steal]\n"
               "          [--handshake-timeout-ms=N]\n"
               "          [--shard=i/k] [--merge=JOURNAL1,JOURNAL2,...]\n"
               "          [--journal=FILE | --resume=FILE] [--no-cache]\n"
               "(--threads, --workers and --connect compose into one hybrid "
               "sweep)\n",
               prog);
  std::exit(2);
}

// "--shard=i/k": both parts strict non-negative integers, k >= 1, i < k.
bool parse_shard(const char* text, ShardSpec* out, const char** why) {
  const char* slash = std::strchr(text, '/');
  if (slash == nullptr) {
    *why = "expected i/k (e.g. --shard=0/4)";
    return false;
  }
  const std::string index_text(text, static_cast<std::size_t>(slash - text));
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (index_text.empty() || !parse_strict_u64(index_text.c_str(), &index) ||
      !parse_strict_u64(slash + 1, &count)) {
    *why = "expected i/k with non-negative integers";
    return false;
  }
  if (count == 0) {
    *why = "shard count must be >= 1";
    return false;
  }
  if (index >= count) {
    *why = "shard index must be < shard count";
    return false;
  }
  out->index = static_cast<std::size_t>(index);
  out->count = static_cast<std::size_t>(count);
  return true;
}

}  // namespace

// strtoull itself skips leading whitespace and negates '-' values into
// huge uint64s, so insist the text starts with a digit.
bool parse_strict_u64(const char* text, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

ExperimentOptions ExperimentOptions::parse(int argc, char** argv,
                                           std::size_t default_samples,
                                           std::size_t default_nmax) {
  ExperimentOptions opts;
  opts.samples = default_samples;
  opts.nmax = default_nmax;
  const char* prog = argc > 0 ? argv[0] : "bench";
  bool shard_given = false;
  bool batch_given = false;
  bool handshake_timeout_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    std::uint64_t* target = nullptr;
    std::uint64_t parsed = 0;
    std::size_t* size_target = nullptr;
    if (std::strncmp(arg, "--samples=", 10) == 0) {
      value = arg + 10;
      size_target = &opts.samples;
    } else if (std::strncmp(arg, "--streams=", 10) == 0) {
      value = arg + 10;
      size_target = &opts.streams;
    } else if (std::strncmp(arg, "--nmax=", 7) == 0) {
      value = arg + 7;
      size_target = &opts.nmax;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      value = arg + 7;
      target = &opts.seed;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
      size_target = &opts.threads;
      opts.threads_given = true;
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      value = arg + 10;
      size_target = &opts.workers;
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      value = arg + 8;
      size_target = &opts.batch;
      batch_given = true;
    } else if (std::strncmp(arg, "--connect=", 10) == 0) {
      const char* list = arg + 10;
      while (*list != '\0') {
        const char* comma = std::strchr(list, ',');
        const std::size_t len = comma != nullptr
                                    ? static_cast<std::size_t>(comma - list)
                                    : std::strlen(list);
        if (len == 0) {
          usage_error(prog, arg, "empty endpoint in list");
        }
        net::Endpoint endpoint;
        std::string why;
        if (!net::parse_endpoint(std::string(list, len), &endpoint, &why)) {
          usage_error(prog, arg, why.c_str());
        }
        opts.connect.push_back(std::move(endpoint));
        list += len;
        if (*list == ',') {
          ++list;
          if (*list == '\0') {
            usage_error(prog, arg, "empty endpoint in list");
          }
        }
      }
      if (opts.connect.empty()) {
        usage_error(prog, arg, "expected a comma-separated host:port list");
      }
      continue;
    } else if (std::strncmp(arg, "--fleet=", 8) == 0) {
      std::string why;
      if (!net::parse_endpoint(arg + 8, &opts.fleet, &why)) {
        usage_error(prog, arg, why.c_str());
      }
      opts.fleet_given = true;
      continue;
    } else if (std::strncmp(arg, "--fleet-workers=", 16) == 0) {
      std::uint64_t n = 0;
      if (!parse_strict_u64(arg + 16, &n) || n == 0) {
        usage_error(prog, arg, "expected a positive worker count");
      }
      opts.fleet_workers = static_cast<std::size_t>(n);
      continue;
    } else if (std::strncmp(arg, "--auth-key-file=", 16) == 0) {
      if (arg[16] == '\0') {
        usage_error(prog, arg, "expected a key file path");
      }
      opts.auth_key_file = arg + 16;
      continue;
    } else if (std::strcmp(arg, "--steal") == 0) {
      opts.steal = true;
      continue;
    } else if (std::strncmp(arg, "--handshake-timeout-ms=", 23) == 0) {
      // Capped at INT_MAX: the value feeds poll()'s int timeout, and a
      // silently overflowed negative deadline would demote every worker.
      std::uint64_t ms = 0;
      if (!parse_strict_u64(arg + 23, &ms) || ms == 0 ||
          ms > 2147483647ull) {
        usage_error(prog, arg,
                    "expected a positive millisecond count (at most "
                    "2147483647)");
      }
      opts.handshake_timeout_ms = static_cast<std::size_t>(ms);
      handshake_timeout_given = true;
      continue;
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      const char* why = nullptr;
      if (!parse_shard(arg + 8, &opts.shard, &why)) {
        usage_error(prog, arg, why);
      }
      shard_given = true;
      continue;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      if (arg[10] == '\0') {
        usage_error(prog, arg, "expected a file path");
      }
      opts.journal = arg + 10;
      continue;
    } else if (std::strncmp(arg, "--resume=", 9) == 0) {
      if (arg[9] == '\0') {
        usage_error(prog, arg, "expected a journal file path");
      }
      opts.resume = arg + 9;
      continue;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      opts.no_cache = true;
      continue;
    } else if (std::strncmp(arg, "--merge=", 8) == 0) {
      const char* list = arg + 8;
      while (*list != '\0') {
        const char* comma = std::strchr(list, ',');
        const std::size_t len = comma != nullptr
                                    ? static_cast<std::size_t>(comma - list)
                                    : std::strlen(list);
        if (len == 0) {
          usage_error(prog, arg, "empty journal name in list");
        }
        opts.merge_inputs.emplace_back(list, len);
        list += len;
        if (*list == ',') {
          ++list;
          if (*list == '\0') {
            usage_error(prog, arg, "empty journal name in list");
          }
        }
      }
      if (opts.merge_inputs.empty()) {
        usage_error(prog, arg, "expected a comma-separated journal list");
      }
      continue;
    } else {
      usage_error(prog, arg, "unknown flag");
    }
    if (!parse_strict_u64(value, &parsed)) {
      usage_error(prog, arg, "expected a non-negative integer");
    }
    if (size_target == &opts.threads && parsed == 0) {
      usage_error(prog, arg, "thread count must be >= 1");
    }
    if (size_target == &opts.streams && parsed == 0) {
      usage_error(prog, arg, "stream count must be >= 1");
    }
    if (size_target == &opts.workers && parsed == 0) {
      usage_error(prog, arg, "worker count must be >= 1");
    }
    if (target != nullptr) {
      *target = parsed;
    } else {
      *size_target = static_cast<std::size_t>(parsed);
    }
  }
  if (!opts.merge_inputs.empty() && shard_given) {
    usage_error(prog, "--merge", "cannot combine --merge with --shard");
  }
  if (!opts.connect.empty() && !opts.merge_inputs.empty()) {
    usage_error(prog, "--connect",
                "--merge evaluates nothing, so --connect is meaningless");
  }
  if (opts.fleet_given && !opts.connect.empty()) {
    usage_error(prog, "--fleet",
                "--fleet resolves its daemons from the registry; naming "
                "them with --connect too is contradictory - pick one");
  }
  if (opts.fleet_given && !opts.merge_inputs.empty()) {
    usage_error(prog, "--fleet",
                "--merge evaluates nothing, so --fleet is meaningless");
  }
  if (opts.fleet_workers != 0 && !opts.fleet_given) {
    usage_error(prog, "--fleet-workers",
                "--fleet-workers only applies to --fleet runs");
  }
  if (!opts.auth_key_file.empty() && opts.connect.empty() &&
      !opts.fleet_given) {
    usage_error(prog, "--auth-key-file",
                "--auth-key-file only applies to --connect or --fleet "
                "runs (only remote daemons authenticate)");
  }
  // --batch and --steal are properties of the shared dispatch core, legal
  // under any worker lane (forked or remote) and any hybrid mix of them -
  // but meaningless on a pure --threads run, where they would silently do
  // nothing (threads take single cells and cannot usefully straggle).
  const bool remote_lane = !opts.connect.empty() || opts.fleet_given;
  if (batch_given && opts.workers == 0 && !remote_lane) {
    usage_error(prog, "--batch",
                "--batch only applies to runs with a --workers, --connect "
                "or --fleet lane");
  }
  if (opts.steal && opts.workers == 0 && !remote_lane) {
    usage_error(prog, "--steal",
                "--steal only applies to runs with a --workers, --connect "
                "or --fleet lane (a pure --threads run has no stragglers "
                "worth stealing from)");
  }
  if (handshake_timeout_given && !remote_lane) {
    usage_error(prog, "--handshake-timeout-ms",
                "--handshake-timeout-ms only applies to --connect or "
                "--fleet runs");
  }
  if (!opts.journal.empty() && !opts.resume.empty()) {
    usage_error(prog, "--journal",
                "--journal starts a fresh journal and --resume continues "
                "one; pick one");
  }
  if ((!opts.journal.empty() || !opts.resume.empty()) &&
      !opts.merge_inputs.empty()) {
    usage_error(prog, "--merge",
                "--merge evaluates nothing, so there is nothing to "
                "journal or resume");
  }
  if (opts.no_cache && !remote_lane) {
    usage_error(prog, "--no-cache",
                "--no-cache only applies to --connect or --fleet runs "
                "(only remote daemons keep a result cache)");
  }
  opts.shard_mode = shard_given;
  if (shard_given && opts.journal.empty() && opts.resume.empty()) {
    opts.journal = "shard-" + std::to_string(opts.shard.index) + "-of-" +
                   std::to_string(opts.shard.count) + ".rbxj";
  }
  // 0 keeps the bench's default budget (documented escape hatch, and what
  // --nmax=0 has always meant).
  if (opts.samples == 0) {
    opts.samples = default_samples;
  }
  if (opts.nmax == 0) {
    opts.nmax = default_nmax;
  }
  return opts;
}

SweepRunner::SweepRunner(const ExperimentOptions& opts,
                         std::size_t default_threads)
    : opts_(opts) {
  if (opts_.threads == 0) {
    opts_.threads = default_threads;
  }
  if (!opts_.merge_inputs.empty()) {
    // Merge mode evaluates nothing, so no lanes are raised.  Each journal
    // is analyzed once here; run() takes one sweep from each.
    for (const std::string& input : opts_.merge_inputs) {
      try {
        merge_journals_.push_back(recov::analyze_journal(input));
      } catch (const wire::Error& e) {
        std::fprintf(stderr, "merge: '%s': %s\n", input.c_str(), e.what());
        std::exit(1);
      }
    }
    return;
  }
  // Compose the execution lanes.  They serve the whole bench run: a TCP
  // lane's worker connections, including the knowledge of which workers
  // died, persist across sweeps.
  // The pre-shared fleet key (--auth-key-file); an unreadable or empty
  // key file is an environment failure, reported before any lane dials.
  std::string auth_key;
  if (!opts_.auth_key_file.empty()) {
    try {
      auth_key = fleet::load_auth_key(opts_.auth_key_file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep: %s\n", e.what());
      std::exit(1);
    }
  }
  if (opts_.workers > 0) {
    // Fork lane first: raising children before the thread lane spawns
    // threads keeps each sweep's forks cheap and predictable.
    lanes_.push_back(std::make_unique<ForkLane>(opts_.workers));
  }
  if (opts_.threads_given ||
      (opts_.workers == 0 && opts_.connect.empty() && !opts_.fleet_given)) {
    lanes_.push_back(std::make_unique<ThreadLane>(opts_.threads));
  }
  if (!opts_.connect.empty()) {
    net::TcpLaneOptions tcp;
    tcp.endpoints = opts_.connect;
    // With local lanes present, an unreachable pool degrades the sweep
    // instead of killing it; a --connect-only run still fails loudly.
    tcp.required = lanes_.empty();
    tcp.auth_key = auth_key;
    lanes_.push_back(std::make_unique<net::TcpLane>(std::move(tcp)));
    remote_lanes_ = true;
  }
  if (opts_.fleet_given) {
    fleet::FleetLaneOptions flt;
    flt.registry = opts_.fleet;
    flt.auth_key = auth_key;
    flt.max_workers = static_cast<std::uint32_t>(opts_.fleet_workers);
    flt.required = lanes_.empty();
    lanes_.push_back(std::make_unique<fleet::FleetLane>(std::move(flt)));
    remote_lanes_ = true;
  }
  DispatchOptions dispatch;
  dispatch.batch_size = opts_.batch;
  dispatch.steal = opts_.steal;
  dispatch.handshake_timeout_ms =
      static_cast<int>(opts_.handshake_timeout_ms);
  dispatch.no_cache = opts_.no_cache;
  std::vector<Lane*> lanes;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    lanes.push_back(lane.get());
  }
  core_.emplace(std::move(lanes), dispatch);

  // Crash durability.  --resume runs the journal's analysis pass up front
  // (an unreadable or foreign journal is refused before any cell runs)
  // and keeps appending to the same file; --journal starts a fresh log.
  if (!opts_.resume.empty()) {
    try {
      resume_state_ = std::make_unique<recov::JournalAnalysis>(
          recov::analyze_journal(opts_.resume));
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "resume: %s\n", e.what());
      std::exit(2);
    }
    if (resume_state_->torn_tail) {
      std::fprintf(stderr,
                   "resume: journal has a torn tail (%zu bytes dropped) - "
                   "expected after a crash; those cells re-evaluate\n",
                   resume_state_->dropped_bytes);
    }
    std::fprintf(stderr,
                 "resume: recovered %zu committed cell(s) across %zu "
                 "sweep(s) from %s\n",
                 resume_state_->committed_cells(),
                 resume_state_->sweeps.size(), opts_.resume.c_str());
  }
  const std::string journal_path =
      !opts_.resume.empty() ? opts_.resume : opts_.journal;
  if (!journal_path.empty()) {
    recov::JournalWriter::Options jopts;
    jopts.truncate = opts_.resume.empty();  // --journal: fresh file
    if (resume_state_ != nullptr && resume_state_->torn_tail) {
      // Cut the file at the last valid record so this run's appends stay
      // reachable by the next analysis scan.
      jopts.truncate_at = resume_state_->valid_bytes;
    }
    try {
      journal_ = std::make_unique<recov::JournalWriter>(journal_path, jopts);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "journal: %s\n", e.what());
      std::exit(1);
    }
  }
}

SweepRunner::~SweepRunner() = default;

std::vector<CellOutcome> SweepRunner::evaluate(
    const std::vector<Scenario>& cells, const CellFn& cell_fn,
    const PlanFn* plan_fn) {
  try {
    if (remote_lanes_ && plan_fn == nullptr) {
      std::fprintf(stderr,
                   "--connect/--fleet: this sweep evaluates through a "
                   "local-only cell function and cannot run on remote "
                   "workers\n");
      std::exit(2);
    }
    core_->set_plan_fn(plan_fn != nullptr ? *plan_fn : PlanFn());
    return core_->run(cells, cell_fn).outcomes;
  } catch (const std::exception& e) {
    // Infrastructure failures (no reachable workers, fork/poll failure)
    // are not per-cell errors; die loudly instead of unwinding through
    // bench code.
    std::fprintf(stderr, "sweep: %s\n", e.what());
    std::exit(1);
  }
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const CellFn& cell_fn) {
  return run_impl(cells, cell_fn, nullptr);
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const PlanFn& plan_fn) {
  // Local lanes run the exact same plans through evaluate_plan, which
  // is what makes --threads/--workers/--connect byte-identical.
  const CellFn cell_fn = [&plan_fn](const Scenario& s, std::size_t i) {
    return evaluate_plan(plan_fn(s, i), s);
  };
  return run_impl(cells, cell_fn, &plan_fn);
}

std::optional<std::vector<ResultSet>> SweepRunner::run(
    const std::vector<Scenario>& cells, const EvalBackend& backend) {
  // Registered backends go through a plan, so the sweep is
  // cluster-capable.  A custom EvalBackend implementation outside the
  // registry keeps the direct local call (remote daemons could not look
  // it up by name) - such a sweep is local-only, like any CellFn.
  if (find_backend(backend.name()) == &backend) {
    const std::string name = backend.name();
    return run(cells, PlanFn([name](const Scenario&, std::size_t) {
                 return EvalPlan{{EvalStep{name, ""}}};
               }));
  }
  return run(cells, CellFn([&backend](const Scenario& s, std::size_t) {
               return backend.evaluate(s);
             }));
}

std::optional<std::vector<ResultSet>> SweepRunner::run_impl(
    const std::vector<Scenario>& cells_in, const CellFn& cell_fn,
    const PlanFn* plan_fn) {
  // --streams=K applies here, the one choke point every bench's sweeps
  // pass through, so the stream axis reaches the grid fingerprint, the
  // shard/merge/journal paths and the evaluated cells uniformly.  K=1
  // leaves the cells untouched (bitwise-identical grids to older runs).
  std::vector<Scenario> streamed;
  if (opts_.streams > 1) {
    streamed.reserve(cells_in.size());
    for (const Scenario& cell : cells_in) {
      streamed.push_back(Scenario(cell).streams(opts_.streams));
    }
  }
  const std::vector<Scenario>& cells =
      opts_.streams > 1 ? streamed : cells_in;
  const std::size_t section = sweep_index_++;
  if (!merge_journals_.empty()) {
    // Merge mode: the union of every journal's committed cells of this
    // sweep.  Each journal is checked against THIS invocation's grid, so a
    // merge run with other --samples/--seed than the shards is refused
    // instead of printing tables that belong to other options.
    const std::uint64_t fingerprint = grid_fingerprint(cells);
    std::vector<std::uint8_t> have(cells.size(), 0);
    std::vector<ResultSet> results(cells.size());
    for (std::size_t j = 0; j < merge_journals_.size(); ++j) {
      const std::vector<recov::SweepState>& sweeps = merge_journals_[j].sweeps;
      if (section >= sweeps.size()) {
        continue;  // this journal's run never reached the sweep
      }
      recov::ResumePlan plan;
      try {
        plan = recov::plan_resume(sweeps[section], cells.size(), fingerprint);
      } catch (const wire::Error& e) {
        std::fprintf(stderr, "merge: '%s' sweep %zu: %s\n",
                     opts_.merge_inputs[j].c_str(), section, e.what());
        std::exit(1);
      }
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (plan.committed[i] != 0 && have[i] == 0) {
          have[i] = 1;
          results[i] = std::move(plan.results[i]);
        }
      }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (have[i] == 0) {
        std::string sources;
        for (const std::string& input : opts_.merge_inputs) {
          sources += sources.empty() ? "" : ", ";
          sources += input;
        }
        std::fprintf(stderr,
                     "merge: sweep %zu: cell %zu is in none of the journals "
                     "(%s) - a shard is missing or did not finish; run or "
                     "--resume it\n",
                     section, i, sources.c_str());
        std::exit(1);
      }
    }
    return results;
  }

  std::vector<CellOutcome> outcomes;
  if (journal_ != nullptr) {
    const std::uint64_t fingerprint = grid_fingerprint(cells);
    // The cells this run does not evaluate reach the dispatch core as
    // pre-committed: under --shard the cells other shards own (with empty
    // outcomes, never journaled or returned), and under --resume the
    // journal's winners (the redo pass).
    std::vector<std::uint8_t> done;
    std::vector<CellOutcome> seeded;
    std::size_t owned = cells.size();
    if (opts_.shard_mode) {
      const std::vector<std::size_t> mine =
          shard_cell_indices(cells.size(), opts_.shard);
      done.assign(cells.size(), 1);
      for (std::size_t i : mine) {
        done[i] = 0;
      }
      owned = mine.size();
    }
    std::size_t recovered = 0;  // owned cells already in the journal
    if (resume_state_ != nullptr &&
        section < resume_state_->sweeps.size()) {
      // A journal written by a different sweep (fingerprint or cell-count
      // mismatch) is refused with exit 2 before anything evaluates.
      recov::ResumePlan plan;
      try {
        plan = recov::plan_resume(resume_state_->sweeps[section],
                                  cells.size(), fingerprint);
      } catch (const wire::Error& e) {
        std::fprintf(stderr, "resume: %s\n", e.what());
        std::exit(2);
      }
      done.resize(cells.size(), 0);
      seeded.resize(cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (plan.committed[i] != 0 && done[i] == 0) {
          done[i] = 1;
          seeded[i].result = std::move(plan.results[i]);
          ++recovered;
        }
      }
      std::fprintf(stderr,
                   "journal: sweep %zu: %zu/%zu cells already committed, "
                   "evaluating %zu\n",
                   section, recovered, owned, owned - recovered);
    }
    if (!done.empty()) {
      seeded.resize(cells.size());
      core_->set_precommitted(std::move(done), std::move(seeded));
    }
    char digest[96];
    std::snprintf(digest, sizeof(digest),
                  "samples=%zu nmax=%zu seed=%llu streams=%zu",
                  opts_.samples, opts_.nmax,
                  static_cast<unsigned long long>(opts_.seed),
                  opts_.streams);
    try {
      journal_->sweep_begin(section, fingerprint, cells.size(), digest);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "journal: %s\n", e.what());
      std::exit(1);
    }
    recov::JournalWriter* journal = journal_.get();
    core_->set_commit_hook(
        [journal, section](std::size_t index, const CellOutcome& outcome) {
          // Only real results are journaled: an errored cell must be
          // re-evaluated by a resumed run, not replayed as an error.
          if (outcome.ok()) {
            journal->cell_committed(section, index, outcome.result);
          }
        });
    const auto t0 = std::chrono::steady_clock::now();
    outcomes = evaluate(cells, cell_fn, plan_fn);
    const long long wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    recov::SweepEndStats stats;
    stats.committed_cells = owned;
    stats.evaluated_cells = owned - recovered;
    stats.wall_ms = static_cast<std::uint64_t>(wall_ms);
    stats.cells_per_sec =
        1000.0 * static_cast<double>(stats.evaluated_cells) /
        static_cast<double>(std::max<long long>(wall_ms, 1));
    try {
      journal_->sweep_end(section, stats);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "journal: %s\n", e.what());
      std::exit(1);
    }
    std::fprintf(stderr,
                 "journal: sweep %zu done: %llu/%llu cell(s) evaluated in "
                 "%llu ms (%.1f cells/s)\n",
                 section,
                 static_cast<unsigned long long>(stats.evaluated_cells),
                 static_cast<unsigned long long>(stats.committed_cells),
                 static_cast<unsigned long long>(stats.wall_ms),
                 stats.cells_per_sec);
  } else {
    outcomes = evaluate(cells, cell_fn, plan_fn);
  }
  // A shard's unowned cells carry empty, successful outcomes.
  bool failed = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      std::fprintf(stderr, "sweep cell %zu failed: %s\n", i,
                   outcomes[i].error.c_str());
      failed = true;
    }
  }
  if (failed) {
    std::exit(1);
  }
  if (opts_.shard_mode) {
    return std::nullopt;  // the owned cells are in the journal
  }
  std::vector<ResultSet> results;
  results.reserve(outcomes.size());
  for (CellOutcome& outcome : outcomes) {
    results.push_back(std::move(outcome.result));
  }
  return results;
}

std::string fmt_ci(double value, double half_width, int precision) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%.*f +- %.*f", precision, value, precision,
                half_width);
  return buf;
}

std::string fmt_dev(double measured, double reference) {
  if (reference == 0.0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%",
                100.0 * (measured - reference) / reference);
  return buf;
}

std::string scheme_summary(const ResultSet& async_exact,
                           const ResultSet& sync_exact,
                           const ResultSet& prp_exact) {
  std::ostringstream os;
  os << "asynchronous : E[X] = " << async_exact.value("mean_interval_x")
     << " (sd " << async_exact.value("stddev_interval_x") << "), E[L] =";
  for (std::size_t i = 0; async_exact.has(indexed_metric("rp_count_", i));
       ++i) {
    os << ' ' << async_exact.value(indexed_metric("rp_count_", i));
  }
  os << '\n';
  os << "synchronized : E[Z] = " << sync_exact.value("sync_mean_max_wait")
     << ", loss CL = " << sync_exact.value("sync_mean_loss") << '\n';
  os << "pseudo RPs   : " << prp_exact.value("prp_snapshots_per_rp")
     << " states/RP, +" << prp_exact.value("prp_time_overhead_per_rp")
     << " time/RP, rollback bound E[sup y] = "
     << prp_exact.value("prp_mean_rollback_bound");
  return os.str();
}

void print_banner(const std::string& experiment_id,
                  const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s - Shin & Lee, 'Analysis of Backward Error Recovery for\n",
              experiment_id.c_str());
  std::printf("Concurrent Processes with Recovery Blocks' (ICPP 1983)\n");
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

}  // namespace rbx
