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
#include "net/frame.h"
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
               "          [--shard=i/k [--shard-out=FILE | --shard-serve=PORT]]\n"
               "          [--merge=SRC1,SRC2,...]  (SRC: file or HOST:PORT)\n"
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
  bool shard_out_given = false;
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
    } else if (std::strncmp(arg, "--shard-out=", 12) == 0) {
      if (arg[12] == '\0') {
        usage_error(prog, arg, "expected a file path");
      }
      opts.shard_out = arg + 12;
      shard_out_given = true;
      continue;
    } else if (std::strncmp(arg, "--shard-serve=", 14) == 0) {
      std::uint64_t port = 0;
      if (!parse_strict_u64(arg + 14, &port) || port > 65535) {
        usage_error(prog, arg, "expected a port in 0..65535 (0 = ephemeral)");
      }
      opts.shard_serve = true;
      opts.shard_serve_port = static_cast<std::uint16_t>(port);
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
          usage_error(prog, arg, "empty file name in list");
        }
        opts.merge_inputs.emplace_back(list, len);
        list += len;
        if (*list == ',') {
          ++list;
          if (*list == '\0') {
            usage_error(prog, arg, "empty file name in list");
          }
        }
      }
      if (opts.merge_inputs.empty()) {
        usage_error(prog, arg, "expected a comma-separated file list");
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
  if ((!opts.journal.empty() || !opts.resume.empty()) && shard_given) {
    usage_error(prog, "--shard",
                "the sweep journal covers whole sweeps; journal the "
                "unsharded run (or re-run the lost shard - partials are "
                "cheap) instead of combining it with --shard");
  }
  if (opts.no_cache && !remote_lane) {
    usage_error(prog, "--no-cache",
                "--no-cache only applies to --connect or --fleet runs "
                "(only remote daemons keep a result cache)");
  }
  if (shard_out_given && !shard_given) {
    usage_error(prog, "--shard-out", "--shard-out requires --shard");
  }
  if (opts.shard_serve && !shard_given) {
    usage_error(prog, "--shard-serve", "--shard-serve requires --shard");
  }
  if (opts.shard_serve && shard_out_given) {
    usage_error(prog, "--shard-serve",
                "--shard-serve streams partials to a --merge peer and "
                "cannot combine with --shard-out");
  }
  opts.shard_mode = shard_given;
  if (shard_given && !opts.shard_serve && opts.shard_out.empty()) {
    opts.shard_out = "shard-" + std::to_string(opts.shard.index) + "-of-" +
                     std::to_string(opts.shard.count) + ".rbxw";
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

// One source of shard partials for --merge: a preloaded partial file, or
// a socket connected to a --shard-serve run that streams each section as
// the shard finishes computing it.
struct SweepRunner::MergeSource {
  std::string name;
  bool is_socket = false;
  std::vector<wire::Frame> frames;       // file mode: all sections upfront
  std::unique_ptr<net::FrameConn> conn;  // socket mode

  // The ShardPartial frame of sweep section `section`; throws wire::Error
  // naming this source when it cannot supply one.
  wire::Frame next(std::size_t section) {
    if (is_socket) {
      wire::Frame frame;
      try {
        if (!conn->recv(&frame)) {
          throw wire::Error("'" + name + "' hung up before streaming sweep "
                            "section " + std::to_string(section) +
                            " (did the shard run fail?)");
        }
      } catch (const wire::Error& e) {
        throw wire::Error("'" + name + "': " + e.what());
      }
      return frame;
    }
    if (section >= frames.size()) {
      throw wire::Error("'" + name + "' has only " +
                        std::to_string(frames.size()) +
                        " sweep sections (bench expected more - was it "
                        "written by this bench?)");
    }
    return frames[section];
  }
};

SweepRunner::SweepRunner(const ExperimentOptions& opts,
                         std::size_t default_threads)
    : opts_(opts) {
  if (opts_.threads == 0) {
    opts_.threads = default_threads;
  }
  if (!opts_.merge_inputs.empty()) {
    // Merge mode evaluates nothing, so no lanes are raised.  Sources that
    // parse as HOST:PORT are sockets to --shard-serve runs; everything
    // else is a partial file.
    for (const std::string& input : opts_.merge_inputs) {
      auto source = std::make_unique<MergeSource>();
      source->name = input;
      net::Endpoint endpoint;
      std::string why;
      if (net::parse_endpoint(input, &endpoint, &why)) {
        source->is_socket = true;
        try {
          source->conn = std::make_unique<net::FrameConn>(
              net::connect_to(endpoint, /*retries=*/10));
        } catch (const net::Error& e) {
          std::fprintf(stderr, "merge: %s\n", e.what());
          std::exit(1);
        }
      } else {
        try {
          source->frames = wire::read_frames(input);
        } catch (const wire::Error& e) {
          std::fprintf(stderr, "merge: %s\n", e.what());
          std::exit(1);
        }
      }
      merge_sources_.push_back(std::move(source));
    }
    return;
  }
  if (opts_.shard_serve) {
    try {
      shard_listener_ =
          std::make_unique<net::Listener>(opts_.shard_serve_port);
    } catch (const net::Error& e) {
      std::fprintf(stderr, "shard: %s\n", e.what());
      std::exit(1);
    }
    std::fprintf(stderr,
                 "shard: serving partials on port %u (waiting for a "
                 "--merge peer)\n",
                 static_cast<unsigned>(shard_listener_->port()));
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

std::uint16_t SweepRunner::shard_serve_port() const {
  return shard_listener_ != nullptr ? shard_listener_->port() : 0;
}

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
  if (!merge_sources_.empty()) {
    // Merge mode: take section `section` from every source, applying each
    // partial to the merger as it arrives.  A file source has all its
    // sections upfront; a socket source streams each one the moment the
    // --shard-serve run finishes computing it, so the merge overlaps with
    // the shards' work.
    try {
      // The merger is pinned to THIS invocation's grid fingerprint, so a
      // merge run with different --samples/--seed than the shard runs
      // fails instead of printing tables that belong to other options.
      PartialMerger merger(cells.size(), merge_sources_.size(),
                           grid_fingerprint(cells));
      for (std::size_t f = 0; f < merge_sources_.size(); ++f) {
        const wire::Frame frame = merge_sources_[f]->next(section);
        if (frame.type != kFrameShardPartial) {
          throw wire::Error("'" + merge_sources_[f]->name +
                            "' section " + std::to_string(section) +
                            " is not a shard partial");
        }
        wire::Reader r(frame.payload);
        const ShardPartial partial = ShardPartial::decode(r);
        r.expect_done();
        try {
          merger.apply(partial);
        } catch (const wire::Error& e) {
          throw wire::Error("'" + merge_sources_[f]->name + "': " +
                            e.what());
        }
      }
      return merger.take();
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "merge: %s\n", e.what());
      std::exit(1);
    }
  }

  // shard_mode covers the degenerate --shard=0/1 (one shard owning every
  // cell): it still writes/streams the partial instead of silently
  // running in normal mode.
  if (opts_.shard_mode) {
    // Shard mode: evaluate the owned cells, append one partial section.
    const std::vector<std::size_t> owned =
        shard_cell_indices(cells.size(), opts_.shard);
    std::vector<Scenario> owned_cells;
    owned_cells.reserve(owned.size());
    for (std::size_t index : owned) {
      owned_cells.push_back(cells[index]);
    }
    // Cells keep their original grid index through the remap - plans and
    // cell_fns that vary along the grid (e.g. "merge the exact backend
    // for the first four cells") must see it, not the local position.
    const PlanFn owned_plan_fn =
        plan_fn == nullptr
            ? PlanFn()
            : PlanFn([&](const Scenario& cell, std::size_t local) {
                return (*plan_fn)(cell, owned[local]);
              });
    const std::vector<CellOutcome> outcomes = evaluate(
        owned_cells,
        [&](const Scenario& cell, std::size_t local) {
          return cell_fn(cell, owned[local]);
        },
        plan_fn == nullptr ? nullptr : &owned_plan_fn);
    bool failed = false;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      if (!outcomes[k].ok()) {
        std::fprintf(stderr, "sweep cell %zu failed: %s\n", owned[k],
                     outcomes[k].error.c_str());
        failed = true;
      }
    }
    if (failed) {
      std::exit(1);
    }
    ShardPartial partial;
    partial.shard = opts_.shard;
    partial.total_cells = cells.size();
    partial.fingerprint = grid_fingerprint(cells);
    partial.results.reserve(owned.size());
    for (std::size_t k = 0; k < owned.size(); ++k) {
      partial.results.emplace_back(owned[k], outcomes[k].result);
    }
    wire::Writer payload;
    partial.encode(payload);
    const std::vector<std::byte> frame =
        wire::seal_frame(kFrameShardPartial, payload.data());
    if (opts_.shard_serve) {
      // Stream the section to the one --merge peer the moment it exists;
      // the merge applies it while later sweeps are still computing.
      if (shard_conn_ == nullptr) {
        try {
          shard_conn_ = std::make_unique<net::FrameConn>(
              shard_listener_->accept_client());
        } catch (const net::Error& e) {
          std::fprintf(stderr, "shard: %s\n", e.what());
          std::exit(1);
        }
      }
      if (!shard_conn_->send_frame(frame)) {
        std::fprintf(stderr,
                     "shard: the --merge peer hung up before taking sweep "
                     "section %zu\n",
                     section);
        std::exit(1);
      }
      return std::nullopt;
    }
    partial_bytes_.insert(partial_bytes_.end(), frame.begin(), frame.end());
    try {
      // Rewritten after every sweep so the file is complete once the bench
      // exits (benches run a fixed sequence of sweeps).  Atomic (temp file
      // + rename): a crash mid-rewrite leaves the previous sweep's
      // complete partial, never a torn file that would poison the merge.
      wire::write_file_atomic(opts_.shard_out, partial_bytes_);
    } catch (const wire::Error& e) {
      std::fprintf(stderr, "shard: %s\n", e.what());
      std::exit(1);
    }
    return std::nullopt;
  }

  std::vector<CellOutcome> outcomes;
  if (journal_ != nullptr) {
    const std::uint64_t fingerprint = grid_fingerprint(cells);
    std::size_t precommitted = 0;
    if (resume_state_ != nullptr &&
        section < resume_state_->sweeps.size()) {
      // The redo pass: seed the dispatch core with the journal's winners;
      // only the losers reach a worker.  A journal written by a different
      // sweep (fingerprint or cell-count mismatch) is refused with exit 2
      // before anything evaluates.
      recov::ResumePlan plan;
      try {
        plan = recov::plan_resume(resume_state_->sweeps[section],
                                  cells.size(), fingerprint);
      } catch (const wire::Error& e) {
        std::fprintf(stderr, "resume: %s\n", e.what());
        std::exit(2);
      }
      precommitted = plan.committed_cells();
      std::vector<CellOutcome> seeded(cells.size());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (plan.committed[i] != 0) {
          seeded[i].result = std::move(plan.results[i]);
        }
      }
      core_->set_precommitted(std::move(plan.committed), std::move(seeded));
      std::fprintf(stderr,
                   "journal: sweep %zu: %zu/%zu cells already committed, "
                   "evaluating %zu\n",
                   section, precommitted, cells.size(),
                   cells.size() - precommitted);
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
    stats.committed_cells = cells.size();
    stats.evaluated_cells = cells.size() - precommitted;
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
  std::vector<ResultSet> results;
  results.reserve(outcomes.size());
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
