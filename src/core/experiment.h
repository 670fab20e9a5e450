// Shared plumbing for the bench binaries that regenerate the paper's
// tables and figures.
//
// Every bench runs with no arguments and prints the paper's rows to stdout;
// the flags below let a user trade precision for time and pick where the
// sweep cells execute.  Execution lanes *compose*: any mix of --threads,
// --workers and --connect (or --fleet) runs as one sweep over the shared
// dispatch core (core/dispatch.h), byte-identical to a single-threaded
// run.
//   --samples=N    Monte-Carlo sample count (lines / failures / commits)
//   --streams=K    partition every cell's Monte-Carlo budget into K
//                  deterministic RNG sub-streams (Scenario::streams),
//                  evaluated sample-parallel on the worker's StreamPool
//                  (core/eval_context.h) and merged in fixed stream
//                  order.  For a given K the output is bitwise identical
//                  on any lane and any thread count; K=1 (the default) is
//                  bitwise identical to earlier releases.  Different K
//                  are different (equally valid) sample partitions
//   --nmax=N       largest process count in sweeps
//   --seed=N       master RNG seed
//   --threads=N    a lane of N in-process worker threads (the default
//                  lane, at hardware concurrency, when no lane flag is
//                  given)
//   --workers=N    a lane of N forked worker processes (crashed workers
//                  are respawned and their cells re-run)
//   --connect=HOST:PORT,...
//                  a lane of remote sweep_workerd daemons over TCP; a
//                  lost daemon is re-admitted mid-sweep when it comes
//                  back (reconnect + re-handshake on a backoff timer)
//   --fleet=HOST:PORT
//                  like --connect, but the daemons are resolved from a
//                  fleet registry (tools/fleet_registryd) at sweep start:
//                  the coordinator is granted a fair share of the live
//                  members (heartbeat-expired daemons are never granted)
//                  and a daemon lost mid-sweep is backfilled by any other
//                  registry member - including one that joined after the
//                  sweep began.  Mutually exclusive with --connect; output
//                  is byte-identical to the equivalent --connect list
//   --fleet-workers=N
//                  with --fleet: cap the grant at N members (default: the
//                  registry's fair share)
//   --auth-key-file=PATH
//                  pre-shared key for authenticated fleets: the Hello
//                  handshake to every daemon (and the registry) carries an
//                  HMAC challenge/response proving key possession.  Works
//                  with --fleet and with plain --connect against daemons
//                  running --auth-key-file
//   --batch=N      cells per worker batch frame (0 = adaptive, the
//                  default); needs a --workers or --connect lane
//   --steal        once the queue is empty, re-dispatch a straggler's
//                  unanswered cells to idle workers (first answer wins,
//                  duplicates are deduped; output unchanged); needs a
//                  --workers or --connect lane - a pure --threads run
//                  has no stragglers worth stealing from
//   --handshake-timeout-ms=N
//                  with --connect: how long a worker's per-sweep Hello may
//                  go unanswered before it is demoted to "lost" (default
//                  10000; raise it when stolen-from stragglers need longer
//                  than that to flush a batch between sweeps)
//   --shard=i/k    evaluate only shard i of a k-way split of every sweep
//                  (the cells with index % k == i) and journal them
//                  instead of printing tables: the shard is a journaled
//                  sweep whose other cells count as already committed.
//                  The journal is --journal=FILE (default
//                  shard-<i>-of-<k>.rbxj); a killed shard continues with
//                  --resume=FILE --shard=i/k
//   --merge=J1,J2,...
//                  print the tables from sweep journals instead of
//                  evaluating: every sweep takes the union of the
//                  journals' committed cells.  Byte-identical to an
//                  unsharded run; a journal from a different grid
//                  (fingerprint mismatch) or a cell in none of the
//                  journals is refused loudly with exit 1
//   --journal=FILE start a fresh crash-durable sweep journal at FILE
//                  (recov/journal.h): every committed cell is logged the
//                  moment its outcome is final, so a killed run can be
//                  picked up with --resume
//   --resume=FILE  recover the committed cells from a journal a killed
//                  run left behind, evaluate only the losers, and keep
//                  appending to the same journal; output is bitwise
//                  identical to an uninterrupted run.  A journal written
//                  by a different sweep (grid fingerprint mismatch, e.g.
//                  other --samples/--seed) is refused loudly with exit 2
//   --no-cache     ask --connect or --fleet daemons to bypass their
//                  --cache-dir result cache for this run's sessions (fresh
//                  evaluations; the answers are bitwise identical either
//                  way)
//
// Parsing is strict: an unknown flag, a malformed number, a negative value,
// --threads=0, --streams=0, --shard=3/2, --connect=host (no port), --steal
// without a worker lane, --journal together with --resume, either with
// --merge (it evaluates nothing), --merge with --shard, or --no-cache
// without a --connect or --fleet lane prints a usage message to stderr and
// exits with status 2 (a typo'd flag silently falling back to defaults
// once cost a day of benchmarking against the wrong sample count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/result.h"
#include "net/socket.h"

namespace rbx {

namespace recov {
class JournalWriter;      // recov/journal.h; kept out of every bench TU
struct JournalAnalysis;
}

// Strict non-negative integer parse shared by the bench flags and
// tools/sweep_workerd: rejects empty strings, signs, whitespace, non-digit
// suffixes and out-of-range values.
bool parse_strict_u64(const char* text, std::uint64_t* out);

struct ExperimentOptions {
  std::size_t samples = 20000;
  std::size_t streams = 1;   // RNG sub-streams per cell (--streams=K)
  std::size_t nmax = 0;      // 0 = bench default
  std::uint64_t seed = 20260610;
  std::size_t threads = 0;   // 0 = hardware concurrency
  bool threads_given = false;  // --threads named explicitly: add the lane
                               // even when --workers/--connect are present
  std::size_t workers = 0;   // forked-worker lane size; 0 = no fork lane
  std::size_t batch = 0;     // cells per worker batch; 0 = adaptive
  std::vector<net::Endpoint> connect;  // non-empty = TCP lane
  bool fleet_given = false;  // --fleet named: registry-resolved TCP lane
  net::Endpoint fleet;       // the registry endpoint
  std::size_t fleet_workers = 0;  // --fleet-workers: grant cap; 0 = share
  std::string auth_key_file;  // --auth-key-file: pre-shared key path
  bool steal = false;        // steal stragglers' tails (multi-lane runs)
  std::size_t handshake_timeout_ms = 10000;  // --connect: Hello deadline
  bool shard_mode = false;   // --shard given (covers the 0/1 degenerate)
  ShardSpec shard;           // {0, 1} = unsharded
  std::vector<std::string> merge_inputs;  // non-empty = merge mode: the
                                          // journals to merge
  std::string journal;       // --journal: start a fresh sweep journal here
                             // (a --shard run defaults it)
  std::string resume;        // --resume: recover + append to this journal
  bool no_cache = false;     // --no-cache: bypass worker result caches

  static ExperimentOptions parse(int argc, char** argv,
                                 std::size_t default_samples,
                                 std::size_t default_nmax);
};

// Drives every sweep of one bench invocation under the execution mode the
// flags selected:
//
//   normal      evaluate all cells on the composed lanes (a ThreadLane by
//               default; a ForkLane with --workers; a TcpLane with
//               --connect or a FleetLane with --fleet; any mix at once)
//               through one DispatchCore and hand the results back;
//   --shard=i/k evaluate only the owned cells of each sweep, journal them
//               (the other cells are pre-committed with empty outcomes, so
//               every owned cell keeps its grid index), and return
//               std::nullopt - the bench skips its printing and exits
//               after its last sweep;
//   --merge     evaluate nothing; return the union of every input
//               journal's committed cells for this sweep, refusing a
//               journal from another grid or a cell no journal holds.
//
// Benches call run() once per grid, in a fixed order, so sweep s of every
// journal corresponds to the bench's s-th sweep.  A failed cell (a
// throwing cell_fn or a crashed worker) prints the per-cell errors and
// exits 1 - a bench table with silently missing rows would be worse.
//
// The PlanFn overload is the preferred one: a plan (core/backend.h) is the
// sweep's evaluation recipe as data, which is what lets --connect and
// --fleet ship cells to sweep_workerd daemons that have no access to the
// bench binary.  The CellFn overload stays for local-only sweeps
// (arbitrary closures) and exits 2 under --connect or --fleet.
//
//   SweepRunner runner(opts);
//   const auto results = runner.run(cells, plan_fn);
//   if (!results) return 0;            // --shard: owned cells journaled
//   ... print tables from *results ...
class SweepRunner {
 public:
  // default_threads replaces opts.threads when that is 0 (e.g. the runtime
  // bench defaults to 1 in-process worker because each cell spawns its own
  // process threads); 0 keeps the hardware-concurrency default.
  explicit SweepRunner(const ExperimentOptions& opts,
                       std::size_t default_threads = 0);
  ~SweepRunner();  // out of line: the recov types are forward-declared

  // Local-only: cells evaluate through an arbitrary closure.
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const CellFn& cell_fn);
  // Cluster-capable: cells evaluate through serializable plans - locally
  // via evaluate_plan, remotely on sweep_workerd workers - with bitwise
  // identical results.
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const PlanFn& plan_fn);
  // Shorthand for the one-step plan "evaluate on this backend".
  std::optional<std::vector<ResultSet>> run(
      const std::vector<Scenario>& cells, const EvalBackend& backend);

 private:
  std::optional<std::vector<ResultSet>> run_impl(
      const std::vector<Scenario>& cells, const CellFn& cell_fn,
      const PlanFn* plan_fn);
  std::vector<CellOutcome> evaluate(const std::vector<Scenario>& cells,
                                    const CellFn& cell_fn,
                                    const PlanFn* plan_fn);

  ExperimentOptions opts_;
  std::size_t sweep_index_ = 0;
  // --merge: the analysis of each input journal, in opts_.merge_inputs
  // order.
  std::vector<recov::JournalAnalysis> merge_journals_;
  // The lanes serve the whole bench run (a TCP lane's worker connections
  // persist across sweeps); the core over them is declared after them so
  // it is destroyed first.  No lanes and no core in merge mode.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::optional<DispatchCore> core_;
  bool remote_lanes_ = false;  // a --connect/--fleet lane: plans required
  // Crash durability (--journal / --resume): the writer appends a record
  // per committed cell; the recovered analysis seeds resumed sweeps.
  std::unique_ptr<recov::JournalWriter> journal_;
  std::unique_ptr<recov::JournalAnalysis> resume_state_;
};

// "value +- half_width" with sensible precision.
std::string fmt_ci(double value, double half_width, int precision = 4);

// Percentage-formatted relative deviation of measured from reference.
std::string fmt_dev(double measured, double reference);

// Standard header naming the paper and the experiment (keeps bench output
// self-describing when tee'd into logs).
void print_banner(const std::string& experiment_id,
                  const std::string& description);

// Three-line digest of one scenario's analytic evaluation under each scheme
// (async E[X]/sd/E[L], sync E[Z]/CL, PRP overheads/rollback bound); the
// shared opening block of quickstart and scheme_comparison.
std::string scheme_summary(const ResultSet& async_exact,
                           const ResultSet& sync_exact,
                           const ResultSet& prp_exact);

}  // namespace rbx
