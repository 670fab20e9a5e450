// Umbrella header: the public API of the recovery-blocks library.
//
// The library reproduces and extends Shin & Lee's analysis of backward
// error recovery for concurrent processes (ICPP 1983).  The primary entry
// points are three core abstractions:
//
//   Scenario     one experiment definition: process-set rates, recovery
//                scheme, fault injection, workload shape, seed and
//                stream count (core/scenario.h).  streams(K) partitions
//                a Monte-Carlo cell's sample budget into K deterministic
//                RNG sub-streams (derive_stream_seed) that run as tasks
//                of the worker's StreamPool and merge in fixed
//                stream order - for a given K the result is a pure
//                function of the scenario, independent of thread count
//                and lane; K=1 (default) is the exact sequential path;
//   EvalBackend  an evaluation semantics for a Scenario, returning a
//                ResultSet of named metrics (core/backend.h,
//                core/result.h).  Nine registered singletons: "analytic"
//                (Markov/closed-form), "monte-carlo" (DES), "runtime"
//                (real threads), "density-analytic"/"density-mc" (the
//                Figure 6 density grid, core/density_backend.h),
//                "line-exact" (exact pairwise recovery-line detection)
//                and "hybrid" (PRP + periodic sync, both
//                core/ablation_backend.h), "markov-structure" (chain
//                inventories, core/structure_backend.h), and
//                "micro-markov" (Markov-engine timing kernels,
//                perf/micro_backend.h);
//   SweepGrid    parameter-grid expansion with deterministic per-cell
//                seeding (core/sweep.h);
//   Lane         where sweep cells run (core/lane.h): ThreadLane (worker
//                threads), ForkLane (forked workers, respawned on
//                crash), net::TcpLane (remote sweep_workerd daemons,
//                net/cluster.h) and fleet::FleetLane (daemons resolved
//                from a fleet registry, fleet/lane.h);
//   DispatchCore the one way to evaluate cells (core/dispatch.h): a
//                scheduler over caller-owned lanes - any mix of them in
//                a single sweep - with a cell queue, adaptive batch
//                sizing, per-cell in-flight accounting under a committed
//                mask, straggler work stealing, loss reconciliation,
//                streaming result merge, and mid-sweep re-admission of
//                lost workers.  run() returns a SweepResult: per-cell
//                outcomes bitwise identical to a serial run, plus that
//                run's steal and re-admission counts;
//   EvalContext  the ambient StreamPool a cell may hand its streams to
//                (core/eval_context.h).  A ThreadLane's worker threads
//                are one pool: a cell runs on its own thread plus every
//                worker with no batch pending, so one cell on
//                --threads=4 runs 4-way with no extra thread.  A ForkLane
//                child owns (workers / children raised - 1) helper
//                threads and a sweep_workerd session (--eval-threads - 1);
//                with no pool installed streams run in order.  The pool
//                bounds resources only and never changes output;
//   EvalPlan     a sweep cell's evaluation recipe as data - which
//                backends to run and how to merge their metrics - so a
//                cell can ship to a worker daemon that has no access to
//                bench closures (core/backend.h);
//   ShardSpec    k-way deterministic split of an expanded grid for
//                multi-host batch sweeps: shard i of k evaluates the cells
//                with index % k == i into its own sweep journal, and
//                --merge unions the journals into the exact unsharded
//                result vector (core/executor.h, core/experiment.h);
//   SweepJournal crash durability (recov/journal.h, recov/resume.h): a
//                CRC'd write-ahead log of cell commits, an ARIES-style
//                analysis pass tolerating torn tails, and resume planning
//                that seeds DispatchCore with the recovered winners so a
//                SIGKILLed sweep restarts evaluating only the losers
//                (--journal/--resume on every bench) - output bitwise
//                identical to an uninterrupted run;
//   ResultCache  the worker daemon's disk-backed cell cache
//                (recov/cache.h, sweep_workerd --cache-dir): a repeated
//                sweep is answered from disk without re-evaluating,
//                bypassed per-sweep by --no-cache and size-capped at
//                startup by --cache-max-bytes;
//   FleetRegistry the elastic shared fleet (fleet/registry.h, fleet/lane.h,
//                fleet_registryd): sweep_workerd daemons join a registry
//                and heartbeat it (silence past the eviction window drops
//                them from the pool), coordinators resolve the live
//                members with --fleet=HOST:PORT instead of naming
//                endpoints, contending sweeps are leased disjoint
//                weighted fair shares, a worker lost mid-sweep is
//                backfilled by any member - including one that joined
//                after the sweep started - and one pre-shared key
//                (fleet/auth.h, --auth-key-file) authenticates every
//                handshake via HMAC-SHA256 challenge/response plus
//                registry-signed lease tokens;
//   BenchReport  the perf trajectory (perf/bench.h, perf/report.h): named
//                micro-kernels spanning every layer below, measured by
//                the perf_bench tool into BENCH_<label>.json files, with
//                journal sweep-end counters imported alongside and a
//                --compare mode that fails on regressions.
//
// Scenario and ResultSet have exact binary round-trips (encode/decode on
// support/wire.h) - the lanes and journals depend on doubles being
// bit-preserved on the wire, which is what makes every execution mode
// print identical tables.
//
// A scenario flows through all three backends unchanged:
//
//   const Scenario s = Scenario::symmetric(3, 1.0, 1.0);
//   ResultSet exact = analytic_backend().evaluate(s);
//   ResultSet mc    = monte_carlo_backend().evaluate(s);
//   ResultSet real  = runtime_backend().evaluate(s);
//   // exact.value("mean_interval_x") vs mc.metric("mean_interval_x")...
//
// and sweeps replace hand-written bench loops:
//
//   auto cells = SweepGrid(s).axis({2, 3, 4, 5}, apply_n)
//                    .expand(master_seed);
//   SweepRunner runner(opts);  // lanes composed from the bench flags
//   auto results = runner.run(cells, monte_carlo_backend());
//
// or, below the bench flags, on lanes of the caller's choosing:
//
//   ThreadLane threads(8);
//   ForkLane forks(4);
//   DispatchCore core({&forks, &threads});
//   auto outcomes = core.run(cells, cell_fn).outcomes;
//
// The same cells sharded across two hosts reproduce those results
// bitwise.  A shard is a journaled sweep of the cells it owns, and a
// merge unions the journals' committed cells:
//
//   host A: fig5_mean_interval --shard=0/2   # writes shard-0-of-2.rbxj
//   host B: fig5_mean_interval --shard=1/2   # writes shard-1-of-2.rbxj
//   fig5_mean_interval --merge=shard-0-of-2.rbxj,shard-1-of-2.rbxj
//           # == the unsharded tables
//
// (a killed shard continues with --resume=FILE --shard=i/k; see
// core/experiment.h's SweepRunner).  For one live sweep spanning many
// machines - and the local machine at once - the lane flags compose:
//
//   fig5_mean_interval --threads=8 --workers=4
//                      --connect=hostA:4701,hostB:4701 --steal
//
// runs threads, forked workers and remote sweep_workerd daemons under
// one DispatchCore, streaming plan-carrying cell batches to whichever
// worker is idle and merging results as they arrive - still
// byte-identical to --threads=1.  The daemons are long-running and serve
// several coordinators concurrently (one session per connection, capped
// by --max-coordinators), so many sweeps share one worker fleet.  The
// scheduler applies the paper's backward error recovery to the pool
// itself: a lost worker's in-flight cells are re-queued to the
// survivors; --steal re-dispatches a *slow* worker's unanswered tail to
// idle workers once the queue is empty, committing whichever answer
// arrives first; and a lost worker that comes back (a restarted daemon,
// a respawned fork child) is *re-admitted* mid-sweep after
// re-handshaking against the same grid fingerprint.  Because per-cell
// seeds make every evaluation bitwise identical, none of recovery,
// stealing or re-admission can change a printed table.
//
// Layered as follows (each layer usable on its own):
//
//   support/   deterministic RNG, statistics, tables, the wire format,
//              EINTR-safe fd I/O
//   numerics/  dense/sparse linear algebra, ODE, quadrature, Poisson
//   markov/    CTMC/DTMC engine, phase-type distributions
//   model/     the paper's analytic models (Sections 2-4)
//   trace/     histories, exact recovery lines, rollback planning
//   des/       Monte-Carlo simulators of the three schemes
//   runtime/   thread-based processes with real checkpoint/rollback
//   core/      Scenario + EvalBackend + SweepGrid + ShardSpec,
//              DispatchCore + ThreadLane/ForkLane (core/dispatch.h,
//              core/lane.h), SweepRunner (core/experiment.h); the
//              specialized backends (density, ablation, structure) live
//              here too
//   net/       the TCP lane of the dispatch layer (TcpLane) and the
//              worker daemon (WorkerServer)
//   fleet/     the shared-fleet subsystem: registry + membership
//              (join/heartbeat/leave), fair-share leasing, pre-shared-key
//              auth (HMAC-SHA256, signed leases), FleetLane (--fleet)
//   recov/     crash durability: sweep journal + resume planning +
//              the worker-side result cache
//   perf/      the bench harness: kernel registry, interval measurement,
//              BENCH_*.json reports and regression compare (perf_bench);
//              also the registered "micro-markov" timing backend
//              (perf/micro_backend.h)
//
// The per-layer entry points (AsyncRbModel, SyncRbSimulator,
// RecoverySystem, ...) remain public for code that needs one layer only;
// new code should prefer the Scenario/EvalBackend route so experiments
// stay portable across evaluation semantics.
#pragma once

#include "core/backend.h"              // IWYU pragma: export
#include "core/dispatch.h"             // IWYU pragma: export
#include "core/executor.h"             // IWYU pragma: export
#include "core/experiment.h"           // IWYU pragma: export
#include "core/lane.h"                 // IWYU pragma: export
#include "core/result.h"               // IWYU pragma: export
#include "core/scenario.h"             // IWYU pragma: export
#include "core/sweep.h"                // IWYU pragma: export
#include "des/async_sim.h"             // IWYU pragma: export
#include "des/prp_sim.h"               // IWYU pragma: export
#include "des/sync_sim.h"              // IWYU pragma: export
#include "fleet/auth.h"                // IWYU pragma: export
#include "fleet/client.h"              // IWYU pragma: export
#include "fleet/lane.h"                // IWYU pragma: export
#include "fleet/proto.h"               // IWYU pragma: export
#include "fleet/registry.h"            // IWYU pragma: export
#include "model/async_model.h"         // IWYU pragma: export
#include "model/async_symmetric.h"     // IWYU pragma: export
#include "model/params.h"              // IWYU pragma: export
#include "model/prp_model.h"           // IWYU pragma: export
#include "model/sync_model.h"          // IWYU pragma: export
#include "net/cluster.h"               // IWYU pragma: export
#include "net/worker.h"                // IWYU pragma: export
#include "perf/bench.h"                // IWYU pragma: export
#include "perf/report.h"               // IWYU pragma: export
#include "recov/cache.h"               // IWYU pragma: export
#include "recov/journal.h"             // IWYU pragma: export
#include "recov/resume.h"              // IWYU pragma: export
#include "runtime/system.h"            // IWYU pragma: export
#include "support/table.h"             // IWYU pragma: export
#include "support/wire.h"              // IWYU pragma: export
#include "trace/dot.h"                 // IWYU pragma: export
#include "trace/prp_plan.h"            // IWYU pragma: export
#include "trace/recovery_line.h"       // IWYU pragma: export
#include "trace/rollback.h"            // IWYU pragma: export
