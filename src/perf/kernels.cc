// The default kernel set: one named kernel per hot loop the evaluation
// stack actually runs, spanning every layer.
//
//   numerics  sparse builder freeze, CSR SpMV (both directions), dense LU
//             factor+solve, RK4 transient integration
//   markov    uniformization transient, first-passage moment solves
//   core      one full analytic cell evaluation (async and sync schemes)
//             and one hybrid PRP+sync cell through the registered
//             "hybrid" backend - the units every sweep, shard and
//             cluster run multiplies - plus the cell label every
//             ResultSet carries
//   dispatch  one in-process sweep of warm analytic cells through
//             DispatchCore and a 4-thread ThreadLane, per cell: what the
//             coordinator and the lane cost when evaluation is cheap
//   des       the three simulators' inner event loops, plus the exact
//             pairwise recovery-line observer behind ABL-LINE, fig5's
//             straggler cell per recovery line, and the event-draw
//             table build
//   wire      encode/decode of Scenario and ResultSet, seal/parse of a
//             plan-carrying CellBatch frame - the bytes every worker
//             round-trip moves
//   fleet     the registry conversation: Join/Grant codecs, the
//             fair-share resolve over a populated member table, and the
//             HMAC lease signature every keyed handshake computes
//
// Setup (matrix assembly, scenario construction) happens in make() and is
// excluded from timing; closures reuse their captured state across reps
// exactly like the production call sites do (e.g. one simulator instance
// across replications, one scratch vector across SpMV calls).
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analytic_backend.h"
#include "core/backend.h"
#include "core/dispatch.h"
#include "core/eval_context.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/result.h"
#include "core/scenario.h"
#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "fleet/auth.h"
#include "fleet/proto.h"
#include "fleet/registry.h"
#include "markov/ctmc.h"
#include "model/async_model.h"
#include "numerics/lu.h"
#include "numerics/matrix.h"
#include "numerics/sparse.h"
#include "perf/bench.h"
#include "support/rng.h"
#include "support/wire.h"

namespace rbx {
namespace perf {

namespace {

// Deterministic sparse test pattern: a banded "generator-shaped" matrix
// (short and long couplings plus a diagonal), the same shape class as the
// asynchronous-RB chain the production solvers run on.
struct TripletPattern {
  std::size_t n = 0;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> cols;
  std::vector<double> values;
};

TripletPattern banded_pattern(std::size_t n) {
  TripletPattern p;
  p.n = n;
  const std::ptrdiff_t offsets[] = {-49, -7, -1, 1, 7, 49};
  for (std::size_t r = 0; r < n; ++r) {
    double out_rate = 0.0;
    for (std::ptrdiff_t d : offsets) {
      const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(r) + d;
      if (c < 0 || c >= static_cast<std::ptrdiff_t>(n)) {
        continue;
      }
      const double v = 0.25 + static_cast<double>((r * 7 + d + 49) % 13) / 13.0;
      p.rows.push_back(r);
      p.cols.push_back(static_cast<std::size_t>(c));
      p.values.push_back(v);
      out_rate += v;
    }
    p.rows.push_back(r);
    p.cols.push_back(r);
    p.values.push_back(-out_rate);
  }
  return p;
}

SparseMatrix build_banded(std::size_t n) {
  const TripletPattern p = banded_pattern(n);
  SparseMatrixBuilder b(n, n);
  for (std::size_t i = 0; i < p.rows.size(); ++i) {
    b.add(p.rows[i], p.cols[i], p.values[i]);
  }
  return b.build();
}

// A deterministic CTMC of the same shape (off-diagonal rates only; the
// engine derives the diagonal).
Ctmc banded_chain(std::size_t n) {
  Ctmc chain(n);
  const std::ptrdiff_t offsets[] = {-49, -7, -1, 1, 7, 49};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::ptrdiff_t d : offsets) {
      const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(r) + d;
      if (c < 0 || c >= static_cast<std::ptrdiff_t>(n) ||
          c == static_cast<std::ptrdiff_t>(r)) {
        continue;
      }
      chain.add_rate(r, static_cast<std::size_t>(c),
                     0.25 + static_cast<double>((r * 7 + d + 49) % 13) / 13.0);
    }
  }
  chain.finalize();
  return chain;
}

std::vector<double> uniform_distribution(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

// Diagonally dominant dense system (always non-singular).
Matrix dense_system(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      a(i, j) = 1.0 / static_cast<double>(1 + d);
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

Scenario wire_scenario() {
  return Scenario::symmetric(6, 1.0, 0.5)
      .scheme(SchemeKind::kAsynchronous)
      .samples(20000)
      .seed(0x5eed);
}

ResultSet wire_result_set() {
  ResultSet r("bench", "wire kernel payload");
  for (std::size_t i = 0; i < 40; ++i) {
    r.set(indexed_metric("metric_", i), 1.0 / static_cast<double>(i + 1),
          1e-3, 1000 + i);
  }
  return r;
}

// A realistic fleet population: spread hosts, mixed weights.
fleet::JoinInfo fleet_member(std::size_t i) {
  fleet::JoinInfo info;
  info.host = "10.0.0." + std::to_string(i % 250 + 1);
  info.port = static_cast<std::uint16_t>(9000 + i);
  info.weight = static_cast<std::uint32_t>(i % 3 + 1);
  return info;
}

fleet::GrantResponse fleet_grant(std::size_t members) {
  fleet::GrantResponse g;
  g.live_members = static_cast<std::uint32_t>(members);
  for (std::size_t i = 0; i < members; ++i) {
    const fleet::JoinInfo info = fleet_member(i);
    fleet::GrantedMember m;
    m.host = info.host;
    m.port = info.port;
    m.lease_token = i + 1;
    m.lease_sig = fleet::lease_sig("bench-key", i + 1);
    g.members.push_back(m);
  }
  return g;
}

std::shared_ptr<fleet::MemberTable> fleet_table(std::size_t members) {
  fleet::MemberTableOptions opt;
  opt.auth_key = "bench-key";
  auto table = std::make_shared<fleet::MemberTable>(opt);
  for (std::size_t i = 0; i < members; ++i) {
    table->join(fleet_member(i), 0);
  }
  return table;
}

CellBatch wire_cell_batch() {
  CellBatch batch;
  const Scenario base = wire_scenario();
  const EvalPlan plan = plan_for(analytic_backend());
  for (std::size_t i = 0; i < 32; ++i) {
    batch.cells.push_back(
        BatchCell{i, Scenario(base).seed(1000 + i), true, plan});
  }
  return batch;
}

}  // namespace

void register_default_kernels(KernelRegistry& registry) {
  // --- numerics ---------------------------------------------------------
  registry.add({"sparse_build", "numerics", [] {
                  const TripletPattern p = banded_pattern(512);
                  return [p]() -> double {
                    SparseMatrixBuilder b(p.n, p.n);
                    for (std::size_t i = 0; i < p.rows.size(); ++i) {
                      b.add(p.rows[i], p.cols[i], p.values[i]);
                    }
                    const SparseMatrix m = b.build();
                    return static_cast<double>(m.nonzeros());
                  };
                }});

  registry.add({"sparse_spmv_left", "numerics", [] {
                  const SparseMatrix m = build_banded(1024);
                  const std::vector<double> x = uniform_distribution(1024);
                  std::vector<double> y;
                  return [m, x, y]() mutable -> double {
                    m.left_multiply(x, y);
                    return y[0];
                  };
                }});

  registry.add({"sparse_spmv_right", "numerics", [] {
                  const SparseMatrix m = build_banded(1024);
                  const std::vector<double> x = uniform_distribution(1024);
                  std::vector<double> y;
                  return [m, x, y]() mutable -> double {
                    m.right_multiply(x, y);
                    return y[0];
                  };
                }});

  registry.add({"lu_factor_solve", "numerics", [] {
                  const Matrix a = dense_system(96);
                  const std::vector<double> b(96, 1.0);
                  return [a, b]() -> double {
                    const LuDecomposition lu(a);
                    const std::vector<double> x = lu.solve(b);
                    return x[0];
                  };
                }});

  registry.add({"ode_rk4_transient", "numerics", [] {
                  const Ctmc chain = banded_chain(128);
                  const std::vector<double> pi0 = uniform_distribution(128);
                  return [chain, pi0]() -> double {
                    const std::vector<double> pi =
                        chain.transient_rk4(pi0, 0.5, 64);
                    return pi[0];
                  };
                }});

  // --- markov -----------------------------------------------------------
  registry.add({"markov_full_chain_n7", "markov", [] {
                  // The 2^7 + 1 state asynchronous-RB chain: build plus
                  // the absorption solve, the dominant cost of every
                  // full-chain analytic cell the structure and ablation
                  // sweeps evaluate at their size cap.
                  const ProcessSetParams p =
                      ProcessSetParams::symmetric(7, 1.0, 0.5);
                  return [p]() -> double {
                    AsyncRbModel model(p);
                    return model.mean_interval();
                  };
                }});

  registry.add({"ctmc_uniformization", "markov", [] {
                  const Ctmc chain = banded_chain(256);
                  const std::vector<double> pi0 = uniform_distribution(256);
                  return [chain, pi0]() -> double {
                    const std::vector<double> pi = chain.transient(pi0, 1.0);
                    return pi[0];
                  };
                }});

  registry.add({"ctmc_first_passage", "markov", [] {
                  const Ctmc chain = banded_chain(96);
                  const std::vector<double> alpha = uniform_distribution(96);
                  return [chain, alpha]() -> double {
                    const FirstPassage fp(chain, {0});
                    return fp.mean_hitting_time(alpha);
                  };
                }});

  // --- core (one full analytic cell) ------------------------------------
  registry.add({"analytic_async_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(6, 1.0, 0.5)
                                         .scheme(SchemeKind::kAsynchronous);
                  return [s]() -> double {
                    const ResultSet r = analytic_backend().evaluate(s);
                    return r.value("mean_interval_x");
                  };
                }});

  // The label every cell's ResultSet carries.  A symmetric n=7 label
  // holds 29 doubles but only three distinct ones (mu, lambda, rho), and
  // a run of equal rates is formatted once, so it formats three.  Pinned
  // to 1 thread so its ratio to analytic_async_cell (a warm cache hit,
  // which builds one n=6 label) says how much of a hit is still label
  // formatting - CI asserts a floor on that ratio.
  registry.add({"scenario_label", "core",
                [] {
                  const Scenario s = Scenario::symmetric(7, 1.0, 0.5)
                                         .scheme(SchemeKind::kAsynchronous);
                  return [s]() -> double {
                    return static_cast<double>(s.label().size());
                  };
                },
                /*threads=*/1});

  // The label's worst case: n=7 with 29 distinct doubles (7 mu, 21
  // lambda and rho), each formatted on its own.
  registry.add({"scenario_label_distinct", "core",
                [] {
                  std::vector<double> mu(7);
                  std::vector<double> lambda(49, 0.0);
                  for (std::size_t i = 0; i < 7; ++i) {
                    mu[i] = 1.0 + 0.125 * static_cast<double>(i);
                  }
                  double rate = 0.1;
                  for (std::size_t i = 0; i < 7; ++i) {
                    for (std::size_t j = i + 1; j < 7; ++j) {
                      lambda[i * 7 + j] = lambda[j * 7 + i] = rate;
                      rate += 0.0625;
                    }
                  }
                  const Scenario s(
                      ProcessSetParams(std::move(mu), std::move(lambda)));
                  return [s]() -> double {
                    return static_cast<double>(s.label().size());
                  };
                },
                /*threads=*/1});

  registry.add({"analytic_sync_cell", "core", [] {
                  const Scenario s = Scenario::symmetric(8, 1.0, 0.0)
                                         .scheme(SchemeKind::kSynchronized);
                  return [s]() -> double {
                    const ResultSet r = analytic_backend().evaluate(s);
                    return r.value("sync_mean_max_wait");
                  };
                }});

  registry.add({"analytic_cache_hits_t8", "core",
                [] {
                  // Pure cache-hit replay under contention: 64 distinct
                  // solved models (varying lambda), warmed here so the
                  // timed loop never solves.  All 8 threads hammer the
                  // shared backend singleton; before the cache was
                  // striped across shards one global mutex serialized
                  // every replay.  Distinct keys spread across shards,
                  // so flat ns/op vs a 1-thread run is the win.
                  auto cells = std::make_shared<std::vector<Scenario>>();
                  for (std::size_t i = 0; i < 64; ++i) {
                    cells->push_back(
                        Scenario::symmetric(5, 1.0,
                                            0.1 + 0.05 * static_cast<double>(i))
                            .scheme(SchemeKind::kAsynchronous));
                    analytic_backend().evaluate(cells->back());
                  }
                  return [cells, i = std::size_t{0}]() mutable -> double {
                    const ResultSet r =
                        analytic_backend().evaluate((*cells)[i]);
                    i = (i + 1) % cells->size();
                    return r.value("mean_interval_x");
                  };
                },
                /*threads=*/8});

  // --- dispatch (one in-process sweep) ----------------------------------
  // 4,096 cells over 256 distinct analytic models, warmed in make(), so
  // every evaluation is a cache hit.  One call is one DispatchCore::run on
  // a 4-thread ThreadLane: lane start and finish, batching, the in-memory
  // handover, the merge and freeing the outcomes.  Reported per cell.
  // Pinned to one closure: the lane brings its own 4 threads.
  registry.add({"dispatch_thread_lane_hits", "dispatch",
                [] {
                  auto cells = std::make_shared<std::vector<Scenario>>();
                  for (std::size_t i = 0; i < 4096; ++i) {
                    const double rho =
                        0.25 + 0.0625 * static_cast<double>(i % 64);
                    cells->push_back(
                        Scenario::symmetric(2 + (i / 64) % 4, 1.0, rho)
                            .scheme(SchemeKind::kAsynchronous)
                            .seed(i));
                    analytic_backend().evaluate(cells->back());
                  }
                  auto lane = std::make_shared<ThreadLane>(4);
                  auto core = std::make_shared<DispatchCore>(
                      std::vector<Lane*>{lane.get()});
                  const CellFn fn = [](const Scenario& s, std::size_t) {
                    return analytic_backend().evaluate(s);
                  };
                  return [cells, lane, core, fn]() -> double {
                    const SweepResult sweep = core->run(*cells, fn);
                    return sweep.outcomes.back().result.value(
                        "mean_interval_x");
                  };
                },
                /*threads=*/1, /*ops_per_call=*/4096});

  registry.add({"hybrid_cell", "core", [] {
                  // One ABL-HYBRID cell at a small failure budget: three
                  // analytic models plus a PRP simulation through the
                  // registered "hybrid" backend, exactly the unit a
                  // hybrid-scheme sweep ships per grid point.
                  const Scenario s =
                      Scenario::symmetric(3, 0.4, 3.0)
                          .scheme(SchemeKind::kPseudoRecoveryPoints)
                          .t_record(1e-4)
                          .error_rate(0.25)
                          .prp_sync_period(2.0)
                          .seed(0x5eed)
                          .samples(8);
                  const EvalPlan plan{{EvalStep{"hybrid", ""}}};
                  return [s, plan]() -> double {
                    const ResultSet r = evaluate_plan(plan, s);
                    return r.value("hybrid_distance");
                  };
                }});

  // --- des --------------------------------------------------------------
  registry.add({"des_async_lines", "des", [] {
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  return [sim]() -> double {
                    const AsyncSimResult r = sim->run_lines(32, 0.25);
                    return r.interval.mean();
                  };
                }});

  registry.add({"des_sync_lines", "des", [] {
                  SyncSimParams params;
                  params.mu = {1.0, 1.2, 0.8, 1.1};
                  params.strategy = SyncStrategy::kElapsedTime;
                  params.elapsed_threshold = 1.0;
                  params.error_rate = 0.5;
                  auto sim =
                      std::make_shared<SyncRbSimulator>(params, 0x5eed);
                  return [sim]() -> double {
                    const SyncSimResult r = sim->run(64);
                    return r.loss_rate;
                  };
                }});

  registry.add({"des_exact_lines", "des", [] {
                  // The exact pairwise recovery-line observer (ABL-LINE's
                  // inner loop): per-event interaction tracking plus the
                  // any-advance / full-refresh line tests.
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 1.0), 0x5eed);
                  return [sim]() -> double {
                    const ExactLineResult r = sim->run_exact(16);
                    return r.any_advance.mean();
                  };
                }});

  registry.add({"des_prp_failures", "des", [] {
                  PrpSimParams sim_params;
                  sim_params.t_record = 1e-3;
                  sim_params.error_rate = 0.5;
                  auto sim = std::make_shared<PrpSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), sim_params,
                      0x5eed);
                  return [sim]() -> double {
                    const PrpSimResult r = sim->run(8);
                    return r.prp_distance.mean();
                  };
                }});

  // Figure 5's costliest Monte-Carlo cell (symmetric n = 6, rho = 2, so
  // lambda = 0.8): one stream's event loop on a prebuilt simulator,
  // reseeded before every call so each call replays the same trajectory.
  // ns per recovery line; a line of this cell takes thousands of events.
  {
    constexpr std::size_t kLines = 16;
    registry.add({"des_async_straggler", "des",
                  [] {
                    auto sim = std::make_shared<AsyncRbSimulator>(
                        ProcessSetParams::symmetric(6, 1.0, 0.8), 0x5eed);
                    return [sim]() -> double {
                      sim->reseed(0x5eed);
                      return sim->run_lines(kLines).interval.mean();
                    };
                  },
                  /*threads=*/1, /*ops_per_call=*/kLines});
  }

  registry.add({"des_categorical_build", "des", [] {
                  // The event table of a symmetric n = 9 process set
                  // (9 RPs and 36 pairs, fig5's largest cell), built as
                  // every simulator constructor builds it.
                  std::vector<double> weights(9, 1.0);
                  weights.insert(weights.end(), 36, 0.5);
                  return [weights]() -> double {
                    const CategoricalTable table(weights);
                    return table.threshold(table.size() - 1);
                  };
                }});

  // Contention variants: the same three DES bodies at a pinned 4 threads.
  // The simulators share no state, so flat ns/op against the 1-thread
  // kernels is the pass condition - growth is scheduler or allocator
  // contention, exactly what CI's --compare gate should catch.
  registry.add({"des_async_lines_t4", "des",
                [] {
                  auto sim = std::make_shared<AsyncRbSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  return [sim]() -> double {
                    const AsyncSimResult r = sim->run_lines(32, 0.25);
                    return r.interval.mean();
                  };
                },
                /*threads=*/4});

  registry.add({"des_sync_lines_t4", "des",
                [] {
                  SyncSimParams params;
                  params.mu = {1.0, 1.2, 0.8, 1.1};
                  params.strategy = SyncStrategy::kElapsedTime;
                  params.elapsed_threshold = 1.0;
                  params.error_rate = 0.5;
                  auto sim =
                      std::make_shared<SyncRbSimulator>(params, 0x5eed);
                  return [sim]() -> double {
                    const SyncSimResult r = sim->run(64);
                    return r.loss_rate;
                  };
                },
                /*threads=*/4});

  registry.add({"des_prp_failures_t4", "des",
                [] {
                  PrpSimParams sim_params;
                  sim_params.t_record = 1e-3;
                  sim_params.error_rate = 0.5;
                  auto sim = std::make_shared<PrpSimulator>(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), sim_params,
                      0x5eed);
                  return [sim]() -> double {
                    const PrpSimResult r = sim->run(8);
                    return r.prp_distance.mean();
                  };
                },
                /*threads=*/4});

  // --- sample-parallel Monte-Carlo cells --------------------------------
  // One representative async MC cell under the stream axis, at two sizes:
  // the 512-sample cell (where fixed costs dominate) and a 5000-sample
  // twin the size of a Figure 5 n>=5 cell.  Each parallel kernel builds
  // its 4-member StreamPool (the timing thread plus 3 helpers) once,
  // outside the timed closure, as a lane worker does per sweep; the _seq
  // twins run the identical scenario with no pool.  seq/par is the
  // honest intra-cell speedup, and the ResultSets are bitwise identical
  // by the stream determinism contract.  Pinned to one closure: the pool
  // already brings 4 threads, so harness-level concurrency would only
  // oversubscribe and blur the comparison.
  const auto mc_async_cell = [](std::size_t samples, bool pooled) {
    return [samples, pooled]() -> std::function<double()> {
      const Scenario s = Scenario::symmetric(4, 1.0, 0.5)
                             .scheme(SchemeKind::kAsynchronous)
                             .error_rate(0.25)
                             .seed(0x5eed)
                             .samples(samples)
                             .streams(4);
      std::shared_ptr<StreamPool> pool;
      if (pooled) {
        pool = std::make_shared<StreamPool>(3);
      }
      return [s, pool]() -> double {
        EvalContextScope scope(EvalContext{pool.get()});
        const ResultSet r = monte_carlo_backend().evaluate(s);
        return r.value("mean_interval_x");
      };
    };
  };
  registry.add({"mc_async_cell", "core", mc_async_cell(512, true),
                /*threads=*/1});
  registry.add({"mc_async_cell_seq", "core", mc_async_cell(512, false),
                /*threads=*/1});
  registry.add({"mc_async_cell_5k", "core", mc_async_cell(5000, true),
                /*threads=*/1});
  registry.add({"mc_async_cell_5k_seq", "core", mc_async_cell(5000, false),
                /*threads=*/1});

  registry.add({"mc_stream_merge", "core", [] {
                  // The merge tax alone: combine 8 pre-simulated stream
                  // partials (Chan et al. on every accumulator) without
                  // any simulation in the timed loop.
                  auto parts = std::make_shared<std::vector<AsyncSimResult>>();
                  AsyncRbSimulator sim(
                      ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
                  for (std::size_t k = 0; k < 8; ++k) {
                    sim.reseed(derive_stream_seed(0x5eed, k));
                    parts->push_back(sim.run_lines(64, 0.25));
                  }
                  return [parts]() -> double {
                    AsyncSimResult merged = (*parts)[0];
                    for (std::size_t k = 1; k < parts->size(); ++k) {
                      merged.merge((*parts)[k]);
                    }
                    return merged.interval.mean();
                  };
                }});

  // --- wire -------------------------------------------------------------
  registry.add({"wire_encode_scenario", "wire", [] {
                  const Scenario s = wire_scenario();
                  return [s]() -> double {
                    wire::Writer w;
                    s.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"wire_decode_scenario", "wire", [] {
                  wire::Writer w;
                  wire_scenario().encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const Scenario s = Scenario::decode(r);
                    return static_cast<double>(s.n());
                  };
                }});

  registry.add({"wire_encode_resultset", "wire", [] {
                  const ResultSet rs = wire_result_set();
                  return [rs]() -> double {
                    wire::Writer w;
                    rs.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"wire_decode_resultset", "wire", [] {
                  wire::Writer w;
                  wire_result_set().encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const ResultSet rs = ResultSet::decode(r);
                    return static_cast<double>(rs.metrics().size());
                  };
                }});

  registry.add({"wire_seal_cellbatch", "wire", [] {
                  const CellBatch batch = wire_cell_batch();
                  return [batch]() -> double {
                    const std::vector<std::byte> frame = batch.seal();
                    return static_cast<double>(frame.size());
                  };
                }});

  registry.add({"wire_parse_cellbatch", "wire", [] {
                  const std::vector<std::byte> frame =
                      wire_cell_batch().seal();
                  return [frame]() -> double {
                    wire::Frame parsed;
                    std::size_t consumed = 0;
                    parse_frame(frame.data(), frame.size(), &parsed,
                                &consumed);
                    wire::Reader r(parsed.payload);
                    const CellBatch batch = CellBatch::decode(r);
                    return static_cast<double>(batch.cells.size());
                  };
                }});

  // --- fleet ------------------------------------------------------------
  registry.add({"fleet_encode_join", "fleet", [] {
                  const fleet::JoinInfo info = fleet_member(7);
                  return [info]() -> double {
                    wire::Writer w;
                    info.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"fleet_decode_join", "fleet", [] {
                  wire::Writer w;
                  fleet_member(7).encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const fleet::JoinInfo info = fleet::JoinInfo::decode(r);
                    return static_cast<double>(info.port);
                  };
                }});

  registry.add({"fleet_encode_grant", "fleet", [] {
                  const fleet::GrantResponse g = fleet_grant(16);
                  return [g]() -> double {
                    wire::Writer w;
                    g.encode(w);
                    return static_cast<double>(w.size());
                  };
                }});

  registry.add({"fleet_decode_grant", "fleet", [] {
                  wire::Writer w;
                  fleet_grant(16).encode(w);
                  const std::vector<std::byte> bytes = w.data();
                  return [bytes]() -> double {
                    wire::Reader r(bytes);
                    const fleet::GrantResponse g =
                        fleet::GrantResponse::decode(r);
                    return static_cast<double>(g.members.size());
                  };
                }});

  registry.add({"fleet_heartbeat_refresh", "fleet", [] {
                  auto table = fleet_table(32);
                  const fleet::JoinInfo info = fleet_member(5);
                  return [table, info]() -> double {
                    // Fixed now: every rep takes the register-or-refresh
                    // path, never the eviction cliff.
                    table->heartbeat(info, 1);
                    return static_cast<double>(table->live(1));
                  };
                }});

  registry.add({"fleet_resolve_fair_share", "fleet", [] {
                  auto table = fleet_table(32);
                  fleet::ResolveRequest req;
                  req.coordinator_id = 1;
                  return [table, req]() -> double {
                    // A re-resolve supersedes the previous leases, so each
                    // rep runs the full release + fair-share + HMAC-signed
                    // grant path over all 32 members.
                    const fleet::GrantResponse g = table->resolve(req, 1);
                    return static_cast<double>(g.members.size());
                  };
                }});

  registry.add({"fleet_lease_hmac", "fleet", [] {
                  std::uint64_t token = 1;
                  return [token]() mutable -> double {
                    return static_cast<double>(
                        fleet::lease_sig("bench-key", token++));
                  };
                }});
}

}  // namespace perf
}  // namespace rbx
