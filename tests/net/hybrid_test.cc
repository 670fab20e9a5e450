// The hybrid contract: one sweep spanning threads + forked workers + TCP
// daemons is bitwise identical to a serial run; losing every TCP worker
// degrades to the local lanes instead of failing; and a daemon killed
// mid-sweep that comes back is re-admitted - reconnected, re-handshaken
// against the same grid fingerprint - without changing a byte of output.
// A re-admitted worker picks its endpoint by the RemoteLane rule: a static
// worker only its own, a registry worker never one another worker holds.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "fleet/client.h"
#include "fleet/lane.h"
#include "fleet/registry.h"
#include "net/socket.h"
#include "net/worker.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed,
                              std::size_t samples = 200) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(samples))
      .axis({2, 3, 4, 5}, apply_n)
      .schemes({SchemeKind::kAsynchronous, SchemeKind::kSynchronized})
      .expand(master_seed);
}

PlanFn mc_plan() {
  return [](const Scenario&, std::size_t) {
    return EvalPlan{{EvalStep{"monte-carlo", ""}}};
  };
}

CellFn local_fn_for(const PlanFn& plan) {
  return [&plan](const Scenario& s, std::size_t i) {
    return evaluate_plan(plan(s, i), s);
  };
}

std::vector<ResultSet> direct_reference(const std::vector<Scenario>& cells,
                                        const CellFn& fn) {
  std::vector<ResultSet> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back(fn(cells[i], i));
  }
  return out;
}

// A worker daemon on an ephemeral loopback port serving one connection on
// its own thread (the tools/sweep_workerd --once mode).
struct TestWorker {
  explicit TestWorker(std::size_t fail_after = 0, std::size_t delay_ms = 0)
      : server(net::WorkerOptions{/*port=*/0, /*once=*/true, fail_after,
                                  /*quiet=*/true, /*max_coordinators=*/4,
                                  delay_ms, /*cache_dir=*/{}}),
        thread([this]() { server.serve(); }) {}
  ~TestWorker() { thread.join(); }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }

  net::WorkerServer server;
  std::thread thread;
};

fleet::RemoteLaneOptions tcp_options(std::vector<net::Endpoint> endpoints) {
  fleet::RemoteLaneOptions options;
  options.endpoints = std::move(endpoints);
  options.quiet = true;
  return options;
}

TEST(HybridDispatchTest, ThreadsForksAndTcpWorkersMatchSerialBitwise) {
  const std::vector<Scenario> cells = mc_grid(101);
  const PlanFn plan = mc_plan();
  const CellFn fn = local_fn_for(plan);
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  TestWorker w1;
  TestWorker w2;
  {
    ForkLane forks(2);
    ThreadLane threads(2);
    fleet::RemoteLane tcp(tcp_options({w1.endpoint(), w2.endpoint()}));
    DispatchOptions options;
    options.steal = true;
    options.quiet = true;
    DispatchCore core({&forks, &threads, &tcp}, options);
    core.set_plan_fn(plan);

    const auto outcomes = core.run(cells, fn).outcomes;
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                    << outcomes[i].error;
      EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
    }
  }
}

TEST(HybridDispatchTest, AllTcpWorkersLostFallsBackToLocalLanes) {
  // Every TCP worker dies mid-sweep; the thread lane absorbs the rolled
  // back cells and the sweep completes bitwise clean instead of failing.
  const std::vector<Scenario> cells = mc_grid(103);
  const PlanFn plan = mc_plan();
  const CellFn fn = local_fn_for(plan);
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  TestWorker dying(/*fail_after=*/1);
  {
    ThreadLane threads(2);
    fleet::RemoteLane tcp(tcp_options({dying.endpoint()}));
    DispatchOptions options;
    options.batch_size = 1;
    options.quiet = true;
    options.readmit = false;  // the daemon stays dead: pure fallback
    DispatchCore core({&threads, &tcp}, options);
    core.set_plan_fn(plan);

    const SweepResult sweep = core.run(cells, fn);
    const std::vector<CellOutcome>& outcomes = sweep.outcomes;
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                    << outcomes[i].error;
      EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
    }
    EXPECT_EQ(sweep.readmitted_workers, 0u);
  }
}

// A daemon that dies and comes back on the same port at once.  Its first
// life answers `fail_after` batches and then drops its session with the
// next batch in flight (a mid-sweep kill, while the sweep keeps running
// on the other workers), or with fail_after = 0 serves until kill().  The
// restarted daemon serves one session (the --once mode).
class RestartingDaemon {
 public:
  explicit RestartingDaemon(std::size_t fail_after = 1)
      : first_(std::make_unique<net::WorkerServer>(options(0, fail_after))),
        port_(first_->port()),
        thread_([this]() {
          first_->serve();
          first_.reset();  // release the port
          std::unique_ptr<net::WorkerServer> second;
          for (int attempt = 0; second == nullptr; ++attempt) {
            try {
              second = std::make_unique<net::WorkerServer>(options(port_, 0));
            } catch (const net::Error&) {
              // The kernel may hold the port for a moment; the
              // re-admission backoff gives us plenty of retries.
              if (attempt > 200) {
                throw;
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
          }
          second_ = std::move(second);
          second_up_.store(true);
          second_->serve();
          served_.store(true);
        }) {}

  ~RestartingDaemon() {
    // Unblock the restarted daemon if it is still waiting in accept (it
    // normally exits when its one coordinator hangs up).
    while (!second_up_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    second_->stop();
    thread_.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", port_}; }

  // Kills the first life (fail_after = 0 only; its session is idle between
  // sweeps) and waits until the restarted daemon listens.
  void kill_and_restart() {
    first_->stop();
    while (!second_up_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Whether the restarted daemon served a session to its end on its own -
  // a coordinator reconnected to *this* endpoint and has since hung up -
  // waiting up to two seconds for that hang-up to land.
  bool served_a_session() const {
    for (int waited = 0; !served_.load() && waited < 2000; ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return served_.load();
  }

 private:
  static net::WorkerOptions options(std::uint16_t port,
                                    std::size_t fail_after) {
    net::WorkerOptions opts;
    opts.port = port;
    opts.once = true;
    opts.fail_after = fail_after;
    opts.quiet = true;
    return opts;
  }

  std::unique_ptr<net::WorkerServer> first_;
  std::uint16_t port_;
  std::unique_ptr<net::WorkerServer> second_;
  std::atomic<bool> second_up_{false};
  std::atomic<bool> served_{false};
  std::thread thread_;
};

// A serve-forever daemon slow enough (60 ms per batch) to keep a sweep
// alive while a RestartingDaemon dies, restarts and is re-admitted.
struct SteadyDaemon {
  SteadyDaemon()
      : server([]() {
          net::WorkerOptions opts;
          opts.quiet = true;
          opts.max_coordinators = 2;
          opts.delay_ms = 60;
          return opts;
        }()),
        thread([this]() { server.serve(); }) {}
  ~SteadyDaemon() {
    server.stop();
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }

  net::WorkerServer server;
  std::thread thread;
};

// One quiet single-cell-batch sweep of `cells` on `lane`, checked bitwise
// against `reference`.
SweepResult run_remote(fleet::RemoteLane& lane,
                       const std::vector<Scenario>& cells,
                       const std::vector<ResultSet>& reference) {
  DispatchOptions options;
  options.batch_size = 1;
  options.quiet = true;
  DispatchCore core({&lane}, options);
  core.set_plan_fn(mc_plan());
  SweepResult sweep = core.run(cells, CellFn());
  EXPECT_EQ(sweep.outcomes.size(), cells.size());
  for (std::size_t i = 0; i < sweep.outcomes.size(); ++i) {
    EXPECT_TRUE(sweep.outcomes[i].ok()) << "cell " << i << ": "
                                        << sweep.outcomes[i].error;
    EXPECT_EQ(sweep.outcomes[i].result, reference[i]) << "cell " << i;
  }
  return sweep;
}

TEST(HybridDispatchTest, RestartedDaemonIsReadmittedMidSweep) {
  // The backward-error-recovery loop applied to the pool itself: a daemon
  // dies with a batch in flight, its cells roll back to the steady
  // worker, the daemon restarts on the same port, and the dispatch core
  // reconnects + re-handshakes it against the same grid fingerprint and
  // hands it work again - with byte-identical output.
  const std::vector<Scenario> cells = mc_grid(107, /*samples=*/100);
  const std::vector<ResultSet> reference =
      direct_reference(cells, local_fn_for(mc_plan()));

  SteadyDaemon steady;
  RestartingDaemon restarting;
  fleet::RemoteLaneOptions tcp =
      tcp_options({steady.endpoint(), restarting.endpoint()});
  tcp.readmit_delay_ms = 50;
  fleet::RemoteLane lane(std::move(tcp));
  const SweepResult sweep = run_remote(lane, cells, reference);
  EXPECT_GE(sweep.readmitted_workers, 1u);
}

TEST(HybridDispatchTest, StaticWorkersThatLoseBothEndpointsRejoinTheirOwn) {
  // Both daemons of a --connect list die between two sweeps and restart
  // on their ports.  The second sweep opens with no live worker, waits on
  // the revive timers, and each worker reconnects to its own endpoint - a
  // static worker never takes another endpoint of the list.  (Both dying
  // mid-sweep could put one cell on two lost workers, which the dispatch
  // core fails as poisonous.)
  const std::vector<Scenario> cells = mc_grid(109, /*samples=*/100);
  const std::vector<ResultSet> reference =
      direct_reference(cells, local_fn_for(mc_plan()));

  RestartingDaemon a(/*fail_after=*/0);
  RestartingDaemon b(/*fail_after=*/0);
  {
    fleet::RemoteLaneOptions tcp = tcp_options({a.endpoint(), b.endpoint()});
    tcp.readmit_delay_ms = 50;
    fleet::RemoteLane lane(std::move(tcp));
    run_remote(lane, cells, reference);
    a.kill_and_restart();
    b.kill_and_restart();
    const SweepResult sweep = run_remote(lane, cells, reference);
    EXPECT_EQ(sweep.readmitted_workers, 2u);
    EXPECT_EQ(lane.live(), 2u);
  }
  // The lane hung up: each restarted daemon (one session each) saw its
  // own worker come and go.
  EXPECT_TRUE(a.served_a_session());
  EXPECT_TRUE(b.served_a_session());
}

TEST(HybridDispatchTest, RegistryWorkerNeverTakesAnEndpointAnotherWorkerHolds) {
  // A registry lane with two workers loses one mid-sweep.  Every re-resolve
  // grants both members, and the steady one is "not the old endpoint" - but
  // another worker of the lane holds it, so the lost worker must wait for
  // its own daemon to restart rather than double up on the steady one.
  const std::vector<Scenario> cells = mc_grid(113, /*samples=*/100);
  const std::vector<ResultSet> reference =
      direct_reference(cells, local_fn_for(mc_plan()));

  fleet::RegistryOptions ropts;
  ropts.quiet = true;
  fleet::RegistryServer registry(ropts);
  std::thread registry_thread([&registry]() { registry.serve(); });
  const net::Endpoint registry_endpoint{"127.0.0.1", registry.port()};

  SteadyDaemon steady;
  RestartingDaemon restarting;
  {
    fleet::RegistryClientOptions copts;
    copts.registry = registry_endpoint;
    fleet::RegistryClient client(copts);
    client.join({"127.0.0.1", steady.endpoint().port, 1});
    client.join({"127.0.0.1", restarting.endpoint().port, 1});
  }
  {
    fleet::RemoteLaneOptions options;
    options.registry = registry_endpoint;
    options.coordinator_id = 1;  // pinned: the grant is both members
    options.readmit_delay_ms = 50;
    options.quiet = true;
    fleet::RemoteLane lane(std::move(options));
    const SweepResult sweep = run_remote(lane, cells, reference);
    EXPECT_GE(sweep.readmitted_workers, 1u);
    EXPECT_EQ(lane.backfills(), 0u);
  }
  EXPECT_TRUE(restarting.served_a_session());
  registry.stop();
  registry_thread.join();
}

}  // namespace
}  // namespace rbx
