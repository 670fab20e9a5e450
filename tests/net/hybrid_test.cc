// The hybrid contract: one sweep spanning threads + forked workers + TCP
// daemons is bitwise identical to a serial run; losing every TCP worker
// degrades to the local lanes instead of failing; and a daemon killed
// mid-sweep that comes back is re-admitted - reconnected, re-handshaken
// against the same grid fingerprint - without changing a byte of output.
// Plus the merge-from-sockets path: --merge consuming a ShardPartial
// stream from a socket next to a partial file.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/experiment.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "net/cluster.h"
#include "net/frame.h"
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

net::TcpLaneOptions tcp_options(std::vector<net::Endpoint> endpoints) {
  net::TcpLaneOptions options;
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
    net::TcpLane tcp(tcp_options({w1.endpoint(), w2.endpoint()}));
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
    net::TcpLane tcp(tcp_options({dying.endpoint()}));
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

TEST(HybridDispatchTest, RestartedDaemonIsReadmittedMidSweep) {
  // The backward-error-recovery loop applied to the pool itself: a daemon
  // dies with a batch in flight, its cells roll back to the steady
  // worker, the daemon restarts on the same port, and the dispatch core
  // reconnects + re-handshakes it against the same grid fingerprint and
  // hands it work again - with byte-identical output.
  const std::vector<Scenario> cells = mc_grid(107, /*samples=*/100);
  const PlanFn plan = mc_plan();
  const CellFn fn = local_fn_for(plan);
  const std::vector<ResultSet> reference = direct_reference(cells, fn);

  // Steady worker: 60 ms per batch keeps the sweep alive long enough for
  // the restart and the re-admission backoff to land deterministically.
  net::WorkerServer steady(net::WorkerOptions{/*port=*/0, /*once=*/false,
                                              /*fail_after=*/0,
                                              /*quiet=*/true,
                                              /*max_coordinators=*/2,
                                              /*delay_ms=*/60, /*cache_dir=*/{}});
  std::thread steady_thread([&]() { steady.serve(); });

  // Dying worker: answers one batch, then drops its session and exits.
  auto first = std::make_unique<net::WorkerServer>(
      net::WorkerOptions{/*port=*/0, /*once=*/true, /*fail_after=*/1,
                         /*quiet=*/true, /*max_coordinators=*/4,
                         /*delay_ms=*/0, /*cache_dir=*/{}});
  const std::uint16_t port = first->port();
  std::thread first_thread([&]() { first->serve(); });

  // The restart: the moment the first daemon is gone, bind the same port
  // again - the sweep is still running on the steady worker meanwhile.
  std::unique_ptr<net::WorkerServer> second;
  std::atomic<bool> second_up{false};
  std::thread restart([&]() {
    first_thread.join();
    first.reset();  // release the port
    for (int attempt = 0; second == nullptr; ++attempt) {
      try {
        second = std::make_unique<net::WorkerServer>(
            net::WorkerOptions{port, /*once=*/true, /*fail_after=*/0,
                               /*quiet=*/true, /*max_coordinators=*/4,
                               /*delay_ms=*/0, /*cache_dir=*/{}});
      } catch (const net::Error&) {
        // The kernel may hold the port for a moment; the re-admission
        // backoff gives us plenty of retries.
        if (attempt > 200) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    second_up.store(true);
    second->serve();
  });

  {
    net::TcpLaneOptions tcp = tcp_options(
        {net::Endpoint{"127.0.0.1", steady.port()},
         net::Endpoint{"127.0.0.1", port}});
    tcp.readmit_delay_ms = 50;
    net::TcpLane lane(std::move(tcp));
    DispatchOptions options;
    options.batch_size = 1;
    options.quiet = true;
    DispatchCore core({&lane}, options);
    core.set_plan_fn(plan);

    const SweepResult sweep = core.run(cells, CellFn());
    const std::vector<CellOutcome>& outcomes = sweep.outcomes;
    ASSERT_EQ(outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                    << outcomes[i].error;
      EXPECT_EQ(outcomes[i].result, reference[i]) << "cell " << i;
    }
    EXPECT_GE(sweep.readmitted_workers, 1u);
  }

  // Unblock the restarted daemon if it is still waiting in accept (it
  // normally exits when the lane above hangs up on it).
  while (!second_up.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  second->stop();
  restart.join();
  steady.stop();
  steady_thread.join();
}

TEST(MergeFromSocketsTest, SocketAndFileSourcesMergeBitwise) {
  // One shard arrives as a partial file, the other streams in over TCP
  // from a (simulated) --shard-serve run; the merged tables match the
  // unsharded reference bit for bit.
  const std::vector<Scenario> cells = mc_grid(113);
  const PlanFn plan = mc_plan();
  const CellFn fn = local_fn_for(plan);
  const std::vector<ResultSet> reference = direct_reference(cells, fn);
  const std::uint64_t fingerprint = grid_fingerprint(cells);

  const auto make_partial = [&](std::size_t index) {
    ShardPartial partial;
    partial.shard = ShardSpec{index, 2};
    partial.total_cells = cells.size();
    partial.fingerprint = fingerprint;
    for (std::size_t cell : shard_cell_indices(cells.size(), partial.shard)) {
      partial.results.emplace_back(cell, reference[cell]);
    }
    wire::Writer w;
    partial.encode(w);
    return wire::seal_frame(kFrameShardPartial, w.data());
  };

  // Shard 1 as a file.
  const std::string path = "hybrid_merge_shard1.rbxw";
  wire::write_file(path, make_partial(1));

  // Shard 0 served over a socket, exactly one frame.
  net::Listener listener(0);
  std::thread server([&]() {
    net::FrameConn conn(listener.accept_client());
    conn.send_frame(make_partial(0));
    wire::Frame sink;
    conn.recv(&sink);  // hold the stream open until the merger hangs up
  });

  const std::string merge_arg = "--merge=127.0.0.1:" +
                                std::to_string(listener.port()) + "," + path;
  std::string prog = "bench";
  std::string arg = merge_arg;
  char* argv[] = {prog.data(), arg.data()};
  const ExperimentOptions opts = ExperimentOptions::parse(2, argv, 200, 5);

  {
    SweepRunner runner(opts);
    const auto merged = runner.run(cells, plan);
    ASSERT_TRUE(merged.has_value());
    ASSERT_EQ(merged->size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ((*merged)[i], reference[i]) << "cell " << i;
    }
  }
  server.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rbx
