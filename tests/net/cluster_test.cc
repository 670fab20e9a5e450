// The TCP lane contract: a sweep spanning TCP workers is
// bitwise identical to an in-process run of the same plans - including a
// run where a worker dies mid-sweep and its in-flight cells roll back to
// the survivors (the distributed analogue of backward error recovery).
// Workers here are real WorkerServer instances on loopback sockets inside
// threads - the same code tools/sweep_workerd.cc runs.
#include "net/cluster.h"

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/dispatch.h"
#include "core/executor.h"
#include "core/lane.h"
#include "core/sweep.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/worker.h"

namespace rbx {
namespace {

std::vector<Scenario> mc_grid(std::uint64_t master_seed) {
  const auto apply_n = [](Scenario& s, double n) {
    s.params(ProcessSetParams::symmetric(static_cast<std::size_t>(n), 1.0,
                                         1.0));
  };
  return SweepGrid(Scenario::symmetric(2, 1.0, 1.0).samples(200))
      .axis({2, 3, 4}, apply_n)
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

// A worker on an ephemeral loopback port, serving one connection on its
// own thread (joined on destruction - destroy the lane, which closes its
// connections, before the worker leaves scope).
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

// A long-running daemon serving up to `max_coordinators` concurrent
// sessions - the tools/sweep_workerd --serve mode.  stop() unblocks the
// serve loop; the destructor joins it.
struct PoolWorker {
  explicit PoolWorker(std::size_t max_coordinators, std::size_t delay_ms = 0)
      : server(net::WorkerOptions{/*port=*/0, /*once=*/false,
                                  /*fail_after=*/0, /*quiet=*/true,
                                  max_coordinators, delay_ms, /*cache_dir=*/{}}),
        thread([this]() { server.serve(); }) {}
  ~PoolWorker() {
    server.stop();
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }

  net::WorkerServer server;
  std::thread thread;
};

// One quiet sweep of `cells` on `lane` under a fresh DispatchCore: a
// TcpLane evaluates `plan` remotely, a ThreadLane (the local reference)
// runs the same plan through evaluate_plan.
SweepResult run_on(Lane& lane, const std::vector<Scenario>& cells,
                   const PlanFn& plan, DispatchOptions options = {}) {
  options.quiet = true;
  DispatchCore core({&lane}, options);
  core.set_plan_fn(plan);
  return core.run(cells, local_fn_for(plan));
}

TEST(TcpLaneTest, MatchesInProcessBitwise) {
  const std::vector<Scenario> cells = mc_grid(17);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  TestWorker w1;
  TestWorker w2;
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {w1.endpoint(), w2.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const auto remote = run_on(lane, cells, plan).outcomes;
    ASSERT_EQ(remote.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << "cell " << i << ": " << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result) << "cell " << i;
    }
  }
}

TEST(TcpLaneTest, WorkerLossMidSweepRequeuesAndStaysBitwise) {
  const std::vector<Scenario> cells = mc_grid(23);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  // The healthy worker is throttled slightly so it cannot drain the whole
  // queue before the dying worker's handshake settles - without the
  // barrier of the old per-sweep handshake phase, an unthrottled survivor
  // could finish everything first and the kill below would never trigger.
  TestWorker healthy(/*fail_after=*/0, /*delay_ms=*/25);
  // Answers one single-cell batch, then drops the connection with its
  // next batch in flight: a deterministic mid-sweep kill.
  TestWorker dying(/*fail_after=*/1);
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {healthy.endpoint(), dying.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const auto remote =
        run_on(lane, cells, plan, {.batch_size = 1}).outcomes;
    ASSERT_EQ(remote.size(), cells.size());
    // Every cell completed (the lost worker's cells re-ran on the
    // survivor) and the rerun is bitwise identical: per-cell seeds make
    // rollback recovery invisible in the output.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << "cell " << i << ": " << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result) << "cell " << i;
    }
    EXPECT_EQ(lane.live(), 1u);
  }
}

TEST(TcpLaneTest, AllWorkersLostFailsRemainingCellsWithoutHanging) {
  const std::vector<Scenario> cells = mc_grid(31);
  const PlanFn plan = mc_plan();

  TestWorker dying(/*fail_after=*/1);
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {dying.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    // Without re-admission: the dead worker's listener is still bound (the
    // test object is in scope), so each revival attempt would connect and
    // then burn a full handshake timeout - the pre-refactor semantics of
    // "everyone is gone" are what this test pins.
    const auto remote =
        run_on(lane, cells, plan, {.batch_size = 1, .readmit = false})
            .outcomes;
    ASSERT_EQ(remote.size(), cells.size());
    std::size_t completed = 0;
    std::size_t failed = 0;
    for (const CellOutcome& outcome : remote) {
      if (outcome.ok()) {
        ++completed;
      } else {
        EXPECT_FALSE(outcome.error.empty());
        ++failed;
      }
    }
    // One batch was answered before the worker died; everything else
    // must come back as per-cell errors, never a hang.
    EXPECT_EQ(completed, 1u);
    EXPECT_EQ(failed, cells.size() - 1);
    EXPECT_EQ(lane.live(), 0u);
  }
}

TEST(TcpLaneTest, SkipsUnreachableEndpointAndStillCompletes) {
  const std::vector<Scenario> cells = mc_grid(41);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  // Find a dead port by binding an ephemeral listener and closing it.
  std::uint16_t dead_port = 0;
  {
    net::Listener probe(0);
    dead_port = probe.port();
  }

  TestWorker alive;
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {net::Endpoint{"127.0.0.1", dead_port},
                     alive.endpoint()};
    tcp.connect_retries = 0;  // fail the dead endpoint fast
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    EXPECT_EQ(lane.live(), 2u);  // before the first sweep: configured
    const auto remote = run_on(lane, cells, plan).outcomes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result);
    }
    EXPECT_EQ(lane.live(), 1u);
  }
}

TEST(TcpLaneTest, TwoCoordinatorsShareOneDaemonPoolConcurrently) {
  // The accept-backlog fix: a daemon pool serves two sweeps at once, each
  // coordinator on its own session, and both print the reference bytes.
  PoolWorker w1(/*max_coordinators=*/2);
  PoolWorker w2(/*max_coordinators=*/2);

  const auto sweep_matches_reference = [&](std::uint64_t master_seed) {
    const std::vector<Scenario> cells = mc_grid(master_seed);
    const PlanFn plan = mc_plan();
    ThreadLane local(1);
    const auto reference = run_on(local, cells, plan).outcomes;
    net::TcpLaneOptions tcp;
    tcp.endpoints = {w1.endpoint(), w2.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const auto remote = run_on(lane, cells, plan).outcomes;
    if (remote.size() != cells.size()) {
      return false;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!remote[i].ok() || remote[i].result != reference[i].result) {
        return false;
      }
    }
    return true;
  };

  bool first_ok = false;
  bool second_ok = false;
  std::thread first([&]() { first_ok = sweep_matches_reference(61); });
  std::thread second([&]() { second_ok = sweep_matches_reference(67); });
  first.join();
  second.join();
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(second_ok);
}

TEST(TcpLaneTest, CoordinatorBeyondCapacityIsRefusedNotBacklogged) {
  PoolWorker worker(/*max_coordinators=*/1);

  net::FrameConn first(net::connect_to(worker.endpoint(), /*retries=*/5));
  net::Hello hello;
  wire::Writer w;
  hello.encode(w);
  ASSERT_TRUE(first.send(net::kFrameHello, w.data()));
  wire::Frame ack;
  ASSERT_TRUE(first.recv(&ack));
  ASSERT_EQ(ack.type, net::kFrameHelloAck);

  // The session above is still open, so a second coordinator must get a
  // loud refusal instead of sitting in the accept backlog forever.
  net::FrameConn second(net::connect_to(worker.endpoint(), /*retries=*/5));
  wire::Frame reply;
  ASSERT_TRUE(second.recv(&reply));
  EXPECT_EQ(reply.type, net::kFrameError);
  wire::Reader r(reply.payload);
  EXPECT_NE(r.str().find("max-coordinators"), std::string::npos);
}

TEST(TcpLaneTest, StealsStragglerTailAndStaysBitwise) {
  const std::vector<Scenario> cells = mc_grid(53);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  TestWorker fast;
  // Holds every batch for 800 ms - far longer than the rest of the grid
  // takes - so its cells are still in flight when the queue drains and
  // the fast worker must steal them to finish.
  TestWorker slow(/*fail_after=*/0, /*delay_ms=*/800);
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {fast.endpoint(), slow.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const DispatchOptions options{.batch_size = 1, .steal = true};

    // Sweep 1: the straggler holds its batch, the fast worker drains the
    // queue and must steal the tail to finish.
    const SweepResult first = run_on(lane, cells, plan, options);
    ASSERT_EQ(first.outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(first.outcomes[i].ok())
          << "cell " << i << ": " << first.outcomes[i].error;
      EXPECT_EQ(first.outcomes[i].result, reference[i].result)
          << "cell " << i;
    }
    EXPECT_GE(first.stolen_cells, 1u);

    // Sweep 2 over the same connections: the straggler still owes its
    // stolen-from batch, so its stale answer must be flushed ahead of the
    // new HelloAck (and if it is still asleep when the fast worker
    // finishes everything, it is simply not waited on - there is no
    // handshake barrier).  Either way the bytes cannot change.
    const SweepResult second = run_on(lane, cells, plan, options);
    ASSERT_EQ(second.outcomes.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(second.outcomes[i].ok())
          << "cell " << i << ": " << second.outcomes[i].error;
      EXPECT_EQ(second.outcomes[i].result, reference[i].result)
          << "cell " << i;
    }
  }
}

TEST(TcpLaneTest, HungHandshakeWorkerIsDemotedNotWaitedOn) {
  const std::vector<Scenario> cells = mc_grid(59);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  // A listener that is never accepted: TCP connects fine (backlog), but
  // no Hello is ever answered - the "accepts TCP, never speaks" stall.
  net::Listener hung(0);

  TestWorker alive;
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {net::Endpoint{"127.0.0.1", hung.port()},
                     alive.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const auto remote =
        run_on(lane, cells, plan, {.handshake_timeout_ms = 300}).outcomes;
    ASSERT_EQ(remote.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result);
    }
    EXPECT_EQ(lane.live(), 1u);
  }
}

TEST(TcpLaneTest, HelloCarriesGridFingerprintAndStaleEchoIsRefused) {
  // The coordinator fingerprints the grid only when a worker handshakes.
  // A fake worker records the Hello it receives and acks with a stale
  // fingerprint, as a worker still answering another sweep would: the
  // Hello must carry grid_fingerprint(cells), the stale ack must be
  // refused (the coordinator hangs up without sending work), and the
  // real worker finishes the sweep bitwise.
  const std::vector<Scenario> cells = mc_grid(61);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference = run_on(local, cells, plan).outcomes;

  net::Listener stale(0);
  net::Hello received;
  bool got_work = true;
  // A jthread: an early ASSERT return still joins it, after the lane's
  // destruction has closed the connection it reads.
  std::jthread fake([&stale, &received, &got_work]() {
    net::FrameConn conn(stale.accept_client());
    wire::Frame hello;
    if (!conn.recv(&hello) || hello.type != net::kFrameHello) {
      return;
    }
    wire::Reader r(hello.payload);
    received = net::Hello::decode(r);
    net::Hello echo = received;
    echo.fingerprint ^= 1;
    wire::Writer w;
    echo.encode(w);
    conn.send(net::kFrameHelloAck, w.data());
    wire::Frame next;
    got_work = conn.recv(&next);
  });

  TestWorker alive;
  {
    net::TcpLaneOptions tcp;
    tcp.endpoints = {net::Endpoint{"127.0.0.1", stale.port()},
                     alive.endpoint()};
    tcp.quiet = true;
    net::TcpLane lane(std::move(tcp));
    const auto remote = run_on(lane, cells, plan).outcomes;
    ASSERT_EQ(remote.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_TRUE(remote[i].ok()) << remote[i].error;
      EXPECT_EQ(remote[i].result, reference[i].result);
    }
    EXPECT_EQ(lane.live(), 1u);
  }
  fake.join();
  EXPECT_EQ(received.fingerprint, grid_fingerprint(cells));
  EXPECT_EQ(received.total_cells, cells.size());
  EXPECT_FALSE(got_work);
}

TEST(WorkerHandshakeTest, RefusesWireVersionMismatch) {
  TestWorker worker;
  {
    net::FrameConn conn(
        net::connect_to(worker.endpoint(), /*retries=*/5));
    net::Hello hello;
    hello.wire_version = wire::kVersion + 1;
    wire::Writer w;
    hello.encode(w);
    ASSERT_TRUE(conn.send(net::kFrameHello, w.data()));
    wire::Frame reply;
    ASSERT_TRUE(conn.recv(&reply));
    EXPECT_EQ(reply.type, net::kFrameError);
    wire::Reader r(reply.payload);
    EXPECT_NE(r.str().find("wire version"), std::string::npos);
  }
}

TEST(WorkerHandshakeTest, RefusesProtocolMismatch) {
  TestWorker worker;
  {
    net::FrameConn conn(
        net::connect_to(worker.endpoint(), /*retries=*/5));
    net::Hello hello;
    hello.protocol = net::kProtocolVersion + 7;
    wire::Writer w;
    hello.encode(w);
    ASSERT_TRUE(conn.send(net::kFrameHello, w.data()));
    wire::Frame reply;
    ASSERT_TRUE(conn.recv(&reply));
    EXPECT_EQ(reply.type, net::kFrameError);
    wire::Reader r(reply.payload);
    EXPECT_NE(r.str().find("protocol"), std::string::npos);
  }
}

TEST(WorkerTest, RejectsCellBatchBeforeHandshake) {
  // Work sent before the Hello would bypass the protocol/wire-version/
  // fingerprint checks entirely; the worker must refuse and hang up.
  // A pool-mode worker, because its sessions outlive their threads: the
  // hang-up must come from the session ending, not from daemon teardown.
  PoolWorker worker(/*max_coordinators=*/2);
  {
    net::FrameConn conn(
        net::connect_to(worker.endpoint(), /*retries=*/5));
    CellBatch batch;
    batch.cells.push_back(BatchCell{
        0, Scenario::symmetric(2, 1.0, 1.0), true,
        EvalPlan{{EvalStep{"analytic", ""}}}});
    wire::Writer bw;
    batch.encode(bw);
    ASSERT_TRUE(conn.send(kFrameCellBatch, bw.data()));
    wire::Frame reply;
    ASSERT_TRUE(conn.recv(&reply));
    EXPECT_EQ(reply.type, net::kFrameError);
    wire::Reader r(reply.payload);
    EXPECT_NE(r.str().find("handshake"), std::string::npos);
    // The worker hung up: the next recv sees EOF, not an answer.
    wire::Frame extra;
    EXPECT_FALSE(conn.recv(&extra));
  }
}

TEST(WorkerTest, CellWithoutPlanBecomesPerCellError) {
  // A coordinator bug (local-only cell_fn leaking into a cluster run)
  // must surface as a clear per-cell error, not garbage results.
  TestWorker worker;
  {
    net::FrameConn conn(
        net::connect_to(worker.endpoint(), /*retries=*/5));
    net::Hello hello;
    wire::Writer hw;
    hello.encode(hw);
    ASSERT_TRUE(conn.send(net::kFrameHello, hw.data()));
    wire::Frame ack;
    ASSERT_TRUE(conn.recv(&ack));
    ASSERT_EQ(ack.type, net::kFrameHelloAck);

    CellBatch batch;
    batch.cells.push_back(
        BatchCell{0, Scenario::symmetric(2, 1.0, 1.0), false, EvalPlan{}});
    wire::Writer bw;
    batch.encode(bw);
    ASSERT_TRUE(conn.send(kFrameCellBatch, bw.data()));
    wire::Frame reply;
    ASSERT_TRUE(conn.recv(&reply));
    ASSERT_EQ(reply.type, kFrameResultBatch);
    wire::Reader r(reply.payload);
    const ResultBatch results = ResultBatch::decode(r);
    ASSERT_EQ(results.entries.size(), 1u);
    EXPECT_FALSE(results.entries[0].outcome.ok());
    EXPECT_NE(results.entries[0].outcome.error.find("no evaluation plan"),
              std::string::npos);
  }
}

TEST(EndpointParseTest, StrictHostPortParsing) {
  net::Endpoint endpoint;
  std::string why;
  EXPECT_TRUE(net::parse_endpoint("host-a:4701", &endpoint, &why));
  EXPECT_EQ(endpoint.host, "host-a");
  EXPECT_EQ(endpoint.port, 4701);
  EXPECT_TRUE(net::parse_endpoint("127.0.0.1:1", &endpoint, &why));

  EXPECT_FALSE(net::parse_endpoint("hostonly", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint(":4701", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:0", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:65536", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:47x1", &endpoint, &why));
  EXPECT_FALSE(net::parse_endpoint("host:-1", &endpoint, &why));
}

TEST(EvalPlanTest, RoundTripsAndMatchesHandComposedEvaluation) {
  EvalPlan plan{{EvalStep{"analytic", ""},
                 EvalStep{"monte-carlo", "mc_"}}};
  wire::Writer w;
  plan.encode(w);
  wire::Reader r(w.data());
  const EvalPlan decoded = EvalPlan::decode(r);
  r.expect_done();
  ASSERT_EQ(decoded.steps.size(), 2u);
  EXPECT_EQ(decoded.steps[0].backend, "analytic");
  EXPECT_EQ(decoded.steps[1].prefix, "mc_");

  const Scenario s = Scenario::symmetric(3, 1.0, 1.0).samples(100).seed(7);
  ResultSet by_hand = analytic_backend().evaluate(s);
  by_hand.merge(monte_carlo_backend().evaluate(s), "mc_");
  EXPECT_EQ(evaluate_plan(decoded, s), by_hand);
}

TEST(EvalPlanTest, RejectsEmptyAndUnknown) {
  wire::Writer empty;
  empty.u32(0);
  wire::Reader r(empty.data());
  EXPECT_THROW(EvalPlan::decode(r), wire::Error);

  const Scenario s = Scenario::symmetric(2, 1.0, 1.0);
  EXPECT_THROW(evaluate_plan(EvalPlan{}, s), std::runtime_error);
  EXPECT_THROW(
      evaluate_plan(EvalPlan{{EvalStep{"no-such-backend", ""}}}, s),
      std::runtime_error);
}

}  // namespace
}  // namespace rbx
