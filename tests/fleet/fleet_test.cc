// The fleet lane contract: a sweep resolved through the registry is
// bitwise identical to the same sweep with the daemons named on a
// --connect list; a daemon killed mid-sweep is backfilled by a member
// that joined the registry *after* the sweep started; and a keyed worker
// refuses keyless, wrong-keyed and forged-lease coordinators with an
// error frame - loudly, never a hang.  Workers and registry are the real
// servers on loopback sockets inside threads.
#include "fleet/lane.h"

#include <chrono>
#include <cstddef>
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
#include "fleet/auth.h"
#include "fleet/client.h"
#include "fleet/registry.h"
#include "net/cluster.h"
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

net::WorkerOptions worker_options(bool once, std::size_t fail_after,
                                  std::string auth_key = {}) {
  net::WorkerOptions opts;
  opts.port = 0;
  opts.once = once;
  opts.fail_after = fail_after;
  opts.quiet = true;
  opts.auth_key = std::move(auth_key);
  return opts;
}

// A worker daemon on an ephemeral loopback port (once=false is the
// long-running pool mode; stop() unblocks it, the destructor joins).
struct TestWorker {
  explicit TestWorker(net::WorkerOptions opts)
      : once(opts.once),
        server(std::move(opts)),
        thread([this]() { server.serve(); }) {}
  ~TestWorker() {
    if (!once) {
      server.stop();
    }
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server.port()}; }
  fleet::JoinInfo join_info() const {
    return fleet::JoinInfo{"127.0.0.1", server.port(), 1};
  }

  bool once;
  net::WorkerServer server;
  std::thread thread;
};

struct TestRegistry {
  explicit TestRegistry(fleet::MemberTableOptions table = {}) {
    fleet::RegistryOptions opts;
    opts.port = 0;
    opts.quiet = true;
    opts.table = table;
    server = std::make_unique<fleet::RegistryServer>(opts);
    thread = std::thread([this]() { server->serve(); });
  }
  ~TestRegistry() {
    server->stop();
    thread.join();
  }

  net::Endpoint endpoint() const { return {"127.0.0.1", server->port()}; }

  // Registers a daemon the way sweep_workerd --fleet does, minus the
  // heartbeat thread (tests finish well inside the eviction window).
  void admit(const TestWorker& worker, const std::string& auth_key = {}) {
    fleet::RegistryClientOptions copts;
    copts.registry = endpoint();
    copts.auth_key = auth_key;
    fleet::RegistryClient client(copts);
    client.join(worker.join_info());
  }

  std::unique_ptr<fleet::RegistryServer> server;
  std::thread thread;
};

fleet::FleetLaneOptions fleet_options(const net::Endpoint& registry,
                                      std::string auth_key = {}) {
  fleet::FleetLaneOptions opts;
  opts.registry = registry;
  opts.auth_key = std::move(auth_key);
  opts.coordinator_id = 1;  // pinned: fair-share grants are exact
  opts.quiet = true;
  return opts;
}

// One quiet sweep of `cells` on the caller's fleet lane, which outlives it
// (so its counters stay readable afterwards).
std::vector<CellOutcome> run_fleet_sweep(fleet::FleetLane& lane,
                                         const std::vector<Scenario>& cells,
                                         const PlanFn& plan,
                                         DispatchOptions options = {}) {
  options.quiet = true;
  DispatchCore core({&lane}, options);
  core.set_plan_fn(plan);
  return core.run(cells, CellFn()).outcomes;
}

TEST(FleetLaneTest, RegistryResolvedSweepMatchesConnectBitwise) {
  const std::vector<Scenario> cells = mc_grid(211);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference =
      DispatchCore({&local}).run(cells, local_fn_for(plan)).outcomes;

  TestWorker w1(worker_options(/*once=*/false, 0));
  TestWorker w2(worker_options(/*once=*/false, 0));
  TestRegistry registry;
  registry.admit(w1);
  registry.admit(w2);

  // The same daemons, named explicitly: the --connect baseline.
  std::vector<CellOutcome> connect_run;
  {
    net::TcpLaneOptions topts;
    topts.endpoints = {w1.endpoint(), w2.endpoint()};
    topts.quiet = true;
    net::TcpLane tcp(std::move(topts));
    DispatchOptions options;
    options.quiet = true;
    DispatchCore core({&tcp}, options);
    core.set_plan_fn(plan);
    connect_run = core.run(cells, CellFn()).outcomes;
  }

  // Resolved through the registry instead: same bytes.
  fleet::FleetLane lane(fleet_options(registry.endpoint()));
  const auto fleet_run = run_fleet_sweep(lane, cells, plan);

  ASSERT_EQ(fleet_run.size(), cells.size());
  ASSERT_EQ(connect_run.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(fleet_run[i].ok()) << "cell " << i << ": "
                                   << fleet_run[i].error;
    ASSERT_TRUE(connect_run[i].ok()) << connect_run[i].error;
    EXPECT_EQ(fleet_run[i].result, reference[i].result) << "cell " << i;
    EXPECT_EQ(fleet_run[i].result, connect_run[i].result) << "cell " << i;
  }
}

TEST(FleetLaneTest, KeyedFleetSweepsEndToEnd) {
  // Registry, daemons and coordinator all hold the key: the HMAC
  // handshake and the registry-signed lease verify on every hop, and the
  // bytes still match the local reference.
  const std::string key = "fleet-key";
  const std::vector<Scenario> cells = mc_grid(223);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference =
      DispatchCore({&local}).run(cells, local_fn_for(plan)).outcomes;

  fleet::MemberTableOptions table;
  table.auth_key = key;
  TestRegistry registry(table);
  TestWorker w1(worker_options(/*once=*/false, 0, key));
  registry.admit(w1, key);

  fleet::FleetLane lane(fleet_options(registry.endpoint(), key));
  const auto fleet_run = run_fleet_sweep(lane, cells, plan);
  ASSERT_EQ(fleet_run.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(fleet_run[i].ok()) << fleet_run[i].error;
    EXPECT_EQ(fleet_run[i].result, reference[i].result) << "cell " << i;
  }
}

TEST(FleetLaneTest, FreshJoinerBackfillsAWorkerKilledMidSweep) {
  const std::vector<Scenario> cells = mc_grid(227);
  const PlanFn plan = mc_plan();
  ThreadLane local(1);
  const auto reference =
      DispatchCore({&local}).run(cells, local_fn_for(plan)).outcomes;

  // The only registered daemon answers one single-cell batch, then drops
  // the session - a deterministic mid-sweep kill.
  TestWorker dying(worker_options(/*once=*/true, /*fail_after=*/1));
  // The replacement is running but NOT yet in the registry: it joins
  // after the sweep is underway, like an operator adding capacity.
  TestWorker fresh(worker_options(/*once=*/false, 0));
  TestRegistry registry;
  registry.admit(dying);

  auto lane_options = fleet_options(registry.endpoint());
  lane_options.readmit_delay_ms = 400;  // first revive lands after the
                                        // membership change below
  fleet::FleetLane lane(lane_options);

  std::thread operator_thread([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    fleet::RegistryClientOptions copts;
    copts.registry = registry.endpoint();
    fleet::RegistryClient client(copts);
    client.leave(dying.join_info());  // the kill noticed registry-side
    client.join(fresh.join_info());   // capacity added mid-sweep
  });

  DispatchOptions dopts;
  dopts.batch_size = 1;  // the kill triggers on the second cell
  dopts.handshake_timeout_ms = 2000;
  const auto outcomes = run_fleet_sweep(lane, cells, plan, dopts);
  operator_thread.join();

  ASSERT_EQ(outcomes.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << "cell " << i << ": "
                                  << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result, reference[i].result) << "cell " << i;
  }
  // The loss was healed by a *different* member, not a reconnect.
  EXPECT_GE(lane.backfills(), 1u);
}

TEST(FleetLaneTest, RequiredLaneFailsLoudlyOnAnEmptyRegistry) {
  TestRegistry registry;  // no members
  fleet::FleetLane lane(fleet_options(registry.endpoint()));
  std::vector<LaneWorker*> workers;
  EXPECT_THROW(lane.start(10, CellFn(), &workers), net::Error);
}

TEST(FleetLaneTest, OptionalLaneSurvivesAnUnreachableRegistry) {
  // Find a dead port by binding an ephemeral listener and closing it.
  std::uint16_t dead_port = 0;
  {
    net::Listener probe(0);
    dead_port = probe.port();
  }
  auto options = fleet_options({"127.0.0.1", dead_port});
  options.required = false;  // a hybrid run falls back to local lanes
  options.connect_retries = 0;
  fleet::FleetLane lane(options);
  std::vector<LaneWorker*> workers;
  lane.start(10, CellFn(), &workers);
  EXPECT_TRUE(workers.empty());
}

// --- Worker-side refusals (the loud-failure contract) -----------------------

wire::Frame handshake_reply(net::FrameConn& conn, const net::Hello& hello) {
  wire::Writer w;
  hello.encode(w);
  EXPECT_TRUE(conn.send(net::kFrameHello, w.data()));
  wire::Frame reply;
  EXPECT_TRUE(conn.recv(&reply));
  return reply;
}

TEST(WorkerAuthTest, KeylessCoordinatorIsRefusedWithAnErrorFrame) {
  TestWorker worker(worker_options(/*once=*/true, 0, "fleet-key"));
  net::FrameConn conn(net::connect_to(worker.endpoint(), /*retries=*/5));
  const wire::Frame reply = handshake_reply(conn, net::Hello{});
  ASSERT_EQ(reply.type, net::kFrameError);
  wire::Reader r(reply.payload);
  EXPECT_NE(r.str().find("authentication"), std::string::npos);
}

TEST(WorkerAuthTest, WrongKeyFailsTheChallenge) {
  TestWorker worker(worker_options(/*once=*/true, 0, "fleet-key"));
  net::FrameConn conn(net::connect_to(worker.endpoint(), /*retries=*/5));
  net::Hello hello;
  hello.flags |= kHelloFlagAuth;
  wire::Frame challenge = handshake_reply(conn, hello);
  ASSERT_EQ(challenge.type, kFrameAuthChallenge);
  wire::Reader cr(challenge.payload);
  wire::Writer response;
  response.str(fleet::auth_mac("wrong-key", cr.str()));
  ASSERT_TRUE(conn.send(kFrameAuthResponse, response.data()));
  wire::Frame reply;
  ASSERT_TRUE(conn.recv(&reply));
  ASSERT_EQ(reply.type, net::kFrameError);
  wire::Reader r(reply.payload);
  EXPECT_NE(r.str().find("authentication failed"), std::string::npos);
}

TEST(WorkerAuthTest, RightKeyPassesTheChallenge) {
  TestWorker worker(worker_options(/*once=*/true, 0, "fleet-key"));
  net::FrameConn conn(net::connect_to(worker.endpoint(), /*retries=*/5));
  net::Hello hello;
  hello.flags |= kHelloFlagAuth;
  wire::Frame challenge = handshake_reply(conn, hello);
  ASSERT_EQ(challenge.type, kFrameAuthChallenge);
  wire::Reader cr(challenge.payload);
  wire::Writer response;
  response.str(fleet::auth_mac("fleet-key", cr.str()));
  ASSERT_TRUE(conn.send(kFrameAuthResponse, response.data()));
  wire::Frame reply;
  ASSERT_TRUE(conn.recv(&reply));
  EXPECT_EQ(reply.type, net::kFrameHelloAck);
}

TEST(WorkerAuthTest, ForgedLeaseSignatureIsRefused) {
  // The coordinator holds the key (it passes the challenge) but presents
  // a lease the registry never signed: the worker verifies the signature
  // offline and refuses.
  TestWorker worker(worker_options(/*once=*/true, 0, "fleet-key"));
  net::FrameConn conn(net::connect_to(worker.endpoint(), /*retries=*/5));
  net::Hello hello;
  hello.flags |= kHelloFlagAuth | kHelloFlagLease;
  hello.lease_token = 42;
  hello.lease_sig = 7;  // not lease_sig("fleet-key", 42)
  wire::Frame challenge = handshake_reply(conn, hello);
  ASSERT_EQ(challenge.type, kFrameAuthChallenge);
  wire::Reader cr(challenge.payload);
  wire::Writer response;
  response.str(fleet::auth_mac("fleet-key", cr.str()));
  ASSERT_TRUE(conn.send(kFrameAuthResponse, response.data()));
  wire::Frame reply;
  ASSERT_TRUE(conn.recv(&reply));
  ASSERT_EQ(reply.type, net::kFrameError);
  wire::Reader r(reply.payload);
  EXPECT_NE(r.str().find("lease"), std::string::npos);
}

}  // namespace
}  // namespace rbx
