// FleetLane: the --fleet=host:port lane of the dispatch layer.
//
// Where TcpLane is told its daemons on the command line, FleetLane asks
// the registry: at sweep start it resolves the live member set (a
// fair-share grant when other coordinators contend) and raises one
// worker per granted member - each carrying its signed lease into the
// Hello handshake, each speaking the same framed protocol as a --connect
// worker, so the sweep's bytes are identical either way.
//
// The lane generalizes DispatchCore's re-admission seam from "the same
// endpoint reconnects" to "any registry member backfills the loss": when
// a worker dies mid-sweep, its revive() re-resolves the pool and prefers
// a granted member this sweep is not already using - a daemon that
// joined the registry *after* the sweep started is a perfectly good
// replacement.  Only if no fresh member exists does it retry its old
// endpoint (the daemon may simply have restarted).  Heartbeat-expired
// members are evicted registry-side before every grant, so a dead daemon
// is never handed out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lane.h"
#include "fleet/client.h"
#include "fleet/proto.h"
#include "net/socket.h"

namespace rbx {
namespace fleet {

struct FleetLaneOptions {
  net::Endpoint registry;
  std::string auth_key;          // pre-shared key (daemons + registry)
  std::uint64_t coordinator_id = 0;  // 0 = derived from the pid; tests pin
                                     // it to make fair-share grants exact
  std::uint32_t max_workers = 0;     // cap on granted members; 0 = share
  int connect_retries = 10;
  bool quiet = false;
  // Whether an empty grant at sweep start is fatal (a --fleet-only run
  // must fail loudly) or survivable (hybrid runs fall back to local
  // lanes).
  bool required = true;
  // Base backoff before a lost worker hunts for a replacement; doubled
  // per consecutive failure by the dispatch loop.
  int readmit_delay_ms = 500;
};

class FleetLane final : public Lane {
 public:
  explicit FleetLane(FleetLaneOptions options);
  ~FleetLane() override;

  std::string name() const override { return "fleet"; }

  // Workers with an open connection right now.
  std::size_t live() const;
  // Mid-sweep losses replaced by a *different* registry member (the
  // fresh-joiner backfill path; same-endpoint re-admissions count in
  // DispatchCore's readmitted counters instead).
  std::size_t backfills() const { return backfills_; }

  // First call: resolves the member grant from the registry (throws
  // net::Error if the registry is unreachable, refuses the key, or - with
  // options.required - grants nothing) and connects every member.  Later
  // calls reuse the persistent connections.
  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::vector<LaneWorker*>* out) override;
  void finish() override;  // keeps connections (persistent lane)

 private:
  struct FleetWorker;

  // Re-resolves the pool for a lost worker and retargets it: a granted
  // member no other worker of this lane is using, preferring one that is
  // not the lost endpoint.  False = nothing suitable right now (retry on
  // the next revive tick).
  bool retarget(FleetWorker* worker);

  FleetLaneOptions options_;
  RegistryClient client_;
  std::uint64_t coordinator_id_ = 0;
  bool resolved_ = false;
  std::size_t backfills_ = 0;
  std::vector<std::unique_ptr<FleetWorker>> workers_;
};

}  // namespace fleet
}  // namespace rbx
