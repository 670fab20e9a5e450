// RemoteLane: the --connect and --fleet lane of the dispatch layer - one
// sweep spanning sweep_workerd daemons on many hosts.
//
// Each member daemon is one FramedWorker over a TCP connection: cells ship
// with EvalPlans (a daemon cannot execute the sweep's local closures) and
// every sweep opens with the versioned Hello handshake.  The lane is
// *persistent*: connections survive across run() calls, so a bench with
// several sweeps handshakes each sweep (fresh grid fingerprint) over the
// same connections.
//
// The two flags differ only in where the members come from.  A member is
// an endpoint plus an optional lease:
//
//   --connect   the static endpoint list, without leases;
//   --fleet     the registry's grant at sweep start (fleet/client.h): the
//               live members, a fair share of them when other coordinators
//               contend, each with a signed lease for its Hello.
//
// All scheduling - adaptive batch sizing, streaming merge, rollback of a
// lost worker's in-flight cells, straggler stealing, the parallel deadline
// handshake - lives in DispatchCore (core/dispatch.h); this lane supplies
// the workers and their *re-admission*, the paper's backward error
// recovery applied to the pool itself.  A lost worker (dead socket, hung
// handshake, demoted mid-sweep) reconnects on a doubling backoff timer
// without ever blocking the live sweep (non-blocking connect, finished in
// the dispatch poll loop), re-handshakes against the same grid fingerprint
// and rejoins the pool, taking queue or stolen work:
//
//   static     a worker reconnects only to its own endpoint, and only if
//              that endpoint answered at the first start() - one that was
//              never reachable keeps its one blocking chance per process;
//   registry   a worker is always revivable: it re-resolves the pool and
//              prefers a granted member that no other worker of the lane
//              holds and that is not its old endpoint (a daemon that joined
//              after the sweep started backfills the loss); failing that,
//              it retries its old endpoint (the daemon may simply have
//              restarted).  Heartbeat-expired members are evicted
//              registry-side before every grant, so a dead daemon is never
//              handed out.
//
// Per-cell seeds make recovery, stealing, re-admission and backfill all
// invisible in the printed tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lane.h"
#include "fleet/client.h"
#include "net/socket.h"

namespace rbx {
namespace fleet {

struct RemoteLaneOptions {
  // The member source: the registry to resolve grants from (--fleet), or,
  // when unset, `endpoints` with one worker each (--connect).
  std::optional<net::Endpoint> registry;
  std::vector<net::Endpoint> endpoints;
  std::uint32_t max_workers = 0;     // cap on granted members; 0 = share
  std::uint64_t coordinator_id = 0;  // 0 = derived from the pid; tests pin
                                     // it to make fair-share grants exact
  // Pre-shared key for daemons (and a registry) running with
  // --auth-key-file: the Hello goes out auth-flagged and the HMAC
  // challenges are answered (fleet/auth.h).  Empty = unauthenticated.
  std::string auth_key;
  // Extra connect attempts (200 ms apart) per member and to the registry on
  // the first sweep, riding out daemons that are still starting up.
  int connect_retries = 10;
  bool quiet = false;  // no stderr notes
  // Whether nothing live at the first start() is fatal (a remote-only run
  // must fail loudly) or survivable (a hybrid run falls back to its local
  // lanes).
  bool required = true;
  // Base backoff before re-admitting a lost worker; doubled per
  // consecutive failed attempt by the dispatch loop.
  int readmit_delay_ms = 500;
};

// Remote sweep_workerd daemons as dispatch workers.
class RemoteLane final : public Lane {
 public:
  explicit RemoteLane(RemoteLaneOptions options);
  ~RemoteLane() override;

  // Workers with an open connection right now.
  std::size_t live() const;
  // Mid-sweep losses replaced by a *different* registry member (the
  // backfill path; same-endpoint re-admissions count in
  // SweepResult::readmitted_workers instead).
  std::size_t backfills() const { return backfills_; }

  // First call: takes the members and connects each with a blocking
  // connect (an unreachable one is noted on stderr and left to the revive
  // timer).  With options.required, nothing live throws net::Error: an
  // empty grant, no member reachable, or an unreachable or refusing
  // registry; without it, an unreachable registry leaves the lane with no
  // workers.  Later calls reuse the persistent connections.
  void start(std::size_t cell_count, const CellFn& cell_fn,
             std::vector<LaneWorker*>* out) override;
  void finish() override;  // keeps connections (persistent lane)

 private:
  struct Lease {
    std::uint64_t token = 0;
    std::uint64_t sig = 0;
  };
  struct Member {
    net::Endpoint endpoint;
    std::optional<Lease> lease;  // set for registry members only
  };
  struct Worker;

  // The members available now: the static list, or the registry's current
  // grant (throws net::Error if the registry is out of reach or refuses).
  // `announce` notes the grant's size on stderr.
  std::vector<Member> members(bool announce);

  // Re-resolves the pool for a lost registry worker and points it at the
  // member to reconnect to (see the file comment).  False = nothing
  // suitable right now (retry on the next revive tick).
  bool retarget(Worker* worker);

  RemoteLaneOptions options_;
  RegistryClient client_;  // idle for a static lane
  bool started_ = false;
  std::size_t backfills_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace fleet
}  // namespace rbx
