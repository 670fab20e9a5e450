#include "fleet/lane.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "fleet/auth.h"

namespace rbx {
namespace fleet {

struct RemoteLane::Worker final : FramedWorker {
  Worker(RemoteLane* lane, Member member)
      : lane_(lane), member_(std::move(member)) {}

  std::string describe() const override {
    const std::string endpoint = member_.endpoint.to_string();
    return member_.lease ? endpoint + " (fleet)" : endpoint;
  }
  bool remote() const override { return true; }

  void prepare_hello(Hello& hello) const override {
    if (!lane_->options_.auth_key.empty()) {
      hello.flags |= kHelloFlagAuth;
    }
    if (member_.lease) {
      hello.flags |= kHelloFlagLease;
      hello.lease_token = member_.lease->token;
      hello.lease_sig = member_.lease->sig;
    }
  }
  std::string auth_response(const std::string& challenge) const override {
    if (lane_->options_.auth_key.empty()) {
      return {};
    }
    return auth_mac(lane_->options_.auth_key, challenge);
  }

  // Only a static endpoint that has spoken to us before is worth the
  // backoff timer.  A registry worker always is: even if *this* daemon is
  // gone for good, the registry may hand us another member.
  bool can_revive() const override {
    return lane_->options_.registry || ever_connected_;
  }
  int revive_delay_ms() const override {
    return lane_->options_.readmit_delay_ms;
  }

  Revive revive() override {
    if (lane_->options_.registry && !lane_->retarget(this)) {
      return Revive::kFailed;
    }
    bool in_progress = false;
    std::string err;
    net::Socket sock =
        net::start_connect(member_.endpoint, &in_progress, &err);
    if (!sock.valid()) {
      return Revive::kFailed;
    }
    channel_ = FrameChannel(sock.release());
    return in_progress ? Revive::kPending : Revive::kReady;
  }

  bool revive_finish() override {
    std::string err;
    if (!net::finish_connect(channel_.fd(), &err) ||
        !net::set_blocking(channel_.fd(), true)) {
      channel_.close();
      return false;
    }
    return true;
  }

  RemoteLane* lane_;
  Member member_;
  bool ever_connected_ = false;
};

RemoteLane::RemoteLane(RemoteLaneOptions options)
    : options_(std::move(options)),
      client_(RegistryClientOptions{options_.registry.value_or(
                                        net::Endpoint{}),
                                    options_.auth_key,
                                    options_.connect_retries,
                                    options_.quiet}) {
  if (options_.coordinator_id == 0) {
    options_.coordinator_id = static_cast<std::uint64_t>(::getpid());
  }
}

RemoteLane::~RemoteLane() = default;

std::size_t RemoteLane::live() const {
  return std::count_if(workers_.begin(), workers_.end(), [](const auto& w) {
    return w->channel_.open();
  });
}

std::vector<RemoteLane::Member> RemoteLane::members(bool announce) {
  std::vector<Member> out;
  if (!options_.registry) {
    for (const net::Endpoint& endpoint : options_.endpoints) {
      out.push_back(Member{endpoint, std::nullopt});
    }
    return out;
  }
  ResolveRequest req;
  req.coordinator_id = options_.coordinator_id;
  req.max_workers = options_.max_workers;
  const GrantResponse grant = client_.resolve(req);
  if (announce && !options_.quiet) {
    std::fprintf(stderr,
                 "fleet: registry %s granted %zu of %u live member(s)\n",
                 options_.registry->to_string().c_str(),
                 grant.members.size(),
                 static_cast<unsigned>(grant.live_members));
  }
  for (const GrantedMember& member : grant.members) {
    out.push_back(Member{net::Endpoint{member.host, member.port},
                         Lease{member.lease_token, member.lease_sig}});
  }
  return out;
}

void RemoteLane::start(std::size_t cell_count, const CellFn& cell_fn,
                       std::vector<LaneWorker*>* out) {
  (void)cell_count;
  (void)cell_fn;  // remote daemons evaluate plans, never local closures
  if (!started_) {
    started_ = true;
    const bool registry = options_.registry.has_value();
    std::vector<Member> initial;
    try {
      initial = members(/*announce=*/true);
    } catch (const net::Error& e) {
      // Only a registry throws here.  A --fleet-only run must fail loudly;
      // a hybrid run degrades to its local lanes (the registry stays out
      // of reach for this process).
      if (options_.required) {
        throw;
      }
      if (!options_.quiet) {
        std::fprintf(stderr, "fleet: %s (continuing without the fleet)\n",
                     e.what());
      }
      return;
    }
    if (registry && initial.empty() && options_.required) {
      throw net::Error("fleet: registry " + options_.registry->to_string() +
                       " has no live members to grant (no daemon joined, "
                       "or all heartbeats expired)");
    }
    for (Member& member : initial) {
      auto worker = std::make_unique<Worker>(this, std::move(member));
      try {
        net::Socket sock = net::connect_to(worker->member_.endpoint,
                                           options_.connect_retries);
        worker->channel_ = FrameChannel(sock.release());
        worker->ever_connected_ = true;
      } catch (const net::Error& e) {
        if (!options_.quiet) {
          std::fprintf(stderr, "%s: %s (%s)\n",
                       registry ? "fleet" : "cluster", e.what(),
                       registry ? "leaving this member to the backfill timer"
                                : "continuing without this worker");
        }
      }
      workers_.push_back(std::move(worker));
    }
    if (live() == 0 && options_.required) {
      throw net::Error(
          std::string(registry ? "fleet" : "cluster") + ": none of the " +
          std::to_string(workers_.size()) +
          (registry ? " granted members" : " configured workers") +
          " are reachable");
    }
  }
  for (const auto& worker : workers_) {
    out->push_back(worker.get());
  }
}

void RemoteLane::finish() {
  // Persistent lane: connections, leases and the knowledge of which
  // members have died survive into the next sweep.
}

bool RemoteLane::retarget(Worker* worker) {
  // The pool as it stands *now*: eviction has already removed anything
  // heartbeat-expired, and a member that joined after the sweep started
  // is in the grant like any other.
  std::vector<Member> granted;
  try {
    granted = members(/*announce=*/false);
  } catch (const net::Error& e) {
    if (!options_.quiet) {
      std::fprintf(stderr, "fleet: re-resolve failed (%s); will retry\n",
                   e.what());
    }
    return false;
  }
  const auto held = [&](const net::Endpoint& endpoint) {
    for (const auto& other : workers_) {
      if (other.get() != worker && other->member_.endpoint == endpoint) {
        return true;
      }
    }
    return false;
  };
  // Prefer a member no other worker holds and that is not the endpoint we
  // just lost (a fresh joiner backfilling the loss); fall back to the lost
  // endpoint itself if the registry still vouches for it.
  const Member* fresh = nullptr;
  const Member* same = nullptr;
  for (const Member& member : granted) {
    if (held(member.endpoint)) {
      continue;
    }
    if (member.endpoint == worker->member_.endpoint) {
      same = &member;
    } else if (fresh == nullptr) {
      fresh = &member;
    }
  }
  const Member* pick = fresh != nullptr ? fresh : same;
  if (pick == nullptr) {
    return false;
  }
  if (fresh != nullptr) {
    ++backfills_;
    if (!options_.quiet) {
      std::fprintf(stderr,
                   "fleet: backfilling lost worker %s with registry member "
                   "%s\n",
                   worker->member_.endpoint.to_string().c_str(),
                   pick->endpoint.to_string().c_str());
    }
  }
  worker->member_ = *pick;
  return true;
}

}  // namespace fleet
}  // namespace rbx
