#include "net/cluster.h"

#include <cstdio>
#include <utility>

#include "fleet/auth.h"

namespace rbx {
namespace net {

// --- TcpLane ---------------------------------------------------------------

struct TcpLane::Remote final : LaneWorker {
  Remote(TcpLane* lane, Endpoint ep)
      : lane_(lane), endpoint_(std::move(ep)) {}

  std::string describe() const override { return endpoint_.to_string(); }
  FrameChannel* channel() override { return &channel_; }
  bool needs_plan() const override { return true; }
  bool needs_handshake() const override { return true; }
  void retire() override { channel_.close(); }

  void prepare_hello(Hello& hello) const override {
    if (!lane_->options_.auth_key.empty()) {
      hello.flags |= kHelloFlagAuth;
    }
  }
  std::string auth_response(const std::string& challenge) const override {
    if (lane_->options_.auth_key.empty()) {
      return {};
    }
    return fleet::auth_mac(lane_->options_.auth_key, challenge);
  }

  // Re-admission: only an endpoint that has spoken to us before is worth
  // the backoff timer - one that was never reachable keeps its one
  // blocking chance per process, exactly as before the refactor.
  bool can_revive() const override { return ever_connected_; }
  int revive_delay_ms() const override {
    return lane_->options_.readmit_delay_ms;
  }

  Revive revive() override {
    bool in_progress = false;
    std::string err;
    Socket sock = start_connect(endpoint_, &in_progress, &err);
    if (!sock.valid()) {
      return Revive::kFailed;
    }
    channel_ = FrameChannel(sock.release());
    return in_progress ? Revive::kPending : Revive::kReady;
  }

  bool revive_finish() override {
    std::string err;
    if (!finish_connect(channel_.fd(), &err) ||
        !set_blocking(channel_.fd(), true)) {
      channel_.close();
      return false;
    }
    return true;
  }

  TcpLane* lane_;
  Endpoint endpoint_;
  FrameChannel channel_;
  bool ever_connected_ = false;
};

TcpLane::TcpLane(TcpLaneOptions options) : options_(std::move(options)) {}

TcpLane::~TcpLane() = default;

std::size_t TcpLane::live() const {
  if (!connected_) {
    return options_.endpoints.size();
  }
  std::size_t n = 0;
  for (const auto& remote : remotes_) {
    if (remote->channel_.open()) {
      ++n;
    }
  }
  return n;
}

void TcpLane::start(std::size_t cell_count, const CellFn& cell_fn,
                    std::vector<LaneWorker*>* out) {
  (void)cell_count;
  (void)cell_fn;  // remote daemons evaluate plans, never local closures
  if (!connected_) {
    connected_ = true;
    for (const Endpoint& endpoint : options_.endpoints) {
      auto remote = std::make_unique<Remote>(this, endpoint);
      try {
        Socket sock = connect_to(endpoint, options_.connect_retries);
        remote->channel_ = FrameChannel(sock.release());
        remote->ever_connected_ = true;
      } catch (const Error& e) {
        if (!options_.quiet) {
          std::fprintf(stderr,
                       "cluster: %s (continuing without this worker)\n",
                       e.what());
        }
      }
      remotes_.push_back(std::move(remote));
    }
    if (live() == 0 && options_.required) {
      throw Error("cluster: none of the " +
                  std::to_string(options_.endpoints.size()) +
                  " configured workers are reachable");
    }
  }
  for (const auto& remote : remotes_) {
    out->push_back(remote.get());
  }
}

void TcpLane::finish() {
  // Persistent lane: connections (and the knowledge of which endpoints
  // have died) survive into the next sweep.
}

// --- ClusterExecutor -------------------------------------------------------

namespace {

TcpLaneOptions lane_options(const ClusterOptions& options) {
  TcpLaneOptions out;
  out.endpoints = options.endpoints;
  out.connect_retries = options.connect_retries;
  out.quiet = options.quiet;
  out.required = true;
  out.readmit_delay_ms = options.readmit_delay_ms;
  out.auth_key = options.auth_key;
  return out;
}

DispatchOptions core_options(const ClusterOptions& options) {
  DispatchOptions out;
  out.batch_size = options.batch_size;
  out.steal = options.steal;
  out.handshake_timeout_ms = options.handshake_timeout_ms;
  out.quiet = options.quiet;
  out.readmit = options.readmit;
  out.readmit_max_attempts = options.readmit_max_attempts;
  return out;
}

}  // namespace

ClusterExecutor::ClusterExecutor(ClusterOptions options)
    : lane_(std::make_unique<TcpLane>(lane_options(options))),
      core_({lane_.get()}, core_options(options)) {}

ClusterExecutor::~ClusterExecutor() = default;

std::vector<CellOutcome> ClusterExecutor::run(
    const std::vector<Scenario>& cells, const CellFn& cell_fn) const {
  return core_.run(cells, cell_fn);
}

}  // namespace net
}  // namespace rbx
