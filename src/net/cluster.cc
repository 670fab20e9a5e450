#include "net/cluster.h"

#include <cstdio>
#include <utility>

#include "fleet/auth.h"

namespace rbx {
namespace net {

// --- TcpLane ---------------------------------------------------------------

struct TcpLane::Remote final : FramedWorker {
  Remote(TcpLane* lane, Endpoint ep)
      : lane_(lane), endpoint_(std::move(ep)) {}

  std::string describe() const override { return endpoint_.to_string(); }
  bool remote() const override { return true; }

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

}  // namespace net
}  // namespace rbx
