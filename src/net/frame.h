// Framed traffic over a TCP socket, and the cluster control frames.
//
// The transport carries exactly the wire frames of support/wire.h - magic,
// version, type, length-prefixed payload - so the bytes a coordinator
// sends over TCP are the same bytes a ThreadLane or ForkLane worker sees
// on its socketpair.  Since the dispatch refactor the buffered framing
// itself lives in core (rbx::FrameChannel, core/lane.h): FrameConn is that
// class adopting a net::Socket's fd, and the handshake frames (Hello /
// HelloAck / Error) are re-exported here from core for the worker daemon
// and its tests.
//
// On top of the executor-layer frames (kFrameCellBatch / kFrameResultBatch)
// the cluster protocol adds a handshake:
//
//   coordinator -> worker   kFrameHello    protocol version, wire version,
//                                          grid fingerprint, cell total
//   worker -> coordinator   kFrameHelloAck the same fields echoed back
//   worker -> coordinator   kFrameError    refusal with a message
//
// A Hello opens every sweep (one connection serves many sweeps, each with
// its own grid).  The worker refuses a protocol or wire version it does
// not speak - two builds that would decode each other's doubles
// differently must fail the handshake, not produce wrong tables - and
// echoes the grid fingerprint so the coordinator can detect a worker that
// somehow acked a different sweep.  A re-admitted worker (one that died
// or hung and reconnected mid-sweep) re-runs exactly this handshake
// against the same fingerprint before it may take work again.
//
// Each coordinator connection is one *session* with its own state: a
// daemon serving several coordinators at once (net/worker.h) keeps a
// per-session handshake flag and batch counter, and a kFrameCellBatch on
// a session that has not completed a Hello is refused with kFrameError -
// work must never bypass the version/fingerprint checks.  Frames on one
// session stay strictly ordered (one TCP stream), which is what lets a
// coordinator flush a straggler's stale kFrameResultBatch answers while
// waiting for the next sweep's ack: anything the worker still owed from
// the previous sweep arrives before the new HelloAck.
#pragma once

#include <utility>

#include "core/lane.h"
#include "net/socket.h"

namespace rbx {
namespace net {

// Re-exported cluster control frames and versions (core/lane.h).
using rbx::Hello;
using rbx::kFrameError;
using rbx::kFrameHello;
using rbx::kFrameHelloAck;
using rbx::kProtocolVersion;

// Framed connection over one TCP socket: the shared FrameChannel adopting
// the socket's fd.
class FrameConn : public FrameChannel {
 public:
  explicit FrameConn(Socket sock) : FrameChannel(sock.release()) {}
};

}  // namespace net
}  // namespace rbx
