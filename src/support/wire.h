// Wire format: the library's one binary encoding.
//
// Sharding a sweep across processes and hosts needs a stable wire form for
// both the experiment definition (Scenario) and its results (ResultSet) -
// the executors in core/executor.h ship cell batches to forked workers and
// collect result frames back, and `--shard=i/k` runs exchange partial
// result files between hosts.  Like the checkpoint state of the recovery
// blocks themselves (runtime/serializable.h), everything on the wire must
// round-trip bit-exactly: a double that changes in the last ulp would break
// the sweep determinism contract (bitwise-identical tables for any
// threads/workers/shards split).
//
// Encoding rules:
//  * all integers little-endian, fixed width (explicit byte shifts - the
//    encoding does not depend on host endianness or struct layout);
//  * doubles as their IEEE-754 bit pattern in a u64 (NaN payloads, signed
//    zeros, infinities and denormals are preserved exactly);
//  * strings and blobs length-prefixed with a u32;
//  * a frame wraps a payload with magic, format version, a type tag and a
//    u64 payload length, so a stream reader can find frame boundaries and
//    reject foreign or truncated data with a clear error.
//
// Decoding is strict: reading past the end, bad magic, an unknown version
// or an over-long length all throw wire::Error (never UB, never a partial
// object).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rbx {
namespace wire {

// Malformed, truncated or version-incompatible wire data.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Format version of every frame produced by this build.  Bump when the
// payload encodings change incompatibly; readers reject other versions.
inline constexpr std::uint16_t kVersion = 1;

// "RBXW" in little-endian byte order.
inline constexpr std::uint32_t kMagic = 0x57584252u;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // IEEE-754 bit pattern; exact for NaN/inf/denormals/signed zero.
  void f64(double v);
  void str(const std::string& s);
  void bytes(const void* data, std::size_t size);
  void f64_vec(const std::vector<double>& v);

  // Pre-sizes the buffer; encode paths that know their payload size call
  // this once instead of growing through reallocations.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  // In-place framing: begin_frame writes a frame header with a zero
  // payload length and returns a mark; end_frame patches the length to
  // everything written since.  Byte-identical to seal_frame() around the
  // same payload, without building the payload in a second buffer.
  std::size_t begin_frame(std::uint16_t type);
  void end_frame(std::size_t mark);

  const std::vector<std::byte>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  // Empties the buffer but keeps its capacity, for a writer reused
  // across many small encodings.
  void clear() { buf_.clear(); }
  // Moves the buffer out (the writer is empty afterwards); spares the
  // copy when the caller owns the result anyway.
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::byte>& data)
      : Reader(data.data(), data.size()) {}
  // The reader only borrows the buffer; binding a temporary would dangle.
  explicit Reader(std::vector<std::byte>&&) = delete;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<double> f64_vec();

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  // Throws wire::Error unless the whole buffer was consumed (catches
  // payloads with trailing garbage).
  void expect_done() const;

 private:
  const std::byte* need(std::size_t n);

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- framing -------------------------------------------------------------
//
// frame := magic u32 | version u16 | type u16 | payload_size u64 | payload

// Header size in bytes.
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 8;

// Sanity cap on a single frame payload (1 GiB); a corrupt length field
// fails fast instead of attempting a huge allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

struct Frame {
  std::uint16_t type = 0;
  std::vector<std::byte> payload;
};

// Wraps a payload into a full frame.
std::vector<std::byte> seal_frame(std::uint16_t type,
                                  const std::vector<std::byte>& payload);

// Attempts to parse one frame from the front of `data`.  Returns true and
// sets *out and *consumed on success; returns false if more bytes are
// needed; throws wire::Error on bad magic, unknown version or an over-long
// payload length.
bool parse_frame(const std::byte* data, std::size_t size, Frame* out,
                 std::size_t* consumed);

// File helpers for shard partial exchange: a file is a plain sequence of
// frames.  read_frames throws wire::Error on trailing garbage or truncation
// and on I/O failure.
void write_file(const std::string& path, const std::vector<std::byte>& data);
// Crash-safe variant: writes to path + ".tmp", fsyncs, then renames over
// `path` - a crash mid-write leaves the previous complete file (or no
// file), never a torn one.  Throws wire::Error on any failure.
void write_file_atomic(const std::string& path,
                       const std::vector<std::byte>& data);
std::vector<Frame> read_frames(const std::string& path);

}  // namespace wire
}  // namespace rbx
