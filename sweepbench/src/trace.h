// In-memory span recorder for the sweep benchmark's traced runs.
//
// The benchmark times layers from outside the library: a traced sweep
// evaluates its cells through a CellFn that opens a span around the whole
// plan and one around each backend step, and the benchmark opens one around
// the sweep call itself.  Spans go to per-thread buffers (no lock on the
// hot path once a thread has its buffer) and are read back after the
// sweep, when every worker thread has been joined.
//
// Nesting is asserted: a thread may only close its innermost open span.
// A span opened on a thread with no open span (a lane worker thread)
// takes the recorder's root - the benchmark's sweep span - as its parent, so
// the causal tree crosses threads the way the work does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sweepbench {

// Nanoseconds on the steady clock.
std::int64_t now_ns();

inline constexpr std::uint64_t kNoSpan = 0;

struct SpanRecord {
  const char* name = "";  // a string literal: span names are static
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = kNoSpan;
  std::uint64_t parent = kNoSpan;
  std::uint32_t tid = 0;  // recorder-local thread number, from 1
  std::int64_t arg = -1;  // the cell index, or -1
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Recorder {
 public:
  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Opens a span on the calling thread and returns its id.
  std::uint64_t begin(const char* name, std::int64_t arg = -1);
  // Closes span `id`; throws std::logic_error unless it is the calling
  // thread's innermost open span.
  void end(std::uint64_t id);
  // Parent for spans opened on threads that have no open span.
  void set_root(std::uint64_t id) { root_ = id; }

  // Every closed span, grouped by thread.  Call only when no other thread
  // is recording.
  std::vector<SpanRecord> spans() const;

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::size_t> open;  // indices into spans, innermost last
  };
  ThreadBuffer& local();

  const std::uint64_t serial_;  // distinguishes recorders for the TLS cache
  std::uint64_t root_ = kNoSpan;
  std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span: begins on construction, ends on destruction.  A nesting
// violation here is a bug in the benchmark and aborts.
class Span {
 public:
  Span(Recorder& recorder, const char* name, std::int64_t arg = -1)
      : recorder_(recorder), id_(recorder.begin(name, arg)) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Recorder& recorder_;
  std::uint64_t id_;
};

// Self time of every span, index-aligned with `spans`: its duration minus
// the part of its interval covered by the union of its children's
// intervals (children may overlap each other when they ran on different
// threads; a child's part outside the parent does not count).
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

struct LayerTime {
  std::string name;
  std::size_t spans = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
// Totals and self times summed per span name, in first-seen order.
std::vector<LayerTime> layer_times(const std::vector<SpanRecord>& spans);

// Writes the spans as Chrome trace-event JSON ("X" complete events, one
// per span, timestamps in microseconds).  Throws std::runtime_error when
// the file cannot be written.
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

}  // namespace sweepbench
