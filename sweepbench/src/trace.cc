#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "perf/json.h"

namespace sweepbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Span ids pack the thread number above the per-thread index, so an id is
// unique without a shared counter; 0 stays free for kNoSpan.
std::uint64_t make_id(std::uint32_t tid, std::size_t index) {
  return (static_cast<std::uint64_t>(tid) << 32) |
         static_cast<std::uint64_t>(index + 1);
}

std::atomic<std::uint64_t> next_serial{0};

}  // namespace

Recorder::Recorder() : serial_(next_serial.fetch_add(1) + 1) {}

Recorder::ThreadBuffer& Recorder::local() {
  // One cached buffer per (thread, recorder).  The cache is keyed by the
  // recorder's serial, not its address, so a recorder constructed where
  // an earlier one lived never inherits that one's (freed) buffer.
  thread_local std::uint64_t owner = 0;
  thread_local ThreadBuffer* buffer = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    buffer = buffers_.back().get();
    owner = serial_;
  }
  return *buffer;
}

std::uint64_t Recorder::begin(const char* name, std::int64_t arg) {
  ThreadBuffer& buf = local();
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now_ns();
  rec.tid = buf.tid;
  rec.arg = arg;
  rec.id = make_id(buf.tid, buf.spans.size());
  rec.parent = buf.open.empty() ? root_ : buf.spans[buf.open.back()].id;
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back(rec);
  return rec.id;
}

void Recorder::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  ThreadBuffer& buf = local();
  if (buf.open.empty() || buf.spans[buf.open.back()].id != id) {
    throw std::logic_error(
        "span nesting violated: closing a span that is not the innermost "
        "open span of this thread");
  }
  buf.spans[buf.open.back()].end_ns = t;
  buf.open.pop_back();
}

std::vector<SpanRecord> Recorder::spans() const {
  std::vector<SpanRecord> out;
  for (const auto& buf : buffers_) {
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      // Still-open spans (none after a clean run) have no duration yet.
      if (std::find(buf->open.begin(), buf->open.end(), i) ==
          buf->open.end()) {
        out.push_back(buf->spans[i]);
      }
    }
  }
  return out;
}

Span::~Span() {
  try {
    recorder_.end(id_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweepbench: %s\n", e.what());
    std::abort();
  }
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace_back(spans[i].id, i);
  }
  std::sort(by_id.begin(), by_id.end());
  // Child intervals, clipped to their parent, grouped per parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == kNoSpan) {
      continue;
    }
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(),
        std::make_pair(s.parent, static_cast<std::size_t>(0)));
    if (it == by_id.end() || it->first != s.parent) {
      continue;  // parent not recorded (still open or foreign)
    }
    const SpanRecord& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) {
      children[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    out[i] = spans[i].duration_ns() - covered;
  }
  return out;
}

std::vector<LayerTime> layer_times(const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const LayerTime& l) {
      return l.name == spans[i].name;
    });
    if (it == out.end()) {
      out.push_back(LayerTime{spans[i].name, 0, 0, 0});
      it = out.end() - 1;
    }
    ++it->spans;
    it->total_ns += spans[i].duration_ns();
    it->self_ns += self[i];
  }
  return out;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) {
      origin = spans[i].start_ns;
    }
  }
  // One compact event object per line, each serialized by the in-tree
  // JSON writer; the enclosing array is written by hand so the whole
  // trace never has to exist as one in-memory tree.
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    using rbx::perf::Json;
    Json ev = Json::object();
    ev.set("name", Json::string(s.name));
    ev.set("ph", Json::string("X"));
    ev.set("ts", Json::number(static_cast<double>(s.start_ns - origin) / 1e3));
    ev.set("dur", Json::number(static_cast<double>(s.duration_ns()) / 1e3));
    ev.set("pid", Json::number(1));
    ev.set("tid", Json::number(s.tid));
    Json args = Json::object();
    args.set("id", Json::number(static_cast<double>(s.id)));
    args.set("parent", Json::number(static_cast<double>(s.parent)));
    if (s.arg >= 0) {
      args.set("cell", Json::number(static_cast<double>(s.arg)));
    }
    ev.set("args", std::move(args));
    std::fputs(ev.dump(-1).c_str(), f);
    std::fputs(i + 1 < spans.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write trace file " + path);
  }
}

}  // namespace sweepbench
