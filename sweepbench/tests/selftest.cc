// Self-tests of the benchmark's own C++ code: span nesting, self-time
// arithmetic, the Chrome trace writer and the result digest.  Exits 0
// when every check passes, 1 otherwise.
//
//   .bench_build/sweepbench_selftest
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "digest.h"
#include "perf/json.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using sweepbench::kNoSpan;
using sweepbench::Recorder;
using sweepbench::SpanRecord;

SpanRecord rec(std::uint64_t id, std::uint64_t parent, std::int64_t start,
               std::int64_t end, const char* name = "s") {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

const SpanRecord* find(const std::vector<SpanRecord>& spans,
                       std::uint64_t id) {
  for (const SpanRecord& s : spans) {
    if (s.id == id) {
      return &s;
    }
  }
  return nullptr;
}

void test_nesting() {
  Recorder r;
  const std::uint64_t outer = r.begin("outer");
  const std::uint64_t inner = r.begin("inner");
  bool threw = false;
  try {
    r.end(outer);  // inner is still open
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  r.end(inner);
  r.end(outer);
  threw = false;
  try {
    r.end(outer);  // already closed
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
  const std::vector<SpanRecord> spans = r.spans();
  CHECK(spans.size() == 2);
  CHECK(find(spans, inner) != nullptr && find(spans, inner)->parent == outer);
  CHECK(find(spans, outer) != nullptr &&
        find(spans, outer)->parent == kNoSpan);
  CHECK(find(spans, outer)->start_ns <= find(spans, inner)->start_ns);
  CHECK(find(spans, inner)->end_ns <= find(spans, outer)->end_ns);
}

void test_cross_thread_root() {
  Recorder r;
  const std::uint64_t root = r.begin("sweep");
  r.set_root(root);
  std::uint64_t worker_span = kNoSpan;
  std::uint64_t worker_child = kNoSpan;
  std::thread t([&] {
    sweepbench::Span cell(r, "cell", 7);
    worker_span = cell.id();
    sweepbench::Span step(r, "step", 7);
    worker_child = step.id();
  });
  t.join();
  r.end(root);
  const std::vector<SpanRecord> spans = r.spans();
  CHECK(spans.size() == 3);
  const SpanRecord* cell = find(spans, worker_span);
  const SpanRecord* step = find(spans, worker_child);
  CHECK(cell != nullptr && cell->parent == root && cell->arg == 7);
  CHECK(step != nullptr && step->parent == worker_span);
  CHECK(cell != nullptr && find(spans, root) != nullptr &&
        cell->tid != find(spans, root)->tid);
}

void test_recorders_do_not_share_buffers() {
  std::uint64_t first_id = kNoSpan;
  {
    Recorder a;
    first_id = a.begin("a");
    a.end(first_id);
  }
  // A recorder possibly at the same address starts empty.
  Recorder b;
  const std::uint64_t id = b.begin("b");
  b.end(id);
  CHECK(b.spans().size() == 1);
}

void test_self_time() {
  // parent [0, 100]; children [10, 30] and [20, 50] overlap (different
  // threads), [90, 120] sticks out past the parent; a grandchild never
  // counts against the grandparent.
  const std::vector<SpanRecord> spans = {
      rec(1, kNoSpan, 0, 100), rec(2, 1, 10, 30), rec(3, 1, 20, 50),
      rec(4, 1, 90, 120),      rec(5, 2, 12, 18),
  };
  const std::vector<std::int64_t> self = sweepbench::self_times(spans);
  CHECK(self[0] == 100 - (40 + 10));  // covered: [10,50] and [90,100]
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  // Adjacent children merge without double counting.
  const std::vector<SpanRecord> adjacent = {
      rec(1, kNoSpan, 0, 10), rec(2, 1, 0, 5), rec(3, 1, 5, 10)};
  CHECK(sweepbench::self_times(adjacent)[0] == 0);
  // A child whose parent was never recorded is simply a root.
  const std::vector<SpanRecord> orphan = {rec(2, 99, 0, 10)};
  CHECK(sweepbench::self_times(orphan)[0] == 10);

  const std::vector<SpanRecord> named = {
      rec(1, kNoSpan, 0, 100, "sweep"), rec(2, 1, 0, 40, "cell"),
      rec(3, 1, 50, 90, "cell"), rec(4, 2, 0, 30, "step")};
  const auto layers = sweepbench::layer_times(named);
  CHECK(layers.size() == 3);
  CHECK(layers[0].name == "sweep" && layers[0].self_ns == 20);
  CHECK(layers[1].name == "cell" && layers[1].spans == 2 &&
        layers[1].total_ns == 80 && layers[1].self_ns == 50);
  CHECK(layers[2].name == "step" && layers[2].self_ns == 30);
}

void test_chrome_trace() {
  const std::vector<SpanRecord> spans = {rec(1, kNoSpan, 1000, 5000, "sweep"),
                                         rec(2, 1, 2000, 3000, "cell")};
  const std::string path = "sweepbench_selftest_trace.json";
  sweepbench::write_chrome_trace(spans, path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const rbx::perf::Json doc = rbx::perf::Json::parse(text.str());
  const auto& events = doc.find("traceEvents")->items();
  CHECK(events.size() == 2);
  CHECK(events[0].string_at("ph") == "X");
  CHECK(events[0].number_at("ts") == 0.0);
  CHECK(events[0].number_at("dur") == 4.0);
  CHECK(events[1].number_at("ts") == 1.0);
  CHECK(events[1].find("args")->number_at("parent") == 1.0);
}

void test_digest() {
  rbx::ResultSet a("analytic", "x");
  a.set("m", 1.0);
  rbx::ResultSet b("analytic", "x");
  b.set("m", 2.0);
  CHECK(sweepbench::ResultDigest().hex() == "cbf29ce484222325");
  CHECK(sweepbench::digest_of({a, b}) == sweepbench::digest_of({a, b}));
  CHECK(sweepbench::digest_of({a, b}) != sweepbench::digest_of({b, a}));
  CHECK(sweepbench::digest_of({a}) != sweepbench::digest_of({a, a}));
  // One flipped mantissa bit, and a -0.0 against +0.0, both show.
  rbx::ResultSet c("analytic", "x");
  c.set("m", std::nextafter(1.0, 2.0));
  CHECK(sweepbench::digest_of({a}) != sweepbench::digest_of({c}));
  rbx::ResultSet pz("analytic", "x");
  pz.set("m", 0.0);
  rbx::ResultSet nz("analytic", "x");
  nz.set("m", -0.0);
  CHECK(sweepbench::digest_of({pz}) != sweepbench::digest_of({nz}));
  // FNV-1a of the single byte 'a' (a published test vector).
  sweepbench::ResultDigest v;
  const std::byte ch{'a'};
  v.add_bytes(&ch, 1);
  CHECK(v.hex() == "af63dc4c8601ec8c");
}

void test_workloads() {
  const auto fig5 = sweepbench::make_workload("fig5-streams", 7);
  CHECK(fig5.cells.size() == 24);
  CHECK(fig5.cells[0].seed() == 9 && fig5.cells[0].streams() == 4);
  CHECK(fig5.plan_fn(fig5.cells[4], 4).steps.size() == 2);   // n = 6
  CHECK(fig5.plan_fn(fig5.cells[5], 5).steps.size() == 1);   // n = 7
  const auto grid = sweepbench::make_workload("analytic-grid", 7);
  CHECK(grid.cells.size() == sweepbench::kAnalyticSeeds * 6 *
                                 sweepbench::kAnalyticRhoLevels * 3);
  const auto again = sweepbench::make_workload("analytic-grid", 7);
  CHECK(rbx::grid_fingerprint(grid.cells) ==
        rbx::grid_fingerprint(again.cells));
  const auto other = sweepbench::make_workload("analytic-grid", 8);
  CHECK(rbx::grid_fingerprint(grid.cells) !=
        rbx::grid_fingerprint(other.cells));
  bool threw = false;
  try {
    sweepbench::make_workload("nope", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_nesting();
  test_cross_thread_root();
  test_recorders_do_not_share_buffers();
  test_self_time();
  test_chrome_trace();
  test_digest();
  test_workloads();
  if (failures != 0) {
    std::fprintf(stderr, "sweepbench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("sweepbench_selftest: all checks passed\n");
  return 0;
}
