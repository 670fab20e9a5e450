#include "perf/bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "support/check.h"

namespace rbx {
namespace perf {

namespace {

// The optimizer must believe every kernel's result is needed.
volatile double g_sink = 0.0;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One timed interval on one closure; returns wall nanoseconds.
std::uint64_t time_interval(const std::function<double()>& fn,
                            std::uint64_t reps) {
  double acc = 0.0;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < reps; ++i) {
    acc += fn();
  }
  const std::uint64_t t1 = now_ns();
  g_sink = g_sink + acc;
  return t1 - t0;
}

// Percentile by nearest-rank interpolation over a sorted sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t calibrate(const std::function<double()>& fn,
                        double interval_ms) {
  const double target_ns = interval_ms * 1e6;
  std::uint64_t reps = 1;
  for (;;) {
    const std::uint64_t elapsed = time_interval(fn, reps);
    if (static_cast<double>(elapsed) >= target_ns) {
      return reps;
    }
    // Close enough to scale directly to the target (growing further first
    // would only make calibration itself cost several intervals).
    if (static_cast<double>(elapsed) >= target_ns / 8.0) {
      const double per_op =
          static_cast<double>(elapsed) / static_cast<double>(reps);
      const double want = target_ns / std::max(per_op, 1e-3);
      return std::max<std::uint64_t>(reps, static_cast<std::uint64_t>(want));
    }
    if (reps >= (std::uint64_t{1} << 40)) {
      return reps;  // fn is immeasurably fast; cap the loop
    }
    reps *= 2;
  }
}

// One multi-thread interval: all threads spin on a start flag, run `reps`
// each, and the sample is release-to-last-finisher wall time.
std::uint64_t time_interval_threads(
    std::vector<std::function<double()>>& fns, std::uint64_t reps) {
  const std::size_t threads = fns.size();
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::vector<double> accs(threads, 0.0);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      double acc = 0.0;
      for (std::uint64_t i = 0; i < reps; ++i) {
        acc += fns[t]();
      }
      accs[t] = acc;
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
  }
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) {
    th.join();
  }
  const std::uint64_t t1 = now_ns();
  for (double a : accs) {
    g_sink = g_sink + a;
  }
  return t1 - t0;
}

}  // namespace

void KernelRegistry::add(Kernel kernel) {
  RBX_CHECK_MSG(find(kernel.name) == nullptr,
                "duplicate kernel name registered");
  kernels_.push_back(std::move(kernel));
}

const Kernel* KernelRegistry::find(const std::string& name) const {
  for (const Kernel& k : kernels_) {
    if (k.name == name) {
      return &k;
    }
  }
  return nullptr;
}

KernelStats run_kernel(const Kernel& kernel, const BenchOptions& options) {
  RBX_CHECK(options.threads >= 1);
  RBX_CHECK(options.intervals >= 1);

  // A kernel with a pinned thread count runs at it no matter what the
  // harness-wide --threads says (contention kernels are meaningless at
  // any other width).
  BenchOptions effective = options;
  if (kernel.threads != 0) {
    effective.threads = kernel.threads;
  }
  const BenchOptions& opts = effective;

  std::vector<std::function<double()>> fns;
  fns.reserve(opts.threads);
  for (std::size_t t = 0; t < opts.threads; ++t) {
    fns.push_back(kernel.make());
  }

  std::uint64_t reps = opts.reps;
  if (reps == 0) {
    reps = calibrate(fns[0], opts.interval_ms);
  }

  auto run_interval = [&]() -> std::uint64_t {
    if (opts.threads == 1) {
      return time_interval(fns[0], reps);
    }
    return time_interval_threads(fns, reps);
  };

  for (std::size_t i = 0; i < opts.warmup_intervals; ++i) {
    run_interval();
  }

  std::vector<double> samples;
  samples.reserve(opts.intervals);
  for (std::size_t i = 0; i < opts.intervals; ++i) {
    const std::uint64_t wall = run_interval();
    samples.push_back(static_cast<double>(wall) /
                      static_cast<double>(reps * kernel.ops_per_call));
  }
  std::sort(samples.begin(), samples.end());

  KernelStats stats;
  stats.name = kernel.name;
  stats.layer = kernel.layer;
  stats.ns_median = percentile(samples, 0.5);
  stats.ns_p10 = percentile(samples, 0.1);
  stats.ns_p90 = percentile(samples, 0.9);
  stats.reps = reps;
  stats.intervals = opts.intervals;
  stats.threads = opts.threads;
  return stats;
}

}  // namespace perf
}  // namespace rbx
