// Pinned output bits of the three simulators.
//
// Each case runs a simulator on a fixed seed and folds every retained
// sample and every accumulator of its result, as IEEE-754 bit patterns,
// into an FNV-1a digest.  The expected digests were recorded from the
// sequential `u -= w[i]` categorical draw that the table-driven
// Rng::categorical(const CategoricalTable&) replaced, so any change to an
// event draw, to the event loops or to the accumulators shows up here as
// a digest mismatch, not as a statistical drift a tolerance could hide.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "des/async_sim.h"
#include "des/prp_sim.h"
#include "des/sync_sim.h"
#include "support/rng.h"
#include "support/stats.h"

namespace rbx {
namespace {

class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void stats(const RunningStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    if (s.count() > 0) {
      f64(s.min());
      f64(s.max());
    }
  }
  // Every sample in insertion order (read before any quantile() sorts
  // them), then the moment accumulators.
  void samples(const SampleSet& s) {
    u64(s.count());
    for (double x : s.samples()) {
      f64(x);
    }
    f64(s.mean());
    f64(s.variance());
    if (s.count() > 0) {
      f64(s.min());
      f64(s.max());
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const AsyncSimResult& r) {
  Digest d;
  d.samples(r.interval);
  for (std::size_t i = 0; i < r.rp_incl_final.size(); ++i) {
    d.stats(r.rp_incl_final[i]);
    d.stats(r.rp_excl_final[i]);
    d.stats(r.rp_state_changing[i]);
  }
  d.samples(r.line_age);
  return d.value();
}

std::uint64_t digest(const ExactLineResult& r) {
  Digest d;
  d.samples(r.any_advance);
  d.samples(r.full_refresh);
  d.samples(r.model_interval);
  return d.value();
}

std::uint64_t digest(const PrpSimResult& r) {
  Digest d;
  d.samples(r.prp_distance);
  d.samples(r.prp_affected);
  d.samples(r.prp_iterations);
  d.samples(r.async_distance);
  d.samples(r.async_affected);
  d.u64(r.async_domino_count);
  d.u64(r.failures);
  d.u64(r.contaminated_restarts);
  d.f64(r.snapshots_per_unit_time);
  d.f64(r.rp_per_unit_time);
  d.f64(r.recording_time_fraction);
  d.f64(r.horizon);
  d.samples(r.hybrid_distance);
  d.u64(r.hybrid_sync_restores);
  d.u64(r.sync_lines_established);
  return d.value();
}

std::uint64_t digest(const SyncSimResult& r) {
  Digest d;
  d.samples(r.max_wait);
  d.samples(r.loss);
  d.samples(r.line_spacing);
  d.samples(r.states_per_line);
  d.samples(r.rollback_distance);
  d.f64(r.loss_rate);
  d.f64(r.total_loss);
  d.f64(r.total_time);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// A Figure 5 cell's Monte-Carlo step as the backend runs it under
// streams(4): stream k simulates its share of the budget on a fresh
// simulator seeded derive_stream_seed(seed, k), and the partial results
// merge in ascending k.  The budget is a tenth of fig5's default (2000
// lines, a quarter of that for n >= 5) and only 8 lines for the n >= 7
// cells, whose lines take thousands of events each, so the whole grid
// stays cheap.
AsyncSimResult fig5_cell(std::size_t n, double rho) {
  const double lambda = 2.0 * rho / (static_cast<double>(n) - 1.0);
  const ProcessSetParams params = ProcessSetParams::symmetric(n, 1.0, lambda);
  const std::uint64_t seed = 2026 + n;
  const std::size_t samples = n >= 7 ? 8 : n >= 5 ? 500 : 2000;
  const std::size_t streams = 4;
  AsyncSimResult merged;
  for (std::size_t k = 0; k < streams; ++k) {
    AsyncRbSimulator sim(params, derive_stream_seed(seed, k));
    const std::size_t chunk =
        samples / streams + (k < samples % streams ? 1 : 0);
    AsyncSimResult part = sim.run_lines(chunk);
    if (k == 0) {
      merged = std::move(part);
    } else {
      merged.merge(part);
    }
  }
  return merged;
}

// Four processes with distinct rates and one silent pair (lambda_13 = 0),
// so the event table skips a pair and no two weights coincide.
ProcessSetParams asymmetric4() {
  const std::vector<double> mu = {1.0, 2.0, 0.5, 1.25};
  // clang-format off
  const std::vector<double> lambda = {
      0.0, 0.7, 0.3, 0.0,
      0.7, 0.0, 1.9, 0.2,
      0.3, 1.9, 0.0, 0.45,
      0.0, 0.2, 0.45, 0.0};
  // clang-format on
  return ProcessSetParams(mu, lambda);
}

TEST(PinnedDigest, Fig5CellsUnderFourStreams) {
  struct Cell {
    double rho;
    std::size_t n;
    std::uint64_t expected;
  };
  const Cell cells[] = {
      {0.5, 2, 0xb36e9fe74669bf99ull},
      {0.5, 3, 0x00fc5bdebb156a30ull},
      {0.5, 4, 0x231d7d96bb5dcac2ull},
      {0.5, 5, 0x1e53e609b51f3606ull},
      {0.5, 6, 0x2241beac5b90e1faull},
      {0.5, 7, 0xd23ab522ef592c7aull},
      {0.5, 8, 0x0e1f67cf13e9212full},
      {0.5, 9, 0xf09d8d62df165fe6ull},
      {1.0, 2, 0x8efca4e447b6f92bull},
      {1.0, 3, 0xa8919b1462608930ull},
      {1.0, 4, 0x0a6b324aa54c2ca6ull},
      {1.0, 5, 0xb41b759b08f0742full},
      {1.0, 6, 0xdb4ede8e9b7cf61cull},
      {1.0, 7, 0x23744f0f3f420058ull},
      {1.0, 8, 0x3fd0fb572a22c9f4ull},
      {1.0, 9, 0xdcba76fb2e70ccd1ull},
      {2.0, 2, 0xe65afa41396f42aaull},
      {2.0, 3, 0x626e8eb820316e31ull},
      {2.0, 4, 0x31176d8c08683a5aull},
      {2.0, 5, 0x2e1529a6c438d819ull},
      {2.0, 6, 0xd40c1aad9d127a80ull},
      {2.0, 7, 0xeca5ae19663a3162ull},
      {2.0, 8, 0x84c916045ae3754cull},
      {2.0, 9, 0xcc0803aa967fc9d4ull},
  };
  for (const Cell& c : cells) {
    EXPECT_EQ(hex(digest(fig5_cell(c.n, c.rho))), hex(c.expected))
        << "rho=" << c.rho << " n=" << c.n;
  }
}

TEST(PinnedDigest, AsyncRunLinesAsymmetric) {
  AsyncRbSimulator three(
      ProcessSetParams::three(1.5, 1.0, 0.5, 1.5, 0.5, 1.0), 7);
  EXPECT_EQ(hex(digest(three.run_lines(4000))),
            hex(0xa5100a5a5e588464ull));
  AsyncRbSimulator four(asymmetric4(), 11);
  EXPECT_EQ(hex(digest(four.run_lines(3000))),
            hex(0x7b2008c754c57288ull));
}

TEST(PinnedDigest, AsyncRunLinesWithErrorArrivals) {
  AsyncRbSimulator sim(ProcessSetParams::symmetric(4, 1.0, 0.5), 0x5eed);
  const AsyncSimResult r = sim.run_lines(3000, 0.25);
  ASSERT_GT(r.line_age.count(), 0u);
  EXPECT_EQ(hex(digest(r)), hex(0x3c979a329fafa69eull));
  // A second run continues the same generator.
  EXPECT_EQ(hex(digest(sim.run_lines(500, 2.0))),
            hex(0xfb17b1084f055416ull));
}

TEST(PinnedDigest, AsyncRunExact) {
  AsyncRbSimulator sym(ProcessSetParams::symmetric(4, 1.0, 1.0), 31);
  EXPECT_EQ(hex(digest(sym.run_exact(20000))),
            hex(0xf769b961504ff9c8ull));
  AsyncRbSimulator asym(asymmetric4(), 37);
  EXPECT_EQ(hex(digest(asym.run_exact(20000))),
            hex(0x65558fddd9f236abull));
}

TEST(PinnedDigest, PrpRun) {
  PrpSimParams plain;
  plain.t_record = 1e-4;
  plain.error_rate = 0.2;
  PrpSimulator table1(ProcessSetParams::three(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                      plain, 3);
  EXPECT_EQ(hex(digest(table1.run(1500))),
            hex(0x4f4af527cba148e2ull));

  PrpSimParams hybrid;
  hybrid.t_record = 1e-3;
  hybrid.error_rate = 0.25;
  hybrid.sync_period = 2.0;
  hybrid.affects_everyone = false;
  PrpSimulator asym(asymmetric4(), hybrid, 5);
  EXPECT_EQ(hex(digest(asym.run(1000))),
            hex(0xd09d15ceaf5471f3ull));
}

TEST(PinnedDigest, SyncRun) {
  const SyncStrategy strategies[] = {SyncStrategy::kConstantInterval,
                                     SyncStrategy::kElapsedTime,
                                     SyncStrategy::kSavedStates};
  const std::uint64_t expected[] = {0x3cda681a466f0fffull,
                                    0x6e921cbbf14b3ad2ull,
                                    0x2fed850cd1c1faa9ull};
  for (std::size_t s = 0; s < 3; ++s) {
    SyncSimParams params;
    params.mu = {1.0, 1.2, 0.8, 1.1};
    params.strategy = strategies[s];
    params.interval = 1.5;
    params.elapsed_threshold = 1.0;
    params.saved_threshold = 6;
    params.error_rate = 0.5;
    SyncRbSimulator sim(params, 41 + s);
    EXPECT_EQ(hex(digest(sim.run(3000))), hex(expected[s]))
        << "strategy " << s;
  }
}

}  // namespace
}  // namespace rbx
