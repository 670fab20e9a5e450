#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/stats.h"

namespace rbx {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DeterministicAndSeedSensitive) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  Xoshiro256StarStar c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(Xoshiro, LongJumpChangesStream) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.uniform());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.uniform_index(7)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 7.0, 500.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(77);
  for (double rate : {0.25, 1.0, 4.0}) {
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) {
      stats.add(rng.exponential(rate));
    }
    EXPECT_NEAR(stats.mean(), 1.0 / rate, 3.0 * stats.ci_half_width() + 0.01);
    // Exponential: stddev == mean.
    EXPECT_NEAR(stats.stddev(), 1.0 / rate, 0.05 / rate);
  }
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.exponential(2.0), 0.0);
  }
}

TEST(Rng, ExponentialMemorylessProperty) {
  // P(X > s + t | X > s) == P(X > t): compare tail frequencies.
  Rng rng(101);
  const double rate = 1.3, s = 0.5, t = 0.7;
  int beyond_s = 0, beyond_st = 0, beyond_t = 0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.exponential(rate);
    if (x > s) {
      ++beyond_s;
      if (x > s + t) {
        ++beyond_st;
      }
    }
    if (x > t) {
      ++beyond_t;
    }
  }
  const double conditional =
      static_cast<double>(beyond_st) / static_cast<double>(beyond_s);
  const double unconditional =
      static_cast<double>(beyond_t) / static_cast<double>(trials);
  EXPECT_NEAR(conditional, unconditional, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateCases) {
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(31);
  const CategoricalTable w({1.0, 3.0, 0.0, 6.0});
  std::vector<int> counts(4, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.categorical(w)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(trials), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(trials), 0.6, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(55);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// The exponential race property underlies every simulator in this repo:
// min of Exp(a), Exp(b) is Exp(a+b) and the first to fire is i w.p.
// rate_i / total.
TEST(Rng, ExponentialRaceWinnerDistribution) {
  Rng rng(202);
  const double a = 2.0, b = 0.5;
  int a_wins = 0;
  const int trials = 200000;
  RunningStats min_stats;
  for (int i = 0; i < trials; ++i) {
    const double xa = rng.exponential(a);
    const double xb = rng.exponential(b);
    min_stats.add(std::min(xa, xb));
    if (xa < xb) {
      ++a_wins;
    }
  }
  EXPECT_NEAR(a_wins / static_cast<double>(trials), a / (a + b), 0.005);
  EXPECT_NEAR(min_stats.mean(), 1.0 / (a + b), 0.01);
}


// --- CategoricalTable against the sequential chain it replaced ----------

// The sequential inverse-transform draw that Rng::categorical used before
// the table, kept verbatim as the reference oracle: re-sum the weights,
// scale one uniform, and walk the `u -= w[i]` chain.
std::size_t reference_index(double u, const std::vector<double>& w) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    u -= w[i];
    if (u < 0.0) {
      return i;
    }
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = w.size(); i-- > 0;) {
    if (w[i] > 0.0) {
      return i;
    }
  }
  return w.size() - 1;
}

std::size_t reference_categorical(Rng& rng, const std::vector<double>& w) {
  double total = 0.0;
  for (double x : w) {
    total += x;
  }
  return reference_index(rng.uniform() * total, w);
}

bool chain_negative_by(double u, const std::vector<double>& w,
                       std::size_t i) {
  for (std::size_t j = 0; j <= i; ++j) {
    u -= w[j];
  }
  return u < 0.0;
}

// The weight vectors the simulators build (n RPs, then every pair; the
// PRP simulator appends its error source), plus edge cases: zero,
// subnormal and 1e-300..1e300 weights, a single weight, and seeded
// random vectors whose magnitudes span the whole finite range.
std::vector<std::vector<double>> weight_sets() {
  std::vector<std::vector<double>> sets;
  for (double rho : {0.5, 1.0, 2.0}) {
    for (std::size_t n = 2; n <= 9; ++n) {
      std::vector<double> w(n, 1.0);
      const double lambda = 2.0 * rho / (static_cast<double>(n) - 1.0);
      w.insert(w.end(), n * (n - 1) / 2, lambda);
      sets.push_back(w);
      w.push_back(0.05);
      sets.push_back(w);
    }
  }
  sets.push_back({1.5, 1.0, 0.5, 1.5, 1.0, 0.5});
  sets.push_back({1.0, 2.0, 0.5, 1.25, 0.7, 0.3, 1.9, 0.2, 0.45, 0.25});
  sets.push_back({1.0, 3.0, 0.0, 6.0});
  sets.push_back({0.0, 0.0, 2.5, 0.0, 0.0, 1e-3, 0.0});
  sets.push_back({0x1p-1074, 3e-320, 1.0, 2.2e-308, 0x1p-1074, 0.0});
  sets.push_back({0x1p-1074, 0x1p-1073, 5e-324, 1e-310});
  sets.push_back({1e-300, 1e300, 1e-300, 1.0, 1e300, 1e-10, 1e200, 0.0});
  sets.push_back({1e300, 1e-300});
  sets.push_back({0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.7});
  sets.push_back({0.7});
  sets.push_back({0x1p-1074});
  sets.push_back({0.0, 1e300});
  Rng rng(0xca7);
  for (int k = 0; k < 40; ++k) {
    std::vector<double> w(1 + rng.uniform_index(60));
    for (double& x : w) {
      const std::uint64_t kind = rng.uniform_index(8);
      if (kind == 0) {
        x = 0.0;
      } else if (kind == 1) {
        x = std::ldexp(rng.uniform(), -1070);  // subnormal
      } else {
        x = std::pow(10.0, rng.uniform(-300.0, 300.0));
      }
    }
    w.back() = rng.uniform(0.5, 2.0);  // keep the sum positive
    sets.push_back(w);
  }
  return sets;
}

TEST(CategoricalTable, ThresholdsAreTheChainsBoundaries) {
  for (const std::vector<double>& w : weight_sets()) {
    const CategoricalTable table(w);
    ASSERT_EQ(table.size(), w.size());
    double prev = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double t = table.threshold(i);
      ASSERT_GE(t, prev) << "thresholds must not decrease";
      prev = t;
      if (std::isinf(t)) {
        // Negative after step i for every start up to the total.
        EXPECT_TRUE(chain_negative_by(table.total(), w, i));
        continue;
      }
      ASSERT_LE(t, table.total());
      EXPECT_FALSE(chain_negative_by(t, w, i)) << "i=" << i;
      if (t > 0.0) {
        EXPECT_TRUE(chain_negative_by(std::nextafter(t, 0.0), w, i))
            << "i=" << i;
      }
    }
  }
}

TEST(CategoricalTable, DrawMatchesChainAtGuideEdgesAndThresholds) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const std::vector<double>& w : weight_sets()) {
    const CategoricalTable table(w);
    std::vector<std::uint64_t> probes = {0, 1, kTop - 1, kTop - 2};
    // Every bucket edge of any guide up to 2^10 buckets.
    for (int bits = 1; bits <= 10; ++bits) {
      const int shift = 53 - bits;
      for (std::uint64_t g = 1; g < (std::uint64_t{1} << bits); ++g) {
        probes.push_back((g << shift) - 1);
        probes.push_back(g << shift);
      }
    }
    // The engine words whose u lands next to each threshold.
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double t = table.threshold(i);
      if (!std::isfinite(t)) {
        continue;
      }
      const double at = std::floor(t / table.total() * 0x1.0p53);
      const auto r0 = static_cast<std::int64_t>(at);
      for (std::int64_t d = -3; d <= 3; ++d) {
        const std::int64_t r = r0 + d;
        if (r >= 0 && r < static_cast<std::int64_t>(kTop)) {
          probes.push_back(static_cast<std::uint64_t>(r));
        }
      }
    }
    for (std::uint64_t r : probes) {
      const double u = static_cast<double>(r) * 0x1.0p-53 * table.total();
      ASSERT_EQ(table.draw(r), reference_index(u, w)) << "r=" << r;
    }
  }
}

TEST(CategoricalTable, MillionSeededDrawsMatchTheChain) {
  const std::vector<std::vector<double>> sets = weight_sets();
  const std::size_t per_set = 1000000 / sets.size() + 1;
  std::size_t draws = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const CategoricalTable table(sets[s]);
    Rng fast(1000 + s);
    Rng reference(1000 + s);
    for (std::size_t k = 0; k < per_set; ++k) {
      ASSERT_EQ(fast.categorical(table),
                reference_categorical(reference, sets[s]))
          << "set " << s << " draw " << k;
      ++draws;
    }
    // Both consumed one engine word per draw.
    EXPECT_EQ(fast.next_u64(), reference.next_u64());
  }
  EXPECT_GE(draws, 1000000u);
}

TEST(CategoricalTable, DrawConsumesExactlyOneEngineWord) {
  const CategoricalTable table(std::vector<double>{0.5, 2.0, 0.0, 1.25});
  Rng drawn(77);
  Rng uniforms(77);
  for (int k = 0; k < 1000; ++k) {
    drawn.categorical(table);
    uniforms.uniform();
  }
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(drawn.next_u64(), uniforms.next_u64());
  }
}

TEST(CategoricalTable, TotalAndFallbackFollowTheChain) {
  const std::vector<double> w = {0.1, 0.2, 0.3, 0.0, 0.0};
  const CategoricalTable table(w);
  EXPECT_EQ(table.total(), (0.1 + 0.2) + 0.3);
  EXPECT_EQ(table.fallback(), 2u);
  // A single weight draws index 0 for every engine word.
  const CategoricalTable one(std::vector<double>{0x1p-1074});
  Rng rng(5);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(rng.categorical(one), 0u);
  }
}

}  // namespace
}  // namespace rbx
