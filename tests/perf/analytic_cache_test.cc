// The AnalyticBackend solution cache (core/analytic_backend.h) must be
// invisible in the output: a cache hit replays the solved metrics with
// the doubles bit-preserved, so cached and from-scratch evaluations are
// byte-identical on the wire - across schemes, across cells that share a
// parameter point, and across labels.
#include "core/analytic_backend.h"

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/monte_carlo_backend.h"
#include "core/result.h"
#include "core/scenario.h"
#include "support/wire.h"

namespace rbx {
namespace {

std::vector<std::byte> encoded(const ResultSet& r) {
  wire::Writer w;
  r.encode(w);
  return w.data();
}

std::vector<Scenario> scheme_scenarios() {
  return {
      // Async, full chain + exact lumped promotion.
      Scenario::symmetric(3, 1.5, 0.7),
      // Async, lumped-only (n past the symmetric full-chain cutoff).
      Scenario::symmetric(9, 1.0, 0.5),
      // Synchronized and PRP.
      Scenario::symmetric(5, 1.0, 0.0).scheme(SchemeKind::kSynchronized),
      Scenario::symmetric(4, 1.0, 0.5)
          .scheme(SchemeKind::kPseudoRecoveryPoints)
          .t_record(1e-3),
  };
}

TEST(AnalyticCacheTest, HitIsByteIdenticalToFromScratch) {
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  for (const Scenario& s : scheme_scenarios()) {
    const std::vector<std::byte> truth = encoded(uncached.evaluate(s));
    // First evaluation populates the cache (miss path)...
    EXPECT_EQ(encoded(cached.evaluate(s)), truth) << s.label();
    // ...the second replays it (hit path).  Bytes, not values: NaN
    // payloads, signed zeros and metric order all must survive.
    EXPECT_EQ(encoded(cached.evaluate(s)), truth) << s.label();
  }
  EXPECT_EQ(cached.cached_models(), scheme_scenarios().size());
  EXPECT_EQ(uncached.cached_models(), 0u);
}

TEST(AnalyticCacheTest, SeedAxisSharesOneEntryButKeepsLabels) {
  // A fig5-style sweep varies the seed; the analytic solution is the same
  // point, so the cache must collapse the axis to one solve while every
  // cell still gets its own label.
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  const Scenario base = Scenario::symmetric(4, 1.0, 0.5);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Scenario cell = Scenario(base).seed(seed).samples(100 * seed);
    const ResultSet fresh = uncached.evaluate(cell);
    const ResultSet hit = cached.evaluate(cell);
    EXPECT_EQ(encoded(hit), encoded(fresh)) << "seed=" << seed;
    EXPECT_EQ(hit.scenario(), cell.label());
  }
  EXPECT_EQ(cached.cached_models(), 1u);

  // Any knob the evaluators read is part of the key: a different rate
  // point is a second entry, not a stale hit.
  cached.evaluate(Scenario::symmetric(4, 2.0, 0.5));
  EXPECT_EQ(cached.cached_models(), 2u);
}

TEST(AnalyticCacheTest, ReplayUnderANewLabelEqualsFreshEvaluation) {
  // A hit adopts the stored metric list whole instead of re-inserting it
  // metric by metric; the result must still equal a from-scratch
  // evaluation of the *hitting* cell - its own label, the shared metrics.
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  const SchemeKind schemes[] = {SchemeKind::kAsynchronous,
                                SchemeKind::kSynchronized,
                                SchemeKind::kPseudoRecoveryPoints};
  std::size_t entries = 0;
  for (SchemeKind scheme : schemes) {
    for (std::size_t n = 2; n <= 7; ++n) {
      const Scenario base =
          Scenario::symmetric(n, 1.0, 0.5).scheme(scheme).seed(1);
      cached.evaluate(base);  // miss: populates the entry
      ++entries;
      const Scenario cell = Scenario(base).seed(1000 + n);
      ASSERT_NE(cell.label(), base.label());
      const ResultSet hit = cached.evaluate(cell);
      EXPECT_EQ(cached.cached_models(), entries) << cell.label();
      EXPECT_EQ(hit.scenario(), cell.label());
      EXPECT_TRUE(hit == uncached.evaluate(cell)) << cell.label();
      EXPECT_EQ(encoded(hit), encoded(uncached.evaluate(cell)))
          << cell.label();
    }
  }
}

TEST(AnalyticCacheTest, SchemeIsPartOfTheKey) {
  // Identical rates under different schemes produce different metrics;
  // the scheme byte in the key keeps them apart.
  const AnalyticBackend cached(true);
  const Scenario async_s = Scenario::symmetric(4, 1.0, 0.0);
  const Scenario sync_s =
      Scenario::symmetric(4, 1.0, 0.0).scheme(SchemeKind::kSynchronized);
  const ResultSet a = cached.evaluate(async_s);
  const ResultSet b = cached.evaluate(sync_s);
  EXPECT_EQ(cached.cached_models(), 2u);
  EXPECT_NE(encoded(a), encoded(b));
}

TEST(AnalyticCacheTest, MutatingAHitLeavesTheEntryAndSiblingsAlone) {
  // Hits share the cache's frozen list.  A copy that is then set() or
  // merge()d must clone it first, so neither the entry nor the other hits
  // ever see the change.
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  const Scenario s = Scenario::symmetric(4, 1.0, 0.5);
  const std::vector<std::byte> truth = encoded(uncached.evaluate(s));
  const ResultSet miss = cached.evaluate(s);
  const ResultSet sibling = cached.evaluate(s);
  ResultSet hit = cached.evaluate(s);
  ASSERT_EQ(&hit.metrics(), &sibling.metrics());  // one shared list
  ASSERT_EQ(&hit.metrics(), &miss.metrics());

  ResultSet copy = hit;
  copy.set("mean_interval_x", -1.0);
  copy.set("extra", 2.0);
  ResultSet merged = hit;
  merged.merge(uncached.evaluate(Scenario::symmetric(3, 1.0, 0.5)), "o_");
  merged.merge(merged, "self_");
  hit.set("rp_count_1", 42.0);

  EXPECT_EQ(copy.value("mean_interval_x"), -1.0);
  EXPECT_EQ(copy.value("extra"), 2.0);
  EXPECT_TRUE(merged.has("o_mean_interval_x"));
  EXPECT_TRUE(merged.has("self_o_mean_interval_x"));
  EXPECT_EQ(hit.value("rp_count_1"), 42.0);
  EXPECT_EQ(encoded(miss), truth);
  EXPECT_EQ(encoded(sibling), truth);
  EXPECT_EQ(encoded(cached.evaluate(s)), truth);
  EXPECT_EQ(cached.cached_models(), 1u);

  // Copying a private (mutated) list still deep-copies it.
  ResultSet second = copy;
  second.set("extra", 3.0);
  EXPECT_EQ(copy.value("extra"), 2.0);
  EXPECT_NE(&second.metrics(), &copy.metrics());
}

TEST(AnalyticCacheTest, Fig5PlanEqualsACachelessEvaluation) {
  // fig5's plan: the analytic chain, then a Monte-Carlo cross-check merged
  // under "mc_".  Through the (caching) registry it must be bitwise what
  // a cache-less analytic backend and the same merge give, on the miss
  // and on every later hit.
  const AnalyticBackend uncached(false);
  const EvalPlan plan{
      {EvalStep{"analytic", ""}, EvalStep{"monte-carlo", "mc_"}}};
  for (std::size_t n = 2; n <= 4; ++n) {
    for (double rho : {0.5, 2.0}) {
      const double lambda = 2.0 * rho / (static_cast<double>(n) - 1.0);
      const Scenario s =
          Scenario::symmetric(n, 1.0, lambda).seed(10 + n).samples(200);
      ResultSet want = uncached.evaluate(s);
      want.merge(monte_carlo_backend().evaluate(s), "mc_");
      for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(encoded(evaluate_plan(plan, s)), encoded(want))
            << s.label() << " round " << round;
      }
    }
  }
}

// Distinct cheap models: a synchronized pair whose first rate walks a
// fine grid.  Enough of them overflow every shard at least once.
Scenario sync_pair(std::size_t i) {
  return Scenario::from_mu({1.0 + 1e-3 * static_cast<double>(i), 1.0})
      .scheme(SchemeKind::kSynchronized);
}

constexpr std::size_t kOverflowModels =
    AnalyticBackend::kMaxCachedModels + AnalyticBackend::kMaxCachedModels / 4;

TEST(AnalyticCacheTest, ShardResetWhileHitsAreAliveIsSafe) {
  // Each shard clears itself at kMaxCachedModels / kCacheShards entries.
  // Results handed out before a reset keep their lists alive and intact.
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  std::vector<ResultSet> live;
  live.reserve(2 * kOverflowModels);
  for (std::size_t i = 0; i < kOverflowModels; ++i) {
    live.push_back(cached.evaluate(sync_pair(i)));  // miss
    live.push_back(cached.evaluate(sync_pair(i)));  // hit
    ASSERT_LE(cached.cached_models(), AnalyticBackend::kMaxCachedModels);
  }
  // More entries went in than one pass could hold, so shards did reset.
  EXPECT_LT(cached.cached_models(), kOverflowModels);
  for (std::size_t i = 0; i < kOverflowModels; ++i) {
    const std::vector<std::byte> truth =
        encoded(uncached.evaluate(sync_pair(i)));
    ASSERT_EQ(encoded(live[2 * i]), truth) << i;
    ASSERT_EQ(encoded(live[2 * i + 1]), truth) << i;
  }
}

TEST(AnalyticCacheTest, ConcurrentHitsMutationsAndResetsAgree) {
  // A few threads share one cache: they hit, copy and mutate hits, and
  // overflow the shards so entries are dropped while other threads still
  // hold them.  Run under the sanitizer jobs; every result must still be
  // bitwise the cache-less evaluation.
  const AnalyticBackend uncached(false);
  const AnalyticBackend cached(true);
  std::vector<std::vector<std::byte>> truth;
  truth.reserve(kOverflowModels);
  for (std::size_t i = 0; i < kOverflowModels; ++i) {
    truth.push_back(encoded(uncached.evaluate(sync_pair(i))));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ResultSet held;  // outlives the shard resets of later iterations
      std::size_t held_index = 0;
      for (std::size_t k = 0; k < kOverflowModels; ++k) {
        // Each thread walks the models from its own offset, twice per
        // model, so threads hit entries other threads stored.
        const std::size_t i = (k + t * kOverflowModels / kThreads) %
                              kOverflowModels;
        const ResultSet first = cached.evaluate(sync_pair(i));
        ResultSet second = cached.evaluate(sync_pair(i));
        if (k % 7 == 0) {
          held = first;
          held_index = i;
        }
        second.set("sync_mean_loss", -1.0);
        second.merge(first, "again_");
        if (encoded(first) != truth[i] ||
            second.value("again_sync_mean_loss") !=
                first.value("sync_mean_loss")) {
          ++mismatches[t];
        }
      }
      if (encoded(held) != truth[held_index]) {
        ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_LE(cached.cached_models(), AnalyticBackend::kMaxCachedModels);
}

}  // namespace
}  // namespace rbx
