// The AnalyticBackend solution cache (core/analytic_backend.h) must be
// invisible in the output: a cache hit replays the solved metrics with
// the doubles bit-preserved, so cached and from-scratch evaluations are
// byte-identical on the wire - across schemes, across cells that share a
// parameter point, and across labels.
#include "core/analytic_backend.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rbx
