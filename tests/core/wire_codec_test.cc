// Round-trip coverage for the Scenario and ResultSet wire codecs - the
// bit-exactness these guarantee is what lets a sweep shard across
// processes and hosts without changing a single printed digit.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/result.h"
#include "core/scenario.h"
#include "support/wire.h"

namespace rbx {
namespace {

Scenario full_knob_scenario(SchemeKind scheme) {
  SyncPolicy policy;
  policy.strategy = SyncStrategy::kSavedStates;
  policy.interval = 0.75;
  policy.elapsed_threshold = 1.25;
  policy.saved_threshold = 13;
  RuntimeWorkload workload;
  workload.steps = 777;
  workload.message_probability = 0.31;
  workload.rp_probability = 0.07;
  workload.alternate_failure_probability = 0.02;
  workload.rb_alternates = 3;
  workload.sync_period_steps = 41;
  return Scenario(ProcessSetParams::three(1.5, 1.0, 0.5, 1.0, 0.25, 2.0))
      .scheme(scheme)
      .seed(0xfeedfacecafebeefULL)
      .error_rate(0.125)
      .at_failure_probability(0.05)
      .t_record(0.0042)
      .sync_policy(policy)
      .scoped_prp(true)
      .prp_sync_period(2.5)
      .samples(12345)
      .streams(6)
      .workload(workload);
}

std::vector<std::byte> encode_scenario(const Scenario& s) {
  wire::Writer w;
  s.encode(w);
  return w.data();
}

TEST(ScenarioCodec, EveryKnobRoundTripsForEveryScheme) {
  for (SchemeKind scheme :
       {SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
        SchemeKind::kPseudoRecoveryPoints}) {
    const Scenario original = full_knob_scenario(scheme);
    const std::vector<std::byte> bytes = encode_scenario(original);
    wire::Reader r(bytes);
    const Scenario back = Scenario::decode(r);
    r.expect_done();

    EXPECT_EQ(back.scheme(), original.scheme());
    EXPECT_EQ(back.seed(), original.seed());
    EXPECT_EQ(back.n(), original.n());
    EXPECT_EQ(back.params().mu(), original.params().mu());
    EXPECT_EQ(back.params().lambda_flat(), original.params().lambda_flat());
    EXPECT_EQ(back.error_rate(), original.error_rate());
    EXPECT_EQ(back.at_failure_probability(),
              original.at_failure_probability());
    EXPECT_EQ(back.t_record(), original.t_record());
    EXPECT_EQ(back.sync_policy().strategy, original.sync_policy().strategy);
    EXPECT_EQ(back.sync_policy().interval, original.sync_policy().interval);
    EXPECT_EQ(back.sync_policy().elapsed_threshold,
              original.sync_policy().elapsed_threshold);
    EXPECT_EQ(back.sync_policy().saved_threshold,
              original.sync_policy().saved_threshold);
    EXPECT_EQ(back.scoped_prp(), original.scoped_prp());
    EXPECT_EQ(back.prp_sync_period(), original.prp_sync_period());
    EXPECT_EQ(back.samples(), original.samples());
    EXPECT_EQ(back.streams(), original.streams());
    EXPECT_EQ(back.workload().steps, original.workload().steps);
    EXPECT_EQ(back.workload().message_probability,
              original.workload().message_probability);
    EXPECT_EQ(back.workload().rp_probability,
              original.workload().rp_probability);
    EXPECT_EQ(back.workload().alternate_failure_probability,
              original.workload().alternate_failure_probability);
    EXPECT_EQ(back.workload().rb_alternates,
              original.workload().rb_alternates);
    EXPECT_EQ(back.workload().sync_period_steps,
              original.workload().sync_period_steps);
    // The label (used as the ResultSet scenario key) must survive too.
    EXPECT_EQ(back.label(), original.label());
  }
}

TEST(ScenarioCodec, TruncationThrowsAtEveryPrefixLength) {
  const std::vector<std::byte> bytes =
      encode_scenario(full_knob_scenario(SchemeKind::kAsynchronous));
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    wire::Reader r(bytes.data(), keep);
    EXPECT_THROW(Scenario::decode(r), wire::Error) << "prefix " << keep;
  }
}

TEST(ScenarioCodec, CorruptEnumAndRateFieldsRejected) {
  const Scenario original = full_knob_scenario(SchemeKind::kSynchronized);
  // Scheme tag is the first byte after the two rate vectors.
  {
    std::vector<std::byte> bytes = encode_scenario(original);
    const std::size_t scheme_pos = (4 + 3 * 8) + (4 + 9 * 8);
    bytes[scheme_pos] = static_cast<std::byte>(0x7f);
    wire::Reader r(bytes);
    EXPECT_THROW(Scenario::decode(r), wire::Error);
  }
  // A negative mu must throw (not abort through ProcessSetParams checks).
  {
    wire::Writer w;
    w.f64_vec({-1.0});
    w.f64_vec({0.0});
    wire::Reader r(w.data());
    EXPECT_THROW(Scenario::decode(r), wire::Error);
  }
  // Asymmetric lambda must throw.
  {
    wire::Writer w;
    w.f64_vec({1.0, 1.0});
    w.f64_vec({0.0, 0.5, 0.25, 0.0});
    wire::Reader r(w.data());
    EXPECT_THROW(Scenario::decode(r), wire::Error);
  }
  // A zero sample budget must throw.
  {
    Scenario ok = full_knob_scenario(SchemeKind::kAsynchronous);
    std::vector<std::byte> bytes = encode_scenario(ok);
    // samples is followed by the 6 workload fields and the stream count,
    // all 8 bytes wide, so its u64 starts 8 * 8 bytes from the end.
    const std::size_t samples_pos = bytes.size() - 8 * 8;
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[samples_pos + b] = static_cast<std::byte>(0);
    }
    wire::Reader r(bytes);
    EXPECT_THROW(Scenario::decode(r), wire::Error);
  }
  // A zero stream count must throw (the trailing u64).
  {
    Scenario ok = full_knob_scenario(SchemeKind::kAsynchronous);
    std::vector<std::byte> bytes = encode_scenario(ok);
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[bytes.size() - 8 + b] = static_cast<std::byte>(0);
    }
    wire::Reader r(bytes);
    EXPECT_THROW(Scenario::decode(r), wire::Error);
  }
}

TEST(ResultSetCodec, MetricsRoundTripBitExactIncludingNonFinite) {
  ResultSet original("monte-carlo", "async n=3 rho=1 seed=42");
  original.set("mean_interval_x", 2.598437219, 0.0123, 20000);
  original.set("nan_metric", std::numeric_limits<double>::quiet_NaN());
  original.set("inf_metric", std::numeric_limits<double>::infinity(), 0.5,
               7);
  original.set("neg_inf_metric", -std::numeric_limits<double>::infinity());
  original.set("denormal_metric", std::numeric_limits<double>::denorm_min());
  original.set("neg_zero_metric", -0.0);
  // The analytic backend's marker metric named in the sharding contract.
  original.set("async_full_chain", 1.0);

  wire::Writer w;
  original.encode(w);
  wire::Reader r(w.data());
  const ResultSet back = ResultSet::decode(r);
  r.expect_done();

  EXPECT_EQ(back.backend(), original.backend());
  EXPECT_EQ(back.scenario(), original.scenario());
  ASSERT_EQ(back.metrics().size(), original.metrics().size());
  for (std::size_t i = 0; i < original.metrics().size(); ++i) {
    const Metric& a = original.metrics()[i];
    const Metric& b = back.metrics()[i];
    EXPECT_EQ(a.name, b.name);
    // Bitwise comparison: NaN != NaN under operator==, so compare the
    // representation - that is the actual wire contract.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << a.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.half_width),
              std::bit_cast<std::uint64_t>(b.half_width));
    EXPECT_EQ(a.count, b.count);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.value("neg_zero_metric")),
            std::bit_cast<std::uint64_t>(-0.0));
}

TEST(ResultSetCodec, EmptyResultSetRoundTrips) {
  ResultSet original;
  wire::Writer w;
  original.encode(w);
  wire::Reader r(w.data());
  const ResultSet back = ResultSet::decode(r);
  EXPECT_TRUE(back == original);
}

TEST(ResultSetCodec, TruncatedAndCorruptFramesRejected) {
  ResultSet original("analytic", "s");
  original.set("x", 1.0);
  wire::Writer w;
  original.encode(w);
  const std::vector<std::byte>& bytes = w.data();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    wire::Reader r(bytes.data(), keep);
    EXPECT_THROW(ResultSet::decode(r), wire::Error) << "prefix " << keep;
  }
  // Corrupt metric count claiming more metrics than bytes remain.
  wire::Writer wc;
  wc.str("analytic");
  wc.str("s");
  wc.u32(1000000);
  wire::Reader rc(wc.data());
  EXPECT_THROW(ResultSet::decode(rc), wire::Error);
}

TEST(BatchCodec, CellAndResultBatchTruncationThrowsAtEveryPrefixLength) {
  CellBatch cell_batch;
  cell_batch.cells.push_back(BatchCell{
      7, Scenario::symmetric(3, 1.0, 0.5).samples(100).seed(42), true,
      EvalPlan{{EvalStep{"analytic", ""}, EvalStep{"monte-carlo", "mc_"}}}});
  wire::Writer cw;
  cell_batch.encode(cw);
  for (std::size_t keep = 0; keep < cw.data().size(); ++keep) {
    wire::Reader r(cw.data().data(), keep);
    EXPECT_THROW(CellBatch::decode(r), wire::Error) << "prefix " << keep;
  }

  ResultBatch result_batch;
  ResultSet res("monte-carlo", "cell");
  res.set("m", 9.75, 0.5, 200);
  CellOutcome ok_outcome;
  ok_outcome.result = res;
  CellOutcome err_outcome;
  err_outcome.error = "synthetic failure";
  result_batch.entries.push_back({7, ok_outcome});
  result_batch.entries.push_back({9, err_outcome});
  wire::Writer rw;
  result_batch.encode(rw);
  for (std::size_t keep = 0; keep < rw.data().size(); ++keep) {
    wire::Reader r(rw.data().data(), keep);
    EXPECT_THROW(ResultBatch::decode(r), wire::Error) << "prefix " << keep;
  }
}

TEST(FrameTruncation, IncompleteFramesAskForMoreBytesInsteadOfThrowing) {
  // A stream reader facing a frame cut at any byte boundary must report
  // "incomplete" (false) so the transport keeps reading - truncation is a
  // normal socket condition, unlike corrupt payloads.
  ResultSet res("analytic", "cell");
  res.set("x", 2.5);
  wire::Writer w;
  res.encode(w);
  const std::vector<std::byte> frame = wire::seal_frame(42, w.data());
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    wire::Frame out;
    std::size_t consumed = 0;
    EXPECT_FALSE(wire::parse_frame(frame.data(), keep, &out, &consumed))
        << "prefix " << keep;
  }
  wire::Frame out;
  std::size_t consumed = 0;
  ASSERT_TRUE(wire::parse_frame(frame.data(), frame.size(), &out, &consumed));
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, 42);
}

}  // namespace
}  // namespace rbx
