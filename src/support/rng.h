// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library take explicit 64-bit seeds so that
// every experiment in the paper reproduction is replayable bit-for-bit.  The
// core generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64; both are tiny, fast and of far higher quality than
// std::minstd_rand while avoiding the platform-dependent behaviour of
// std::default_random_engine.  Distribution sampling is implemented here by
// inverse transform, again to be bit-reproducible across standard libraries
// (std::exponential_distribution is not guaranteed to produce identical
// streams on different implementations).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rbx {

// splitmix64: used to expand a single 64-bit seed into generator state.
// Passes through every 64-bit value exactly once over its period.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Counter-based split of a cell seed into per-stream seeds: stream k of a
// Monte-Carlo cell simulates with derive_stream_seed(cell_seed, k).  The
// stream index is folded in through an odd multiplier before a full
// splitmix64 round, so streams of one cell - and equal stream indices of
// different cells - land in unrelated regions of the seed space.  A pure
// function of (cell_seed, stream): no shared RNG state, which is what
// keeps a streamed evaluation independent of how many threads ran it.
inline std::uint64_t derive_stream_seed(std::uint64_t cell_seed,
                                        std::uint64_t stream) {
  return SplitMix64(cell_seed ^
                    (0xa0761d6478bd642fULL * (stream + 1)))
      .next();
}

// xoshiro256**: general-purpose 64-bit generator, period 2^256 - 1.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed);

  std::uint64_t next();

  // UniformRandomBitGenerator interface so the engine can also feed
  // std::shuffle and friends.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  // Advances the stream by 2^128 steps; used to derive independent
  // per-process streams from one master seed.
  void long_jump();

 private:
  std::array<std::uint64_t, 4> s_;
};

// A categorical distribution over non-negative weights, prepared
// once for Rng::categorical.  A draw returns exactly the index of the
// sequential inverse transform
//
//   u = uniform() * total;            // total = w[0] + w[1] + ... in order
//   for i: { u -= w[i]; if (u < 0) return i; }
//   return the last i with w[i] > 0;  // floating-point slack
//
// bit for bit, for every value of the engine word, but without re-summing
// the weights or walking the subtraction chain on every draw.
//
// Why a table can be exact.  Write v_i(u) for the chain's value after
// step i when it starts from u.  IEEE subtraction rounds monotonically,
// so x -> fl(x - w) never decreases as x grows, and v_i is a
// non-decreasing function of u.  Hence the set of starting points for
// which v_i(u) < 0 is a down-set of the doubles: {u < T_i} for one
// double T_i.  And fl(x - w) <= x when w >= 0, so once the chain is
// negative it stays negative; the down-sets are nested, T_0 <= T_1 <= ...,
// and "the chain first went negative at step i" is exactly
// "T_{i-1} <= u < T_i".  The chain's answer for u is therefore the
// first i with u < T_i, or the fallback when there is none.
//
// What is stored.
//   * total: summed in index order, as the chain sums it;
//   * T_i: found exactly, by bisecting over the bit patterns of the
//     doubles in [T_{i-1}, total] with the chain itself as the
//     predicate; +inf when even u = total leaves the chain negative at
//     step i.  The naive prefix sum w[0] + ... + w[i] is not T_i in
//     general: it can sit several ulps away;
//   * the fallback index, the last positive weight;
//   * a guide table (Chen & Asau) indexed by the top bits of the 53-bit
//     uniform: entry g holds the answer for the smallest u of its
//     bucket.  u = uniform() * total is monotone in the engine bits, so
//     the answer for any u of the bucket is at least that entry, and the
//     scan from it - one comparison for most draws - ends at the same
//     index a scan from 0 would.
//
// Weights must be finite and non-negative with a positive finite sum
// (RBX_CHECKed).  tests/support/rng_test.cc keeps the sequential chain
// as a reference oracle and compares the two at every threshold, at
// every guide bucket edge and over a million seeded draws.
//
// The guide is what makes the table pay.  Measured on sweepbench's
// fig5-streams workload (4 vCPUs), a scan from index 0 instead used 40%
// more CPU and std::upper_bound over the thresholds 62% more - the
// exit branch mispredicts - leaving little or none of the gain over
// the chain.
class CategoricalTable {
 public:
  CategoricalTable() = default;  // empty: assign a built table before use
  explicit CategoricalTable(const std::vector<double>& weights);

  std::size_t size() const { return count_; }
  // The sum of the weights in index order: the scale of every draw.
  double total() const { return total_; }
  // T_i: the chain started at u has gone negative by step i iff u < T_i.
  double threshold(std::size_t i) const { return thresholds_[i]; }
  std::size_t fallback() const { return fallback_; }

  // The index drawn for the 53-bit uniform r (uniform() == r * 2^-53):
  // the first i with u < T_i, scanning from r's guide entry.
  std::size_t draw(std::uint64_t r) const {
    const double u = static_cast<double>(r) * 0x1.0p-53 * total_;
    std::size_t i = guide_[r >> guide_shift_];
    // thresholds_[count_] is +inf, so the scan always stops.
    while (!(u < thresholds_[i])) {
      ++i;
    }
    return i < count_ ? i : fallback_;
  }

 private:
  std::size_t count_ = 0;
  double total_ = 0.0;
  std::size_t fallback_ = 0;
  std::vector<double> thresholds_;  // T_0 .. T_{count-1}, then +inf
  std::vector<std::uint32_t> guide_;
  int guide_shift_ = 53;
};

// Convenience façade bundling the engine with the distribution samplers the
// library needs.  Copyable; copies continue independent deterministic
// streams only if the caller re-seeds, so prefer passing by reference.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9b174a7c15ULL) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_.next(); }

  // Uniform double in [0, 1).  53-bit mantissa construction.
  double uniform();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n).  n must be positive.  Uses rejection to avoid
  // modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  // Exponential with given rate (mean 1/rate).  rate must be positive.
  double exponential(double rate);

  // Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  // Samples an index in [0, table.size()) proportionally to the table's
  // weights.  Consumes one engine word, exactly like uniform(), and
  // returns what the sequential chain over the weights would (see
  // CategoricalTable).
  std::size_t categorical(const CategoricalTable& table) {
    return table.draw(engine_.next() >> 11);
  }

  // Derives an independent generator for a sub-component (e.g. a per-process
  // stream) without disturbing this stream's reproducibility contract.
  Rng split();

  Xoshiro256StarStar& engine() { return engine_; }

 private:
  Xoshiro256StarStar engine_;
};

}  // namespace rbx
