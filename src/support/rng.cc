#include "support/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.h"

namespace rbx {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// The sequential chain's verdict for a start u: has `u -= w[j]` gone
// negative by step i?  The same operations in the same order as the
// definition in rng.h, so the thresholds are found against the
// arithmetic they replace.
bool chain_negative(double u, const std::vector<double>& w, std::size_t i) {
  for (std::size_t j = 0; j <= i; ++j) {
    u -= w[j];
  }
  return u < 0.0;
}

// Non-negative doubles order like their bit patterns read as integers.
std::int64_t ordinal(double x) { return std::bit_cast<std::int64_t>(x); }
double from_ordinal(std::int64_t b) { return std::bit_cast<double>(b); }

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
  // All-zero state is the one invalid state; splitmix64 cannot produce four
  // consecutive zero outputs, but keep the guard for clarity.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x853c49e6748fea9bULL;
  }
}

std::uint64_t Xoshiro256StarStar::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256StarStar::long_jump() {
  static constexpr std::uint64_t kLongJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};

  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Rng::uniform() {
  return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  RBX_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  RBX_CHECK(n > 0);
  // Lemire-style rejection: accept when the 128-bit product's low half is
  // outside the biased region.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t x = engine_.next();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(n);
    const auto low = static_cast<std::uint64_t>(m);
    if (low >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

double Rng::exponential(double rate) {
  RBX_CHECK(rate > 0.0);
  // Inverse transform on (0, 1]; 1 - uniform() is in (0, 1] so log() is
  // finite.
  return -std::log1p(-uniform()) / rate;
}

bool Rng::bernoulli(double p) {
  RBX_DCHECK(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

CategoricalTable::CategoricalTable(const std::vector<double>& weights)
    : count_(weights.size()) {
  const std::size_t count = count_;
  RBX_CHECK(count > 0 && count < (std::size_t{1} << 31));
  for (std::size_t i = 0; i < count; ++i) {
    RBX_CHECK(weights[i] >= 0.0 && std::isfinite(weights[i]));
    total_ += weights[i];
  }
  RBX_CHECK(total_ > 0.0 && std::isfinite(total_));
  for (std::size_t i = count; i-- > 0;) {
    if (weights[i] > 0.0) {
      fallback_ = i;
      break;
    }
  }

  // T_i is the smallest u in [0, total] at which the chain is not yet
  // negative after step i.  Below T_{i-1} it is negative already (the
  // down-sets are nested), so T_i is bisected out of [T_{i-1}, total].
  thresholds_.assign(count + 1, std::numeric_limits<double>::infinity());
  std::int64_t floor = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (chain_negative(total_, weights, i)) {
      break;  // negative for every u: T_i and all later stay +inf
    }
    // Invariant: not negative at hi; negative at lo, which starts just
    // below T_{i-1} (or at the ordinal -1 when that floor is 0).
    std::int64_t lo = floor - 1;
    std::int64_t hi = ordinal(total_);
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (chain_negative(from_ordinal(mid), weights, i)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    thresholds_[i] = from_ordinal(hi);
    floor = hi;
  }

  // Guide table: four to eight buckets per category, so most buckets
  // hold no threshold and a draw ends after one comparison; capped at
  // 2^16 buckets, past which the scan only grows longer.
  int bits = 0;
  while ((std::size_t{1} << bits) < count) {
    ++bits;
  }
  bits = std::min(bits + 2, 16);
  guide_shift_ = 53 - bits;
  guide_.resize(std::size_t{1} << bits);
  std::size_t at = 0;
  for (std::size_t g = 0; g < guide_.size(); ++g) {
    const std::uint64_t r = static_cast<std::uint64_t>(g) << guide_shift_;
    const double u = static_cast<double>(r) * 0x1.0p-53 * total_;
    while (!(u < thresholds_[at])) {
      ++at;
    }
    guide_[g] = static_cast<std::uint32_t>(at);
  }
}

Rng Rng::split() {
  Rng child = *this;
  child.engine_.long_jump();
  // Advance the parent as well so successive split() calls differ.
  engine_.next();
  return child;
}

}  // namespace rbx
