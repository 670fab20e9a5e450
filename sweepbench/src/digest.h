// Order-sensitive digest of a sweep's results, over their exact wire
// encodings: two runs have equal digests only if every cell's ResultSet
// is the same bytes in the same position (bitwise, NaN payloads
// included).  The benchmark compares digests across the repetitions of a
// run, so every timed sweep is checked, not only the one the serial gate
// compares cell by cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/result.h"
#include "support/wire.h"

namespace sweepbench {

class ResultDigest {
 public:
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;  // FNV-1a

  void add_bytes(const std::byte* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= static_cast<std::uint64_t>(data[i]);
      hash_ *= 0x100000001b3ull;
    }
  }
  // The length prefix keeps the boundary between two results from
  // cancelling out (results "ab"+"c" and "a"+"bc" digest differently).
  void add(const rbx::ResultSet& result) {
    rbx::wire::Writer w;
    result.encode(w);
    rbx::wire::Writer len;
    len.u64(w.size());
    add_bytes(len.data().data(), len.size());
    add_bytes(w.data().data(), w.size());
  }

  std::string hex() const {
    static const char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(hash_ >> (4 * i)) & 0xf];
    }
    return out;
  }

 private:
  std::uint64_t hash_ = kBasis;
};

inline std::string digest_of(const std::vector<rbx::ResultSet>& results) {
  ResultDigest d;
  for (const rbx::ResultSet& r : results) {
    d.add(r);
  }
  return d.hex();
}

}  // namespace sweepbench
