#include "core/sweep.h"

#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace rbx {

std::uint64_t derive_cell_seed(std::uint64_t master_seed,
                               std::uint64_t cell_index) {
  // The i-th splitmix64 output for seed s is mix(s + (i + 1) * golden);
  // seeding a fresh SplitMix64 at s + i * golden and drawing once computes
  // it in O(1) without materializing the stream.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  SplitMix64 stream(master_seed + cell_index * kGolden);
  return stream.next();
}

SweepGrid::SweepGrid(Scenario base) : base_(std::move(base)) {}

SweepGrid& SweepGrid::axis(std::vector<double> values, Apply apply) {
  RBX_CHECK_MSG(!values.empty(), "sweep axis needs at least one value");
  RBX_CHECK_MSG(apply != nullptr, "sweep axis needs an apply function");
  axes_.push_back(Axis{std::move(values), std::move(apply)});
  return *this;
}

SweepGrid& SweepGrid::schemes(std::vector<SchemeKind> schemes) {
  RBX_CHECK_MSG(!schemes.empty(), "scheme axis needs at least one scheme");
  schemes_ = std::move(schemes);
  return *this;
}

std::size_t SweepGrid::cells() const {
  std::size_t total = schemes_.empty() ? 1 : schemes_.size();
  for (const Axis& axis : axes_) {
    total *= axis.values.size();
  }
  return total;
}

std::vector<Scenario> SweepGrid::expand(std::uint64_t master_seed) const {
  std::vector<Scenario> out;
  out.reserve(cells());
  // Row-major: odometer over axis value indices, schemes innermost.
  std::vector<std::size_t> idx(axes_.size(), 0);
  const std::size_t scheme_count = schemes_.empty() ? 1 : schemes_.size();
  bool done = false;
  while (!done) {
    for (std::size_t sk = 0; sk < scheme_count; ++sk) {
      Scenario cell = base_;
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        axes_[a].apply(cell, axes_[a].values[idx[a]]);
      }
      if (!schemes_.empty()) {
        cell.scheme(schemes_[sk]);
      }
      cell.seed(derive_cell_seed(master_seed, out.size()));
      out.push_back(std::move(cell));
    }
    done = true;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++idx[a] < axes_[a].values.size()) {
        done = false;
        break;
      }
      idx[a] = 0;
    }
    if (axes_.empty()) {
      break;
    }
  }
  return out;
}

}  // namespace rbx
