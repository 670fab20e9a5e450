// Parameter-grid expansion with deterministic per-cell seeds.
//
// Every bench in this repository is a sweep: vary (n, rho, failure rate,
// scheme, ...) over a grid, evaluate each cell, print a table.  SweepGrid
// expands a base Scenario and a list of axes into the cartesian product of
// cells, each seeded by derive_cell_seed - a splitmix64 output that is a
// pure function of (master seed, cell index), so cells get decorrelated
// streams and cell i's seed never depends on how many cells or threads
// there are.  Cells are evaluated independently (the backends are
// stateless) by DispatchCore (core/dispatch.h), which returns results in
// input order; so a grid's results are bitwise reproducible on 1 thread
// or 64, on forked workers, remote daemons, any lane mix or a ShardSpec
// split - what lets benches parallelize without changing their printed
// reference values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/scenario.h"

namespace rbx {

// i-th output of the splitmix64 stream seeded with `master_seed`; used as
// the RNG seed of cell i.  Pure function of (master_seed, cell_index).
std::uint64_t derive_cell_seed(std::uint64_t master_seed,
                               std::uint64_t cell_index);

// Cartesian-product expansion of a base Scenario.
//
//   auto cells = SweepGrid(base)
//                    .axis({0.5, 1.0, 2.0}, apply_rho)
//                    .schemes({SchemeKind::kAsynchronous,
//                              SchemeKind::kSynchronized})
//                    .expand(master_seed);
//
// Axes vary row-major (the first axis slowest, the scheme axis fastest);
// each cell's seed is derive_cell_seed(master_seed, cell_index).
class SweepGrid {
 public:
  using Apply = std::function<void(Scenario&, double)>;

  explicit SweepGrid(Scenario base);

  SweepGrid& axis(std::vector<double> values, Apply apply);
  SweepGrid& schemes(std::vector<SchemeKind> schemes);

  std::size_t cells() const;
  std::vector<Scenario> expand(std::uint64_t master_seed) const;

 private:
  struct Axis {
    std::vector<double> values;
    Apply apply;
  };

  Scenario base_;
  std::vector<Axis> axes_;
  std::vector<SchemeKind> schemes_;
};

}  // namespace rbx
