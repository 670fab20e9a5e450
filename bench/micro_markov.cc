// MICRO - microbenchmarks of the Markov engine: chain construction, dense
// hitting-time solves, uniformization vs RK4 transient solutions, and the
// phase-type density evaluation that drives Figure 6.
//
// Each process count n is one sweep cell evaluated through the registered
// "micro-markov" backend (perf/micro_backend.h), so the timing cells run
// on any executor - including --connect/--fleet worker daemons, which is
// how a fleet's per-host kernel speeds can be compared.  The numbers come
// back as ResultSet metrics (value = ns/op, count = repetitions timed).
// The usual flags apply - --nmax picks the largest n, --samples scales
// the repetition budget, --threads times cells concurrently (wall-clock
// numbers per cell are still serial within the cell).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_main.h"

namespace {

using namespace rbx;

std::string fmt_cell(const ResultSet& res, const char* metric) {
  if (!res.has(metric)) {
    return "-";
  }
  return TextTable::fmt(res.value(metric) / 1000.0, 1);  // ns -> us
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbx;
  bench::SweepOutcome sweep = bench::run_sweep(
      argc, argv,
      {"MICRO-MARKOV",
       "Microbenchmarks: Markov chain build/solve kernels (us/op)",
       /*samples=*/4096, /*nmax=*/7},
      [](const ExperimentOptions& opts) {
        const std::size_t nmax = std::min<std::size_t>(opts.nmax, 9);
        std::vector<Scenario> cells;
        for (std::size_t n = 2; n <= nmax; ++n) {
          cells.push_back(Scenario::symmetric(n, 1.0, 1.0)
                              .seed(opts.seed + n)
                              .samples(opts.samples));
        }
        return cells;
      },
      EvalPlan{{EvalStep{"micro-markov", ""}}},
      /*default_threads=*/1);
  if (!sweep.results) {
    return 0;  // --shard: owned cells journaled
  }

  TextTable table({"n", "build full", "build lumped", "transient unif",
                   "transient rk4", "phase pdf", "exp visits", "mc lines"});
  for (std::size_t k = 0; k < sweep.cells.size(); ++k) {
    const ResultSet& res = (*sweep.results)[k];
    table.add_row(
        {TextTable::fmt_int(static_cast<long long>(sweep.cells[k].n())),
         fmt_cell(res, "build_full_ns"), fmt_cell(res, "build_lumped_ns"),
         fmt_cell(res, "transient_uniformization_ns"),
         fmt_cell(res, "transient_rk4_ns"), fmt_cell(res, "phase_pdf_ns"),
         fmt_cell(res, "expected_visits_ns"), fmt_cell(res, "mc_lines_ns")});
  }
  std::printf("%s\n", table.render("Markov engine kernels (us/op)").c_str());
  return 0;
}
