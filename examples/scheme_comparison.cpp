// Scheme selection helper: given a process set, put numbers on the paper's
// Section 5 guidance ("To select a suitable strategy ... we have to first
// examine the properties of concurrent processes such as the amount of
// interprocess communications and the distribution of recovery points").
//
//   $ ./scheme_comparison [n] [mu] [lambda]
//
// Prints the analytic comparison, Monte-Carlo validation, and a thread
// runtime shakedown of each scheme - all driven by one Scenario flowing
// through the three EvalBackends, with the shakedown grid evaluated by
// a SweepRunner.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/api.h"

int main(int argc, char** argv) {
  using namespace rbx;

  std::size_t n = 3;
  double mu = 1.0;
  double lambda = 1.0;
  if (argc > 1) {
    n = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));
  }
  if (argc > 2) {
    mu = std::strtod(argv[2], nullptr);
  }
  if (argc > 3) {
    lambda = std::strtod(argv[3], nullptr);
  }
  if (n < 2 || n > 10 || mu <= 0.0 || lambda < 0.0) {
    std::fprintf(stderr, "usage: %s [n=2..10] [mu>0] [lambda>=0]\n", argv[0]);
    return 1;
  }

  const Scenario scenario =
      Scenario::symmetric(n, mu, lambda).t_record(0.01);
  std::printf("Comparing schemes for %s\n\n",
              scenario.params().describe().c_str());

  const ResultSet async_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kAsynchronous));
  const ResultSet sync_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kSynchronized));
  const ResultSet prp_exact = analytic_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kPseudoRecoveryPoints));

  std::printf("%s\n\n",
              scheme_summary(async_exact, sync_exact, prp_exact).c_str());

  TextTable table({"criterion", "asynchronous", "synchronized",
                   "pseudo RPs"});
  table.add_row(
      {"normal-operation cost", "none",
       "CL = " + TextTable::fmt(sync_exact.value("sync_mean_loss"), 3) +
           "/sync",
       TextTable::fmt(prp_exact.value("prp_time_overhead_per_rp"), 3) +
           " per RP + storage"});
  table.add_row(
      {"expected rollback scale",
       "E[X] = " + TextTable::fmt(async_exact.value("mean_interval_x"), 3),
       "<= sync period + E[Z]",
       "E[sup y] = " +
           TextTable::fmt(prp_exact.value("prp_mean_rollback_bound"), 3)});
  table.add_row({"states kept per process", "every RP (unbounded)",
                 "1 line (+1 in flight)",
                 TextTable::fmt_int(static_cast<long long>(prp_exact.value(
                     "prp_retained_snapshots_per_process")))});
  table.add_row({"process autonomy", "full", "none at commits", "full"});
  std::printf("%s\n", table.render("Trade-off summary").c_str());

  // Monte-Carlo check of the asynchronous column.
  const ResultSet mc = monte_carlo_backend().evaluate(
      Scenario(scenario).scheme(SchemeKind::kAsynchronous).seed(11).samples(
          20000));
  const Metric& mc_x = mc.metric("mean_interval_x");
  std::printf("asynchronous E[X] monte-carlo: %s\n\n",
              fmt_ci(mc_x.value, mc_x.half_width).c_str());

  // Thread-runtime shakedown of each scheme on this process count: a
  // one-axis sweep over the scheme knob.
  const Scenario shakedown =
      Scenario(scenario).seed(1).at_failure_probability(0.05);
  const std::vector<SchemeKind> schemes = {
      SchemeKind::kAsynchronous, SchemeKind::kSynchronized,
      SchemeKind::kPseudoRecoveryPoints};
  std::vector<Scenario> cells;
  for (SchemeKind scheme : schemes) {
    cells.push_back(Scenario(shakedown).scheme(scheme));
  }
  // One worker: each runtime cell already spawns n process threads.
  SweepRunner runner(ExperimentOptions(), /*default_threads=*/1);
  const std::vector<ResultSet> reports =
      *runner.run(cells, runtime_backend());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const ResultSet& r = reports[k];
    const char* name = schemes[k] == SchemeKind::kAsynchronous
                           ? "asynchronous"
                       : schemes[k] == SchemeKind::kSynchronized
                           ? "synchronized"
                           : "pseudo RPs  ";
    std::printf("runtime %s: %4zu RPs %4zu PRPs %3zu recoveries "
                "%5zu snapshot bytes  verified=%s\n",
                name, static_cast<std::size_t>(r.value("rps")),
                static_cast<std::size_t>(r.value("prps")),
                static_cast<std::size_t>(r.value("recoveries")),
                static_cast<std::size_t>(r.value("snapshot_bytes")),
                r.value("completed") != 0.0 &&
                        r.value("restore_verified") != 0.0
                    ? "yes"
                    : "NO");
  }
  return 0;
}
