// Structured results of evaluating a Scenario on an EvalBackend.
//
// Every backend - analytic, Monte-Carlo or thread runtime - reports its
// output as a flat list of named metrics.  A metric carries the point value,
// the half-width of its 95% confidence interval (zero for closed-form
// results) and the number of samples behind the estimate (zero when exact).
// Shared metric names across backends (e.g. "mean_interval_x" from both the
// phase-type chain and the DES) are what make cross-backend validation a
// simple join instead of bespoke glue code per experiment.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "support/wire.h"

namespace rbx {

// 1-based per-process metric name, the cross-backend naming convention:
// indexed_metric("rp_count_", 0) == "rp_count_1".  Analytic and Monte-Carlo
// results for process i join on this name.
std::string indexed_metric(const char* stem, std::size_t i);

struct Metric {
  std::string name;
  double value = 0.0;
  double half_width = 0.0;  // 95% CI half-width; 0 for exact results
  std::size_t count = 0;    // samples behind the estimate; 0 = closed form

  bool exact() const { return count == 0; }
};

// Sharing contract.  A ResultSet's metric list is either private (built
// through set()/merge() or decode(); copying the ResultSet deep-copies it)
// or frozen: immutable and shared by every ResultSet that adopted it.
// freeze() turns a private list into a frozen one, and the adopting
// constructor takes a frozen list by pointer, so a cache that stores the
// frozen list replays it to any number of cells for a refcount each.  The
// first set()/merge() on a frozen ResultSet clones the list into a private
// one, so a mutation never reaches the cache or the sibling results.
// Which state a ResultSet is in is its own field, never inferred from the
// pointer's use_count().
class ResultSet {
 public:
  ResultSet() = default;
  ResultSet(std::string backend, std::string scenario);
  // Adopts a frozen metric list (see freeze()) without copying it.  The
  // names must be unique, as every list built through set() is.
  ResultSet(std::string backend, std::string scenario,
            std::shared_ptr<const std::vector<Metric>> frozen);

  const std::string& backend() const { return backend_; }
  const std::string& scenario() const { return scenario_; }

  // Upserts a metric, preserving first-insertion order.
  void set(const std::string& name, double value, double half_width = 0.0,
           std::size_t count = 0);

  bool has(const std::string& name) const;
  // Point value of a metric; RBX_CHECKs that the metric exists.
  double value(const std::string& name) const;
  double value_or(const std::string& name, double fallback) const;
  const Metric& metric(const std::string& name) const;
  const std::vector<Metric>& metrics() const {
    return frozen_ ? *frozen_ : metrics_;
  }

  // Freezes the metric list (a no-op if it is frozen already) and returns
  // it for sharing; this ResultSet keeps reading the same list.
  std::shared_ptr<const std::vector<Metric>> freeze();

  // Appends every metric of `other`, prefixing its names (e.g. "mc_").
  // Lets one sweep cell combine several backend evaluations.
  void merge(const ResultSet& other, const std::string& prefix = "");

  // One metric per line: "name = value [+- hw (count samples)]".
  std::string to_string() const;

  // --- wire form ---
  // Exact binary round-trip (support/wire.h): metric order, names, values,
  // half-widths and counts, with doubles bit-preserved (including NaN
  // payloads and infinities).  decode throws wire::Error on malformed data.
  void encode(wire::Writer& w) const;
  static ResultSet decode(wire::Reader& r);

  // Exact (bitwise) equality of the backend and scenario names and of all
  // metric names, values, half-widths and counts - the determinism
  // contract checked by the sweep tests.  Doubles compare by bit pattern:
  // a NaN metric equals the same NaN, and 0.0 differs from -0.0.
  friend bool operator==(const ResultSet& a, const ResultSet& b);
  friend bool operator!=(const ResultSet& a, const ResultSet& b) {
    return !(a == b);
  }

 private:
  const Metric* find(const std::string& name) const;
  // The private list, cloned from the frozen one first if need be.
  std::vector<Metric>& mutable_metrics();

  std::string backend_;
  std::string scenario_;
  std::vector<Metric> metrics_;  // the private list; empty while frozen
  std::shared_ptr<const std::vector<Metric>> frozen_;  // null unless frozen
};

}  // namespace rbx
