#include "core/result.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "support/check.h"

namespace rbx {

std::string indexed_metric(const char* stem, std::size_t i) {
  std::string name(stem);
  name += std::to_string(i + 1);
  return name;
}

ResultSet::ResultSet(std::string backend, std::string scenario)
    : backend_(std::move(backend)), scenario_(std::move(scenario)) {}

ResultSet::ResultSet(std::string backend, std::string scenario,
                     std::shared_ptr<const std::vector<Metric>> frozen)
    : backend_(std::move(backend)),
      scenario_(std::move(scenario)),
      frozen_(std::move(frozen)) {
  RBX_CHECK_MSG(frozen_ != nullptr, "adopting a null metric list");
}

std::shared_ptr<const std::vector<Metric>> ResultSet::freeze() {
  if (!frozen_) {
    frozen_ = std::make_shared<const std::vector<Metric>>(std::move(metrics_));
    metrics_.clear();
  }
  return frozen_;
}

std::vector<Metric>& ResultSet::mutable_metrics() {
  if (frozen_) {
    metrics_ = *frozen_;
    frozen_.reset();
  }
  return metrics_;
}

void ResultSet::set(const std::string& name, double value, double half_width,
                    std::size_t count) {
  std::vector<Metric>& metrics = mutable_metrics();
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.half_width = half_width;
      m.count = count;
      return;
    }
  }
  metrics.push_back(Metric{name, value, half_width, count});
}

const Metric* ResultSet::find(const std::string& name) const {
  for (const Metric& m : metrics()) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

bool ResultSet::has(const std::string& name) const {
  return find(name) != nullptr;
}

double ResultSet::value(const std::string& name) const {
  const Metric* m = find(name);
  RBX_CHECK_MSG(m != nullptr, "unknown metric requested from ResultSet");
  return m->value;
}

double ResultSet::value_or(const std::string& name, double fallback) const {
  const Metric* m = find(name);
  return m != nullptr ? m->value : fallback;
}

const Metric& ResultSet::metric(const std::string& name) const {
  const Metric* m = find(name);
  RBX_CHECK_MSG(m != nullptr, "unknown metric requested from ResultSet");
  return *m;
}

void ResultSet::merge(const ResultSet& other, const std::string& prefix) {
  if (&other == this) {
    // set() below may clone or grow the very list being read.
    merge(ResultSet(other), prefix);
    return;
  }
  for (const Metric& m : other.metrics()) {
    set(prefix + m.name, m.value, m.half_width, m.count);
  }
}

std::string ResultSet::to_string() const {
  std::ostringstream os;
  os << backend_ << " / " << scenario_ << "\n";
  for (const Metric& m : metrics()) {
    char line[160];
    if (m.exact()) {
      std::snprintf(line, sizeof(line), "  %-28s = %.6g\n", m.name.c_str(),
                    m.value);
    } else {
      std::snprintf(line, sizeof(line), "  %-28s = %.6g +- %.6g (%zu samples)\n",
                    m.name.c_str(), m.value, m.half_width, m.count);
    }
    os << line;
  }
  return os.str();
}

void ResultSet::encode(wire::Writer& w) const {
  w.str(backend_);
  w.str(scenario_);
  const std::vector<Metric>& metrics = this->metrics();
  if (metrics.size() > UINT32_MAX) {
    throw wire::Error("result set: too many metrics to encode");
  }
  w.u32(static_cast<std::uint32_t>(metrics.size()));
  for (const Metric& m : metrics) {
    w.str(m.name);
    w.f64(m.value);
    w.f64(m.half_width);
    w.u64(m.count);
  }
}

ResultSet ResultSet::decode(wire::Reader& r) {
  ResultSet out;
  out.backend_ = r.str();
  out.scenario_ = r.str();
  const std::uint32_t count = r.u32();
  // Each metric needs at least its name length prefix plus the three
  // fixed fields; reject corrupt counts before reserving.
  if (r.remaining() / (4 + 8 + 8 + 8) < count) {
    throw wire::Error("result set: truncated metric list");
  }
  out.metrics_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Metric m;
    m.name = r.str();
    m.value = r.f64();
    m.half_width = r.f64();
    m.count = static_cast<std::size_t>(r.u64());
    out.metrics_.push_back(std::move(m));
  }
  return out;
}

namespace {
// Same bit pattern: NaN equals itself (payload included) and 0.0 differs
// from -0.0, which is what a determinism check must see.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}
}  // namespace

bool operator==(const ResultSet& a, const ResultSet& b) {
  const std::vector<Metric>& am = a.metrics();
  const std::vector<Metric>& bm = b.metrics();
  if (a.backend_ != b.backend_ || a.scenario_ != b.scenario_ ||
      am.size() != bm.size()) {
    return false;
  }
  for (std::size_t i = 0; i < am.size(); ++i) {
    const Metric& x = am[i];
    const Metric& y = bm[i];
    if (x.name != y.name || !same_bits(x.value, y.value) ||
        !same_bits(x.half_width, y.half_width) || x.count != y.count) {
      return false;
    }
  }
  return true;
}

}  // namespace rbx
