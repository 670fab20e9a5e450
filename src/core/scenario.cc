#include "core/scenario.h"

#include <string>
#include <utility>

#include "support/check.h"

namespace rbx {

namespace {

const char* scheme_tag(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kAsynchronous:
      return "async";
    case SchemeKind::kSynchronized:
      return "sync";
    case SchemeKind::kPseudoRecoveryPoints:
      return "prp";
  }
  return "?";
}

// Enum decode helpers: a corrupt tag byte must surface as wire::Error, not
// as an out-of-range enum value propagating into switches.
SchemeKind decode_scheme(std::uint8_t tag) {
  switch (tag) {
    case 0:
      return SchemeKind::kAsynchronous;
    case 1:
      return SchemeKind::kSynchronized;
    case 2:
      return SchemeKind::kPseudoRecoveryPoints;
  }
  throw wire::Error("scenario: unknown scheme tag " + std::to_string(tag));
}

SyncStrategy decode_strategy(std::uint8_t tag) {
  switch (tag) {
    case 0:
      return SyncStrategy::kConstantInterval;
    case 1:
      return SyncStrategy::kElapsedTime;
    case 2:
      return SyncStrategy::kSavedStates;
  }
  throw wire::Error("scenario: unknown sync strategy tag " +
                    std::to_string(tag));
}

// Range checks mirroring the fluent setters' RBX_CHECKs; on the decode
// path a violation means corrupt wire data and must throw, not abort.
double require_non_negative(double v, const char* what) {
  if (!(v >= 0.0)) {
    throw wire::Error(std::string("scenario: ") + what +
                      " must be non-negative");
  }
  return v;
}

}  // namespace

Scenario::Scenario(ProcessSetParams params) : params_(std::move(params)) {}

Scenario Scenario::symmetric(std::size_t n, double mu, double lambda) {
  return Scenario(ProcessSetParams::symmetric(n, mu, lambda));
}

Scenario Scenario::from_mu(std::vector<double> mu) {
  const std::size_t n = mu.size();
  return Scenario(
      ProcessSetParams(std::move(mu), std::vector<double>(n * n, 0.0)));
}

Scenario& Scenario::params(ProcessSetParams p) {
  params_ = std::move(p);
  return *this;
}

Scenario& Scenario::scheme(SchemeKind s) {
  scheme_ = s;
  return *this;
}

Scenario& Scenario::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

Scenario& Scenario::error_rate(double rate) {
  RBX_CHECK_MSG(rate >= 0.0, "error rate must be non-negative");
  error_rate_ = rate;
  return *this;
}

Scenario& Scenario::at_failure_probability(double p) {
  RBX_CHECK_MSG(p >= 0.0 && p <= 1.0,
                "AT failure probability must be in [0, 1]");
  at_failure_probability_ = p;
  return *this;
}

Scenario& Scenario::t_record(double t) {
  RBX_CHECK_MSG(t >= 0.0, "state-recording time must be non-negative");
  t_record_ = t;
  return *this;
}

Scenario& Scenario::sync_policy(SyncPolicy policy) {
  sync_policy_ = policy;
  return *this;
}

Scenario& Scenario::scoped_prp(bool scoped) {
  scoped_prp_ = scoped;
  return *this;
}

Scenario& Scenario::prp_sync_period(double period) {
  RBX_CHECK_MSG(period >= 0.0, "sync period must be non-negative");
  prp_sync_period_ = period;
  return *this;
}

Scenario& Scenario::samples(std::size_t s) {
  RBX_CHECK_MSG(s > 0, "sample budget must be positive");
  samples_ = s;
  return *this;
}

Scenario& Scenario::streams(std::size_t k) {
  RBX_CHECK_MSG(k > 0, "stream count must be positive");
  streams_ = k;
  return *this;
}

Scenario& Scenario::workload(RuntimeWorkload w) {
  workload_ = w;
  return *this;
}

std::string Scenario::label() const {
  // One buffer, no iostreams: the label is a large share of an analytic
  // cache hit (byte contract in the header).
  std::string out = scheme_tag(scheme_);
  out += ' ';
  params_.describe_into(out);
  out += " seed=";
  out += std::to_string(seed_);
  // streams=1 is the implicit default; omitting it keeps every
  // pre-stream label (and thus golden output) byte-identical.
  if (streams_ > 1) {
    out += " streams=";
    out += std::to_string(streams_);
  }
  return out;
}

RuntimeConfig Scenario::runtime_config() const {
  RuntimeConfig cfg;
  cfg.num_processes = params_.n();
  cfg.scheme = scheme_;
  cfg.seed = seed_;
  cfg.steps = workload_.steps;
  cfg.message_probability = workload_.message_probability;
  cfg.rp_probability = workload_.rp_probability;
  cfg.at_failure_probability = at_failure_probability_;
  cfg.alternate_failure_probability = workload_.alternate_failure_probability;
  cfg.rb_alternates = workload_.rb_alternates;
  cfg.sync_period_steps = workload_.sync_period_steps;
  cfg.scoped_prp = scoped_prp_;
  return cfg;
}

SyncSimParams Scenario::sync_sim_params() const {
  SyncSimParams sp;
  sp.mu = params_.mu();
  sp.strategy = sync_policy_.strategy;
  sp.interval = sync_policy_.interval;
  sp.elapsed_threshold = sync_policy_.elapsed_threshold;
  sp.saved_threshold = sync_policy_.saved_threshold;
  sp.error_rate = error_rate_;
  return sp;
}

void Scenario::encode(wire::Writer& w) const {
  w.f64_vec(params_.mu());
  w.f64_vec(params_.lambda_flat());
  w.u8(static_cast<std::uint8_t>(scheme_));
  w.u64(seed_);
  w.f64(error_rate_);
  w.f64(at_failure_probability_);
  w.f64(t_record_);
  w.u8(static_cast<std::uint8_t>(sync_policy_.strategy));
  w.f64(sync_policy_.interval);
  w.f64(sync_policy_.elapsed_threshold);
  w.u64(sync_policy_.saved_threshold);
  w.u8(scoped_prp_ ? 1 : 0);
  w.f64(prp_sync_period_);
  w.u64(samples_);
  w.u64(workload_.steps);
  w.f64(workload_.message_probability);
  w.f64(workload_.rp_probability);
  w.f64(workload_.alternate_failure_probability);
  w.u64(workload_.rb_alternates);
  w.u64(workload_.sync_period_steps);
  w.u64(streams_);
}

Scenario Scenario::decode(wire::Reader& r) {
  std::vector<double> mu = r.f64_vec();
  std::vector<double> lambda = r.f64_vec();
  // Validate the rate set here: ProcessSetParams RBX_CHECKs the same
  // invariants, but on the decode path a violation is corrupt wire data
  // and must throw a catchable error instead of aborting.
  const std::size_t n = mu.size();
  if (n == 0) {
    throw wire::Error("scenario: empty mu vector");
  }
  if (lambda.size() != n * n) {
    throw wire::Error("scenario: lambda matrix is not n x n");
  }
  for (double m : mu) {
    if (!(m > 0.0)) {
      throw wire::Error("scenario: mu rates must be positive");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (lambda[i * n + i] != 0.0) {
      throw wire::Error("scenario: lambda diagonal must be zero");
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (!(lambda[i * n + j] >= 0.0) ||
          lambda[i * n + j] != lambda[j * n + i]) {
        throw wire::Error("scenario: lambda must be symmetric non-negative");
      }
    }
  }
  Scenario s(ProcessSetParams(std::move(mu), std::move(lambda)));
  s.scheme_ = decode_scheme(r.u8());
  s.seed_ = r.u64();
  s.error_rate_ = require_non_negative(r.f64(), "error rate");
  const double at_p = r.f64();
  if (!(at_p >= 0.0 && at_p <= 1.0)) {
    throw wire::Error("scenario: AT failure probability outside [0, 1]");
  }
  s.at_failure_probability_ = at_p;
  s.t_record_ = require_non_negative(r.f64(), "state-recording time");
  s.sync_policy_.strategy = decode_strategy(r.u8());
  s.sync_policy_.interval = r.f64();
  s.sync_policy_.elapsed_threshold = r.f64();
  s.sync_policy_.saved_threshold = static_cast<std::size_t>(r.u64());
  s.scoped_prp_ = r.u8() != 0;
  s.prp_sync_period_ = require_non_negative(r.f64(), "sync period");
  const std::uint64_t samples = r.u64();
  if (samples == 0) {
    throw wire::Error("scenario: sample budget must be positive");
  }
  s.samples_ = static_cast<std::size_t>(samples);
  s.workload_.steps = static_cast<std::size_t>(r.u64());
  s.workload_.message_probability = r.f64();
  s.workload_.rp_probability = r.f64();
  s.workload_.alternate_failure_probability = r.f64();
  s.workload_.rb_alternates = static_cast<std::size_t>(r.u64());
  s.workload_.sync_period_steps = static_cast<std::size_t>(r.u64());
  const std::uint64_t streams = r.u64();
  if (streams == 0) {
    throw wire::Error("scenario: stream count must be positive");
  }
  s.streams_ = static_cast<std::size_t>(streams);
  return s;
}

PrpSimParams Scenario::prp_sim_params() const {
  RBX_CHECK_MSG(error_rate_ > 0.0,
                "PRP simulation needs a positive error rate (it runs until "
                "a failure count is reached)");
  PrpSimParams sp;
  sp.t_record = t_record_;
  sp.error_rate = error_rate_;
  sp.affects_everyone = !scoped_prp_;
  sp.sync_period = prp_sync_period_;
  return sp;
}

}  // namespace rbx
