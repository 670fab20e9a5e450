#include "des/async_sim.h"

#include <limits>

#include "support/check.h"
#include "trace/history.h"
#include "trace/recovery_line.h"

namespace rbx {

void AsyncSimResult::merge(const AsyncSimResult& other) {
  RBX_CHECK_MSG(rp_incl_final.size() == other.rp_incl_final.size(),
                "AsyncSimResult::merge needs matching process counts");
  interval.merge(other.interval);
  for (std::size_t i = 0; i < rp_incl_final.size(); ++i) {
    rp_incl_final[i].merge(other.rp_incl_final[i]);
    rp_excl_final[i].merge(other.rp_excl_final[i]);
    rp_state_changing[i].merge(other.rp_state_changing[i]);
  }
  line_age.merge(other.line_age);
}

AsyncRbSimulator::AsyncRbSimulator(ProcessSetParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
  const std::size_t n = params_.n();
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    weights.push_back(params_.mu(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (params_.lambda(i, j) > 0.0) {
        weights.push_back(params_.lambda(i, j));
        pairs_.push_back({i, j});
      }
    }
  }
  event_table_ = CategoricalTable(weights);
}

AsyncRbSimulator::EventDraw AsyncRbSimulator::next_event() {
  EventDraw draw;
  draw.dt = rng_.exponential(event_table_.total());
  const std::size_t k = rng_.categorical(event_table_);
  if (k < params_.n()) {
    draw.is_rp = true;
    draw.a = k;
    draw.b = k;
  } else {
    draw.is_rp = false;
    draw.a = pairs_[k - params_.n()].first;
    draw.b = pairs_[k - params_.n()].second;
  }
  return draw;
}

AsyncSimResult AsyncRbSimulator::run_lines(std::size_t lines,
                                           double error_rate) {
  const std::size_t n = params_.n();
  AsyncSimResult result;
  result.rp_incl_final.resize(n);
  result.rp_excl_final.resize(n);
  result.rp_state_changing.resize(n);

  const std::size_t full = (std::size_t{1} << n) - 1;
  double t = 0.0;
  double line_start = 0.0;
  double next_error = error_rate > 0.0
                          ? rng_.exponential(error_rate)
                          : std::numeric_limits<double>::infinity();
  bool at_entry = true;  // logically all-ones, with rule R4 active
  std::size_t mask = full;
  incl_scratch_.assign(n, 0);
  state_changing_scratch_.assign(n, 0);
  std::vector<std::size_t>& incl = incl_scratch_;
  std::vector<std::size_t>& state_changing = state_changing_scratch_;

  std::size_t formed = 0;
  while (formed < lines) {
    const EventDraw ev = next_event();
    t += ev.dt;
    // Sample the line age at every error instant passed by this event (the
    // error process is independent of RPs and interactions).
    while (next_error <= t) {
      result.line_age.add(next_error - line_start);
      next_error += rng_.exponential(error_rate);
    }
    if (!ev.is_rp) {
      // Interaction clears the pair's bits (rules R2 / R3).
      const std::size_t bits =
          (std::size_t{1} << ev.a) | (std::size_t{1} << ev.b);
      if (at_entry || (mask & bits) != 0) {
        mask = (at_entry ? full : mask) & ~bits;
        at_entry = false;
      }
      continue;
    }

    // Recovery point of process a.
    const std::size_t bit = std::size_t{1} << ev.a;
    ++incl[ev.a];
    bool absorbed = false;
    if (at_entry) {
      // Rule R4: a fresh RP on the line re-forms a line immediately.
      ++state_changing[ev.a];
      absorbed = true;
    } else if (!(mask & bit)) {
      ++state_changing[ev.a];
      mask |= bit;
      absorbed = mask == full;
    }
    // An RP while x_a = 1 (intermediate) is invisible to the chain: it is
    // counted in incl/excl only.

    if (absorbed) {
      ++formed;
      result.interval.add(t - line_start);
      for (std::size_t i = 0; i < n; ++i) {
        result.rp_incl_final[i].add(static_cast<double>(incl[i]));
        // The line-forming RP (this one, owned by ev.a) is excluded from
        // convention (b).
        const std::size_t e = incl[i] - (i == ev.a ? 1 : 0);
        result.rp_excl_final[i].add(static_cast<double>(e));
        result.rp_state_changing[i].add(static_cast<double>(state_changing[i]));
        incl[i] = state_changing[i] = 0;
      }
      line_start = t;
      at_entry = true;
      mask = full;
    }
  }
  return result;
}

ExactLineResult AsyncRbSimulator::run_exact(std::size_t events) {
  const std::size_t n = params_.n();
  ExactLineResult result;

  History history(n);
  RecoveryLineFinder finder(history);

  const std::size_t full = (std::size_t{1} << n) - 1;
  double t = 0.0;
  bool at_entry = true;
  std::size_t mask = full;
  double model_line_start = 0.0;

  // Exact observer state: current maximal line M, last-advance time, and
  // the baseline of the last full refresh.
  std::vector<double> max_line(n, 0.0);
  std::vector<double> refresh_base(n, 0.0);
  double last_advance = 0.0;
  double last_refresh = 0.0;

  for (std::size_t e = 0; e < events; ++e) {
    const EventDraw ev = next_event();
    t += ev.dt;

    if (!ev.is_rp) {
      history.add_interaction(ev.a, ev.b, t);
      const std::size_t bits =
          (std::size_t{1} << ev.a) | (std::size_t{1} << ev.b);
      if (at_entry || (mask & bits) != 0) {
        mask = (at_entry ? full : mask) & ~bits;
        at_entry = false;
      }
      continue;
    }

    history.add_recovery_point(ev.a, t);

    // Model observer.
    const std::size_t bit = std::size_t{1} << ev.a;
    bool absorbed = false;
    if (at_entry) {
      absorbed = true;
    } else if (!(mask & bit)) {
      mask |= bit;
      absorbed = mask == full;
    }
    if (absorbed) {
      result.model_interval.add(t - model_line_start);
      model_line_start = t;
      at_entry = true;
      mask = full;
    }

    // Exact observer: only an RP can advance the maximal line.
    const RecoveryLine line = finder.latest_line(t);
    bool advanced = false;
    bool all_newer = true;
    for (std::size_t p = 0; p < n; ++p) {
      const double lt = line.points[p].is_initial ? 0.0 : line.points[p].time;
      if (lt > max_line[p]) {
        max_line[p] = lt;
        advanced = true;
      }
      if (max_line[p] <= refresh_base[p]) {
        all_newer = false;
      }
    }
    if (advanced) {
      result.any_advance.add(t - last_advance);
      last_advance = t;
    }
    if (all_newer) {
      result.full_refresh.add(t - last_refresh);
      last_refresh = t;
      refresh_base = max_line;
    }
  }
  return result;
}

}  // namespace rbx
