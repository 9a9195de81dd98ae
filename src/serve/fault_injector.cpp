#include "arbiterq/serve/fault_injector.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <system_error>

namespace arbiterq::serve {

namespace {

/// True when `qpu` has a dropout event and returns its threshold.
bool dropout_threshold(const std::vector<DropoutEvent>& events, int qpu,
                       std::uint64_t* at_job) {
  for (const DropoutEvent& e : events) {
    if (e.qpu == qpu) {
      *at_job = e.at_job;
      return true;
    }
  }
  return false;
}

/// The QPU named by a second scripted dropout, or -1 when every event
/// names a distinct QPU. A QPU dies once: a repeated event would be
/// counted twice by the fleet-death guard and by routing_epoch.
int repeated_dropout_qpu(const std::vector<DropoutEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (events[j].qpu == events[i].qpu) return events[i].qpu;
    }
  }
  return -1;
}

}  // namespace

FaultInjector::FaultInjector(std::size_t fleet_size, FaultConfig config)
    : fleet_size_(fleet_size),
      config_(std::move(config)),
      root_(config_.seed) {
  if (fleet_size_ == 0) {
    throw std::invalid_argument("FaultInjector: empty fleet");
  }
  for (const DropoutEvent& e : config_.dropouts) {
    if (e.qpu < 0 || static_cast<std::size_t>(e.qpu) >= fleet_size_) {
      throw std::invalid_argument("FaultInjector: dropout qpu out of range");
    }
    dropouts_.push_back(e);
  }
  if (const int q = repeated_dropout_qpu(dropouts_); q >= 0) {
    throw std::invalid_argument("FaultInjector: second dropout of qpu " +
                                std::to_string(q));
  }
  // Probability mode: draw at most one dropout per QPU, its job index
  // uniform over the horizon. Deterministic: one named stream per QPU.
  if (config_.dropout_probability > 0.0) {
    for (std::size_t q = 0; q < fleet_size_; ++q) {
      std::uint64_t ignore;
      if (dropout_threshold(dropouts_, static_cast<int>(q), &ignore)) {
        continue;  // scripted event wins
      }
      math::Rng rng = root_.split("dropout").split(q);
      if (rng.bernoulli(config_.dropout_probability)) {
        dropouts_.push_back(
            {static_cast<int>(q),
             rng.uniform_int(std::max<std::uint64_t>(
                 config_.dropout_horizon_jobs, 1))});
      }
    }
  }
  std::sort(dropouts_.begin(), dropouts_.end(),
            [](const DropoutEvent& a, const DropoutEvent& b) {
              return a.at_job != b.at_job ? a.at_job < b.at_job
                                          : a.qpu < b.qpu;
            });
  if (dropouts_.size() >= fleet_size_) {
    throw std::invalid_argument(
        "FaultInjector: dropouts would kill the whole fleet");
  }
}

math::Rng FaultInjector::decision_rng(std::string_view stream,
                                      std::uint64_t job, int qpu,
                                      int attempt) const {
  return root_.split(stream).split(job).split(
      static_cast<std::uint64_t>(qpu) * 131ULL +
      static_cast<std::uint64_t>(attempt));
}

bool FaultInjector::dropped(int qpu, std::uint64_t job) const {
  std::uint64_t at_job;
  return dropout_threshold(dropouts_, qpu, &at_job) && job >= at_job;
}

bool FaultInjector::transient_failure(std::uint64_t job, int qpu,
                                      int attempt) const {
  if (config_.transient_probability <= 0.0) return false;
  math::Rng rng = decision_rng("transient", job, qpu, attempt);
  return rng.bernoulli(config_.transient_probability);
}

double FaultInjector::latency_multiplier(std::uint64_t job, int qpu,
                                         int attempt) const {
  if (config_.latency_spike_probability <= 0.0) return 1.0;
  math::Rng rng = decision_rng("latency", job, qpu, attempt);
  return rng.bernoulli(config_.latency_spike_probability)
             ? config_.latency_spike_multiplier
             : 1.0;
}

std::size_t FaultInjector::routing_epoch(std::uint64_t job) const {
  std::size_t epoch = 0;
  for (const DropoutEvent& e : dropouts_) {
    if (e.at_job + config_.detection_lag_jobs <= job) ++epoch;
  }
  return epoch;
}

std::vector<int> FaultInjector::alive_at_epoch(std::size_t epoch) const {
  epoch = std::min(epoch, dropouts_.size());
  std::vector<int> alive;
  alive.reserve(fleet_size_);
  for (std::size_t q = 0; q < fleet_size_; ++q) {
    bool dead = false;
    for (std::size_t e = 0; e < epoch; ++e) {
      if (dropouts_[e].qpu == static_cast<int>(q)) dead = true;
    }
    if (!dead) alive.push_back(static_cast<int>(q));
  }
  return alive;
}

FaultConfig FaultInjector::parse(std::string_view spec) {
  FaultConfig cfg;
  std::size_t pos = 0;
  const auto bad = [&](const std::string& what) {
    throw std::invalid_argument("FaultInjector::parse: " + what + " in '" +
                                std::string(spec) + "'");
  };
  // A whole field as one number: no sign on the unsigned fields, no
  // leading blanks, nothing after it.
  const auto number = [&]<class T>(std::string_view field, const char* what,
                                   T out) {
    const char* const end = field.data() + field.size();
    const auto [stop, ec] = std::from_chars(field.data(), end, out);
    if (field.empty() || ec != std::errc() || stop != end) {
      bad(std::string("bad ") + what + " '" + std::string(field) + "'");
    }
    return out;
  };
  const auto probability = [&](std::string_view field, const char* what) {
    const double p = number(field, what, 0.0);
    if (!(p >= 0.0 && p <= 1.0)) {
      bad(std::string(what) + " outside [0, 1]");
    }
    return p;
  };
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) bad("missing ':'");
    const std::string_view key = item.substr(0, colon);
    const std::string_view value = item.substr(colon + 1);
    const std::size_t at = value.find('@');
    if (key == "kill") {
      // kill:<qpu>@<job>
      if (at == std::string_view::npos) bad("kill needs <qpu>@<job>");
      DropoutEvent e;
      e.qpu = number(value.substr(0, at), "kill qpu", 0);
      if (e.qpu < 0) bad("negative kill qpu");
      e.at_job = number(value.substr(at + 1), "kill job", std::uint64_t{0});
      cfg.dropouts.push_back(e);
    } else if (key == "drop") {
      // drop:<p>[@<horizon>]
      cfg.dropout_probability = probability(value.substr(0, at), "drop");
      if (at != std::string_view::npos) {
        cfg.dropout_horizon_jobs =
            number(value.substr(at + 1), "drop horizon", std::uint64_t{0});
      }
    } else if (key == "transient") {
      cfg.transient_probability = probability(value, "transient");
    } else if (key == "spike") {
      // spike:<p>[x<mult>]
      const std::size_t x = value.find('x');
      cfg.latency_spike_probability = probability(value.substr(0, x), "spike");
      if (x != std::string_view::npos) {
        const double mult = number(value.substr(x + 1), "spike multiplier",
                                   0.0);
        if (!(std::isfinite(mult) && mult > 0.0)) {
          bad("spike multiplier must be finite and > 0");
        }
        cfg.latency_spike_multiplier = mult;
      }
    } else if (key == "lag") {
      cfg.detection_lag_jobs = number(value, "lag", std::uint64_t{0});
    } else if (key == "seed") {
      cfg.seed = number(value, "seed", std::uint64_t{0});
    } else {
      bad("unknown directive '" + std::string(key) + "'");
    }
  }
  if (const int q = repeated_dropout_qpu(cfg.dropouts); q >= 0) {
    bad("duplicate kill of qpu " + std::to_string(q));
  }
  return cfg;
}

}  // namespace arbiterq::serve
