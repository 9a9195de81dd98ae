#include "arbiterq/serve/trafficgen.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace arbiterq::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

monitor::SloClass slo_class_from_string(const std::string& name) {
  if (name == "latency_bound" || name == "latency") {
    return monitor::SloClass::kLatencyBound;
  }
  if (name == "throughput_bound" || name == "throughput") {
    return monitor::SloClass::kThroughputBound;
  }
  if (name == "best_effort" || name == "best") {
    return monitor::SloClass::kBestEffort;
  }
  throw std::invalid_argument("trafficgen: unknown SLO class '" + name + "'");
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("trafficgen: bad numeric value '" + value +
                                "' for key '" + key + "'");
  }
}

/// A whole field as one non-negative integer that fits T: no sign, no
/// exponent or fraction, nothing after the digits.
template <typename T>
T parse_count(const std::string& key, const std::string& value) {
  std::uint64_t v = 0;
  const char* const end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || stop != end ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw std::invalid_argument("trafficgen: bad integer value '" + value +
                                "' for key '" + key + "'");
  }
  return static_cast<T>(v);
}

/// Split "key=value"; throws when '=' is missing.
std::pair<std::string, std::string> parse_kv(const std::string& field) {
  const std::size_t eq = field.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("trafficgen: expected key=value, got '" +
                                field + "'");
  }
  return {trimmed(field.substr(0, eq)), trimmed(field.substr(eq + 1))};
}

}  // namespace

std::string traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kSteady:
      return "steady";
    case TrafficPattern::kDiurnal:
      return "diurnal";
    case TrafficPattern::kBursty:
      return "bursty";
    case TrafficPattern::kAdversarial:
      return "adversarial";
  }
  throw std::logic_error("traffic_pattern_name: unknown pattern");
}

TrafficPattern traffic_pattern_from_string(const std::string& name) {
  if (name == "steady") return TrafficPattern::kSteady;
  if (name == "diurnal") return TrafficPattern::kDiurnal;
  if (name == "bursty") return TrafficPattern::kBursty;
  if (name == "adversarial") return TrafficPattern::kAdversarial;
  throw std::invalid_argument("trafficgen: unknown pattern '" + name + "'");
}

TrafficGenerator::TrafficGenerator(TrafficConfig config)
    : config_(std::move(config)) {
  if (config_.tenants.empty()) {
    throw std::invalid_argument("TrafficGenerator: empty tenant mix");
  }
  if (config_.duration_s <= 0.0) {
    throw std::invalid_argument("TrafficGenerator: duration_s must be > 0");
  }
  if (config_.feature_dim == 0) {
    throw std::invalid_argument("TrafficGenerator: feature_dim must be > 0");
  }
  if (config_.diurnal_amplitude < 0.0 || config_.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(
        "TrafficGenerator: diurnal_amplitude outside [0, 1)");
  }
  if (config_.diurnal_period_s <= 0.0 || config_.burst_cycle_s <= 0.0) {
    throw std::invalid_argument("TrafficGenerator: period/cycle must be > 0");
  }
  if (config_.burst_duty <= 0.0 || config_.burst_duty > 1.0) {
    throw std::invalid_argument("TrafficGenerator: burst_duty outside (0, 1]");
  }
  if (config_.burst_multiplier <= 0.0 || config_.burst_idle_multiplier < 0.0) {
    throw std::invalid_argument("TrafficGenerator: bad burst multipliers");
  }
  for (const TenantProfile& t : config_.tenants) {
    if (t.name.empty()) {
      throw std::invalid_argument("TrafficGenerator: tenant with empty name");
    }
    if (t.rate_per_s <= 0.0) {
      throw std::invalid_argument("TrafficGenerator: tenant '" + t.name +
                                  "' rate_per_s must be > 0");
    }
    if (t.flood_multiplier <= 0.0) {
      throw std::invalid_argument("TrafficGenerator: tenant '" + t.name +
                                  "' flood_multiplier must be > 0");
    }
  }
  reset();
}

void TrafficGenerator::reset() {
  streams_.clear();
  streams_.reserve(config_.tenants.size());
  const math::Rng root = math::Rng(config_.seed).split("traffic");
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    streams_.emplace_back(root.split(static_cast<std::uint64_t>(i)));
    advance(i);
  }
}

double TrafficGenerator::rate_at(std::size_t i, double t_s) const {
  const TenantProfile& t = config_.tenants[i];
  switch (config_.pattern) {
    case TrafficPattern::kSteady:
      return t.rate_per_s;
    case TrafficPattern::kDiurnal:
      return t.rate_per_s *
             (1.0 + config_.diurnal_amplitude *
                        std::sin(2.0 * kPi * t_s / config_.diurnal_period_s));
    case TrafficPattern::kBursty: {
      const double phase = std::fmod(t_s, config_.burst_cycle_s);
      const bool hot = phase < config_.burst_duty * config_.burst_cycle_s;
      return t.rate_per_s * (hot ? config_.burst_multiplier
                                 : config_.burst_idle_multiplier);
    }
    case TrafficPattern::kAdversarial: {
      const bool flooding = t.flood_multiplier > 1.0 &&
                            t_s >= t.flood_from_s && t_s < t.flood_until_s;
      return t.rate_per_s * (flooding ? t.flood_multiplier : 1.0);
    }
  }
  throw std::logic_error("TrafficGenerator: unknown pattern");
}

double TrafficGenerator::peak_rate(std::size_t i) const {
  const TenantProfile& t = config_.tenants[i];
  switch (config_.pattern) {
    case TrafficPattern::kSteady:
      return t.rate_per_s;
    case TrafficPattern::kDiurnal:
      return t.rate_per_s * (1.0 + config_.diurnal_amplitude);
    case TrafficPattern::kBursty:
      return t.rate_per_s * std::max(config_.burst_multiplier,
                                     config_.burst_idle_multiplier);
    case TrafficPattern::kAdversarial:
      return t.rate_per_s * std::max(t.flood_multiplier, 1.0);
  }
  throw std::logic_error("TrafficGenerator: unknown pattern");
}

void TrafficGenerator::advance(std::size_t i) {
  TenantState& st = streams_[i];
  const double peak = peak_rate(i);
  // Thinning: homogeneous candidates at the envelope rate, each kept
  // with probability lambda(t)/peak — the standard nonhomogeneous-
  // Poisson construction, and every draw comes from this tenant's own
  // split stream so the merge order cannot perturb it.
  double t = st.next_s;
  while (true) {
    const double u = st.rng.uniform();
    t += -std::log1p(-u) / peak;
    if (t > config_.duration_s) {
      st.exhausted = true;
      return;
    }
    if (st.rng.uniform() * peak < rate_at(i, t)) {
      st.next_s = t;
      return;
    }
  }
}

std::optional<GeneratedJob> TrafficGenerator::next() {
  std::size_t winner = streams_.size();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].exhausted) continue;
    if (winner == streams_.size() ||
        streams_[i].next_s < streams_[winner].next_s) {
      winner = i;  // strict < breaks exact ties toward the lower index
    }
  }
  if (winner == streams_.size()) return std::nullopt;

  TenantState& st = streams_[winner];
  const TenantProfile& profile = config_.tenants[winner];
  GeneratedJob job;
  job.arrival_us = st.next_s * 1e6;
  job.tenant = winner;
  job.spec.features.reserve(config_.feature_dim);
  for (std::size_t d = 0; d < config_.feature_dim; ++d) {
    job.spec.features.push_back(st.rng.uniform(0.0, kPi));
  }
  job.spec.label = st.rng.bernoulli(0.5) ? 1 : 0;
  job.spec.tenant = profile.name;
  job.spec.slo_class = profile.slo_class;
  job.spec.shots = profile.shots;
  job.spec.deadline_us = profile.deadline_us;
  job.spec.arrival_us = job.arrival_us;
  advance(winner);
  return job;
}

std::vector<GeneratedJob> TrafficGenerator::generate_all() {
  std::vector<GeneratedJob> out;
  while (auto job = next()) out.push_back(std::move(*job));
  return out;
}

std::vector<TenantSpec> TrafficGenerator::tenant_specs() const {
  std::vector<TenantSpec> out;
  out.reserve(config_.tenants.size());
  for (const TenantProfile& t : config_.tenants) {
    TenantSpec s;
    s.name = t.name;
    s.weight = t.weight;
    s.max_in_flight = t.max_in_flight;
    s.admit_rate_per_s = t.admit_rate_per_s;
    s.admit_burst = t.admit_burst;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<TenantProfile> parse_tenant_profiles(const std::string& spec) {
  std::vector<TenantProfile> out;
  std::set<std::string> names;
  for (const std::string& raw : split_on(spec, ';')) {
    const std::string entry = trimmed(raw);
    if (entry.empty()) continue;
    const std::vector<std::string> fields = split_on(entry, ',');
    TenantProfile t;
    t.name = trimmed(fields[0]);
    if (t.name.empty() || t.name.find('=') != std::string::npos) {
      throw std::invalid_argument(
          "trafficgen: tenant entry must start with a name: '" + entry + "'");
    }
    if (!names.insert(t.name).second) {
      throw std::invalid_argument("trafficgen: duplicate tenant '" + t.name +
                                  "'");
    }
    for (std::size_t f = 1; f < fields.size(); ++f) {
      const auto [key, value] = parse_kv(trimmed(fields[f]));
      if (key == "class") {
        t.slo_class = slo_class_from_string(value);
      } else if (key == "rate") {
        t.rate_per_s = parse_double(key, value);
      } else if (key == "weight") {
        t.weight = parse_double(key, value);
      } else if (key == "shots") {
        t.shots = parse_count<int>(key, value);
      } else if (key == "deadline_us") {
        t.deadline_us = parse_double(key, value);
      } else if (key == "max_in_flight") {
        t.max_in_flight = parse_count<std::size_t>(key, value);
      } else if (key == "admit_rate") {
        t.admit_rate_per_s = parse_double(key, value);
      } else if (key == "admit_burst") {
        t.admit_burst = parse_double(key, value);
      } else if (key == "flood") {
        t.flood_multiplier = parse_double(key, value);
      } else if (key == "flood_from") {
        t.flood_from_s = parse_double(key, value);
      } else if (key == "flood_until") {
        t.flood_until_s = parse_double(key, value);
      } else {
        throw std::invalid_argument("trafficgen: unknown tenant key '" + key +
                                    "'");
      }
    }
    out.push_back(std::move(t));
  }
  if (out.empty()) {
    throw std::invalid_argument("trafficgen: empty tenant spec");
  }
  return out;
}

TrafficConfig parse_traffic_spec(const std::string& spec) {
  const std::vector<std::string> fields = split_on(spec, ',');
  if (fields.empty() || trimmed(fields[0]).empty()) {
    throw std::invalid_argument("trafficgen: empty traffic spec");
  }
  TrafficConfig cfg;
  cfg.pattern = traffic_pattern_from_string(trimmed(fields[0]));
  for (std::size_t f = 1; f < fields.size(); ++f) {
    const auto [key, value] = parse_kv(trimmed(fields[f]));
    if (key == "duration") {
      cfg.duration_s = parse_double(key, value);
    } else if (key == "seed") {
      cfg.seed = parse_count<std::uint64_t>(key, value);
    } else if (key == "dim") {
      cfg.feature_dim = parse_count<std::size_t>(key, value);
    } else if (key == "period") {
      cfg.diurnal_period_s = parse_double(key, value);
    } else if (key == "amplitude") {
      cfg.diurnal_amplitude = parse_double(key, value);
    } else if (key == "cycle") {
      cfg.burst_cycle_s = parse_double(key, value);
    } else if (key == "duty") {
      cfg.burst_duty = parse_double(key, value);
    } else if (key == "mult") {
      cfg.burst_multiplier = parse_double(key, value);
    } else if (key == "idle") {
      cfg.burst_idle_multiplier = parse_double(key, value);
    } else {
      throw std::invalid_argument("trafficgen: unknown traffic key '" + key +
                                  "'");
    }
  }
  return cfg;
}

TrafficConfig adversarial_mix(std::uint64_t seed, double duration_s,
                              double fleet_jobs_per_s) {
  if (duration_s <= 0.0 || fleet_jobs_per_s <= 0.0) {
    throw std::invalid_argument("adversarial_mix: non-positive scale");
  }
  TrafficConfig cfg;
  cfg.pattern = TrafficPattern::kAdversarial;
  cfg.duration_s = duration_s;
  cfg.seed = seed;

  // One noisy neighbor pushing well past its entitlement, two heavy
  // bulk tenants, four light interactive tenants. Aggregate baseline
  // demand is ~1.7x fleet capacity (5x that mid-flood), so every
  // arbiter runs against a standing backlog and the interactive
  // tenants' fate depends entirely on the dequeue policy.
  TenantProfile flood;
  flood.name = "flood";
  flood.weight = 1.0;
  flood.slo_class = monitor::SloClass::kBestEffort;
  flood.rate_per_s = 0.6 * fleet_jobs_per_s;
  flood.flood_multiplier = 5.0;
  flood.flood_from_s = 0.2 * duration_s;
  flood.flood_until_s = 0.8 * duration_s;
  cfg.tenants.push_back(flood);

  for (int b = 0; b < 2; ++b) {
    TenantProfile bulk;
    bulk.name = "bulk" + std::to_string(b);
    bulk.weight = 4.0;
    bulk.slo_class = monitor::SloClass::kThroughputBound;
    bulk.rate_per_s = 0.5 * fleet_jobs_per_s;
    cfg.tenants.push_back(bulk);
  }
  for (int i = 0; i < 4; ++i) {
    TenantProfile interactive;
    interactive.name = "int" + std::to_string(i);
    interactive.weight = 8.0;
    interactive.slo_class = monitor::SloClass::kLatencyBound;
    interactive.rate_per_s = 0.02 * fleet_jobs_per_s;
    cfg.tenants.push_back(interactive);
  }
  return cfg;
}

}  // namespace arbiterq::serve
