#pragma once
// Open-loop traffic generator for the multi-tenant serving runtime.
//
// The generator produces a merged, time-ordered stream of JobSpecs for
// a mix of tenants, each with its own arrival rate, SLO class, shot
// budget, deadline, and quota profile. Arrivals are nonhomogeneous
// Poisson, realized by thinning: each tenant draws exponential
// inter-arrival candidates at its peak rate from a seeded split stream
// and accepts a candidate with probability lambda(t)/lambda_max, where
// lambda(t) follows the configured pattern:
//
//   steady      — constant rate;
//   diurnal     — sinusoidal ramp (period/amplitude), modeling the
//                 day/night load swing of a shared fleet;
//   bursty      — square-wave duty cycle: short windows at
//                 burst_multiplier x rate over a near-idle floor;
//   adversarial — steady per-tenant, except tenants with a flood
//                 profile multiply their rate by flood_multiplier
//                 inside [flood_from_s, flood_until_s) — the "noisy
//                 neighbor" a fairness-aware arbiter must contain.
//
// Determinism: every candidate, accept decision, feature vector, and
// label comes from Rng(seed).split("traffic").split(tenant index), so
// the full generated sequence — arrival stamps included — is a pure
// function of (config, seed). Jobs carry the arrival stamp in
// JobSpec::arrival_us; submitted in order to a ServingRuntime they pin
// the modeled admission clock, which makes the runtime's quota and
// arbitration decisions replay bit-identically (see ServeConfig).
//
// Streams never interleave across tenants: the merge picks the tenant
// with the earliest pending arrival (ties break toward the lower
// tenant index), so inserting or removing one tenant leaves every
// other tenant's sequence untouched.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arbiterq/math/rng.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/serve/runtime.hpp"

namespace arbiterq::serve {

/// One tenant's workload shape. Quota fields mirror TenantSpec so a
/// profile can be projected straight into ServeConfig::tenants via
/// TrafficGenerator::tenant_specs().
struct TenantProfile {
  std::string name;
  double weight = 1.0;  ///< arbiter share (see TenantSpec::weight)
  monitor::SloClass slo_class = monitor::SloClass::kBestEffort;
  /// Mean arrival rate (jobs per modeled second) outside any
  /// flood/burst modulation. Must be > 0.
  double rate_per_s = 1.0;
  int shots = 0;             ///< per-job shots; <= 0 uses runtime default
  double deadline_us = -1.0; ///< per-job deadline; < 0 uses runtime default
  std::size_t max_in_flight = 0;  ///< quota; 0 = unlimited
  double admit_rate_per_s = 0.0;  ///< credit refill; <= 0 = unthrottled
  double admit_burst = 1.0;       ///< credit bucket depth
  /// Adversarial pattern only: rate multiplier inside the flood window.
  double flood_multiplier = 1.0;
  double flood_from_s = 0.0;
  double flood_until_s = 0.0;
};

enum class TrafficPattern { kSteady = 0, kDiurnal = 1, kBursty = 2,
                            kAdversarial = 3 };

std::string traffic_pattern_name(TrafficPattern pattern);
/// Accepts the canonical names; throws std::invalid_argument otherwise.
TrafficPattern traffic_pattern_from_string(const std::string& name);

struct TrafficConfig {
  std::vector<TenantProfile> tenants;
  TrafficPattern pattern = TrafficPattern::kSteady;
  double duration_s = 1.0;  ///< modeled horizon; arrivals beyond it stop
  std::uint64_t seed = 1;
  std::size_t feature_dim = 4;  ///< angles drawn uniform in [0, pi)
  /// Diurnal shape: lambda(t) = rate * (1 + A sin(2 pi t / period)).
  double diurnal_period_s = 0.5;
  double diurnal_amplitude = 0.8;  ///< A in [0, 1)
  /// Bursty shape: the first `duty` fraction of each cycle runs at
  /// burst_multiplier x rate, the rest at burst_idle_multiplier x rate.
  double burst_cycle_s = 0.2;
  double burst_duty = 0.25;
  double burst_multiplier = 4.0;
  double burst_idle_multiplier = 0.1;
};

/// One generated arrival: the tenant index into TrafficConfig::tenants
/// and a fully-populated JobSpec (arrival_us stamped).
struct GeneratedJob {
  double arrival_us = 0.0;
  std::size_t tenant = 0;
  JobSpec spec;
};

class TrafficGenerator {
 public:
  /// Throws std::invalid_argument on an empty mix, non-positive rates
  /// or duration, or out-of-range shape parameters.
  explicit TrafficGenerator(TrafficConfig config);

  const TrafficConfig& config() const noexcept { return config_; }

  /// Next arrival in global time order, or nullopt once every tenant's
  /// stream has passed the horizon.
  std::optional<GeneratedJob> next();

  /// Drain the remaining stream (the full stream when freshly
  /// constructed or reset).
  std::vector<GeneratedJob> generate_all();

  /// Rewind to the start of the (identical) stream.
  void reset();

  /// Project the mix into ServeConfig::tenants rows (name, weight,
  /// quota fields), in tenant order.
  std::vector<TenantSpec> tenant_specs() const;

 private:
  struct TenantState {
    math::Rng rng;
    double next_s = 0.0;   ///< accepted arrival pending emission
    bool exhausted = false;

    explicit TenantState(math::Rng r) : rng(r) {}
  };

  /// lambda(t) for tenant `i` under the configured pattern.
  double rate_at(std::size_t i, double t_s) const;
  /// Peak lambda for tenant `i` (the thinning envelope).
  double peak_rate(std::size_t i) const;
  /// Advance tenant `i` to its next accepted arrival or exhaust it.
  void advance(std::size_t i);

  TrafficConfig config_;
  std::vector<TenantState> streams_;
};

/// Parse a tenant-mix string: tenants separated by ';', each a name
/// followed by comma-separated key=value fields —
//
///   "int0,class=latency_bound,rate=20,weight=8,shots=128,
///    deadline_us=5000,max_in_flight=4,admit_rate=25,admit_burst=8,
///    flood=5,flood_from=0.2,flood_until=0.8"
///
/// `class` accepts latency_bound|throughput_bound|best_effort (or the
/// shorts latency|throughput|best); `shots` and `max_in_flight` take a
/// whole non-negative integer that fits the field. Throws
/// std::invalid_argument on an unknown key, malformed or out-of-range
/// field, or duplicate tenant name.
std::vector<TenantProfile> parse_tenant_profiles(const std::string& spec);

/// Parse a traffic-shape string: "<pattern>[,key=value...]" with keys
/// duration, seed, period, amplitude, cycle, duty, mult, idle — e.g.
/// "diurnal,duration=2,seed=7,period=0.5,amplitude=0.8". `seed` takes a
/// whole non-negative integer; a malformed or out-of-range field throws
/// std::invalid_argument. Jobs carry the serving model's encoding width,
/// `feature_dim`, which the returned config takes; the spec has no say
/// in it, and a `dim` key throws std::invalid_argument naming the
/// model's width. The returned config has an empty tenant mix; fill it
/// from parse_tenant_profiles or adversarial_mix.
TrafficConfig parse_traffic_spec(const std::string& spec,
                                 std::size_t feature_dim);

/// Canned adversarial scenario scaled to a fleet that completes
/// `fleet_jobs_per_s` jobs per modeled second: one best-effort "flood"
/// tenant at 0.6x capacity that multiplies 5x mid-run, two
/// throughput-bound bulk tenants at 0.5x capacity each, and four light
/// latency-bound interactive tenants at 0.02x capacity each. Under
/// FIFO the flood+bulk backlog starves the interactive tenants; a
/// fairness-aware arbiter must not.
TrafficConfig adversarial_mix(std::uint64_t seed, double duration_s,
                              double fleet_jobs_per_s);

}  // namespace arbiterq::serve
