#pragma once
// Deterministic fault injection for the fleet serving runtime. Faults
// are *pure functions* of (seed, job id, qpu, attempt) — never of
// wall-clock or thread interleaving — so a faulted serving run is
// reproducible bit-for-bit: two runs with the same seed see the same
// QPU dropouts, the same transient failures and the same latency
// spikes, whatever the workers' real-time schedule was.
//
// Three fault classes:
//  * QPU dropout — permanent. A dropout event (qpu, at_job) means the
//    device stops answering for every execution belonging to a job id
//    >= at_job. Events come from an explicit script and/or are drawn
//    once per QPU at construction (probability mode).
//  * Transient execution failure — per (job, qpu, attempt) Bernoulli;
//    the batch survives and the retry policy re-routes it.
//  * Latency spike — per (job, qpu, attempt) Bernoulli; the execution
//    succeeds but its modeled hardware time is multiplied, which is
//    what pushes deadline-bounded jobs over their budget.
//
// Membership timeline: the runtime routes new jobs around a dead QPU
// only once the failure has been *detected*. Detection is modeled in
// job-id time — `detection_lag_jobs` admissions after the dropout — so
// the routing epoch of job j, routing_epoch(j), is also a pure
// function of j. Jobs admitted inside the detection window still get
// routed to the dying device and are rescued by the retry path; that
// window is exactly what the acceptance test's retry counters measure.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arbiterq/math/rng.hpp"

namespace arbiterq::serve {

/// Permanent QPU loss: executions for jobs >= at_job fail on `qpu`.
struct DropoutEvent {
  int qpu = 0;
  std::uint64_t at_job = 0;
};

struct FaultConfig {
  /// Per-(job, qpu, attempt) probability of a transient execution
  /// failure (the batch is re-routed and retried).
  double transient_probability = 0.0;
  /// Per-(job, qpu, attempt) probability of a latency spike.
  double latency_spike_probability = 0.0;
  /// Modeled-time multiplier applied when a spike fires.
  double latency_spike_multiplier = 8.0;
  /// Probability that a QPU drops out somewhere inside the first
  /// `dropout_horizon_jobs` admissions (drawn once per QPU at
  /// construction); scripted `dropouts` ride on top.
  double dropout_probability = 0.0;
  std::uint64_t dropout_horizon_jobs = 256;
  /// Scripted permanent dropouts, at most one per QPU.
  std::vector<DropoutEvent> dropouts;
  /// Admissions between a dropout and the router learning about it.
  std::uint64_t detection_lag_jobs = 4;
  std::uint64_t seed = 2026;
};

class FaultInjector {
 public:
  /// `fleet_size` bounds the qpu indices; probability-mode dropouts are
  /// drawn here, once, from config.seed. Throws std::invalid_argument on
  /// an out-of-range or second scripted dropout of one QPU, or when the
  /// dropouts would kill the whole fleet.
  FaultInjector(std::size_t fleet_size, FaultConfig config);

  const FaultConfig& config() const noexcept { return config_; }
  /// All dropout events (scripted + drawn), sorted by at_job.
  const std::vector<DropoutEvent>& dropouts() const noexcept {
    return dropouts_;
  }

  /// Permanent death: true when `job` >= the QPU's dropout threshold.
  bool dropped(int qpu, std::uint64_t job) const;
  /// Transient execution failure for this (job, qpu, attempt).
  bool transient_failure(std::uint64_t job, int qpu, int attempt) const;
  /// Modeled-time multiplier (1.0, or the spike multiplier).
  double latency_multiplier(std::uint64_t job, int qpu, int attempt) const;

  /// Routing epoch of job j: how many dropouts the router has detected
  /// by admission j (at_job + detection_lag_jobs <= j). Monotone in j.
  std::size_t routing_epoch(std::uint64_t job) const;
  /// QPUs the router considers alive at `epoch` (fleet minus the first
  /// `epoch` dropouts), ascending.
  std::vector<int> alive_at_epoch(std::size_t epoch) const;
  std::size_t max_epoch() const noexcept { return dropouts_.size(); }

  /// Parse a CLI fault spec: comma-separated directives
  ///   kill:<qpu>@<job>   scripted dropout
  ///   drop:<p>[@<horizon>]  probability-mode dropouts
  ///   transient:<p>      transient failure probability
  ///   spike:<p>x<mult>   latency spikes
  ///   lag:<jobs>         detection lag
  ///   seed:<n>
  /// e.g. "kill:3@40,transient:0.05,spike:0.1x8". Throws
  /// std::invalid_argument on malformed specs: a field that is not
  /// wholly one number (or is negative), a probability outside [0, 1],
  /// a spike multiplier that is not finite and > 0, or a second kill of
  /// one QPU.
  static FaultConfig parse(std::string_view spec);

 private:
  math::Rng decision_rng(std::string_view stream, std::uint64_t job,
                         int qpu, int attempt) const;

  std::size_t fleet_size_;
  FaultConfig config_;
  std::vector<DropoutEvent> dropouts_;  ///< sorted by at_job
  math::Rng root_;
};

}  // namespace arbiterq::serve
