#pragma once
// Fleet health monitoring (aq_monitor): per-QPU convergence trackers,
// behavioral-vector drift since the last calibration, and similarity-
// neighborhood structure, rolled up into a FleetHealthReport with one
// status per QPU:
//
//   stalled  — the loss curve is flat (EMA slope inside the tolerance
//              band for `stall_epochs` straight epochs) without having
//              meaningfully improved since training started. A curve
//              that *converged* is also flat but improved first, so it
//              stays healthy;
//   drifting — Eq. 1 distance between the QPU's current behavioral
//              vector and its calibration baseline exceeds
//              drift_threshold (the device no longer behaves like the
//              one the model was personalized for);
//   isolated — no similarity neighbor under the grouping threshold in a
//              multi-QPU fleet (the node trains alone, no variance
//              reduction);
//   healthy  — none of the above.
//
// Status precedence when several apply: stalled > drifting > isolated
// (training being stuck outranks everything; a drifted device explains
// more than an isolated one).
//
// FleetHealthMonitor is a telemetry::TrainingTelemetry sink, so it plugs
// into DistributedTrainer either through the train() telemetry argument
// or the TrainConfig::monitor hook — like every sink it is explicit and
// fully functional with the runtime telemetry switch off (only the
// ambient macro instrumentation goes quiet then).

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/monitor/introspect.hpp"
#include "arbiterq/telemetry/sink.hpp"

namespace arbiterq::monitor {

enum class QpuStatus { kHealthy, kDrifting, kStalled, kIsolated };

std::string status_name(QpuStatus status);

struct HealthConfig {
  /// EMA smoothing factor for the loss/grad-norm series (weight of the
  /// newest observation).
  double ema_alpha = 0.3;
  /// An epoch counts toward a plateau when |EMA slope| is below this
  /// fraction of max(|loss EMA|, 1e-12).
  double flat_slope_tol = 5e-3;
  /// Consecutive plateau epochs before a curve counts as flat.
  int stall_epochs = 5;
  /// Never judge a QPU stalled before this many observations.
  int min_epochs = 8;
  /// A flat curve is only *stalled* if its relative improvement since
  /// the first epoch, (first - ema) / max(|first|, eps), is below this.
  double min_improvement = 0.05;
  /// Eq. 1 behavioral distance from the calibration baseline beyond
  /// which a QPU counts as drifting. The default sits above numerical
  /// noise but below the trainer's default grouping threshold (1.2e-3):
  /// a device can drift out of its personality before it leaves its
  /// group.
  double drift_threshold = 2e-4;
};

/// Streaming per-QPU convergence state: loss EMA, EMA slope, gradient-
/// norm EMA and trend, plateau run length, improvement since epoch 0.
class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(HealthConfig config = {});

  void observe(double loss, double grad_norm);

  int epochs() const noexcept { return epochs_; }
  double last_loss() const noexcept { return last_loss_; }
  double loss_ema() const noexcept { return loss_ema_; }
  /// Smoothed per-epoch change of the loss EMA (negative = improving).
  double loss_slope() const noexcept { return slope_ema_; }
  double grad_norm_ema() const noexcept { return grad_ema_; }
  /// Smoothed per-epoch change of the gradient-norm EMA.
  double grad_norm_slope() const noexcept { return grad_slope_ema_; }
  /// (first_loss - loss_ema) / max(|first_loss|, 1e-12).
  double relative_improvement() const noexcept;
  int plateau_length() const noexcept { return plateau_; }
  bool stalled() const noexcept;

 private:
  HealthConfig config_;
  int epochs_ = 0;
  double first_loss_ = 0.0;
  double last_loss_ = 0.0;
  double loss_ema_ = 0.0;
  double slope_ema_ = 0.0;
  double grad_ema_ = 0.0;
  double grad_slope_ema_ = 0.0;
  int plateau_ = 0;
};

struct QpuHealth {
  int qpu = 0;
  QpuStatus status = QpuStatus::kHealthy;
  int epochs = 0;
  double loss = 0.0;
  double loss_ema = 0.0;
  double loss_slope = 0.0;
  double improvement = 0.0;
  double grad_norm_ema = 0.0;
  double grad_norm_slope = 0.0;
  double drift = 0.0;   ///< Eq. 1 distance from the calibration baseline
  int degree = 0;       ///< similarity neighbors under the threshold
  int group = -1;
  int group_size = 1;
  bool online = true;   ///< last observed churn state
  int churn_flips = 0;  ///< online<->offline transitions observed
  int shard = -1;       ///< serving shard owning this QPU (-1 = unsharded)
};

struct FleetHealthReport {
  std::vector<QpuHealth> qpus;
  std::size_t healthy = 0;
  std::size_t drifting = 0;
  std::size_t stalled = 0;
  std::size_t isolated = 0;
  /// Edge churn between the two most recent observe_similarity calls
  /// (empty until the graph has been observed twice).
  EdgeChurn churn;
  /// SLO breach windows forwarded by an attached SloEngine.
  std::size_t slo_breaches = 0;
  /// Highest burn rate among forwarded breaches (0 when none).
  double slo_worst_burn = 0.0;
  /// Time-series anomalies forwarded by an AnomalyWatchdog.
  std::size_t anomalies = 0;
  /// "series kind" of the highest-scored anomaly (empty when none).
  std::string worst_anomaly;
  double worst_anomaly_score = 0.0;

  /// Fixed-width human-readable table plus a one-line summary.
  std::string to_table_string() const;
  /// One {"type":"health",...} JSONL line per QPU followed by one
  /// {"type":"health_summary",...} line (report::JsonLine escaping).
  std::string to_jsonl() const;
};

/// Aggregates the three health signals. Thread-safe: on_epoch may be
/// driven from a training loop while report() is read elsewhere.
class FleetHealthMonitor final : public telemetry::TrainingTelemetry {
 public:
  explicit FleetHealthMonitor(std::size_t fleet_size,
                              HealthConfig config = {});

  /// TrainingTelemetry: feeds the QPU's ConvergenceTracker and the
  /// online/churn tally. Records for QPUs beyond fleet_size are ignored.
  void on_epoch(const telemetry::EpochQpuRecord& record) override;
  /// Inference assignments carry no health signal (yet); counted only.
  void on_assignment(const telemetry::AssignmentRecord& record) override;
  /// Membership-change event outside a training epoch (the serving
  /// runtime's dropout detection): updates the online/churn tally only,
  /// leaving the convergence tracker untouched. Out-of-range QPUs are
  /// ignored, like on_epoch.
  void observe_membership(int qpu, bool online);
  /// SLO breach forwarded by an SloEngine: tallies the breach and keeps
  /// the worst burn rate seen, surfaced in the report summary.
  void observe_slo_breach(const std::string& slo_class, double burn_rate);
  /// Windowed time-series anomaly forwarded by an AnomalyWatchdog
  /// (watchdog.hpp): tallied next to SLO breaches; the highest |score|
  /// seen is kept as "series kind" in the report summary.
  void observe_anomaly(const std::string& series, const std::string& kind,
                       double score);
  /// QPU -> serving-shard ownership (set by a sharded ServingRuntime);
  /// surfaces as the `shard` column of every health row. Entries beyond
  /// fleet_size are ignored; unmapped QPUs report -1.
  void set_shard_map(std::vector<int> shard_by_qpu);

  /// Calibration baseline the drift distances are measured against.
  void set_baseline(const std::vector<core::BehavioralVector>& vectors);
  /// Recompute per-QPU drift as behavioral_distance(baseline, current);
  /// call after rebuilding behavioral vectors (e.g. post-recalibration).
  void observe_calibration(
      const std::vector<core::BehavioralVector>& vectors);
  /// Record the similarity structure; the second and later calls also
  /// compute edge churn against the previous one.
  void observe_similarity(const core::SimilarityGraph& graph,
                          double threshold);

  std::size_t fleet_size() const noexcept { return trackers_.size(); }
  std::size_t assignments_seen() const;
  FleetHealthReport report() const;

 private:
  mutable std::mutex mu_;
  HealthConfig config_;
  std::vector<ConvergenceTracker> trackers_;
  std::vector<double> drift_;
  std::vector<bool> online_;
  std::vector<bool> have_online_;
  std::vector<int> churn_flips_;
  std::vector<int> shard_map_;  ///< by QPU; empty until set_shard_map
  std::vector<core::BehavioralVector> baseline_;
  SimilarityView similarity_;
  bool have_similarity_ = false;
  EdgeChurn churn_;
  std::size_t assignments_ = 0;
  std::size_t slo_breaches_ = 0;
  double slo_worst_burn_ = 0.0;
  std::size_t anomalies_ = 0;
  std::string worst_anomaly_;
  double worst_anomaly_score_ = 0.0;
};

}  // namespace arbiterq::monitor
