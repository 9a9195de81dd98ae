#pragma once
// Training/inference telemetry sinks. `core/trainers.cpp` drives
// on_epoch() with one record per (epoch, QPU); `core/scheduler.cpp`
// drives on_assignment() with one record per inference task. Sinks are
// explicit opt-in (a nullptr sink costs one branch), so they work
// identically with the runtime telemetry switch off — only the ambient
// span/counter macros go quiet then.

#include <cstdint>
#include <string>
#include <vector>

namespace arbiterq::telemetry {

/// One (epoch, QPU) observation from distributed training.
struct EpochQpuRecord {
  std::string strategy;  ///< core::strategy_name() label
  int epoch = 0;         ///< 0-based
  int qpu = 0;           ///< fleet index
  bool online = true;    ///< device churn state this epoch
  /// Online state flipped relative to the previous epoch (always false at
  /// epoch 0): the per-node churn signal.
  bool churned = false;
  int group = -1;      ///< similarity-group index (threshold grouping)
  int group_size = 1;  ///< members in that group, including this node
  double loss = 0.0;   ///< node's test loss on its deployed weights
  double grad_norm = 0.0;  ///< l2 norm of the node's (post-prune) gradient
  /// Parameter-shift shot accounting: 2 circuit evaluations per weight
  /// per sample at the configured shots-per-evaluation granularity. An
  /// estimate of the hardware budget this epoch would have consumed.
  std::uint64_t shots_estimate = 0;
};

struct QpuShotShare {
  int qpu = 0;
  int shots = 0;
};

/// One inference-task assignment from the shot-oriented scheduler.
struct AssignmentRecord {
  std::size_t task = 0;
  int torus = 0;  ///< torus the greedy pass picked
  /// The torus accuracy score the assignment sorted on (higher = cleaner
  /// members) — the *estimated* fidelity proxy.
  double estimated_score = 0.0;
  /// Warm-up loss sketch that ranked the task's difficulty.
  double warmup_difficulty = 0.0;
  /// Loss realized by the full-budget execution — compare against the
  /// estimate to judge the scheduler's ranking quality.
  double realized_loss = 0.0;
  std::vector<QpuShotShare> shot_split;  ///< shots per member QPU
};

class TrainingTelemetry {
 public:
  virtual ~TrainingTelemetry() = default;
  virtual void on_epoch(const EpochQpuRecord& record) = 0;
  virtual void on_assignment(const AssignmentRecord& record) = 0;
};

/// In-memory sink for tests and ad-hoc analysis.
class RecordingTelemetry final : public TrainingTelemetry {
 public:
  void on_epoch(const EpochQpuRecord& record) override {
    epochs.push_back(record);
  }
  void on_assignment(const AssignmentRecord& record) override {
    assignments.push_back(record);
  }

  std::vector<EpochQpuRecord> epochs;
  std::vector<AssignmentRecord> assignments;
};

}  // namespace arbiterq::telemetry
