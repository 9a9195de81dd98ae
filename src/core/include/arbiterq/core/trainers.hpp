#pragma once
// The four distributed training strategies compared in Table I / Fig. 5:
//
//  * single-node  — one QPU trains alone; its weights are deployed
//    everywhere (no parallelism, no heterogeneity handling);
//  * all-sharing  — one shared weight vector, gradient = plain average
//    over the fleet (the straw-man of Fig. 2a);
//  * EQC          — one shared weight vector, gradient = noise-weighted
//    vote (weight ~ 1/average device error), after Stein et al.;
//  * ArbiterQ     — a personalized weight vector per QPU; each node's
//    update blends its own gradient with peers' gradients scaled by the
//    behavioral similarity sim(i,j) = exp(-kappa*dist), restricted to its
//    threshold group (paper §III-B).
//
// Every node draws its own minibatch each epoch, so gradient averaging
// within a group genuinely reduces gradient noise — the mechanism behind
// the convergence speedup.
//
// The per-epoch metric matches Table I's footnote: the test-set loss
// averaged across all QPUs, each QPU evaluating the weights it would
// deploy (its own for ArbiterQ; the shared, central or single-node-
// trained ones otherwise), without any inference scheduling.

#include <cstdint>
#include <string>
#include <vector>

#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/core/convergence.hpp"
#include "arbiterq/core/similarity.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/qpu.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/telemetry/sink.hpp"

namespace arbiterq::core {

enum class Strategy { kSingleNode, kAllSharing, kEqc, kArbiterQ };

std::string strategy_name(Strategy s);

struct TrainConfig {
  qnn::LossKind loss = qnn::LossKind::kMse;
  double learning_rate = 0.8;
  int epochs = 100;
  std::size_t batch_size = 4;
  /// Similarity sharpness. The paper sets 20000 (§V-A); our Eq. 1
  /// distances come out ~10x larger than theirs (vector length and gate
  /// error normalization differ), so 2000 spans the same effective
  /// similarity range. Both are just points on the same ablation axis
  /// (bench_ablation_sharing sweeps it).
  double kappa = 2000.0;
  /// Grouping threshold on Eq. 1 distances; the default admits peers with
  /// sim >= ~0.1 under the default kappa.
  double distance_threshold = 1.2e-3;
  /// Standard deviation of the shot-noise on each gradient component for
  /// a batch-size-1 estimate. On hardware, gradients come from
  /// parameter-shift with a finite shot budget, so every component
  /// carries sampling noise ~1/sqrt(shots); a node's effective noise is
  /// this value / sqrt(batch_size), and gradient *sharing* divides it
  /// further by ~sqrt(group size) — the variance-reduction mechanism
  /// behind the paper's convergence speedups. 0 disables (exact
  /// gradients).
  double gradient_shot_noise = 0.25;
  /// Depolarizing error mitigation on every executor (see
  /// qnn::ExecutorOptions) — required when the compiled circuit's
  /// survival probability is too small to carry gradient signal
  /// (the 10-layer HMDB51 model).
  bool error_mitigation = false;
  /// Gradient pruning (after Wang et al., QOC): keep only the largest
  /// |g| fraction of each node's gradient components and zero the rest.
  /// On hardware this saves the pruned components' circuit executions in
  /// later epochs; here it is an accuracy/epoch trade-off knob.
  /// 0 disables, 0.5 keeps the top half, etc.
  double gradient_prune_ratio = 0.0;
  /// Device instability (the paper's "frequent online/offline"): each
  /// epoch every node is independently offline with this probability.
  /// Offline nodes contribute no gradient and keep their weights; the
  /// single-node strategy stalls entirely when its device is offline.
  double offline_probability = 0.0;
  /// Temporal calibration drift (paper §II-B): every `drift_interval`
  /// epochs each device's coherent biases drift by N(0, drift_sigma)
  /// radians. 0 interval (or sigma) disables. The drifted executors live
  /// only inside the train() call; the trainer's compiled artifacts are
  /// untouched.
  double drift_sigma = 0.0;
  int drift_interval = 0;
  std::uint64_t seed = 42;
  /// Parallel execution policy for the per-QPU epoch work: minibatch
  /// gradient evaluation and the per-node test-loss sweep fan out across
  /// the shared thread pool (each node already owns its executor, batch
  /// and split RNG stream), while the similarity-weighted gradient merge
  /// and the weight updates stay behind a serial barrier — epoch results
  /// are bit-identical to the sequential schedule for any thread count.
  /// num_threads: 1 = serial (default), 0 = auto (ARBITERQ_THREADS env
  /// var, else hardware_concurrency), N = cap at N-way.
  exec::ExecPolicy exec = {};
  /// Optional health hook (non-owning; must outlive train()): receives
  /// the same per-(epoch, QPU) record stream as train()'s telemetry
  /// argument, in the same serial order. Lets a standing observer — e.g.
  /// monitor::FleetHealthMonitor — ride along on every train() call
  /// without threading a second sink through each call site. Purely
  /// observational: training results are identical with or without it.
  telemetry::TrainingTelemetry* monitor = nullptr;
};

struct TrainResult {
  Strategy strategy = Strategy::kSingleNode;
  /// Mean test loss across QPUs after each epoch.
  std::vector<double> epoch_test_loss;
  /// Gradient messages exchanged over the whole run: 0 for single-node;
  /// 2n per epoch for the centralized strategies (n uploads + n
  /// broadcasts); sum of online peer links for ArbiterQ. The
  /// communication price of each scheme.
  std::size_t gradient_messages = 0;
  /// Deployed weights per QPU after the last epoch (identical vectors for
  /// the shared-weight strategies).
  std::vector<std::vector<double>> weights;
  Convergence convergence;
};

class DistributedTrainer {
 public:
  /// Compiles the model on every device and builds behavioral vectors +
  /// the similarity graph up front.
  DistributedTrainer(const qnn::QnnModel& model,
                     std::vector<device::Qpu> fleet, TrainConfig config);

  std::size_t fleet_size() const noexcept { return executors_.size(); }
  const TrainConfig& config() const noexcept { return config_; }
  const std::vector<qnn::QnnExecutor>& executors() const noexcept {
    return executors_;
  }
  const std::vector<BehavioralVector>& behavioral_vectors() const noexcept {
    return behavioral_;
  }
  const SimilarityGraph& similarity() const noexcept { return similarity_; }
  /// Sharing groups under the configured threshold.
  std::vector<std::vector<int>> sharing_groups() const;

  /// `telemetry` (optional) receives one EpochQpuRecord per (epoch, QPU):
  /// per-node test loss, gradient norm, similarity-group membership,
  /// online/churn state and a parameter-shift shot estimate.
  TrainResult train(Strategy strategy, const data::EncodedSplit& split,
                    telemetry::TrainingTelemetry* telemetry = nullptr) const;

  /// EQC voting weights (normalized inverse average device error).
  std::vector<double> eqc_vote_weights() const;

 private:
  std::vector<double> initial_weights() const;
  double fleet_test_loss(const data::EncodedSplit& split,
                         const std::vector<std::vector<double>>& w) const;
  double node_test_loss(const data::EncodedSplit& split, std::size_t node,
                        const std::vector<double>& w) const;

  TrainConfig config_;
  std::vector<qnn::QnnExecutor> executors_;
  std::vector<BehavioralVector> behavioral_;
  SimilarityGraph similarity_;
};

}  // namespace arbiterq::core
