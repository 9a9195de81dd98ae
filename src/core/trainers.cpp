#include "arbiterq/core/trainers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "arbiterq/data/dataset.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::core {

namespace {

std::vector<qnn::QnnExecutor> build_executors(
    const qnn::QnnModel& model, const std::vector<device::Qpu>& fleet,
    const qnn::ExecutorOptions& options, const exec::ExecPolicy& policy) {
  if (fleet.empty()) {
    throw std::invalid_argument("DistributedTrainer: empty fleet");
  }
  // Compiling the model for every device (routing + basis translation +
  // noise derivation) is embarrassingly parallel; build into slots so
  // each task constructs its executor in place.
  std::vector<std::optional<qnn::QnnExecutor>> slots(fleet.size());
  exec::parallel_for(policy, 0, fleet.size(),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         slots[i].emplace(model, fleet[i], options);
                       }
                     });
  std::vector<qnn::QnnExecutor> out;
  out.reserve(fleet.size());
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

std::vector<BehavioralVector> build_behavioral(
    const std::vector<qnn::QnnExecutor>& executors) {
  std::vector<BehavioralVector> out;
  out.reserve(executors.size());
  for (const qnn::QnnExecutor& ex : executors) {
    out.push_back(vectorize(ex.compiled(), ex.qpu(),
                            ex.model().circuit().size()));
  }
  return out;
}

/// Zero all but the ceil(keep_fraction * n) largest-|g| components.
void prune_gradient(std::vector<double>& grad, double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction >= 1.0 || grad.empty()) return;
  const auto keep = static_cast<std::size_t>(
      std::ceil(keep_fraction * static_cast<double>(grad.size())));
  if (keep >= grad.size()) return;
  std::vector<double> magnitudes(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    magnitudes[i] = std::abs(grad[i]);
  }
  std::nth_element(magnitudes.begin(),
                   magnitudes.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   magnitudes.end(), std::greater<double>());
  const double threshold = magnitudes[keep - 1];
  for (double& g : grad) {
    if (std::abs(g) < threshold) g = 0.0;
  }
}

struct Batch {
  std::vector<std::vector<double>> features;
  std::vector<int> labels;
};

Batch draw_batch(const data::EncodedSplit& split, std::size_t batch_size,
                 math::Rng rng) {
  const auto idx = data::minibatch_indices(split.train_features.size(),
                                           batch_size, 0, rng);
  Batch b;
  b.features.reserve(idx.size());
  b.labels.reserve(idx.size());
  for (std::size_t i : idx) {
    b.features.push_back(split.train_features[i]);
    b.labels.push_back(split.train_labels[i]);
  }
  return b;
}

}  // namespace

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kSingleNode:
      return "single-node";
    case Strategy::kAllSharing:
      return "all-sharing";
    case Strategy::kEqc:
      return "EQC";
    case Strategy::kArbiterQ:
      return "ArbiterQ";
  }
  throw std::logic_error("strategy_name: unknown strategy");
}

DistributedTrainer::DistributedTrainer(const qnn::QnnModel& model,
                                       std::vector<device::Qpu> fleet,
                                       TrainConfig config)
    : config_(config),
      executors_(build_executors(
          model, fleet,
          qnn::ExecutorOptions{config.error_mitigation, config.exec},
          config.exec)),
      behavioral_(build_behavioral(executors_)),
      similarity_(behavioral_, config.kappa) {}

std::vector<std::vector<int>> DistributedTrainer::sharing_groups() const {
  return similarity_.groups(config_.distance_threshold);
}

std::vector<double> DistributedTrainer::eqc_vote_weights() const {
  std::vector<double> votes(executors_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    votes[i] = 1.0 / std::max(executors_[i].qpu().average_error(), 1e-12);
    total += votes[i];
  }
  for (double& v : votes) v /= total;
  return votes;
}

std::vector<double> DistributedTrainer::initial_weights() const {
  math::Rng rng = math::Rng(config_.seed).split("init-weights");
  const int n = executors_.front().model().num_weights();
  std::vector<double> w(static_cast<std::size_t>(n));
  for (double& v : w) {
    v = rng.uniform(-std::numbers::pi / 4.0, std::numbers::pi / 4.0);
  }
  return w;
}

double DistributedTrainer::fleet_test_loss(
    const data::EncodedSplit& split,
    const std::vector<std::vector<double>>& w) const {
  double total = 0.0;
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    total += executors_[i].dataset_loss(config_.loss, split.test_features,
                                        split.test_labels, w[i]);
  }
  return total / static_cast<double>(executors_.size());
}

double DistributedTrainer::node_test_loss(
    const data::EncodedSplit& split, std::size_t node,
    const std::vector<double>& w) const {
  return executors_[node].dataset_loss(config_.loss, split.test_features,
                                       split.test_labels, w);
}

TrainResult DistributedTrainer::train(
    Strategy strategy, const data::EncodedSplit& split,
    telemetry::TrainingTelemetry* telemetry) const {
  if (split.train_features.empty() || split.test_features.empty()) {
    throw std::invalid_argument("train: empty split");
  }
  AQ_TRACE_SPAN("core.train.run");
  const std::size_t n = executors_.size();
  const auto w0 = initial_weights();
  std::vector<std::vector<double>> weights(n, w0);

  const auto votes = eqc_vote_weights();
  const auto groups = sharing_groups();
  // peer list per node (group members minus self).
  std::vector<std::vector<int>> peers(n);
  for (const auto& g : groups) {
    for (int i : g) {
      for (int j : g) {
        if (i != j) peers[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }

  // Node -> similarity-group index/size, for the telemetry records.
  std::vector<int> group_of(n, -1);
  std::vector<int> group_size(n, 1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int i : groups[g]) {
      group_of[static_cast<std::size_t>(i)] = static_cast<int>(g);
      group_size[static_cast<std::size_t>(i)] =
          static_cast<int>(groups[g].size());
    }
  }

  // Single-node trains on an arbitrarily chosen device (the fleet's
  // first); like every other strategy its model is deployed on the whole
  // fleet for the per-epoch metric (Table I footnote).
  const std::size_t single = 0;

  const math::Rng root = math::Rng(config_.seed).split("train");
  TrainResult result;
  result.strategy = strategy;
  result.epoch_test_loss.reserve(static_cast<std::size_t>(config_.epochs));

  // Temporal drift works on a private copy of the executors, so this
  // const train() call never mutates the trainer's compiled artifacts.
  const bool drifting =
      config_.drift_sigma > 0.0 && config_.drift_interval > 0;
  std::vector<qnn::QnnExecutor> drifted;
  if (drifting) drifted = executors_;
  const std::vector<qnn::QnnExecutor>& execs =
      drifting ? drifted : executors_;

  std::vector<std::vector<double>> grads(n);
  std::vector<double> node_losses(n);
  std::vector<bool> online(n, true);
  std::vector<bool> prev_online(n, true);
  const std::size_t w_total = w0.size();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    AQ_TRACE_SPAN("core.train.epoch");
    AQ_COUNTER_ADD("core.train.epochs", 1);
    prev_online = online;
    if (drifting && epoch > 0 && epoch % config_.drift_interval == 0) {
      math::Rng drift_rng = root.split("drift").split(
          static_cast<std::uint64_t>(epoch));
      for (auto& ex : drifted) {
        ex.recalibrate(config_.drift_sigma, drift_rng);
      }
    }
    // Device churn: nodes drop out independently each epoch.
    if (config_.offline_probability > 0.0) {
      math::Rng churn = root.split("churn").split(
          static_cast<std::uint64_t>(epoch));
      bool any_online = false;
      for (std::size_t i = 0; i < n; ++i) {
        online[i] = !churn.bernoulli(config_.offline_probability);
        any_online |= online[i];
      }
      if (!any_online) online[0] = true;  // the fleet never fully vanishes
    }
    // Per-node gradients on per-node minibatches. Every node owns its
    // executor, its grads[i] slot, and RNG streams split by (epoch, i),
    // so the fleet fans out across the pool; results are bit-identical
    // to the serial node order for any thread count.
    auto node_gradient = [&](std::size_t i) {
      if (!online[i]) {
        grads[i].assign(w_total, 0.0);
        return;
      }
      const Batch b = draw_batch(
          split, config_.batch_size,
          root.split(static_cast<std::uint64_t>(epoch) * 1000 + i));
      grads[i] = execs[i].loss_gradient(config_.loss, b.features,
                                        b.labels, weights[i]);
      if (config_.gradient_shot_noise > 0.0) {
        math::Rng noise_rng = root.split("shot-noise")
                                  .split(static_cast<std::uint64_t>(epoch) *
                                             1000 +
                                         i);
        const double sigma =
            config_.gradient_shot_noise /
            std::sqrt(static_cast<double>(config_.batch_size));
        for (double& g : grads[i]) g += noise_rng.normal(0.0, sigma);
      }
      prune_gradient(grads[i], 1.0 - config_.gradient_prune_ratio);
    };
    if (strategy == Strategy::kSingleNode) {
      // One active node: run it on the caller so the executor's own
      // per-sample parallelism (options().exec) can engage instead.
      node_gradient(single);
    } else {
      AQ_TRACE_SPAN("core.train.gradient_fanout");
      exec::parallel_for(config_.exec, 0, n,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             node_gradient(i);
                           }
                         });
    }

    const std::size_t w_len = weights[0].size();
    // Communication accounting (gradient vectors on the wire).
    switch (strategy) {
      case Strategy::kSingleNode:
        break;
      case Strategy::kAllSharing:
      case Strategy::kEqc: {
        std::size_t online_count = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (online[i]) ++online_count;
        }
        result.gradient_messages += 2 * online_count;
        break;
      }
      case Strategy::kArbiterQ: {
        for (std::size_t i = 0; i < n; ++i) {
          if (!online[i]) continue;
          for (int j : peers[i]) {
            if (online[static_cast<std::size_t>(j)]) {
              ++result.gradient_messages;
            }
          }
        }
        break;
      }
    }
    switch (strategy) {
      case Strategy::kSingleNode: {
        if (online[single]) {
          for (std::size_t k = 0; k < w_len; ++k) {
            weights[single][k] -= config_.learning_rate * grads[single][k];
          }
        }
        for (std::size_t i = 0; i < n; ++i) weights[i] = weights[single];
        break;
      }
      case Strategy::kAllSharing:
      case Strategy::kEqc: {
        std::vector<double> agg(w_len, 0.0);
        double weight_total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (!online[i]) continue;
          weight_total += strategy == Strategy::kEqc ? votes[i] : 1.0;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!online[i]) continue;
          const double v =
              (strategy == Strategy::kEqc ? votes[i] : 1.0) /
              std::max(weight_total, 1e-12);
          for (std::size_t k = 0; k < w_len; ++k) agg[k] += v * grads[i][k];
        }
        for (std::size_t k = 0; k < w_len; ++k) {
          weights[0][k] -= config_.learning_rate * agg[k];
        }
        for (std::size_t i = 1; i < n; ++i) weights[i] = weights[0];
        break;
      }
      case Strategy::kArbiterQ: {
        // All effective gradients are computed before any node updates.
        // Shared gradients are *accumulated* (scaled by similarity, not
        // averaged): a node inside a tight group takes proportionally
        // larger steps, which is where the paper's convergence speedup
        // comes from — the peer gradients point to nearly the same
        // optimum, so the enlarged step is stable (§III-B).
        std::vector<std::vector<double>> eff(n,
                                             std::vector<double>(w_len, 0.0));
        for (std::size_t i = 0; i < n; ++i) {
          if (!online[i]) continue;  // offline: keeps its weights
          for (std::size_t k = 0; k < w_len; ++k) eff[i][k] = grads[i][k];
          for (int j : peers[i]) {
            if (!online[static_cast<std::size_t>(j)]) continue;
            const double s =
                similarity_.similarity(i, static_cast<std::size_t>(j));
            for (std::size_t k = 0; k < w_len; ++k) {
              eff[i][k] += s * grads[static_cast<std::size_t>(j)][k];
            }
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!online[i]) continue;
          for (std::size_t k = 0; k < w_len; ++k) {
            weights[i][k] -= config_.learning_rate * eff[i][k];
          }
        }
        break;
      }
    }

    // Per-node test evaluation fans out like the gradients; telemetry
    // emission and the loss sum stay serial (ordered) behind the barrier.
    {
      AQ_TRACE_SPAN("core.train.eval_fanout");
      exec::parallel_for(
          config_.exec, 0, n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              node_losses[i] = execs[i].dataset_loss(config_.loss,
                                                     split.test_features,
                                                     split.test_labels,
                                                     weights[i]);
            }
          });
    }
    double epoch_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double node_loss = node_losses[i];
      epoch_loss += node_loss;
      if (telemetry != nullptr || config_.monitor != nullptr) {
        telemetry::EpochQpuRecord rec;
        rec.strategy = strategy_name(strategy);
        rec.epoch = epoch;
        rec.qpu = static_cast<int>(i);
        rec.online = online[i];
        rec.churned = epoch > 0 && online[i] != prev_online[i];
        rec.group = group_of[i];
        rec.group_size = group_size[i];
        rec.loss = node_loss;
        double norm_sq = 0.0;
        for (double g : grads[i]) norm_sq += g * g;
        rec.grad_norm = std::sqrt(norm_sq);
        // Parameter-shift accounting: a node that computed a gradient
        // this epoch would have run 2 circuits per weight per sample.
        const bool computed =
            online[i] && (strategy != Strategy::kSingleNode || i == single);
        rec.shots_estimate =
            computed ? static_cast<std::uint64_t>(2 * w_total) *
                           static_cast<std::uint64_t>(config_.batch_size)
                     : 0;
        if (telemetry != nullptr) telemetry->on_epoch(rec);
        if (config_.monitor != nullptr) config_.monitor->on_epoch(rec);
      }
    }
    result.epoch_test_loss.push_back(epoch_loss / static_cast<double>(n));
    AQ_GAUGE_SET("core.train.last_loss", result.epoch_test_loss.back());
  }

  result.weights = std::move(weights);
  result.convergence = detect_convergence(result.epoch_test_loss);
  return result;
}

}  // namespace arbiterq::core
