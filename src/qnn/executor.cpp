#include "arbiterq/qnn/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "arbiterq/qnn/gradient.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::qnn {

QnnExecutor::QnnExecutor(QnnModel model, device::Qpu qpu,
                         ExecutorOptions options)
    : model_(std::move(model)),
      qpu_(std::move(qpu)),
      options_(options),
      compiled_(transpile::compile(model_.circuit(), qpu_)),
      simulator_(qpu_.make_noise_model()),
      readout_qubit_(compiled_.measure_qubit(0)),
      survival_(simulator_.noise().survival_probability(
          compiled_.executable)),
      depth_(compiled_.executable.depth()) {
  rebuild_plan();
}

void QnnExecutor::rebuild_plan() {
  AQ_COUNTER_ADD("qnn.plan.cache_misses", 1);
  plan_ = std::make_shared<const sim::ExecPlan>(
      simulator_.make_plan(compiled_.executable));
}

void QnnExecutor::recalibrate(double bias_drift_sigma, math::Rng& rng) {
  sim::NoiseModel drifted = simulator_.noise();
  if (!drifted.enabled()) return;
  for (int q = 0; q < drifted.num_qubits(); ++q) {
    drifted.set_coherent_bias(
        q, drifted.coherent_bias(q) + rng.normal(0.0, bias_drift_sigma));
  }
  simulator_ = sim::StatevectorSimulator(std::move(drifted));
  // The plan baked the old biases into its fused constants and slot
  // specs — it is stale the moment the noise model changes.
  rebuild_plan();
}

double QnnExecutor::readout_probability(double z) const {
  if (options_.mitigate_depolarizing && survival_ > 0.0) z /= survival_;
  const double p_one = 0.5 * (1.0 - z);
  const double p01 = noise().enabled() ? noise().readout_p01(readout_qubit_)
                                       : 0.0;
  const double p10 = noise().enabled() ? noise().readout_p10(readout_qubit_)
                                       : 0.0;
  return p_one * (1.0 - p10) + (1.0 - p_one) * p01;
}

void QnnExecutor::block_probabilities(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& weights, std::size_t b0, std::size_t count,
    bool adjoint, sim::Workspace& ws) const {
  const auto np = static_cast<std::size_t>(plan_->num_params());
  const auto nq = static_cast<std::size_t>(model_.num_qubits());
  ws.params.resize(count * np);
  for (std::size_t b = 0; b < count; ++b) {
    const std::vector<double>& f = features[b0 + b];
    if (f.size() != nq || weights.size() != np - nq) {
      throw std::invalid_argument("block_probabilities: size mismatch");
    }
    // pack_params_into's layout: [features | weights], one binding per
    // column at stride np.
    double* const dst = ws.params.data() + b * np;
    std::copy(f.begin(), f.end(), dst);
    std::copy(weights.begin(), weights.end(), dst + nq);
  }
  ws.values.resize(count);
  AQ_COUNTER_ADD("qnn.forward.calls", static_cast<std::uint64_t>(count));
  AQ_COUNTER_ADD("qnn.plan.cache_hits", static_cast<std::uint64_t>(count));
  plan_->bind_block(ws.params.data(), np, count, ws, adjoint);
  plan_->expectation_z_bound(readout_qubit_, ws, ws.values.data());
  for (double& v : ws.values) v = readout_probability(v);
}

double QnnExecutor::probability(const std::vector<double>& features,
                                const std::vector<double>& weights) const {
  AQ_COUNTER_ADD("qnn.forward.calls", 1);
  AQ_COUNTER_ADD("qnn.plan.cache_hits", 1);
  auto ws = workspaces_.acquire();
  model_.pack_params_into(features, weights, ws->params);
  return readout_probability(
      plan_->expectation_z(ws->params, readout_qubit_, *ws));
}

double QnnExecutor::sampled_probability(const std::vector<double>& features,
                                        const std::vector<double>& weights,
                                        int shots, math::Rng& rng,
                                        int trajectories) const {
  AQ_TRACE_SPAN("qnn.sample.probability");
  sim::ShotOptions opts;
  opts.shots = shots;
  opts.trajectories = trajectories;
  // Plan trajectory sampler: a pre-drawn RNG schedule, one noise-free
  // trunk, and a branch column only per trajectory a Pauli hits. Readout
  // flips are applied per shot inside the sampler.
  auto ws = workspaces_.acquire();
  model_.pack_params_into(features, weights, ws->params);
  const double p = simulator_.sampled_probability_of_one(
      *plan_, ws->params, readout_qubit_, opts, rng, *ws);
  if (!options_.mitigate_depolarizing || survival_ <= 0.0) return p;
  // Post-measurement rescaling: z -> z / S, clamped to physical range.
  const double z = std::clamp((1.0 - 2.0 * p) / survival_, -1.0, 1.0);
  return 0.5 * (1.0 - z);
}

double QnnExecutor::dataset_loss(
    LossKind kind, const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels,
    const std::vector<double>& weights) const {
  if (features.size() != labels.size() || features.empty()) {
    throw std::invalid_argument("dataset_loss: bad dataset");
  }
  AQ_TRACE_SPAN("qnn.loss.dataset");
  // Each chunk of samples runs as batched blocks on its own workspace;
  // the sum stays a serial, index-ordered barrier so the result is
  // bit-identical for every thread count. The per-sample losses live in
  // a leased workspace's scratch, so a steady-state call reuses it.
  auto scratch = workspaces_.acquire();
  std::vector<double>& per_sample = scratch->partials;
  per_sample.resize(features.size());
  exec::parallel_for(
      options_.exec, 0, features.size(), [&](std::size_t lo, std::size_t hi) {
        auto ws = workspaces_.acquire();
        for (std::size_t b0 = lo; b0 < hi; b0 += sim::kBatchBlock) {
          const std::size_t count = std::min(sim::kBatchBlock, hi - b0);
          block_probabilities(features, weights, b0, count, false, *ws);
          for (std::size_t b = 0; b < count; ++b) {
            per_sample[b0 + b] =
                loss_value(kind, ws->values[b], labels[b0 + b]);
          }
        }
      });
  double total = 0.0;
  for (double l : per_sample) total += l;
  return total / static_cast<double>(features.size());
}

std::vector<double> QnnExecutor::loss_gradient(
    LossKind kind, const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels,
    const std::vector<double>& weights) const {
  if (features.size() != labels.size() || features.empty()) {
    throw std::invalid_argument("loss_gradient: bad dataset");
  }
  AQ_TRACE_SPAN("qnn.grad.adjoint");
  AQ_COUNTER_ADD("qnn.grad.calls", 1);
  const std::size_t w_count = weights.size();
  const std::size_t w_offset = static_cast<std::size_t>(model_.num_qubits());
  const auto np = static_cast<std::size_t>(plan_->num_params());
  std::vector<double> grad(w_count, 0.0);
  double contraction =
      noise().enabled() ? 1.0 - noise().readout_p01(readout_qubit_) -
                              noise().readout_p10(readout_qubit_)
                        : 1.0;
  // Mitigation rescales <Z> (and hence its gradient) by 1/S.
  if (options_.mitigate_depolarizing && survival_ > 0.0) {
    contraction /= survival_;
  }
  // Per-sample partials are independent; sample i's land in row i of
  // one flat n x w_count buffer, and the accumulation below folds the
  // rows in sample order — the same floating-point association as a
  // serial loop, so gradients are bit-identical for every thread count.
  auto scratch = workspaces_.acquire();
  std::vector<double>& partials = scratch->partials;
  partials.resize(features.size() * w_count);
  exec::parallel_for(
      options_.exec, 0, features.size(),
      [&](std::size_t lo, std::size_t hi) {
        // Per block: pack and bind once, then the fused forward walk
        // yields p for the loss derivative (the walk the loss reports)
        // and the adjoint runs its forward and reverse sweeps over the
        // same bind.
        auto ws = workspaces_.acquire();
        for (std::size_t b0 = lo; b0 < hi; b0 += sim::kBatchBlock) {
          const std::size_t count = std::min(sim::kBatchBlock, hi - b0);
          block_probabilities(features, weights, b0, count, true, *ws);
          ws->grads.resize(count * np);
          sim::adjoint_gradient_z_bound(*plan_, readout_qubit_, *ws,
                                        ws->grads.data());
          for (std::size_t b = 0; b < count; ++b) {
            const std::size_t i = b0 + b;
            // p_raw = (1 - <Z>)/2, then the readout contraction scales
            // dp/dw.
            const double dl_dp =
                loss_derivative(kind, ws->values[b], labels[i]);
            const double chain = dl_dp * contraction * -0.5;
            const double* const g = ws->grads.data() + b * np;
            double* const row = partials.data() + i * w_count;
            for (std::size_t w = 0; w < w_count; ++w) {
              row[w] = chain * g[w_offset + w];
            }
          }
        }
      });
  for (std::size_t i = 0; i < features.size(); ++i) {
    const double* const row = partials.data() + i * w_count;
    for (std::size_t w = 0; w < w_count; ++w) grad[w] += row[w];
  }
  const double inv_n = 1.0 / static_cast<double>(features.size());
  for (double& g : grad) g *= inv_n;
  return grad;
}

std::vector<double> QnnExecutor::loss_gradient_shift(
    LossKind kind, const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels,
    const std::vector<double>& weights) const {
  if (features.size() != labels.size() || features.empty()) {
    throw std::invalid_argument("loss_gradient_shift: bad dataset");
  }
  AQ_TRACE_SPAN("qnn.grad.shift");
  AQ_COUNTER_ADD("qnn.grad.calls", 1);
  const auto rules = shift_rules();
  std::vector<double> grad(weights.size(), 0.0);
  // Every (sample, weight) shift circuit is independent: fan samples out
  // across the pool, each chunk shifting a private weight copy, then
  // fold the per-sample vectors in sample order (bit-identical to the
  // serial schedule).
  std::vector<std::vector<double>> per_sample(features.size());
  exec::parallel_for(
      options_.exec, 0, features.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> w = weights;
        for (std::size_t i = lo; i < hi; ++i) {
          const double p = probability(features[i], w);
          const double dl_dp = loss_derivative(kind, p, labels[i]);
          ScalarFn prob = [&](const std::vector<double>& wv) {
            return probability(features[i], wv);
          };
          std::vector<double> contrib(w.size());
          for (std::size_t j = 0; j < w.size(); ++j) {
            contrib[j] = dl_dp * parameter_shift_partial(prob, w, j, rules[j]);
          }
          per_sample[i] = std::move(contrib);
        }
      });
  for (const auto& contrib : per_sample) {
    for (std::size_t j = 0; j < grad.size(); ++j) grad[j] += contrib[j];
  }
  const double inv_n = 1.0 / static_cast<double>(features.size());
  for (double& g : grad) g *= inv_n;
  return grad;
}

std::vector<ShiftRule> QnnExecutor::shift_rules() const {
  std::vector<ShiftRule> rules(static_cast<std::size_t>(model_.num_weights()));
  for (int w = 0; w < model_.num_weights(); ++w) {
    rules[static_cast<std::size_t>(w)] = model_.shift_rule(w);
  }
  return rules;
}

double QnnExecutor::shot_latency_us() const {
  // depth() walks the dependency chain of the whole gate list — cached
  // once at construction (it is constant per compiled circuit).
  return qpu_.shot_latency_us(depth_);
}

double QnnExecutor::shot_rate() const { return qpu_.shot_rate(depth_); }

}  // namespace arbiterq::qnn
