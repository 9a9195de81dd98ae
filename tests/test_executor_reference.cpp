// QnnExecutor against the naive sim engines. The executor runs every
// evaluation through its compiled plan and the sample-batched kernels;
// this suite rebuilds each of its outputs from the independent
// references instead — StatevectorSimulator::expectation_z on the
// executor's compiled circuit and noise model, the circuit-walking
// adjoint and sampler, plus the readout contraction and mitigation
// algebra written out here — and requires the same bits. It sweeps a
// noisy and a noiseless device, mitigation on and off, thread counts
// 1 / 2 / 8, and the executor before and after recalibrate(). Every
// comparison is EXPECT_EQ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/device/topology.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/gradient.hpp"
#include "arbiterq/qnn/loss.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"

namespace arbiterq::qnn {
namespace {

using Features = std::vector<std::vector<double>>;

/// The executor's objective, rebuilt from the reference engines on the
/// executor's compiled circuit and current noise model. Build it after
/// any recalibrate(): it copies the noise model it is given.
class Reference {
 public:
  explicit Reference(const QnnExecutor& ex)
      : ex_(ex),
        sim_(ex.noise()),
        noise_(ex.noise()),
        qubit_(ex.readout_qubit()),
        survival_(noise_.enabled()
                      ? noise_.survival_probability(circuit())
                      : 1.0),
        mitigate_(ex.options().mitigate_depolarizing && survival_ > 0.0) {}

  double probability(const std::vector<double>& features,
                     const std::vector<double>& weights) const {
    const auto params = ex_.model().pack_params(features, weights);
    double z = sim_.expectation_z(circuit(), params, qubit_);
    if (mitigate_) z /= survival_;
    const double p_one = 0.5 * (1.0 - z);
    return p_one * (1.0 - p10()) + (1.0 - p_one) * p01();
  }

  double sampled_probability(const std::vector<double>& features,
                             const std::vector<double>& weights, int shots,
                             math::Rng& rng, int trajectories) const {
    sim::ShotOptions opts;
    opts.shots = shots;
    opts.trajectories = trajectories;
    const double p = sim_.sampled_probability_of_one(
        circuit(), ex_.model().pack_params(features, weights), qubit_, opts,
        rng);
    if (!mitigate_) return p;
    const double z = std::clamp((1.0 - 2.0 * p) / survival_, -1.0, 1.0);
    return 0.5 * (1.0 - z);
  }

  double dataset_loss(LossKind kind, const Features& features,
                      const std::vector<int>& labels,
                      const std::vector<double>& weights) const {
    double total = 0.0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      total += loss_value(kind, probability(features[i], weights), labels[i]);
    }
    return total / static_cast<double>(features.size());
  }

  std::vector<double> loss_gradient(LossKind kind, const Features& features,
                                    const std::vector<int>& labels,
                                    const std::vector<double>& weights) const {
    const sim::NoiseModel* noise = noise_.enabled() ? &noise_ : nullptr;
    double contraction = noise_.enabled() ? 1.0 - p01() - p10() : 1.0;
    if (mitigate_) contraction /= survival_;
    const auto offset = static_cast<std::size_t>(ex_.model().num_qubits());
    std::vector<double> grad(weights.size(), 0.0);
    for (std::size_t i = 0; i < features.size(); ++i) {
      const double dl_dp =
          loss_derivative(kind, probability(features[i], weights), labels[i]);
      const auto dz = sim::adjoint_gradient_z(
          circuit(), ex_.model().pack_params(features[i], weights), qubit_,
          noise);
      const double chain = dl_dp * contraction * -0.5;
      for (std::size_t w = 0; w < weights.size(); ++w) {
        grad[w] += chain * dz[offset + w];
      }
    }
    const double inv_n = 1.0 / static_cast<double>(features.size());
    for (double& g : grad) g *= inv_n;
    return grad;
  }

  std::vector<double> loss_gradient_shift(
      LossKind kind, const Features& features, const std::vector<int>& labels,
      std::vector<double> weights) const {
    std::vector<double> grad(weights.size(), 0.0);
    for (std::size_t i = 0; i < features.size(); ++i) {
      const double dl_dp =
          loss_derivative(kind, probability(features[i], weights), labels[i]);
      const ScalarFn prob = [&](const std::vector<double>& w) {
        return probability(features[i], w);
      };
      for (std::size_t j = 0; j < weights.size(); ++j) {
        grad[j] += dl_dp * parameter_shift_partial(
                               prob, weights, j,
                               ex_.model().shift_rule(static_cast<int>(j)));
      }
    }
    const double inv_n = 1.0 / static_cast<double>(features.size());
    for (double& g : grad) g *= inv_n;
    return grad;
  }

 private:
  const circuit::Circuit& circuit() const {
    return ex_.compiled().executable;
  }
  double p01() const {
    return noise_.enabled() ? noise_.readout_p01(qubit_) : 0.0;
  }
  double p10() const {
    return noise_.enabled() ? noise_.readout_p10(qubit_) : 0.0;
  }

  const QnnExecutor& ex_;
  sim::StatevectorSimulator sim_;
  sim::NoiseModel noise_;
  int qubit_;
  double survival_;
  bool mitigate_;
};

/// A device whose noise model is disabled: no gate error, decay, readout
/// error or coherent bias.
device::Qpu noiseless_device() {
  device::QpuSpec s;
  s.name = "noiseless";
  s.topology = device::Topology::line(2);
  s.infidelity_1q = 0.0;
  s.infidelity_2q = 0.0;
  s.readout_error = 0.0;
  s.coherent_bias_scale = 0.0;
  s.t1_us = std::numeric_limits<double>::infinity();
  s.t2_us = std::numeric_limits<double>::infinity();
  return device::Qpu(s);
}

class ExecutorReference : public ::testing::Test {
 protected:
  ExecutorReference()
      : model_(Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    weights_.assign(static_cast<std::size_t>(model_.num_weights()), 0.0);
    math::Rng rng(7);
    for (double& w : weights_) w = rng.uniform(-1.0, 1.0);
  }

  QnnExecutor make(const device::Qpu& dev, bool mitigate,
                   int num_threads) const {
    ExecutorOptions opts;
    opts.mitigate_depolarizing = mitigate;
    opts.exec.num_threads = num_threads;
    return QnnExecutor(model_, dev, opts);
  }

  /// Every deterministic output of `ex` against its reference.
  void expect_matches_reference(const QnnExecutor& ex,
                                const std::string& what) const {
    const Reference ref(ex);
    for (std::size_t i = 0; i < split_.test_features.size(); ++i) {
      const auto& f = split_.test_features[i];
      EXPECT_EQ(ex.probability(f, weights_), ref.probability(f, weights_))
          << what << " sample " << i;
    }
    for (const LossKind kind : {LossKind::kMse, LossKind::kCrossEntropy}) {
      const std::string k =
          what + (kind == LossKind::kMse ? " mse" : " cross-entropy");
      EXPECT_EQ(ex.dataset_loss(kind, split_.test_features, split_.test_labels,
                                weights_),
                ref.dataset_loss(kind, split_.test_features,
                                 split_.test_labels, weights_))
          << k;
      // The train split spans several kBatchBlock blocks per chunk.
      EXPECT_EQ(ex.loss_gradient(kind, split_.train_features,
                                 split_.train_labels, weights_),
                ref.loss_gradient(kind, split_.train_features,
                                  split_.train_labels, weights_))
          << k;
    }
    EXPECT_EQ(ex.loss_gradient_shift(LossKind::kMse, split_.test_features,
                                     split_.test_labels, weights_),
              ref.loss_gradient_shift(LossKind::kMse, split_.test_features,
                                      split_.test_labels, weights_))
        << what;
  }

  QnnModel model_;
  data::EncodedSplit split_;
  std::vector<double> weights_;
};

TEST_F(ExecutorReference, MatchesReferenceEnginesBeforeAndAfterRecalibrate) {
  const device::Qpu noisy = device::table3_fleet_subset(1, 2)[0];
  const device::Qpu quiet = noiseless_device();
  ASSERT_GT(split_.train_features.size(), 32U);
  for (const device::Qpu* dev : {&noisy, &quiet}) {
    for (const bool mitigate : {false, true}) {
      for (const int threads : {1, 2, 8}) {
        const std::string what = dev->name() +
                                 (mitigate ? " mitigated" : " plain") +
                                 " threads " + std::to_string(threads);
        QnnExecutor ex = make(*dev, mitigate, threads);
        EXPECT_EQ(ex.noise().enabled(), dev == &noisy) << what;
        expect_matches_reference(ex, what);
        math::Rng drift(99);
        ex.recalibrate(0.2, drift);
        expect_matches_reference(ex, what + " recalibrated");
      }
    }
  }
}

TEST_F(ExecutorReference, NoiselessSampledProbabilityMatchesCircuitSampler) {
  // Without noise the plan trajectory sampler draws no schedule, so it
  // consumes exactly the circuit walker's stream: one uniform per shot.
  const device::Qpu quiet = noiseless_device();
  for (const bool mitigate : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      QnnExecutor ex = make(quiet, mitigate, threads);
      ASSERT_FALSE(ex.noise().enabled());
      for (int round = 0; round < 2; ++round) {
        const Reference ref(ex);
        for (const int trajectories : {1, 16, 40}) {
          const std::uint64_t seed =
              100 + static_cast<std::uint64_t>(trajectories);
          math::Rng a(seed);
          math::Rng b(seed);
          for (const auto& f : split_.test_features) {
            EXPECT_EQ(ex.sampled_probability(f, weights_, 300, a,
                                             trajectories),
                      ref.sampled_probability(f, weights_, 300, b,
                                              trajectories))
                << "mitigate " << mitigate << " threads " << threads
                << " trajectories " << trajectories << " round " << round;
          }
          EXPECT_EQ(a.next_u64(), b.next_u64());
        }
        // A noiseless recalibrate is a no-op; the second round checks
        // the executor still matches after it.
        math::Rng drift(5);
        ex.recalibrate(0.2, drift);
      }
    }
  }
}

TEST_F(ExecutorReference, NoisySampledProbabilityIgnoresThreadCount) {
  // The noisy plan sampler has its own RNG schedule, so no reference
  // engine replays it; its output must still be a function of the seed
  // alone, before and after a recalibrate.
  const device::Qpu noisy = device::table3_fleet_subset(1, 2)[0];
  for (const bool mitigate : {false, true}) {
    QnnExecutor serial = make(noisy, mitigate, 1);
    std::vector<QnnExecutor> pooled = {make(noisy, mitigate, 2),
                                       make(noisy, mitigate, 8)};
    for (int round = 0; round < 2; ++round) {
      for (QnnExecutor& ex : pooled) {
        math::Rng a(31);
        math::Rng b(31);
        for (const auto& f : split_.test_features) {
          EXPECT_EQ(ex.sampled_probability(f, weights_, 256, a, 16),
                    serial.sampled_probability(f, weights_, 256, b, 16))
              << "mitigate " << mitigate << " round " << round;
        }
      }
      math::Rng drift_serial(8);
      serial.recalibrate(0.2, drift_serial);
      for (QnnExecutor& ex : pooled) {
        math::Rng drift(8);
        ex.recalibrate(0.2, drift);
      }
    }
  }
}

TEST_F(ExecutorReference, NoisyMitigatedSampledProbabilityAlgebra) {
  // No reference engine replays the noisy plan sampler's stream, so the
  // sampler runs here on the executor's own plan with a copy of the RNG,
  // and only the mitigation algebra around it is rebuilt: z = clamp((1 -
  // 2p) / S), p_out = (1 - z) / 2, on a device whose survival S is below
  // 1, where rewriting the division changes the bits.
  const device::Qpu noisy = device::table3_fleet_subset(1, 2)[0];
  QnnExecutor ex = make(noisy, true, 1);
  ASSERT_TRUE(ex.noise().enabled());
  const sim::StatevectorSimulator sim(ex.noise());
  const double survival = ex.plan()->survival();
  ASSERT_LT(survival, 1.0);
  sim::Workspace ws;
  math::Rng rng(41);
  for (const int trajectories : {1, 16}) {
    for (const auto& f : split_.test_features) {
      sim::ShotOptions opts;
      opts.shots = 256;
      opts.trajectories = trajectories;
      math::Rng copy = rng;
      const double p = sim.sampled_probability_of_one(
          *ex.plan(), model_.pack_params(f, weights_), ex.readout_qubit(),
          opts, copy, ws);
      const double z = std::clamp((1.0 - 2.0 * p) / survival, -1.0, 1.0);
      EXPECT_EQ(ex.sampled_probability(f, weights_, 256, rng, trajectories),
                0.5 * (1.0 - z))
          << "trajectories " << trajectories;
      EXPECT_EQ(rng.next_u64(), copy.next_u64());
    }
  }
}

TEST_F(ExecutorReference, RecalibrateRebuildsThePlan) {
  QnnExecutor ex = make(device::table3_fleet_subset(1, 2)[0], false, 1);
  const sim::ExecPlan* before = ex.plan();
  ASSERT_NE(before, nullptr);
  const auto& f = split_.test_features.front();
  const double p_before = ex.probability(f, weights_);
  math::Rng drift(99);
  ex.recalibrate(0.2, drift);
  // A fresh plan compiled against the drifted noise model, which moves
  // the output (a stale plan would not).
  ASSERT_NE(ex.plan(), nullptr);
  EXPECT_NE(ex.plan(), before);
  EXPECT_NE(ex.probability(f, weights_), p_before);
}

/// The executor fixture, for the kernel-dispatch check below.
class KernelDispatch : public ExecutorReference {};

TEST_F(KernelDispatch, WalksFollowTheArmInForceAtEachCall) {
  // The executor's walks resolve the kernel arm once per call, so a
  // flag change between two calls on one executor (warm plan, warm
  // pooled workspaces) takes effect at the second: after a call on the
  // FMA arm, a call with SIMD off returns the scalar reference's bits.
  const bool was_simd = sim::kernels::simd_runtime_enabled();
  const bool was_strict = sim::kernels::strict_reproducibility();
  const QnnExecutor ex = make(device::table3_fleet_subset(1, 2)[0], false, 1);
  const Features& f = split_.train_features;
  const std::vector<int>& y = split_.train_labels;
  sim::kernels::set_simd_runtime_enabled(true);
  sim::kernels::set_strict_reproducibility(false);
  const auto on_fma = ex.loss_gradient(LossKind::kMse, f, y, weights_);
  sim::kernels::set_simd_runtime_enabled(false);
  const auto on_scalar = ex.loss_gradient(LossKind::kMse, f, y, weights_);
  const auto want = Reference(ex).loss_gradient(LossKind::kMse, f, y, weights_);
  const bool fma_ran = sim::kernels::simd_compiled() &&
                       sim::kernels::simd_supported();
  sim::kernels::set_simd_runtime_enabled(was_simd);
  sim::kernels::set_strict_reproducibility(was_strict);
  EXPECT_EQ(on_scalar, want);
  // On an AVX2+FMA host the first call really ran another arm (its bits
  // differ), so the second call's match is not vacuous.
  if (fma_ran) {
    EXPECT_NE(on_fma, want);
  }
}

}  // namespace
}  // namespace arbiterq::qnn
