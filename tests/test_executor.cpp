#include "arbiterq/qnn/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/gradient.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::qnn {
namespace {

device::Qpu quiet_device(int n) {
  device::QpuSpec s;
  s.name = "quiet";
  s.topology = device::Topology::line(n);
  s.infidelity_1q = 0.0;
  s.infidelity_2q = 0.0;
  s.readout_error = 0.0;
  s.coherent_bias_scale = 0.0;
  s.t1_us = 1e9;  // effectively no decay
  s.t2_us = 1e9;
  s.noise_seed = 1;
  return device::Qpu(s);
}

std::vector<double> small_weights(const QnnModel& m, double fill) {
  return std::vector<double>(static_cast<std::size_t>(m.num_weights()),
                             fill);
}

TEST(Executor, ProbabilityInUnitInterval) {
  const QnnModel m(Backbone::kCRz, 2, 2);
  for (const auto& dev : device::table3_fleet_subset(4, 2)) {
    const QnnExecutor ex(m, dev);
    const double p = ex.probability({0.3, 2.0}, small_weights(m, 0.5));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Executor, NoiselessDeviceMatchesIdealModel) {
  const QnnModel m(Backbone::kCRz, 2, 1);
  const QnnExecutor ex(m, quiet_device(2));
  const std::vector<double> features = {1.0, 0.5};
  const auto w = small_weights(m, 0.3);
  // Reference: run the un-transpiled model circuit directly.
  sim::StatevectorSimulator ideal;
  const auto params = m.pack_params(features, w);
  const double ref = ideal.probability_of_one(m.circuit(), params, 0);
  EXPECT_NEAR(ex.probability(features, w), ref, 1e-9);
}

TEST(Executor, ReadoutQubitTracksLayout) {
  const QnnModel m(Backbone::kCRz, 4, 1);  // ring entangler on a line
  const QnnExecutor ex(m, device::table3_fleet_subset(1, 4).front());
  EXPECT_EQ(ex.readout_qubit(), ex.compiled().measure_qubit(0));
}

TEST(Executor, DatasetLossAveragesPerSampleLosses) {
  const QnnModel m(Backbone::kCRz, 2, 1);
  const QnnExecutor ex(m, quiet_device(2));
  const auto w = small_weights(m, 0.2);
  const std::vector<std::vector<double>> feats = {{0.1, 0.2}, {2.0, 1.0}};
  const std::vector<int> labels = {0, 1};
  const double l0 = loss_value(LossKind::kMse,
                               ex.probability(feats[0], w), 0);
  const double l1 = loss_value(LossKind::kMse,
                               ex.probability(feats[1], w), 1);
  EXPECT_NEAR(ex.dataset_loss(LossKind::kMse, feats, labels, w),
              0.5 * (l0 + l1), 1e-12);
  EXPECT_THROW(ex.dataset_loss(LossKind::kMse, feats, {0}, w),
               std::invalid_argument);
}

/// `n` random encoded samples for a `qubits`-wide model, alternating
/// labels.
void random_samples(int qubits, std::size_t n, math::Rng& rng,
                    std::vector<std::vector<double>>* feats,
                    std::vector<int>* labels) {
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> row(static_cast<std::size_t>(qubits));
    for (double& v : row) v = rng.uniform(0.0, 3.0);
    feats->push_back(std::move(row));
    labels->push_back(static_cast<int>(s % 2));
  }
}

struct GradientCase {
  Backbone backbone;
  int qubits;
  int layers;
  int device;  ///< index into the Table III fleet
  bool mitigate;
};

class ExecutorGradients : public ::testing::TestWithParam<GradientCase> {};

TEST_P(ExecutorGradients, AdjointMatchesParameterShift) {
  // The batched adjoint against exact parameter shift through the fused
  // forward, an engine that shares no sweep with it (the circuit adjoint
  // the bitwise suites compare against is defined alike, so it cannot
  // catch an error the two share). Every device is noisy. Largest
  // difference measured on the three kernel arms: 6.1e-16 at 2 qubits,
  // 1.9e-16 at 4 and 5.6e-16 at 10, against entries up to 0.2.
  constexpr double kTolerance = 1e-12;
  const GradientCase k = GetParam();
  const QnnModel m(k.backbone, k.qubits, k.layers);
  const QnnExecutor ex(
      m, device::table3_fleet(k.qubits)[static_cast<std::size_t>(k.device)],
      ExecutorOptions{k.mitigate});
  ASSERT_TRUE(ex.noise().enabled());
  math::Rng rng(90u + static_cast<std::uint64_t>(k.qubits));
  std::vector<std::vector<double>> feats;
  std::vector<int> labels;
  random_samples(k.qubits, 2, rng, &feats, &labels);
  std::vector<double> w(static_cast<std::size_t>(m.num_weights()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.1 * static_cast<double>(i) - 0.3;
  }
  const auto adjoint = ex.loss_gradient(LossKind::kMse, feats, labels, w);
  const auto shift =
      ex.loss_gradient_shift(LossKind::kMse, feats, labels, w);
  ASSERT_EQ(adjoint.size(), shift.size());
  for (std::size_t i = 0; i < adjoint.size(); ++i) {
    EXPECT_NEAR(adjoint[i], shift[i], kTolerance) << "weight " << i;
  }
}

// Both backbones at 2 qubits on three devices, then the Table I iris,
// wine and hmdb51 Model-CRz shapes on QPU 1 with mitigation off and on.
INSTANTIATE_TEST_SUITE_P(
    BackbonesAndDevices, ExecutorGradients,
    ::testing::Values(GradientCase{Backbone::kCRz, 2, 2, 0, false},
                      GradientCase{Backbone::kCRz, 2, 2, 1, false},
                      GradientCase{Backbone::kCRz, 2, 2, 3, false},
                      GradientCase{Backbone::kCRx, 2, 2, 0, false},
                      GradientCase{Backbone::kCRx, 2, 2, 1, false},
                      GradientCase{Backbone::kCRx, 2, 2, 3, false},
                      GradientCase{Backbone::kCRz, 2, 2, 0, true},
                      GradientCase{Backbone::kCRz, 4, 2, 0, false},
                      GradientCase{Backbone::kCRz, 4, 2, 0, true},
                      GradientCase{Backbone::kCRz, 10, 10, 0, false},
                      GradientCase{Backbone::kCRz, 10, 10, 0, true}),
    [](const ::testing::TestParamInfo<GradientCase>& info) {
      const GradientCase& k = info.param;
      return std::string(k.backbone == Backbone::kCRz ? "CRz_" : "CRx_") +
             std::to_string(k.qubits) + "q_qpu" + std::to_string(k.device) +
             (k.mitigate ? "_mitigated" : "");
    });

TEST(ExecutorWork, GradientBlockIsOneForwardAndOneAdjointStream) {
  // Per kBatchBlock block, loss_gradient binds once, runs one fused
  // forward (sim.plan.batched_runs) and sweeps the plan's adjoint stream
  // once: 32 reverse ops on the iris plan of Table III QPU 1 and 1,014
  // on the hmdb51 plan. The counters are inert with telemetry off.
  struct Case {
    int qubits;
    int layers;
    std::size_t reverse_ops;
  };
  auto& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& binds = reg.counter("sim.plan.batched_binds");
  telemetry::Counter& runs = reg.counter("sim.plan.batched_runs");
  telemetry::Counter& reverse = reg.counter("sim.plan.adjoint.reverse_ops");
  const bool was_enabled = telemetry::telemetry_runtime_enabled();
  for (const Case& k : {Case{2, 2, 32}, Case{10, 10, 1014}}) {
    const QnnModel m(Backbone::kCRz, k.qubits, k.layers);
    const QnnExecutor ex(m, device::table3_fleet(k.qubits).front(),
                         ExecutorOptions{k.qubits == 10});
    EXPECT_EQ(ex.plan()->adjoint_stream().size(), k.reverse_ops);
    math::Rng rng(7);
    std::vector<std::vector<double>> feats;
    std::vector<int> labels;
    const std::size_t n = sim::kBatchBlock + 3;
    random_samples(k.qubits, n, rng, &feats, &labels);
    const auto w = small_weights(m, 0.2);
    const std::uint64_t blocks = 2;
    telemetry::set_telemetry_runtime_enabled(true);
    const std::uint64_t binds0 = binds.value();
    const std::uint64_t runs0 = runs.value();
    const std::uint64_t reverse0 = reverse.value();
    ex.loss_gradient(LossKind::kMse, feats, labels, w);
    EXPECT_EQ(binds.value() - binds0, blocks) << k.qubits << "q";
    EXPECT_EQ(runs.value() - runs0, blocks) << k.qubits << "q";
    EXPECT_EQ(reverse.value() - reverse0, blocks * k.reverse_ops)
        << k.qubits << "q";
    telemetry::set_telemetry_runtime_enabled(false);
    const std::uint64_t runs1 = runs.value();
    const std::uint64_t reverse1 = reverse.value();
    ex.loss_gradient(LossKind::kMse, feats, labels, w);
    EXPECT_EQ(runs.value(), runs1);
    EXPECT_EQ(reverse.value(), reverse1);
  }
  telemetry::set_telemetry_runtime_enabled(was_enabled);
}

TEST(Executor, GradientDescentReducesLoss) {
  const QnnModel m(Backbone::kCRx, 2, 2);
  const QnnExecutor ex(m, device::table3_fleet_subset(2, 2)[1]);
  const std::vector<std::vector<double>> feats = {{0.2, 0.3}, {2.5, 2.8},
                                                  {0.4, 0.1}, {2.9, 2.6}};
  const std::vector<int> labels = {0, 1, 0, 1};
  auto w = small_weights(m, 0.1);
  const double before = ex.dataset_loss(LossKind::kMse, feats, labels, w);
  for (int it = 0; it < 25; ++it) {
    const auto g = ex.loss_gradient(LossKind::kMse, feats, labels, w);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] -= 0.5 * g[i];
  }
  const double after = ex.dataset_loss(LossKind::kMse, feats, labels, w);
  EXPECT_LT(after, before * 0.8);
}

TEST(Executor, SampledProbabilityConvergesToExact) {
  const QnnModel m(Backbone::kCRz, 2, 1);
  const QnnExecutor ex(m, device::table3_fleet_subset(1, 2).front());
  const std::vector<double> features = {1.1, 2.0};
  const auto w = small_weights(m, 0.4);
  math::Rng rng(77);
  const double sampled =
      ex.sampled_probability(features, w, 60000, rng, 512);
  // Exact mode approximates the channel; allow a modest tolerance.
  EXPECT_NEAR(sampled, ex.probability(features, w), 0.03);
}

TEST(Executor, ShotRatesDifferAcrossFleet) {
  const QnnModel m(Backbone::kCRz, 2, 1);
  const auto fleet = device::table3_fleet_subset(3, 2);
  const QnnExecutor a(m, fleet[0]);
  const QnnExecutor b(m, fleet[2]);
  EXPECT_GT(a.shot_latency_us(), 0.0);
  EXPECT_NE(a.shot_rate(), b.shot_rate());
}

TEST(Executor, ShiftRulesForwarded) {
  const QnnModel m(Backbone::kCRz, 2, 1);
  const QnnExecutor ex(m, quiet_device(2));
  const auto rules = ex.shift_rules();
  ASSERT_EQ(rules.size(), 4U);
  EXPECT_EQ(rules[0], ShiftRule::kTwoTerm);
  EXPECT_EQ(rules[3], ShiftRule::kFourTerm);
}

}  // namespace
}  // namespace arbiterq::qnn
