// Parallel-vs-serial equivalence: every parallel path in the execution
// engine (statevector kernels, executor losses/gradients, the
// parameter-shift oracle, full distributed training) must reproduce the
// serial schedule *bit-identically* for any thread count — that is the
// determinism contract in arbiterq/exec/parallel.hpp, checked here with
// EXPECT_EQ, not tolerances.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/gradient.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq {
namespace {

exec::ExecPolicy threads(int n, std::size_t grain = 0) {
  exec::ExecPolicy p;
  p.num_threads = n;
  p.grain = grain;
  return p;
}

// The thread counts every equivalence check sweeps (1 is the baseline).
const int kSweep[] = {2, 8};

/// A scrambled-but-deterministic register: layers of RY/H with CRZ/CX
/// entanglers so every amplitude is nonzero and phase-rich.
sim::Statevector scrambled_state(int qubits, const exec::ExecPolicy& policy) {
  sim::Statevector sv(qubits);
  sv.set_exec_policy(policy);
  const circuit::Mat2 h =
      circuit::gate_matrix_1q(circuit::GateKind::kH, {});
  const circuit::Mat4 cx =
      circuit::gate_matrix_2q(circuit::GateKind::kCX, {});
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < qubits; ++q) {
      const circuit::Mat2 ry = circuit::gate_matrix_1q(
          circuit::GateKind::kRY, {0.17 + 0.31 * q + 0.7 * layer, 0.0, 0.0});
      sv.apply_mat2(ry, q);
      if (layer == 0) sv.apply_mat2(h, q);
    }
    for (int q = 0; q + 1 < qubits; ++q) {
      const circuit::Mat4 crz = circuit::gate_matrix_2q(
          circuit::GateKind::kCRZ, {0.9 - 0.05 * q + 0.2 * layer, 0.0, 0.0});
      sv.apply_mat4(crz, q + 1, q);
      if (layer == 1) sv.apply_mat4(cx, q + 1, q);
    }
  }
  return sv;
}

TEST(KernelEquivalence, StrideKernelsBitIdenticalAcrossThreadCounts) {
  // grain 1 forces chunking even on this small register, so the parallel
  // dispatch path genuinely runs.
  const sim::Statevector serial = scrambled_state(7, threads(1));
  for (int t : kSweep) {
    const sim::Statevector par = scrambled_state(7, threads(t, 1));
    ASSERT_EQ(par.dim(), serial.dim());
    for (std::size_t i = 0; i < serial.dim(); ++i) {
      EXPECT_EQ(par.amplitudes()[i], serial.amplitudes()[i])
          << "threads=" << t << " amp " << i;
    }
  }
}

TEST(KernelEquivalence, DiagonalCzPathFlipsOnlyTheDoublyExcitedSign) {
  // H|0>H|0> then CZ: amplitudes stay 1/2 everywhere, |11> negated —
  // exercises apply_mat4's diagonal fast path end to end.
  const circuit::Mat2 h =
      circuit::gate_matrix_1q(circuit::GateKind::kH, {});
  const circuit::Mat4 cz =
      circuit::gate_matrix_2q(circuit::GateKind::kCZ, {});
  for (const auto& policy : {threads(1), threads(8, 1)}) {
    sim::Statevector sv(2);
    sv.set_exec_policy(policy);
    sv.apply_mat2(h, 0);
    sv.apply_mat2(h, 1);
    sv.apply_mat4(cz, 1, 0);
    EXPECT_NEAR(sv.amplitudes()[0].real(), 0.5, 1e-15);
    EXPECT_NEAR(sv.amplitudes()[1].real(), 0.5, 1e-15);
    EXPECT_NEAR(sv.amplitudes()[2].real(), 0.5, 1e-15);
    EXPECT_NEAR(sv.amplitudes()[3].real(), -0.5, 1e-15);
  }
}

TEST(KernelEquivalence, ParallelPolicyPreservesNorm) {
  const sim::Statevector sv = scrambled_state(6, threads(8, 1));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

class ExecutorEquivalence : public ::testing::Test {
 protected:
  ExecutorEquivalence()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    weights_.assign(static_cast<std::size_t>(model_.num_weights()), 0.0);
    math::Rng rng(7);
    for (double& w : weights_) w = rng.uniform(-1.0, 1.0);
  }

  qnn::QnnExecutor make(int num_threads) const {
    qnn::ExecutorOptions opts;
    opts.exec = threads(num_threads);
    return qnn::QnnExecutor(model_, device::table3_fleet_subset(1, 2)[0],
                            opts);
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::vector<double> weights_;
};

TEST_F(ExecutorEquivalence, DatasetLossBitIdentical) {
  const qnn::QnnExecutor serial = make(1);
  const double base = serial.dataset_loss(qnn::LossKind::kMse,
                                          split_.test_features,
                                          split_.test_labels, weights_);
  for (int t : kSweep) {
    const qnn::QnnExecutor par = make(t);
    EXPECT_EQ(par.dataset_loss(qnn::LossKind::kMse, split_.test_features,
                               split_.test_labels, weights_),
              base)
        << "threads=" << t;
  }
}

TEST_F(ExecutorEquivalence, AdjointGradientBitIdentical) {
  const qnn::QnnExecutor serial = make(1);
  const auto base = serial.loss_gradient(qnn::LossKind::kMse,
                                         split_.train_features,
                                         split_.train_labels, weights_);
  for (int t : kSweep) {
    const auto grad = make(t).loss_gradient(qnn::LossKind::kMse,
                                            split_.train_features,
                                            split_.train_labels, weights_);
    ASSERT_EQ(grad.size(), base.size());
    for (std::size_t w = 0; w < base.size(); ++w) {
      EXPECT_EQ(grad[w], base[w]) << "threads=" << t << " weight " << w;
    }
  }
}

TEST_F(ExecutorEquivalence, ParameterShiftGradientBitIdentical) {
  const qnn::QnnExecutor serial = make(1);
  const auto base = serial.loss_gradient_shift(qnn::LossKind::kMse,
                                               split_.train_features,
                                               split_.train_labels, weights_);
  for (int t : kSweep) {
    const auto grad = make(t).loss_gradient_shift(
        qnn::LossKind::kMse, split_.train_features, split_.train_labels,
        weights_);
    ASSERT_EQ(grad.size(), base.size());
    for (std::size_t w = 0; w < base.size(); ++w) {
      EXPECT_EQ(grad[w], base[w]) << "threads=" << t << " weight " << w;
    }
  }
}

TEST(ShiftOracleEquivalence, AnalyticFunctionBitIdenticalAcrossThreads) {
  // sum of sin(w_i): the two-term rule is exact, and the oracle's value
  // must not depend on how the weights are chunked across the pool.
  const qnn::ScalarFn f = [](const std::vector<double>& w) {
    double s = 0.0;
    for (double v : w) s += std::sin(v);
    return s;
  };
  std::vector<double> w(17);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.1 * static_cast<double>(i) - 0.8;
  }
  const std::vector<qnn::ShiftRule> rules(w.size(),
                                          qnn::ShiftRule::kTwoTerm);
  const auto base = qnn::parameter_shift_gradient(f, w, rules, threads(1));
  for (int t : kSweep) {
    const auto grad =
        qnn::parameter_shift_gradient(f, w, rules, threads(t, 1));
    ASSERT_EQ(grad.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(grad[i], base[i]) << "threads=" << t << " weight " << i;
      EXPECT_NEAR(grad[i], std::cos(w[i]), 1e-12);
    }
  }
}

core::TrainResult train_with(int num_threads, core::Strategy strategy,
                             const data::EncodedSplit& split,
                             double offline_probability = 0.0,
                             double drift_sigma = 0.0,
                             int drift_interval = 0) {
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 2);
  core::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 4;
  cfg.offline_probability = offline_probability;
  cfg.drift_sigma = drift_sigma;
  cfg.drift_interval = drift_interval;
  cfg.exec = threads(num_threads);
  const core::DistributedTrainer trainer(
      model, device::table3_fleet_subset(4, 2), cfg);
  return trainer.train(strategy, split);
}

class TrainerEquivalence : public ::testing::Test {
 protected:
  TrainerEquivalence() : split_(data::prepare_case({"iris", 2, 2})) {}
  data::EncodedSplit split_;
};

TEST_F(TrainerEquivalence, AllStrategiesBitIdenticalAcrossThreadCounts) {
  for (const core::Strategy s :
       {core::Strategy::kSingleNode, core::Strategy::kAllSharing,
        core::Strategy::kEqc, core::Strategy::kArbiterQ}) {
    const core::TrainResult base = train_with(1, s, split_);
    for (int t : kSweep) {
      const core::TrainResult r = train_with(t, s, split_);
      EXPECT_EQ(r.epoch_test_loss, base.epoch_test_loss)
          << core::strategy_name(s) << " threads=" << t;
      EXPECT_EQ(r.weights, base.weights)
          << core::strategy_name(s) << " threads=" << t;
      EXPECT_EQ(r.gradient_messages, base.gradient_messages)
          << core::strategy_name(s) << " threads=" << t;
    }
  }
}

TEST_F(TrainerEquivalence, ChurnAndDriftStayBitIdentical) {
  // Device churn and calibration drift both consume per-node RNG streams;
  // the parallel schedule must leave every stream untouched.
  const core::TrainResult base = train_with(
      1, core::Strategy::kArbiterQ, split_, 0.3, 0.05, 2);
  for (int t : kSweep) {
    const core::TrainResult r = train_with(
        t, core::Strategy::kArbiterQ, split_, 0.3, 0.05, 2);
    EXPECT_EQ(r.epoch_test_loss, base.epoch_test_loss) << "threads=" << t;
    EXPECT_EQ(r.weights, base.weights) << "threads=" << t;
  }
}

TEST(SampleManyEquivalence, MatchesRepeatedSingleSampleDraws) {
  const sim::Statevector sv = scrambled_state(5, threads(1));
  math::Rng rng_many(99);
  math::Rng rng_single(99);
  const auto many = sv.sample_many(64, rng_many);
  ASSERT_EQ(many.size(), 64U);
  for (std::size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(many[i], sv.sample(rng_single)) << "draw " << i;
  }
}

}  // namespace
}  // namespace arbiterq
