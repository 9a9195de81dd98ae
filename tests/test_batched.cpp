// Sample-batched forward equivalence: BatchedStatevector column
// evolution vs the naive engine's run_biased (bitwise under the default
// strict-reproducibility arm, for batch sizes 1 / 2 / odd / wider than
// kBatchBlock), the batched adjoint vs the circuit adjoint, and the
// plan-based trajectory-batched sampler (same-seed determinism,
// noiseless bitwise agreement with the circuit-walking sampler,
// statistical agreement under noise).

#include "arbiterq/sim/batched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamExpr;

NoiseModel rich_noise(int nq) {
  NoiseModel m(nq);
  for (int q = 0; q < nq; ++q) {
    m.set_depolarizing_1q(q, 0.004 + 0.002 * q);
    m.set_coherent_bias(q, 0.06 - 0.03 * q);
    m.set_readout_error(q, 0.01 + 0.005 * q, 0.02);
  }
  for (int q = 0; q + 1 < nq; ++q) m.set_depolarizing_2q(q, q + 1, 0.02);
  return m;
}

/// The fusion-stress circuit from test_exec_plan: every gate kind,
/// static prefixes, statics after dynamics, constant rotations, dynamic
/// controlled rotations.
Circuit full_gate_circuit() {
  Circuit c(3, 5);
  c.h(0).s(0).x(1).sdg(1).sx(2).y(2).z(0);
  c.add({GateKind::kI, {1, 0}, {}});
  c.rx(0, ParamExpr::constant(0.37));
  c.rx(0, ParamExpr::ref(0));
  c.h(0);
  c.ry(1, ParamExpr::ref(1, 0.5, 0.11));
  c.rz(2, ParamExpr::ref(2, -1.25, -0.4));
  c.cx(0, 1);
  c.u3(1, ParamExpr::ref(3), ParamExpr::constant(0.3),
       ParamExpr::ref(1, -0.7, 0.2));
  c.u3(2, ParamExpr::constant(0.9), ParamExpr::constant(-0.2),
       ParamExpr::constant(0.5));
  c.cz(1, 2);
  c.crx(0, 1, ParamExpr::ref(4));
  c.cry(1, 2, ParamExpr::constant(0.6));
  c.crz(2, 0, ParamExpr::ref(0, 0.5));
  c.swap(0, 2);
  c.ry(2, ParamExpr::ref(3, 2.0, -0.05));
  c.sdg(2);
  return c;
}

std::vector<double> batch_params(int np, std::size_t batch, math::Rng& rng,
                                 bool repeat_weights = false) {
  std::vector<double> p(static_cast<std::size_t>(np) * batch);
  for (std::size_t b = 0; b < batch; ++b) {
    for (int j = 0; j < np; ++j) {
      const std::size_t i = b * static_cast<std::size_t>(np) +
                            static_cast<std::size_t>(j);
      // repeat_weights makes the trailing params identical across the
      // batch — the training shape (shared weights, per-sample
      // features) that must hit the prev-column bind memo.
      if (repeat_weights && j >= np / 2 && b > 0) {
        p[i] = p[static_cast<std::size_t>(j)];
      } else {
        p[i] = rng.uniform(-1.5, 1.5);
      }
    }
  }
  return p;
}

class BatchedPlan : public ::testing::TestWithParam<bool> {
 protected:
  StatevectorSimulator make_sim() const {
    return GetParam() ? StatevectorSimulator(rich_noise(3))
                      : StatevectorSimulator();
  }
};

TEST_P(BatchedPlan, RunMatchesUnbatchedPerColumnBitwise) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim = make_sim();
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  Workspace bws;
  math::Rng rng(21);
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{40}}) {
    for (const bool repeat : {false, true}) {
      const auto params = batch_params(c.num_params(), batch, rng, repeat);
      plan.bind_block(params.data(), np, batch, bws);
      BatchedStatevector& st = plan.run_bound(bws);
      ASSERT_EQ(st.batch(), batch);
      std::vector<double> zs(batch);
      plan.expectation_z_bound(1, bws, zs.data());
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const double> col(params.data() + b * np, np);
        const Statevector ref = sim.run_biased(c, col);
        for (std::size_t i = 0; i < ref.dim(); ++i) {
          EXPECT_EQ(st.row(i)[b], ref.amplitudes()[i])
              << "batch " << batch << " col " << b << " amp " << i;
        }
        EXPECT_EQ(zs[b], sim.expectation_z(c, col, 1))
            << "batch " << batch << " col " << b;
      }
    }
  }
}

TEST_P(BatchedPlan, ColumnsInvariantAcrossBatchSizes) {
  // The same binding must produce the same bits whether it rides in a
  // batch of 1, shares a block with others, or lands in a 40-wide batch.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim = make_sim();
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  Workspace bws;
  math::Rng rng(22);
  const auto params = batch_params(c.num_params(), 40, rng);
  std::vector<double> wide(40);
  plan.bind_block(params.data(), np, 40, bws);
  plan.expectation_z_bound(0, bws, wide.data());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    for (std::size_t start = 0; start + batch <= 40; start += 13) {
      std::vector<double> zs(batch);
      plan.bind_block(params.data() + start * np, np, batch, bws);
      plan.expectation_z_bound(0, bws, zs.data());
      for (std::size_t b = 0; b < batch; ++b) {
        EXPECT_EQ(zs[b], wide[start + b]) << "batch " << batch << " col "
                                          << start + b;
      }
    }
  }
}

TEST_P(BatchedPlan, AdjointGradientMatchesCircuitAdjointBitwise) {
  // The batched adjoint's forward walk runs the whole block as one
  // mini-GEMM sweep; each column's gradient must still carry the exact
  // bits of the circuit-walking adjoint on the same binding.
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = GetParam() ? rich_noise(3) : NoiseModel{};
  const NoiseModel* noise_ptr = GetParam() ? &noise : nullptr;
  const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  Workspace bws;
  math::Rng rng(23);
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{3}, std::size_t{40}}) {
    for (const bool repeat : {false, true}) {
      const auto params = batch_params(c.num_params(), batch, rng, repeat);
      std::vector<double> grads(batch * np);
      std::vector<double> zs(batch);
      plan.bind_block(params.data(), np, batch, bws, /*adjoint=*/true);
      adjoint_gradient_z_bound(plan, 1, bws, zs.data(), grads.data());
      for (std::size_t b = 0; b < batch; ++b) {
        const std::span<const double> col(params.data() + b * np, np);
        const auto ref = adjoint_gradient_z(c, col, 1, noise_ptr);
        for (std::size_t j = 0; j < np; ++j) {
          EXPECT_EQ(grads[b * np + j], ref[j])
              << "batch " << batch << " col " << b << " param " << j;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseOnOff, BatchedPlan, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "noisy" : "ideal";
                         });

/// The block walks (bind_block's lockstep fold and gate builds, the
/// batched adjoint's lockstep reverse sweep) against one-column references,
/// on the strict arm (true) and the FMA arm (false: strict
/// reproducibility off, which is the scalar arm on hosts without
/// AVX2+FMA).
class BlockWalks : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    was_strict_ = kernels::strict_reproducibility();
    kernels::set_strict_reproducibility(GetParam());
  }
  void TearDown() override {
    kernels::set_strict_reproducibility(was_strict_);
  }

  /// Features p0, p1 and weights p2..p5, in the executor's [features |
  /// weights] layout. Qubit 0's first fused run binds a weight rotation
  /// before the feature rotation; qubit 1's starts from a static U3, so
  /// every entry the fold carries has both a real and an imaginary part
  /// (RX, RY, S and RZ alone keep each entry real or imaginary, and a
  /// reassociated fold would then round alike), and mixes a feature RX, a
  /// static gate, a weight and a feature-dependent U3; the 2q rotations
  /// take a weight and a feature.
  static Circuit walk_circuit() {
    Circuit c(2, 6);
    c.h(0).ry(0, ParamExpr::ref(2)).rz(0, ParamExpr::ref(0)).sx(0);
    c.rz(0, ParamExpr::ref(3));
    c.u3(1, ParamExpr::constant(0.7), ParamExpr::constant(-0.4),
         ParamExpr::constant(1.1));
    c.rx(1, ParamExpr::ref(1)).s(1).ry(1, ParamExpr::ref(4));
    c.u3(1, ParamExpr::ref(1), ParamExpr::constant(0.2), ParamExpr::ref(5));
    c.crz(0, 1, ParamExpr::ref(5)).cx(1, 0);
    c.crx(1, 0, ParamExpr::ref(0, -1.0));
    c.rz(0, ParamExpr::ref(2, 0.5)).h(1);
    return c;
  }

  /// A block of `width` bindings with the weights shared. kMixed gives
  /// each group of 8 columns its own 4 feature rows, drawn in the order
  /// {3, 3, 0, 3, 1, 1, 2, 0}: adjacent and non-adjacent duplicate
  /// columns. Row 3 of each group puts qubit 1's biased RX and U3 polar
  /// angle at 0, where their matrices and the U3 weight's derivative
  /// turn diagonal while the other rows' stay dense, so per-column
  /// shapes differ within a block and column 0 is the diagonal one.
  /// kEqual repeats one binding; kWeight repeats the features and moves
  /// the last weight on column 1.
  enum class Block { kMixed, kEqual, kWeight };
  static std::vector<double> block(std::size_t np, std::size_t width,
                                   Block kind, const NoiseModel& noise) {
    math::Rng rng(61);
    std::vector<std::vector<double>> rows(4 * ((width + 7) / 8));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      rows[r] = {rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
      if (r % 4 == 3) rows[r][1] = -noise.coherent_bias(1);
    }
    const std::size_t pattern[8] = {3, 3, 0, 3, 1, 1, 2, 0};
    std::vector<double> weights(np - 2);
    for (double& w : weights) w = rng.uniform(-1.5, 1.5);
    std::vector<double> out;
    for (std::size_t b = 0; b < width; ++b) {
      const std::size_t row =
          kind == Block::kMixed ? pattern[b % 8] + 4 * (b / 8) : 0;
      out.insert(out.end(), rows[row].begin(), rows[row].end());
      out.insert(out.end(), weights.begin(), weights.end());
      if (kind == Block::kWeight && b == 1) out.back() += 0.25;
    }
    return out;
  }

  static constexpr std::size_t kWidths[] = {1, 2, 3, 5, kBatchBlock};
  static constexpr Block kBlocks[] = {Block::kMixed, Block::kEqual,
                                      Block::kWeight};

  bool was_strict_ = true;
};

TEST_P(BlockWalks, BindBlockMatchesBindPerColumn) {
  // Each column of a width-w bind equals the width-1 bind of its own
  // binding (which the naive engine covers end to end: BatchedPlan and
  // ExecPlan.*BitIdentical*), matrix and classified shape alike: every
  // column of a non-uniform fused slot or 2q gate, and the one matrix a
  // uniform one stores, which the walks broadcast to every column.
  const Circuit c = walk_circuit();
  const NoiseModel noise = rich_noise(2);
  for (const bool noisy : {true, false}) {
    const ExecPlan plan =
        StatevectorSimulator(noisy ? noise : NoiseModel{}).make_plan(c);
    const auto np = static_cast<std::size_t>(c.num_params());
    Workspace bws;
    Workspace ws;
    for (const std::size_t width : kWidths) {
      for (const Block kind : kBlocks) {
        const auto params = block(np, width, kind, noise);
        plan.bind_block(params.data(), np, width, bws);
        const Workspace::Block& wide = bws.block;
        for (std::size_t b = 0; b < width; ++b) {
          plan.bind_block(params.data() + b * np, np, 1, ws);
          const Workspace::Block& one = ws.block;
          const std::size_t slots = one.fused_uniform.size();
          ASSERT_EQ(wide.fused_uniform.size(), slots);
          ASSERT_GE(wide.fused.size(), slots * width);
          for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t at =
                i * width + (wide.fused_uniform[i] != 0 ? 0 : b);
            EXPECT_EQ(wide.fused[at], one.fused[i])
                << "noisy " << noisy << " width " << width << " block "
                << static_cast<int>(kind) << " col " << b << " slot " << i;
            EXPECT_EQ(wide.fused_shape[at], one.fused_shape[i]);
            EXPECT_EQ(wide.fused_shape[at], kernels::classify(wide.fused[at]));
          }
          for (const GateEntry& e : plan.gate_table()) {
            if (!e.dynamic || e.arity != 2) continue;
            const auto bi = static_cast<std::size_t>(e.bound_index);
            const auto i = static_cast<std::size_t>(e.index);
            const std::size_t at = i * width + (wide.uniform[bi] != 0 ? 0 : b);
            EXPECT_EQ(wide.m2[at], one.m2[i])
                << "noisy " << noisy << " width " << width << " col " << b
                << " 2q entry " << i;
            EXPECT_EQ(wide.shape2[at], one.shape2[i]);
            EXPECT_EQ(wide.shape2[at], kernels::classify(wide.m2[at]));
          }
        }
        if (kind == Block::kEqual) {
          for (std::size_t i = 0; i < wide.fused_uniform.size(); ++i) {
            EXPECT_EQ(wide.fused_uniform[i], 1) << "slot " << i;
          }
        }
      }
    }
  }
}

TEST_P(BlockWalks, IdenticalColumnsFoldAndBuildOnce) {
  // A block of 20 identical columns folds each fused slot once and
  // builds each dynamic gate once, as a width-1 bind does, and stores
  // the width-1 bind's matrices; the counters are inert with telemetry
  // off.
  const Circuit c = walk_circuit();
  const NoiseModel noise = rich_noise(2);
  const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  const auto params = block(np, 20, Block::kEqual, noise);
  auto& reg = telemetry::MetricsRegistry::global();
  telemetry::Counter& builds = reg.counter("sim.plan.bind.matrix_builds");
  telemetry::Counter& folds = reg.counter("sim.plan.bind.fold_columns");
  const bool was_enabled = telemetry::telemetry_runtime_enabled();
  telemetry::set_telemetry_runtime_enabled(true);
  std::uint64_t dynamic = 0;
  for (const GateEntry& e : plan.gate_table()) dynamic += e.dynamic ? 1 : 0;
  Workspace one;
  Workspace wide;
  for (const bool adjoint : {false, true}) {
    const std::uint64_t builds0 = builds.value();
    const std::uint64_t folds0 = folds.value();
    plan.bind_block(params.data(), np, 1, one, adjoint);
    EXPECT_EQ(builds.value() - builds0, dynamic);
    const std::uint64_t slots = folds.value() - folds0;
    EXPECT_GT(slots, 0U);
    plan.bind_block(params.data(), np, 20, wide, adjoint);
    EXPECT_EQ(builds.value() - builds0, 2 * dynamic) << "adjoint " << adjoint;
    EXPECT_EQ(folds.value() - folds0, 2 * slots) << "adjoint " << adjoint;
    ASSERT_EQ(wide.block.fused_uniform.size(), one.block.fused_uniform.size());
    for (std::size_t i = 0; i < one.block.fused_uniform.size(); ++i) {
      EXPECT_EQ(wide.block.fused_uniform[i], 1);
      EXPECT_EQ(wide.block.fused[i * 20], one.block.fused[i]);
      EXPECT_EQ(wide.block.fused_shape[i * 20], one.block.fused_shape[i]);
    }
    for (const GateEntry& e : plan.gate_table()) {
      if (!e.dynamic) continue;
      EXPECT_EQ(wide.block.uniform[static_cast<std::size_t>(e.bound_index)],
                1);
      const auto i = static_cast<std::size_t>(e.index);
      if (e.arity == 1) {
        EXPECT_EQ(wide.block.m1[i * 20], one.block.m1[i]);
      } else {
        EXPECT_EQ(wide.block.m2[i * 20], one.block.m2[i]);
      }
    }
  }
  telemetry::set_telemetry_runtime_enabled(false);
  const std::uint64_t builds0 = builds.value();
  const std::uint64_t folds0 = folds.value();
  plan.bind_block(params.data(), np, 20, wide, true);
  EXPECT_EQ(builds.value(), builds0);
  EXPECT_EQ(folds.value(), folds0);
  telemetry::set_telemetry_runtime_enabled(was_enabled);
}

TEST_P(BlockWalks, BatchedAdjointMatchesCircuitAdjoint) {
  // A noisy plan with coherent biases, on both circuits and every
  // readout qubit: each column of the batched adjoint carries the
  // circuit adjoint's bits.
  for (const Circuit& c : {walk_circuit(), full_gate_circuit()}) {
    const NoiseModel noise = rich_noise(c.num_qubits());
    const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
    const auto np = static_cast<std::size_t>(c.num_params());
    Workspace bws;
    for (const std::size_t width : kWidths) {
      for (const Block kind : kBlocks) {
        const auto params = block(np, width, kind, noise);
        for (int qubit = 0; qubit < c.num_qubits(); ++qubit) {
          std::vector<double> grads(width * np);
          std::vector<double> zs(width);
          plan.bind_block(params.data(), np, width, bws, /*adjoint=*/true);
          adjoint_gradient_z_bound(plan, qubit, bws, zs.data(), grads.data());
          for (std::size_t b = 0; b < width; ++b) {
            const auto want = adjoint_gradient_z(
                c, std::span<const double>(params.data() + b * np, np), qubit,
                &noise);
            const std::vector<double> got(
                grads.begin() + static_cast<std::ptrdiff_t>(b * np),
                grads.begin() + static_cast<std::ptrdiff_t>((b + 1) * np));
            EXPECT_EQ(got, want)
                << c.num_qubits() << "q width " << width << " block "
                << static_cast<int>(kind) << " qubit " << qubit << " col "
                << b;
          }
        }
      }
    }
  }
}

TEST_P(BlockWalks, AdjointReportsTheFusedForwardZ) {
  // The <Z> adjoint_gradient_z_bound reports comes from its own fused
  // forward: bitwise expectation_z_bound's on the same bind, on a noisy
  // and a noiseless plan, both circuits and every readout qubit.
  const NoiseModel none;
  for (const Circuit& c : {walk_circuit(), full_gate_circuit()}) {
    const NoiseModel noise = rich_noise(c.num_qubits());
    for (const NoiseModel* model : {&noise, &none}) {
      const ExecPlan plan = StatevectorSimulator(*model).make_plan(c);
      const auto np = static_cast<std::size_t>(c.num_params());
      Workspace bws;
      for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                      kBatchBlock}) {
        for (const Block kind : kBlocks) {
          const auto params = block(np, width, kind, noise);
          for (int qubit = 0; qubit < c.num_qubits(); ++qubit) {
            std::vector<double> want(width);
            plan.bind_block(params.data(), np, width, bws);
            plan.expectation_z_bound(qubit, bws, want.data());
            std::vector<double> got(width);
            std::vector<double> grads(width * np);
            plan.bind_block(params.data(), np, width, bws, /*adjoint=*/true);
            adjoint_gradient_z_bound(plan, qubit, bws, got.data(),
                                     grads.data());
            EXPECT_EQ(got, want)
                << c.num_qubits() << "q noisy " << model->enabled()
                << " width " << width << " block " << static_cast<int>(kind)
                << " qubit " << qubit;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arms, BlockWalks, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "strict" : "fma";
                         });

TEST(BatchedStatevectorTest, ConfigureResetsAllColumns) {
  BatchedStatevector st;
  st.configure(2, 3);
  const circuit::Mat2 h = circuit::gate_matrix_1q(GateKind::kH, {});
  st.apply_mat2_all(kernels::kernel_table(), h, kernels::classify(h), 0);
  st.configure(2, 3);
  for (std::size_t i = 0; i < st.dim(); ++i) {
    for (std::size_t b = 0; b < st.batch(); ++b) {
      EXPECT_EQ(st.row(i)[b], (i == 0 ? Complex{1.0, 0.0} : Complex{0.0, 0.0}));
    }
  }
  EXPECT_THROW(st.configure(0, 3), std::invalid_argument);
  EXPECT_THROW(st.configure(2, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trajectory-batched sampler

/// What the reference replay saw: the count it returns plus how many
/// trajectories no Pauli hit, how many were hit at noise site 0, and
/// the earliest gate after which a trajectory's first Pauli lands (the
/// sampler's first fork).
struct ReferenceDraws {
  std::uint64_t ones = 0;
  std::size_t silent = 0;
  std::size_t hit_at_site0 = 0;
  std::size_t first_fork_gate = SIZE_MAX;
};

/// One trajectory's Paulis under the skip-sampled schedule, re-derived
/// by a linear scan over `error` (one entry per noise site) with its own
/// running survival product c: draw u and set x = u * c; walk forward
/// multiplying in each site's 1 - p; the first site that takes the
/// product to x or below fires (Pauli 1 + uniform_int(3)) and the next
/// site draws a fresh u. The product restarts at 1 after a certain site
/// (p >= 1) and, with a fresh u, before a site that would take it below
/// SurvivalTable::kFloor. Returns the Pauli per site, 0 where none fired.
std::vector<int> scan_schedule(const std::vector<double>& error,
                               math::Rng& rng) {
  std::vector<int> pauli(error.size(), 0);
  double c = 1.0;
  double x = 0.0;
  bool draw = true;
  for (std::size_t j = 0; j < error.size(); ++j) {
    const bool certain = error[j] >= 1.0;
    const double keep = certain ? 0.0 : 1.0 - error[j];
    if (!certain && c * keep < SurvivalTable::kFloor) {
      c = 1.0;
      draw = true;
    }
    if (draw) {
      x = rng.uniform() * c;
      draw = false;
    }
    c *= keep;
    if (c <= x) {
      pauli[j] = 1 + static_cast<int>(rng.uniform_int(3));
      draw = true;
    }
    if (certain) c = 1.0;
  }
  return pauli;
}

/// Test-only reference for the plan sampler: replays the same pre-drawn
/// schedule (sites from the gate table, scan_schedule per trajectory,
/// the remaining / (n - t) shot allotment, one or two uniforms per
/// shot), then walks every trajectory through its own Statevector with
/// its Paulis applied in place — no trunk, no branches.
ReferenceDraws reference_marginal_ones(const ExecPlan& plan,
                                       const NoiseModel& noise,
                                       std::span<const double> params,
                                       int qubit, const ShotOptions& opts,
                                       math::Rng& rng) {
  const auto& table = plan.gate_table();
  const bool noisy = noise.enabled();
  struct Site {
    std::size_t gate;
    int qubit;
    double error;
  };
  std::vector<Site> sites;
  if (noisy) {
    for (std::size_t k = 0; k < table.size(); ++k) {
      if (table[k].error <= 0.0) continue;
      sites.push_back({k, table[k].q0, table[k].error});
      if (table[k].arity == 2) sites.push_back({k, table[k].q1, table[k].error});
    }
  }
  const double p01 = noisy ? noise.readout_p01(qubit) : 0.0;
  const double p10 = noisy ? noise.readout_p10(qubit) : 0.0;
  const bool flips = noisy && (p01 > 0.0 || p10 > 0.0);
  const auto n_traj =
      static_cast<std::size_t>(std::min(opts.trajectories, opts.shots));
  std::vector<int> shots_of(n_traj);
  int remaining = opts.shots;
  for (std::size_t t = 0; t < n_traj; ++t) {
    shots_of[t] = remaining / static_cast<int>(n_traj - t);
    remaining -= shots_of[t];
  }
  std::vector<double> error;
  for (const Site& site : sites) error.push_back(site.error);
  std::vector<std::vector<int>> pauli(n_traj);
  std::vector<double> u_out;
  std::vector<double> u_flip;
  for (std::size_t t = 0; t < n_traj; ++t) {
    pauli[t] = scan_schedule(error, rng);
    for (int s = 0; s < shots_of[t]; ++s) {
      u_out.push_back(rng.uniform());
      if (flips) u_flip.push_back(rng.uniform());
    }
  }

  Workspace gates;
  plan.bind_gates_forward(params, gates);
  ReferenceDraws out;
  Statevector sv(plan.num_qubits());
  std::size_t si = 0;
  for (std::size_t t = 0; t < n_traj; ++t) {
    bool hit = false;
    sv.reset();
    std::size_t s = 0;
    for (std::size_t k = 0; k < table.size(); ++k) {
      const GateEntry& e = table[k];
      if (e.arity == 1) {
        sv.apply_mat2(plan.mat2(e, gates), e.q0);
      } else {
        sv.apply_mat4(plan.mat4(e, gates), e.q0, e.q1);
      }
      for (; s < sites.size() && sites[s].gate == k; ++s) {
        if (pauli[t][s] == 0) continue;
        if (!hit && s == 0) ++out.hit_at_site0;
        if (!hit) out.first_fork_gate = std::min(out.first_fork_gate, k);
        hit = true;
        sv.apply_pauli(pauli[t][s], sites[s].qubit);
      }
    }
    if (!hit) ++out.silent;
    const double p1 = sv.probability_of_one(qubit);
    for (int k = 0; k < shots_of[t]; ++k, ++si) {
      bool one = u_out[si] < p1;
      if (flips && u_flip[si] < (one ? p10 : p01)) one = !one;
      if (one) ++out.ones;
    }
  }
  return out;
}

TEST(BatchedSampler, MatchesOneColumnPerTrajectoryReplayBitwise) {
  // The trunk/branch walk must return exactly the count of walking every
  // trajectory alone: across block boundaries (31 branches fill a block
  // beside the trunk), with sparse noise, with every trajectory hit
  // (some at the very first site), and with no noise at all.
  const Circuit c = full_gate_circuit();
  math::Rng prng(71);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  NoiseModel heavy(3);
  for (int q = 0; q < 3; ++q) {
    heavy.set_depolarizing_1q(q, 0.6);
    heavy.set_readout_error(q, 0.05, 0.1);
  }
  heavy.set_depolarizing_2q(0, 1, 0.7);
  heavy.set_depolarizing_2q(1, 2, 0.7);
  struct Setting {
    const char* name;
    NoiseModel noise;
  };
  const Setting settings[] = {
      {"rich", rich_noise(3)}, {"heavy", heavy}, {"noiseless", NoiseModel()}};
  for (const Setting& setting : settings) {
    const StatevectorSimulator sim(setting.noise);
    const ExecPlan plan = sim.make_plan(c);
    Workspace ws;
    std::size_t silent = 0;
    std::size_t hit_at_site0 = 0;
    for (const int n_traj : {1, 2, 16, 31, 32, 33, 50}) {
      for (const int qubit : {0, 2}) {
        ShotOptions opts;
        opts.shots = 300;
        opts.trajectories = n_traj;
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(n_traj);
        math::Rng a(seed);
        math::Rng b(seed);
        const std::uint64_t got =
            sim.sample_marginal_ones(plan, params, qubit, opts, a, ws);
        const ReferenceDraws want =
            reference_marginal_ones(plan, setting.noise, params, qubit, opts, b);
        EXPECT_EQ(got, want.ones) << setting.name << " trajectories "
                                  << n_traj << " qubit " << qubit;
        // Both consumed the same schedule.
        EXPECT_EQ(a.next_u64(), b.next_u64()) << setting.name;
        silent += want.silent;
        hit_at_site0 += want.hit_at_site0;
      }
    }
    // The settings cover what they claim to.
    if (std::string(setting.name) == "heavy") {
      EXPECT_EQ(silent, 0U);
      EXPECT_GT(hit_at_site0, 0U);
    } else {
      EXPECT_GT(silent, 0U) << setting.name;
    }
  }
}

/// The sampler walk's edge cases against the one-column replay, on the
/// strict arm (true) and the FMA arm (false: strict reproducibility
/// off, which is the scalar arm on hosts without AVX2+FMA). Each case
/// also checks, from the reference's statistics, that it covers what
/// its name claims.
class SamplerWalk : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    was_strict_ = kernels::strict_reproducibility();
    kernels::set_strict_reproducibility(GetParam());
  }
  void TearDown() override {
    kernels::set_strict_reproducibility(was_strict_);
  }

  /// Runs the sampler and the reference on the same seed for each
  /// trajectory count and readout qubit, expects equal counts and equal
  /// RNG consumption, and sums the reference's statistics.
  ReferenceDraws check(const char* name, const Circuit& c,
                       const NoiseModel& noise,
                       std::initializer_list<int> trajectories) {
    math::Rng prng(83);
    std::vector<double> params(static_cast<std::size_t>(c.num_params()));
    for (double& v : params) v = prng.uniform(-1.5, 1.5);
    const StatevectorSimulator sim(noise);
    const ExecPlan plan = sim.make_plan(c);
    Workspace ws;
    ReferenceDraws total;
    for (const int n_traj : trajectories) {
      for (const int qubit : {0, c.num_qubits() - 1}) {
        ShotOptions opts;
        opts.shots = 300;
        opts.trajectories = n_traj;
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(n_traj);
        math::Rng a(seed);
        math::Rng b(seed);
        const std::uint64_t got =
            sim.sample_marginal_ones(plan, params, qubit, opts, a, ws);
        const ReferenceDraws want =
            reference_marginal_ones(plan, noise, params, qubit, opts, b);
        EXPECT_EQ(got, want.ones)
            << name << " trajectories " << n_traj << " qubit " << qubit;
        EXPECT_EQ(a.next_u64(), b.next_u64()) << name;
        total.silent += want.silent;
        total.hit_at_site0 += want.hit_at_site0;
        total.first_fork_gate =
            std::min(total.first_fork_gate, want.first_fork_gate);
      }
    }
    return total;
  }

  bool was_strict_ = true;
};

/// Every site of every gate fires with probability p (readout noise
/// on, so shot draws take their flip uniforms too).
NoiseModel uniform_noise(int nq, double p) {
  NoiseModel m(nq);
  for (int q = 0; q < nq; ++q) {
    m.set_depolarizing_1q(q, p);
    m.set_readout_error(q, 0.05, 0.1);
    for (int r = 0; r < nq; ++r) {
      if (r != q) m.set_depolarizing_2q(q, r, p);
    }
  }
  return m;
}

TEST_P(SamplerWalk, NoBranchReadsTheTrunk) {
  const Circuit c = full_gate_circuit();
  // Noiseless: no sites at all. Noisy but silent: every site draws and
  // none fires, so the call never leaves the contiguous trunk.
  const ReferenceDraws noiseless =
      check("noiseless", c, NoiseModel(), {1, 16, 40});
  EXPECT_EQ(noiseless.first_fork_gate, SIZE_MAX);
  const ReferenceDraws silent =
      check("silent", c, uniform_noise(3, 1e-15), {1, 16, 40});
  EXPECT_EQ(silent.first_fork_gate, SIZE_MAX);
  EXPECT_EQ(silent.silent, 2U * (1 + 16 + 40));
}

TEST_P(SamplerWalk, FirstForkAtSiteZero) {
  const Circuit c = full_gate_circuit();
  NoiseModel noise = uniform_noise(3, 0.01);
  // Site 0 is h(0). Qubit 0 carries six 1q gates, so at 0.15 about 30%
  // of trajectories stay silent (at 0.5 only about 1%).
  noise.set_depolarizing_1q(0, 0.15);
  const ReferenceDraws r = check("site0", c, noise, {1, 2, 16, 33});
  EXPECT_GT(r.hit_at_site0, 0U);
  EXPECT_EQ(r.first_fork_gate, 0U);
  EXPECT_GT(r.silent, 0U);
}

TEST_P(SamplerWalk, FirstForkAtTheLastGate) {
  // Only the last gate errs: every branch forks after the whole trunk.
  Circuit c(3, 2);
  c.h(0);
  c.rx(0, ParamExpr::ref(0));
  c.cx(0, 1);
  c.ry(1, ParamExpr::ref(1));
  c.cz(0, 1);
  c.h(2);
  NoiseModel noise(3);
  noise.set_coherent_bias(0, 0.04);
  noise.set_depolarizing_1q(2, 0.5);
  noise.set_readout_error(2, 0.03, 0.07);
  const ReferenceDraws r = check("last gate", c, noise, {1, 2, 16, 40});
  EXPECT_EQ(r.first_fork_gate, c.size() - 1);
  EXPECT_GT(r.silent, 0U);
}

TEST_P(SamplerWalk, NoSilentTrajectory) {
  const ReferenceDraws r = check("no silent", full_gate_circuit(),
                                 uniform_noise(3, 0.6), {1, 2, 16, 31});
  EXPECT_EQ(r.silent, 0U);
  EXPECT_NE(r.first_fork_gate, SIZE_MAX);
}

TEST_P(SamplerWalk, BranchesSpanSeveralBlocks) {
  // More than kBatchBlock - 1 branches: every trajectory hit (the trunk
  // column is handed to a branch in every block), and some silent (the
  // first block keeps the trunk, later ones do not).
  const Circuit c = full_gate_circuit();
  const ReferenceDraws all_hit =
      check("all hit", c, uniform_noise(3, 0.6), {32, 33, 50, 64});
  EXPECT_EQ(all_hit.silent, 0U);
  const ReferenceDraws some_silent =
      check("some silent", c, uniform_noise(3, 0.05), {80, 150});
  EXPECT_GT(some_silent.silent, 0U);
  // Four calls (two readout qubits per count): more than 4 * 31
  // branches in all puts more than 31 in at least one of them.
  EXPECT_GT(2U * (80 + 150) - some_silent.silent, 4U * 31);
}

TEST_P(SamplerWalk, CertainSiteFiresInEveryTrajectory) {
  // p = 1 on qubit 0: its sites end a segment of the survival table, so
  // every trajectory fires at each of them, and the product restarts
  // after them for the sites that follow.
  const Circuit c = full_gate_circuit();
  NoiseModel noise = uniform_noise(3, 0.02);
  noise.set_depolarizing_1q(0, 1.0);
  const ReferenceDraws r = check("certain", c, noise, {1, 16, 40});
  EXPECT_EQ(r.silent, 0U);
  EXPECT_EQ(r.first_fork_gate, 0U);

  const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
  const std::vector<NoiseSite>& sites = plan.noise_sites();
  std::vector<std::uint32_t> certain;
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (sites[j].error >= 1.0) certain.push_back(static_cast<std::uint32_t>(j));
  }
  ASSERT_GE(certain.size(), 2U);
  EXPECT_GE(plan.survival_table().segments(), certain.size());
  math::Rng rng(29);
  std::vector<PauliFire> fired;
  for (std::uint32_t t = 0; t < 4096; ++t) {
    fired.clear();
    plan.survival_table().draw(t, rng, fired);
    for (const std::uint32_t j : certain) {
      EXPECT_TRUE(std::any_of(fired.begin(), fired.end(),
                              [j](const PauliFire& f) { return f.site == j; }))
          << "trajectory " << t << " site " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arms, SamplerWalk, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Strict" : "Fma";
                         });

/// Fire counts of a survival table's schedule over n trajectories: per
/// site, per pair of adjacent sites firing together, and per Pauli;
/// plus the fires recorded out of (trajectory, site) order.
struct FireCounts {
  std::vector<std::uint64_t> site;
  std::vector<std::uint64_t> pair;  ///< pair[j]: sites j and j + 1
  std::uint64_t pauli[4] = {0, 0, 0, 0};
  std::uint64_t misordered = 0;
};

FireCounts count_fires(const SurvivalTable& table, std::size_t n_traj,
                       std::uint64_t seed) {
  FireCounts out;
  out.site.assign(table.size(), 0);
  out.pair.assign(table.size(), 0);
  math::Rng rng(seed);
  std::vector<PauliFire> fired;
  for (std::size_t t = 0; t < n_traj; ++t) {
    fired.clear();
    table.draw(static_cast<std::uint32_t>(t), rng, fired);
    for (std::size_t i = 0; i < fired.size(); ++i) {
      const PauliFire& f = fired[i];
      if (f.traj != t || (i > 0 && fired[i - 1].site >= f.site)) {
        ++out.misordered;
      }
      ++out.site[f.site];
      ++out.pauli[f.pauli < 4 ? f.pauli : 0];
      if (i + 1 < fired.size() && fired[i + 1].site == f.site + 1) {
        ++out.pair[f.site];
      }
    }
  }
  return out;
}

/// |count / n - q| within 5 standard deviations of a Bernoulli(q) mean.
void expect_rate(std::uint64_t count, std::size_t n, double q,
                 const std::string& what) {
  const double rate = static_cast<double>(count) / static_cast<double>(n);
  const double sigma = std::sqrt(q * (1.0 - q) / static_cast<double>(n));
  EXPECT_LE(std::abs(rate - q), 5.0 * sigma)
      << what << ": rate " << rate << " want " << q;
}

TEST(SurvivalTable, SitesFireIndependentlyAtTheirRates) {
  // Each site fires at its own p within 5 sigma, and adjacent sites fire
  // together at p_i * p_j: the skip draw must neither shift a fire to a
  // neighbour nor condition the next draw on anything but the survival
  // up to the cursor. 2^20 trajectories per case; the 2000-site case,
  // with about 1000 fires per trajectory, draws 2^14 (2^24 fires).
  constexpr std::size_t kTraj = std::size_t{1} << 20;
  const double below_one = std::nextafter(1.0, 0.0);
  struct Case {
    const char* name;
    std::vector<double> p;
    std::size_t min_segments;
    std::size_t n_traj;
  };
  std::vector<Case> cases = {
      {"table III rates",
       {1e-4, 0.004, 3e-4, 0.03, 0.01, 0.3, 0.1, 1e-3, 0.2, 0.004, 0.05,
        0.3, 1e-4},
       1, kTraj},
      {"certain and near-certain",
       {1.0, 0.3, 0.5, 1.0, 1.0, below_one, 0.5, below_one, 0.02, 1.0},
       4, kTraj},
  };
  // 2000 sites at p = 0.5: the running product would reach 2^-2000, so
  // the table must restart it before it underflows.
  cases.push_back(
      {"2000 at one half", std::vector<double>(2000, 0.5), 2, kTraj >> 6});
  for (const Case& c : cases) {
    const SurvivalTable table(c.p);
    ASSERT_EQ(table.size(), c.p.size()) << c.name;
    EXPECT_GE(table.segments(), c.min_segments) << c.name;
    const FireCounts n = count_fires(table, c.n_traj, 41);
    EXPECT_EQ(n.misordered, 0U) << c.name;
    std::uint64_t fires = 0;
    for (std::size_t j = 0; j < c.p.size(); ++j) {
      const std::string at = std::string(c.name) + " site " + std::to_string(j);
      expect_rate(n.site[j], c.n_traj, c.p[j], at);
      if (j + 1 < c.p.size()) {
        expect_rate(n.pair[j], c.n_traj, c.p[j] * c.p[j + 1], at + " pair");
      }
      fires += n.site[j];
    }
    EXPECT_EQ(n.pauli[0], 0U) << c.name;
    for (int k = 1; k <= 3; ++k) {
      expect_rate(n.pauli[k], fires, 1.0 / 3.0,
                  std::string(c.name) + " pauli " + std::to_string(k));
    }
  }
}

TEST(SurvivalTable, PlansWithoutNoiseSitesTakeNoDraws) {
  // Noiseless and bias-only plans have no noise sites: the schedule
  // draws nothing, and the sampler takes exactly one uniform per shot
  // (neither configures readout noise), as the circuit walker does.
  const Circuit c = full_gate_circuit();
  NoiseModel bias(3);
  bias.set_coherent_bias(0, 0.04);
  bias.set_coherent_bias(2, -0.03);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()), 0.3);
  for (const NoiseModel& noise : {NoiseModel(), bias}) {
    const StatevectorSimulator sim(noise);
    const ExecPlan plan = sim.make_plan(c);
    EXPECT_TRUE(plan.noise_sites().empty());
    EXPECT_EQ(plan.survival_table().segments(), 0U);
    math::Rng a(3);
    math::Rng b(3);
    std::vector<PauliFire> fired;
    for (std::uint32_t t = 0; t < 64; ++t) {
      plan.survival_table().draw(t, a, fired);
    }
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(a.next_u64(), b.next_u64());

    Workspace ws;
    ShotOptions opts;
    opts.shots = 100;
    opts.trajectories = 16;
    math::Rng sampled(5);
    math::Rng want(5);
    sim.sample_marginal_ones(plan, params, 0, opts, sampled, ws);
    for (int s = 0; s < opts.shots; ++s) want.next_u64();
    EXPECT_EQ(sampled.next_u64(), want.next_u64()) << noise.enabled();
  }
}

TEST(BatchedSampler, DeterministicGivenRngState) {
  const Circuit c = full_gate_circuit();
  math::Rng prng(61);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace wsa;
  Workspace wsb;
  ShotOptions opts;
  opts.shots = 500;
  // More trajectories than one kBatchBlock, and not a multiple of it.
  opts.trajectories = 50;
  math::Rng a(7);
  math::Rng b(7);
  EXPECT_EQ(sim.sample_marginal_ones(plan, params, 1, opts, a, wsa),
            sim.sample_marginal_ones(plan, params, 1, opts, b, wsb));
}

TEST(BatchedSampler, NoiselessMatchesCircuitWalkingSamplerBitwise) {
  // Without noise the batched sampler's pre-drawn schedule collapses to
  // the legacy one-uniform-per-shot stream, and per-column evolution is
  // bit-identical under the default strict arm — so the two samplers
  // must agree on every shot.
  const Circuit c = full_gate_circuit();
  math::Rng prng(31);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim;
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  ShotOptions opts;
  opts.shots = 400;
  opts.trajectories = 40;  // spills past one kBatchBlock
  math::Rng a(13);
  math::Rng b(13);
  EXPECT_EQ(sim.sample_marginal_ones(plan, params, 2, opts, a, ws),
            sim.sample_marginal_ones(c, params, 2, opts, b));
}

TEST(BatchedSampler, NoisyAgreesStatisticallyWithCircuitWalkingSampler) {
  const Circuit c = full_gate_circuit();
  math::Rng prng(37);
  std::vector<double> params(static_cast<std::size_t>(c.num_params()));
  for (double& v : params) v = prng.uniform(-1.5, 1.5);
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  ShotOptions opts;
  opts.shots = 20000;
  opts.trajectories = 64;
  math::Rng a(17);
  math::Rng b(17);
  const double p_plan =
      sim.sampled_probability_of_one(plan, params, 1, opts, a, ws);
  const double p_naive =
      sim.sampled_probability_of_one(c, params, 1, opts, b);
  // Two independent 20k-shot estimates of the same marginal: the
  // difference is bounded by a few combined standard errors (~0.007).
  EXPECT_NEAR(p_plan, p_naive, 0.02);
}

TEST(BatchedSampler, InvalidOptionsThrow) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim;
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  const std::vector<double> params(
      static_cast<std::size_t>(c.num_params()), 0.1);
  math::Rng rng(1);
  ShotOptions opts;
  opts.shots = 0;
  EXPECT_THROW(sim.sample_marginal_ones(plan, params, 0, opts, rng, ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace arbiterq::sim
