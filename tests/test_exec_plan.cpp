// Compiled execution plans: bit-identity against the naive per-call
// path across the full gate set (noise on/off), plan-based adjoint vs
// the circuit-walking adjoint, executor-level plan on/off equivalence,
// plan invalidation on recalibrate, marginal sampling, and the
// zero-allocation steady-state contract (checked with a counting global
// operator new).

#include "arbiterq/sim/exec_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/telemetry/metrics.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every default-aligned heap allocation in this
// binary bumps g_allocations. The steady-state test asserts the counter
// does not move across a window of plan evaluations.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/// Every GateKind, with static prefixes, mid-run static gates after
/// dynamic ones, static rotations (constant ParamExprs), and dynamic
/// controlled rotations — the shapes the fusion rules must all handle.
Circuit full_gate_circuit() {
  Circuit c(3, 5);
  c.h(0).s(0).x(1).sdg(1).sx(2).y(2).z(0);
  c.add({GateKind::kI, {1, 0}, {}});
  c.rx(0, ParamExpr::constant(0.37));       // static rotation in a prefix
  c.rx(0, ParamExpr::ref(0));               // dynamic after the prefix
  c.h(0);                                   // static *after* dynamic
  c.ry(1, ParamExpr::ref(1, 0.5, 0.11));
  c.rz(2, ParamExpr::ref(2, -1.25, -0.4));
  c.cx(0, 1);
  c.u3(1, ParamExpr::ref(3), ParamExpr::constant(0.3),
       ParamExpr::ref(1, -0.7, 0.2));
  c.u3(2, ParamExpr::constant(0.9), ParamExpr::constant(-0.2),
       ParamExpr::constant(0.5));           // fully static U3
  c.cz(1, 2);
  c.crx(0, 1, ParamExpr::ref(4));
  c.cry(1, 2, ParamExpr::constant(0.6));    // static controlled rotation
  c.crz(2, 0, ParamExpr::ref(0, 0.5));
  c.swap(0, 2);
  c.ry(2, ParamExpr::ref(3, 2.0, -0.05));
  c.sdg(2);
  return c;
}

Circuit random_circuit(int nq, int np, math::Rng& rng, int gates) {
  Circuit c(nq, np);
  const GateKind kinds[] = {
      GateKind::kI,  GateKind::kX,   GateKind::kY,   GateKind::kZ,
      GateKind::kH,  GateKind::kS,   GateKind::kSdg, GateKind::kSX,
      GateKind::kRX, GateKind::kRY,  GateKind::kRZ,  GateKind::kU3,
      GateKind::kCX, GateKind::kCZ,  GateKind::kCRX, GateKind::kCRY,
      GateKind::kCRZ, GateKind::kSwap};
  auto random_expr = [&]() {
    if (rng.uniform() < 0.4) return ParamExpr::constant(rng.uniform(-2.0, 2.0));
    return ParamExpr::ref(static_cast<int>(rng.uniform_int(
                              static_cast<std::uint64_t>(np))),
                          rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5));
  };
  for (int i = 0; i < gates; ++i) {
    const GateKind kind =
        kinds[rng.uniform_int(sizeof(kinds) / sizeof(kinds[0]))];
    circuit::Gate g;
    g.kind = kind;
    const int q0 = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(nq)));
    g.qubits[0] = q0;
    if (circuit::gate_arity(kind) == 2) {
      int q1 = q0;
      while (q1 == q0) {
        q1 = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(nq)));
      }
      g.qubits[1] = q1;
    }
    for (int s = 0; s < circuit::gate_param_count(kind); ++s) {
      g.params[static_cast<std::size_t>(s)] = random_expr();
    }
    c.add(g);
  }
  return c;
}

std::vector<double> some_params(int np, math::Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(np));
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  return p;
}

void expect_plan_matches_naive(const StatevectorSimulator& sim,
                               const Circuit& c,
                               const std::vector<double>& params) {
  const Statevector naive = sim.run_biased(c, params);
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  const Statevector& planned = plan.run(params, ws);
  ASSERT_EQ(planned.dim(), naive.dim());
  for (std::size_t i = 0; i < naive.dim(); ++i) {
    EXPECT_EQ(planned.amplitudes()[i], naive.amplitudes()[i]) << "amp " << i;
  }
  for (int q = 0; q < c.num_qubits(); ++q) {
    EXPECT_EQ(plan.expectation_z(params, q, ws),
              sim.expectation_z(c, params, q))
        << "qubit " << q;
  }
}

TEST(ExecPlan, FullGateSetBitIdenticalNoisy) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(11);
  expect_plan_matches_naive(StatevectorSimulator(rich_noise(3)), c,
                            some_params(c.num_params(), rng));
}

TEST(ExecPlan, FullGateSetBitIdenticalNoiseless) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(12);
  expect_plan_matches_naive(StatevectorSimulator(), c,
                            some_params(c.num_params(), rng));
}

TEST(ExecPlan, RandomCircuitsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    math::Rng rng(seed);
    const Circuit c = random_circuit(4, 6, rng, 40);
    const auto params = some_params(c.num_params(), rng);
    expect_plan_matches_naive(StatevectorSimulator(rich_noise(4)), c, params);
    expect_plan_matches_naive(StatevectorSimulator(), c, params);
  }
}

TEST(ExecPlan, RebindTracksNewParameters) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  math::Rng rng(5);
  for (int rep = 0; rep < 4; ++rep) {
    const auto params = some_params(c.num_params(), rng);
    EXPECT_EQ(plan.expectation_z(params, 0, ws),
              sim.expectation_z(c, params, 0))
        << "rep " << rep;
  }
}

TEST(ExecPlan, CachesCircuitConstantsAndFusionStats) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
  EXPECT_TRUE(plan.noisy());
  EXPECT_EQ(plan.survival(), noise.survival_probability(c));
  EXPECT_EQ(plan.depth(), c.depth());
  EXPECT_EQ(plan.gate_count(), c.size());
  EXPECT_EQ(plan.num_params(), c.num_params());
  // The circuit has both fusable static material and live parameters.
  EXPECT_GT(plan.fused_gate_count(), 0U);
  EXPECT_GT(plan.bound_slot_count(), 0U);
  EXPECT_LT(plan.stream_op_count(), c.size());

  const ExecPlan ideal = StatevectorSimulator().make_plan(c);
  EXPECT_FALSE(ideal.noisy());
  EXPECT_EQ(ideal.survival(), 1.0);
}

TEST(ExecPlan, ParamsTooShortThrows) {
  const Circuit c = full_gate_circuit();
  const ExecPlan plan = StatevectorSimulator().make_plan(c);
  Workspace ws;
  const std::vector<double> short_params(2, 0.0);
  EXPECT_THROW(plan.run(short_params, ws), std::invalid_argument);
  EXPECT_THROW(adjoint_gradient_z(plan, short_params, 0, ws),
               std::invalid_argument);
}

TEST(ExecPlanAdjoint, MatchesNaiveAdjointBitIdentical) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  math::Rng rng(21);
  const auto params = some_params(c.num_params(), rng);
  Workspace ws;
  for (const NoiseModel* np : {static_cast<const NoiseModel*>(nullptr),
                               &noise}) {
    const StatevectorSimulator sim(np != nullptr ? *np : NoiseModel{});
    const ExecPlan plan = sim.make_plan(c);
    for (int qubit = 0; qubit < c.num_qubits(); ++qubit) {
      const auto naive = adjoint_gradient_z(c, params, qubit, np);
      const auto planned = adjoint_gradient_z(plan, params, qubit, ws);
      ASSERT_EQ(planned.size(), naive.size());
      for (std::size_t i = 0; i < naive.size(); ++i) {
        EXPECT_EQ(planned[i], naive[i])
            << (np != nullptr ? "noisy" : "ideal") << " qubit " << qubit
            << " param " << i;
      }
    }
  }
}

TEST(ExecPlanAdjoint, RandomCircuitsMatchNaive) {
  Workspace ws;
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    math::Rng rng(seed);
    const Circuit c = random_circuit(3, 5, rng, 25);
    const auto params = some_params(c.num_params(), rng);
    const NoiseModel noise = rich_noise(3);
    const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
    const auto naive = adjoint_gradient_z(c, params, 0, &noise);
    const auto planned = adjoint_gradient_z(plan, params, 0, ws);
    ASSERT_EQ(planned.size(), naive.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(planned[i], naive[i]) << "seed " << seed << " param " << i;
    }
  }
}

TEST(ExecPlanBind, ShapesAreTheClassifierAnswers) {
  // Static entries are classified once when the plan is built, dynamic
  // ones whenever bind_gates rebuilds their matrix; either way the walks
  // must see exactly what classify() would say about the matrix.
  const Circuit c = full_gate_circuit();
  const ExecPlan plan = StatevectorSimulator(rich_noise(3)).make_plan(c);
  Workspace full;
  Workspace fwd;
  math::Rng rng(47);
  for (int round = 0; round < 3; ++round) {
    auto params = some_params(c.num_params(), rng);
    if (round == 2) params.assign(params.size(), 0.0);  // RX(0) etc.
    plan.bind_gates(params, full);
    plan.bind_gates_forward(params, fwd);
    for (const Workspace* ws : {&full, &fwd}) {
      for (const GateEntry& e : plan.gate_table()) {
        if (e.arity == 1) {
          EXPECT_EQ(plan.shape2(e, *ws), kernels::classify(plan.mat2(e, *ws)));
        } else {
          EXPECT_EQ(plan.shape4(e, *ws), kernels::classify(plan.mat4(e, *ws)));
        }
      }
    }
  }
}

TEST(ExecPlanBind, ForwardOnlyBindNeverLeavesStaleCompanions) {
  // bind_gates_forward skips the adjoint and derivative matrices. A full
  // bind that follows it on the same workspace — at the angles it bound,
  // or at the ones before — must still hand the adjoint walk companions
  // that match its angles, so gradients equal a cold workspace's.
  const Circuit c = full_gate_circuit();
  const ExecPlan plan = StatevectorSimulator(rich_noise(3)).make_plan(c);
  math::Rng rng(53);
  const auto a = some_params(c.num_params(), rng);
  const auto b = some_params(c.num_params(), rng);
  auto cold = [&](const std::vector<double>& p) {
    Workspace fresh;
    return adjoint_gradient_z(plan, p, 1, fresh);
  };
  Workspace ws;
  plan.bind_gates_forward(a, ws);
  EXPECT_EQ(adjoint_gradient_z(plan, a, 1, ws), cold(a)) << "cold forward";
  plan.bind_gates_forward(b, ws);
  EXPECT_EQ(adjoint_gradient_z(plan, b, 1, ws), cold(b)) << "forward b";
  plan.bind_gates_forward(a, ws);
  plan.bind_gates_forward(b, ws);
  EXPECT_EQ(adjoint_gradient_z(plan, b, 1, ws), cold(b)) << "a, b, full b";
  plan.bind_gates_forward(a, ws);
  EXPECT_EQ(adjoint_gradient_z(plan, a, 1, ws), cold(a)) << "full b, a";
  // A forward bind after a full one at the same angles keeps both.
  plan.bind_gates_forward(a, ws);
  EXPECT_EQ(adjoint_gradient_z(plan, a, 1, ws), cold(a)) << "full a, a";
}

TEST(SimulatorOverloads, PrecomputedSurvivalMatches) {
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const StatevectorSimulator sim(noise);
  math::Rng rng(41);
  const auto params = some_params(c.num_params(), rng);
  const double survival = noise.survival_probability(c);
  EXPECT_EQ(sim.expectation_z(c, params, 0, survival),
            sim.expectation_z(c, params, 0));
  const auto naive = adjoint_gradient_z(c, params, 0, &noise);
  const auto cached = adjoint_gradient_z(c, params, 0, &noise, survival);
  EXPECT_EQ(cached, naive);
}

// ---------------------------------------------------------------------------
// Marginal sampling

TEST(MarginalSampling, MatchesExactProbabilityStatistically) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(51);
  const auto params = some_params(c.num_params(), rng);
  for (const bool noisy : {false, true}) {
    const StatevectorSimulator sim(noisy ? rich_noise(3) : NoiseModel{});
    ShotOptions opts;
    opts.shots = 20000;
    opts.trajectories = noisy ? 64 : 1;
    math::Rng sample_rng(52);
    const double sampled =
        sim.sampled_probability_of_one(c, params, 0, opts, sample_rng);
    // Under noise the exact path folds stochastic errors into the
    // survival attenuation while trajectories sample them, so only the
    // noiseless case is an unbiased estimate of probability_of_one.
    if (!noisy) {
      EXPECT_NEAR(sampled, sim.probability_of_one(c, params, 0), 0.02);
    } else {
      EXPECT_GE(sampled, 0.0);
      EXPECT_LE(sampled, 1.0);
    }
  }
}

TEST(MarginalSampling, DeterministicGivenRngState) {
  const Circuit c = full_gate_circuit();
  math::Rng rng(61);
  const auto params = some_params(c.num_params(), rng);
  const StatevectorSimulator sim(rich_noise(3));
  ShotOptions opts;
  opts.shots = 500;
  opts.trajectories = 8;
  math::Rng a(7);
  math::Rng b(7);
  EXPECT_EQ(sim.sample_marginal_ones(c, params, 1, opts, a),
            sim.sample_marginal_ones(c, params, 1, opts, b));
}

TEST(MarginalSampling, InvalidOptionsThrow) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim;
  const std::vector<double> params(
      static_cast<std::size_t>(c.num_params()), 0.1);
  math::Rng rng(1);
  ShotOptions opts;
  opts.shots = 0;
  EXPECT_THROW(sim.sample_marginal_ones(c, params, 0, opts, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Executor integration

class ExecutorPlan : public ::testing::Test {
 protected:
  ExecutorPlan()
      : model_(qnn::Backbone::kCRz, 2, 2),
        split_(data::prepare_case({"iris", 2, 2})) {
    weights_.assign(static_cast<std::size_t>(model_.num_weights()), 0.0);
    math::Rng rng(7);
    for (double& w : weights_) w = rng.uniform(-1.0, 1.0);
  }

  qnn::QnnExecutor make(bool use_plan, bool mitigate = false) const {
    qnn::ExecutorOptions opts;
    opts.use_plan = use_plan;
    opts.mitigate_depolarizing = mitigate;
    return qnn::QnnExecutor(model_, device::table3_fleet_subset(1, 2)[0],
                            opts);
  }

  qnn::QnnModel model_;
  data::EncodedSplit split_;
  std::vector<double> weights_;
};

TEST_F(ExecutorPlan, ForwardAndGradientsMatchNaiveExecutor) {
  for (const bool mitigate : {false, true}) {
    const qnn::QnnExecutor naive = make(false, mitigate);
    const qnn::QnnExecutor planned = make(true, mitigate);
    EXPECT_EQ(naive.plan(), nullptr);
    ASSERT_NE(planned.plan(), nullptr);
    EXPECT_EQ(planned.survival(), naive.survival());
    for (const auto& f : split_.test_features) {
      EXPECT_EQ(planned.probability(f, weights_), naive.probability(f, weights_));
    }
    EXPECT_EQ(planned.dataset_loss(qnn::LossKind::kMse, split_.test_features,
                                   split_.test_labels, weights_),
              naive.dataset_loss(qnn::LossKind::kMse, split_.test_features,
                                 split_.test_labels, weights_));
    EXPECT_EQ(planned.loss_gradient(qnn::LossKind::kMse,
                                    split_.train_features,
                                    split_.train_labels, weights_),
              naive.loss_gradient(qnn::LossKind::kMse, split_.train_features,
                                  split_.train_labels, weights_));
    EXPECT_EQ(planned.loss_gradient_shift(qnn::LossKind::kMse,
                                          split_.train_features,
                                          split_.train_labels, weights_),
              naive.loss_gradient_shift(qnn::LossKind::kMse,
                                        split_.train_features,
                                        split_.train_labels, weights_));
  }
}

TEST_F(ExecutorPlan, RecalibrateInvalidatesAndRebuildsPlan) {
  qnn::QnnExecutor naive = make(false);
  qnn::QnnExecutor planned = make(true);
  const sim::ExecPlan* before = planned.plan();
  ASSERT_NE(before, nullptr);
  const auto& f = split_.test_features.front();
  const double p_before = planned.probability(f, weights_);

  math::Rng rng_a(99);
  math::Rng rng_b(99);
  naive.recalibrate(0.2, rng_a);
  planned.recalibrate(0.2, rng_b);

  // A fresh plan compiled against the drifted noise model...
  EXPECT_NE(planned.plan(), before);
  // ...that still tracks the naive path bit-for-bit...
  EXPECT_EQ(planned.probability(f, weights_), naive.probability(f, weights_));
  // ...and actually reflects the drift (a stale plan would not).
  EXPECT_NE(planned.probability(f, weights_), p_before);
}

// ---------------------------------------------------------------------------
// Steady-state allocation contract

TEST(ExecPlanWorkspace, SteadyStateForwardIsAllocationFree) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  std::vector<double> params(static_cast<std::size_t>(c.num_params()), 0.2);
  // Warm-up: workspace registers and bind slots allocate here, once.
  double acc = 0.0;
  for (int i = 0; i < 3; ++i) acc += plan.expectation_z(params, 0, ws);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    params[0] = 0.01 * static_cast<double>(i);
    params[3] = -0.02 * static_cast<double>(i);
    acc += plan.expectation_z(params, 0, ws);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state forward evaluations allocated";
  EXPECT_TRUE(std::isfinite(acc));
}

TEST(ExecPlanWorkspace, SteadyStateAdjointIsAllocationFree) {
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  std::vector<double> params(static_cast<std::size_t>(c.num_params()), 0.3);
  std::vector<double> grad(static_cast<std::size_t>(c.num_params()), 0.0);
  for (int i = 0; i < 3; ++i) adjoint_gradient_z(plan, params, 0, ws, grad);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 32; ++i) {
    params[1] = 0.05 * static_cast<double>(i);
    adjoint_gradient_z(plan, params, 0, ws, grad);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state adjoint evaluations allocated";
}

TEST(ExecPlanWorkspace, SteadyStateTrajectorySamplerIsAllocationFree) {
  // The sampler keeps its schedule, branches and per-trajectory
  // probabilities in the BatchedWorkspace. Its scratch grows with the
  // number of Paulis a call fires, so the warm-up replays the very
  // seeds the measured window uses. The sampler's trace span records
  // into the global trace buffer (which allocates), so the window runs
  // with runtime telemetry off.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  BatchedWorkspace ws;
  const std::vector<double> params(static_cast<std::size_t>(c.num_params()),
                                   0.4);
  ShotOptions opts;
  opts.shots = 200;
  opts.trajectories = 40;
  std::uint64_t ones = 0;
  auto window = [&] {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      math::Rng rng(seed);
      ones += sim.sample_marginal_ones(plan, params, 1, opts, rng, ws);
    }
  };
  const bool telemetry_was_on = telemetry::telemetry_runtime_enabled();
  telemetry::set_telemetry_runtime_enabled(false);
  window();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  window();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  telemetry::set_telemetry_runtime_enabled(telemetry_was_on);
  EXPECT_EQ(after, before) << "steady-state sampler calls allocated";
  EXPECT_GT(ones, 0U);
}

TEST(WorkspacePoolTest, RecyclesWorkspacesAndCopiesStartFresh) {
  WorkspacePool pool;
  Workspace* first = nullptr;
  {
    auto lease = pool.acquire();
    first = &*lease;
    lease->params.assign(8, 1.0);
  }
  {
    // The released workspace comes back, buffers intact.
    auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);
    EXPECT_EQ(lease->params.size(), 8U);
  }
  const WorkspacePool copy = pool;  // fresh pool; leases stay tied to source
  (void)copy;
}

}  // namespace
}  // namespace arbiterq::sim
