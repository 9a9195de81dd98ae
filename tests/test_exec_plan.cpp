// Compiled execution plans: bit-identity of the batch-1 walk against the
// naive per-call path across the full gate set (noise on/off), the
// batched plan adjoint (at batch 1 and wider) vs the circuit-walking
// adjoint, marginal sampling, and the zero-allocation steady-state
// contract (checked with a counting global operator new). The executor
// built on these plans is checked against the reference engines in
// test_executor_reference.cpp.

#include "arbiterq/sim/exec_plan.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
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

/// The batched plan adjoint over `cols` (one parameter binding each, in
/// one batch), one gradient per column.
std::vector<std::vector<double>> batched_gradients(
    const ExecPlan& plan, const std::vector<std::vector<double>>& cols,
    int qubit, Workspace& ws) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  std::vector<double> packed;
  for (const auto& p : cols) packed.insert(packed.end(), p.begin(), p.end());
  std::vector<double> grads(cols.size() * np);
  plan.bind_block(packed.data(), np, cols.size(), ws, /*adjoint=*/true);
  adjoint_gradient_z_bound(plan, qubit, ws, grads.data());
  std::vector<std::vector<double>> out;
  for (std::size_t b = 0; b < cols.size(); ++b) {
    out.emplace_back(grads.begin() + static_cast<std::ptrdiff_t>(b * np),
                     grads.begin() + static_cast<std::ptrdiff_t>((b + 1) * np));
  }
  return out;
}

/// The plan's batch-1 walk against run_biased (the whole register) and
/// expectation_z on every qubit, bitwise.
void expect_plan_matches_naive(const StatevectorSimulator& sim,
                               const Circuit& c,
                               const std::vector<double>& params) {
  const Statevector naive = sim.run_biased(c, params);
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
  plan.bind_block(params.data(), params.size(), 1, ws);
  const BatchedStatevector& planned = plan.run_bound(ws);
  ASSERT_EQ(planned.dim(), naive.dim());
  ASSERT_EQ(planned.batch(), 1U);
  for (std::size_t i = 0; i < naive.dim(); ++i) {
    EXPECT_EQ(planned.row(i)[0], naive.amplitudes()[i]) << "amp " << i;
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
  EXPECT_THROW(plan.expectation_z(short_params, 0, ws),
               std::invalid_argument);
  EXPECT_THROW(plan.bind_block(short_params.data(), short_params.size(), 1,
                               ws, /*adjoint=*/true),
               std::invalid_argument);
}

TEST(ExecPlanAdjoint, MatchesCircuitAdjointBitIdentical) {
  // Every column of the batched plan adjoint, alone (batch 1) or beside
  // others (batch 3), carries the circuit adjoint's bits.
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  math::Rng rng(21);
  const std::vector<std::vector<double>> cols = {
      some_params(c.num_params(), rng), some_params(c.num_params(), rng),
      some_params(c.num_params(), rng)};
  Workspace ws;
  for (const NoiseModel* np : {static_cast<const NoiseModel*>(nullptr),
                               &noise}) {
    const StatevectorSimulator sim(np != nullptr ? *np : NoiseModel{});
    const ExecPlan plan = sim.make_plan(c);
    for (int qubit = 0; qubit < c.num_qubits(); ++qubit) {
      const auto wide = batched_gradients(plan, cols, qubit, ws);
      for (std::size_t b = 0; b < cols.size(); ++b) {
        const auto naive = adjoint_gradient_z(c, cols[b], qubit, np);
        const auto alone = batched_gradients(plan, {cols[b]}, qubit, ws);
        EXPECT_EQ(alone.front(), naive)
            << (np != nullptr ? "noisy" : "ideal") << " qubit " << qubit
            << " col " << b << " batch 1";
        EXPECT_EQ(wide[b], naive)
            << (np != nullptr ? "noisy" : "ideal") << " qubit " << qubit
            << " col " << b << " batch 3";
      }
    }
  }
}

TEST(ExecPlanAdjoint, RandomCircuitsMatchCircuitAdjoint) {
  Workspace ws;
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    math::Rng rng(seed);
    const Circuit c = random_circuit(3, 5, rng, 25);
    const std::vector<std::vector<double>> cols = {
        some_params(c.num_params(), rng), some_params(c.num_params(), rng)};
    const NoiseModel noise = rich_noise(3);
    const ExecPlan plan = StatevectorSimulator(noise).make_plan(c);
    const auto wide = batched_gradients(plan, cols, 0, ws);
    for (std::size_t b = 0; b < cols.size(); ++b) {
      const auto naive = adjoint_gradient_z(c, cols[b], 0, &noise);
      EXPECT_EQ(batched_gradients(plan, {cols[b]}, 0, ws).front(), naive)
          << "seed " << seed << " col " << b << " batch 1";
      EXPECT_EQ(wide[b], naive) << "seed " << seed << " col " << b
                                << " batch 2";
    }
  }
}

TEST(ExecPlanBind, ShapesAreTheClassifierAnswers) {
  // Static entries are classified once when the plan is built, dynamic
  // ones whenever a bind rebuilds their matrix; either way the walks
  // must see exactly what classify() would say about the matrix: the
  // sampler's forward bind, and the batched adjoint's block bind with
  // its adjoint and derivative matrices.
  const Circuit c = full_gate_circuit();
  const ExecPlan plan = StatevectorSimulator(rich_noise(3)).make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  Workspace fwd;
  Workspace bws;
  math::Rng rng(47);
  for (int round = 0; round < 3; ++round) {
    auto params = some_params(c.num_params(), rng);
    if (round == 2) params.assign(params.size(), 0.0);  // RX(0) etc.
    plan.bind_gates_forward(params, fwd);
    // Column 1 moves parameter 0 only, so some entries are uniform.
    std::vector<double> block = params;
    block.insert(block.end(), params.begin(), params.end());
    block[np] += 0.5;
    plan.bind_block(block.data(), np, 2, bws, /*adjoint=*/true);
    const Workspace::Block& g = bws.block;
    for (const GateEntry& e : plan.gate_table()) {
      if (e.arity == 1) {
        EXPECT_EQ(plan.shape2(e, fwd), kernels::classify(plan.mat2(e, fwd)));
      } else {
        EXPECT_EQ(plan.shape4(e, fwd), kernels::classify(plan.mat4(e, fwd)));
      }
      if (!e.dynamic) {
        if (e.arity == 1) {
          EXPECT_EQ(plan.table_shape2_adjoint(e.index),
                    kernels::classify(plan.table_mat2_adjoint(e.index)));
        } else {
          EXPECT_EQ(plan.table_shape4_adjoint(e.index),
                    kernels::classify(plan.table_mat4_adjoint(e.index)));
        }
        continue;
      }
      const bool uniform = g.uniform[static_cast<std::size_t>(e.bound_index)];
      for (std::size_t b = 0; b < (uniform ? 1U : 2U); ++b) {
        const std::size_t at = static_cast<std::size_t>(e.index) * 2 + b;
        for (const GateEntry::GradTerm& t : e.grads) {
          const std::size_t d = static_cast<std::size_t>(t.dindex) * 2 + b;
          if (e.arity == 1) {
            EXPECT_EQ(g.d_shape1[d], kernels::classify(g.d1[d]));
          } else {
            EXPECT_EQ(g.d_shape2[d], kernels::classify(g.d2[d]));
          }
        }
        if (e.arity == 1) {
          EXPECT_EQ(g.shape1[at], kernels::classify(g.m1[at]));
          EXPECT_EQ(g.adj_shape1[at], kernels::classify(g.adj1[at]));
        } else {
          EXPECT_EQ(g.shape2[at], kernels::classify(g.m2[at]));
          EXPECT_EQ(g.adj_shape2[at], kernels::classify(g.adj2[at]));
        }
      }
    }
  }
}

TEST(ExecPlanBind, WalksRefuseABlockTheyWereNotBoundFor) {
  // The bound walks read the block bind in the workspace: with nothing
  // bound, a forward-only bind (no adjoint companions) or another
  // plan's bind, they throw instead of reading stale matrices.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  const ExecPlan other = sim.make_plan(c);
  math::Rng rng(59);
  const auto params = some_params(c.num_params(), rng);
  const auto np = static_cast<std::size_t>(c.num_params());
  std::vector<double> grads(np);
  Workspace ws;
  EXPECT_THROW(plan.run_bound(ws), std::logic_error);
  plan.bind_block(params.data(), np, 1, ws);
  EXPECT_THROW(adjoint_gradient_z_bound(plan, 0, ws, grads.data()),
               std::logic_error);
  plan.bind_block(params.data(), np, 1, ws, /*adjoint=*/true);
  EXPECT_THROW(other.run_bound(ws), std::logic_error);
  EXPECT_THROW(adjoint_gradient_z_bound(other, 0, ws, grads.data()),
               std::logic_error);
  adjoint_gradient_z_bound(plan, 0, ws, grads.data());
  EXPECT_EQ(grads, adjoint_gradient_z(c, params, 0, &sim.noise()));
}

TEST(ExecPlanBind, ForwardOnlyBindNeverLeavesStaleCompanions) {
  // The trajectory sampler binds the gate table forward-only (no adjoint
  // or derivative matrices) into its Workspace; the batched adjoint
  // binds the full table into the same workspace. Whatever the
  // sampler bound before — the adjoint's angles, others, or both in
  // turn — the adjoint must still read adjoint and derivative matrices
  // of its own angles, so its gradients equal the circuit adjoint's, at
  // batch 1 and batch 2.
  const Circuit c = full_gate_circuit();
  const NoiseModel noise = rich_noise(3);
  const StatevectorSimulator sim(noise);
  const ExecPlan plan = sim.make_plan(c);
  math::Rng rng(53);
  const auto a = some_params(c.num_params(), rng);
  const auto b = some_params(c.num_params(), rng);
  const auto want_a = adjoint_gradient_z(c, a, 1, &noise);
  const auto want_b = adjoint_gradient_z(c, b, 1, &noise);
  Workspace ws;
  math::Rng shots(7);
  ShotOptions opts;
  opts.shots = 16;
  opts.trajectories = 4;
  auto sample = [&](const std::vector<double>& p) {
    sim.sample_marginal_ones(plan, p, 1, opts, shots, ws);
  };
  auto grad = [&](const std::vector<double>& p) {
    return batched_gradients(plan, {p}, 1, ws).front();
  };
  sample(a);
  EXPECT_EQ(grad(a), want_a) << "cold forward";
  sample(b);
  EXPECT_EQ(grad(b), want_b) << "forward b";
  sample(a);
  sample(b);
  EXPECT_EQ(grad(b), want_b) << "a, b, full b";
  sample(a);
  EXPECT_EQ(grad(a), want_a) << "full b, a";
  // A forward bind after a full one at the same angles keeps both.
  sample(a);
  EXPECT_EQ(grad(a), want_a) << "full a, a";
  // Both columns, after forward binds at each column's angles.
  sample(b);
  sample(a);
  const auto both = batched_gradients(plan, {a, b}, 1, ws);
  EXPECT_EQ(both[0], want_a) << "batch 2 col 0";
  EXPECT_EQ(both[1], want_b) << "batch 2 col 1";
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
// Steady-state allocation contract

TEST(ExecPlanWorkspace, SteadyStateExecutorProbabilityIsAllocationFree) {
  // QnnExecutor::probability() leases a pooled Workspace and runs the
  // batch-1 walk: once the pool holds a warm workspace, a call with new
  // features and weights allocates nothing.
  const qnn::QnnModel model(qnn::Backbone::kCRz, 2, 2);
  const qnn::QnnExecutor ex(model, device::table3_fleet_subset(1, 2)[0]);
  const data::EncodedSplit split = data::prepare_case({"iris", 2, 2});
  std::vector<double> weights(static_cast<std::size_t>(model.num_weights()),
                              0.2);
  // Warm-up: the pooled workspace's registers and bind slots allocate
  // here, once.
  double acc = 0.0;
  for (int i = 0; i < 3; ++i) {
    acc += ex.probability(split.test_features.front(), weights);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    weights[0] = 0.01 * static_cast<double>(i);
    weights.back() = -0.02 * static_cast<double>(i);
    const auto& f =
        split.test_features[static_cast<std::size_t>(i) %
                            split.test_features.size()];
    acc += ex.probability(f, weights);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state probability() calls allocated";
  EXPECT_TRUE(std::isfinite(acc));
}

TEST(ExecPlanWorkspace, SteadyStateAdjointIsAllocationFree) {
  // The batched adjoint at batch 1 and at a block of 5, with the
  // feature-like first parameter varying per column (per-column gate
  // matrices) and the rest shared (broadcast gates).
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  const auto np = static_cast<std::size_t>(c.num_params());
  for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
    Workspace ws;
    std::vector<double> params(batch * np, 0.3);
    std::vector<double> grads(batch * np, 0.0);
    auto call = [&](int i) {
      for (std::size_t b = 0; b < batch; ++b) {
        params[b * np] = 0.05 * static_cast<double>(i) +
                         0.1 * static_cast<double>(b);
      }
      plan.bind_block(params.data(), np, batch, ws, /*adjoint=*/true);
      adjoint_gradient_z_bound(plan, 0, ws, grads.data());
    };
    for (int i = 0; i < 3; ++i) call(i);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 32; ++i) call(i);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "steady-state adjoint evaluations allocated at batch " << batch;
  }
}

TEST(ExecPlanWorkspace, SteadyStateTrajectorySamplerIsAllocationFree) {
  // The sampler keeps its schedule, branches and per-trajectory
  // probabilities in the Workspace. Its scratch grows with the
  // number of Paulis a call fires, so the warm-up replays the very
  // seeds the measured window uses. The sampler's trace span records
  // into the global trace buffer (which allocates), so the window runs
  // with runtime telemetry off.
  const Circuit c = full_gate_circuit();
  const StatevectorSimulator sim(rich_noise(3));
  const ExecPlan plan = sim.make_plan(c);
  Workspace ws;
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
