// Performance microbenchmarks (google-benchmark): the simulator and
// compiler substrate costs that size every experiment above — state
// vector evolution vs qubit count, exact vs trajectory execution,
// adjoint gradient vs parameter shift, transpilation, per-qubit gate
// kernels, the trajectory sampler, executor calls, and the
// density-matrix reference.
//
// Plan A/B mode: `bench_perf --plan-ab` times the production executor
// on the scalar and SIMD kernel arms against the naive per-call circuit
// walk on the default benchmark circuits, verifies the executor's
// batched forward and adjoint gradients are bit-identical to the
// circuit references on both arms, and records the speedups in
// BENCH_perf.json (exit code 2 if any output diverges).
//
// End-to-end timing with per-layer attribution lives in bench/e2e; the
// determinism and fairness gates of the serving runtime run in ctest.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/density_matrix.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/sim/statevector.hpp"
#include "arbiterq/telemetry/export.hpp"
#include "arbiterq/transpile/optimize.hpp"
#include "arbiterq/transpile/transpiler.hpp"

namespace {

using namespace arbiterq;

qnn::QnnModel model_for(int qubits) {
  return qnn::QnnModel(qnn::Backbone::kCRz, qubits, 2);
}

std::vector<double> params_for(const qnn::QnnModel& m) {
  std::vector<double> p(static_cast<std::size_t>(m.num_params()));
  math::Rng rng(13);
  for (double& v : p) v = rng.uniform(-1.5, 1.5);
  return p;
}

void BM_StatevectorForward(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto params = params_for(m);
  sim::StatevectorSimulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.expectation_z(m.circuit(), params, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StatevectorForward)->DenseRange(2, 14, 2);

void BM_CompiledNoisyForward(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const qnn::QnnExecutor ex(m, device::table3_fleet(qubits)[0]);
  std::vector<double> features(static_cast<std::size_t>(qubits), 0.7);
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()),
                              0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.probability(features, weights));
  }
}
BENCHMARK(BM_CompiledNoisyForward)->DenseRange(2, 10, 2);

void BM_NaiveNoisyForward(benchmark::State& state) {
  // The per-call circuit walk (StatevectorSimulator::expectation_z) on
  // the executor's compiled circuit and noise model — compare with
  // BM_CompiledNoisyForward at the same qubit count for the plan win.
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const qnn::QnnExecutor ex(m, device::table3_fleet(qubits)[0]);
  const sim::StatevectorSimulator sim(ex.noise());
  const std::vector<double> features(static_cast<std::size_t>(qubits), 0.7);
  const std::vector<double> weights(static_cast<std::size_t>(m.num_weights()),
                                    0.3);
  const auto params = m.pack_params(features, weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.expectation_z(ex.compiled().executable,
                                               params, ex.readout_qubit(),
                                               ex.survival()));
  }
}
BENCHMARK(BM_NaiveNoisyForward)->DenseRange(2, 10, 2);

void BM_AdjointGradient(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto params = params_for(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::adjoint_gradient_z(m.circuit(), params, 0));
  }
}
BENCHMARK(BM_AdjointGradient)->DenseRange(2, 10, 2);

void BM_PlanAdjointGradient(benchmark::State& state) {
  // The batched plan adjoint at batch 1 with a warm workspace — compare
  // with BM_AdjointGradient at the same qubit count.
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto params = params_for(m);
  const sim::ExecPlan plan(m.circuit(), sim::NoiseModel{});
  sim::Workspace ws;
  std::vector<double> grad(params.size());
  double z = 0.0;
  for (auto _ : state) {
    plan.bind_block(params.data(), params.size(), 1, ws, /*adjoint=*/true);
    sim::adjoint_gradient_z_bound(plan, 0, ws, &z, grad.data());
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_PlanAdjointGradient)->DenseRange(2, 10, 2);

void BM_ParameterShiftGradient(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const qnn::QnnExecutor ex(m, device::table3_fleet(qubits)[0]);
  std::vector<double> features(static_cast<std::size_t>(qubits), 0.7);
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()),
                              0.3);
  const std::vector<std::vector<double>> feats = {features};
  const std::vector<int> labels = {1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ex.loss_gradient_shift(qnn::LossKind::kMse, feats, labels,
                               weights));
  }
}
BENCHMARK(BM_ParameterShiftGradient)->DenseRange(2, 6, 2);

void BM_TrajectoryShots(benchmark::State& state) {
  const qnn::QnnModel m = model_for(4);
  const qnn::QnnExecutor ex(m, device::table3_fleet(4)[1]);
  std::vector<double> features(4, 0.7);
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()),
                              0.3);
  math::Rng rng(7);
  const int shots = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ex.sampled_probability(features, weights, shots, rng, 16));
  }
  state.SetItemsProcessed(state.iterations() * shots);
}
BENCHMARK(BM_TrajectoryShots)->Arg(64)->Arg(256)->Arg(1024);

void BM_Transpile(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto fleet = device::table3_fleet(qubits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpile::compile(m.circuit(), fleet[0]));
  }
}
BENCHMARK(BM_Transpile)->DenseRange(2, 10, 2);

void BM_DensityMatrixReference(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto params = params_for(m);
  sim::NoiseModel noise(qubits);
  for (int q = 0; q < qubits; ++q) noise.set_depolarizing_1q(q, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::reference_expectation_z(m.circuit(), params, noise, 0));
  }
}
BENCHMARK(BM_DensityMatrixReference)->DenseRange(2, 6, 2);

void BM_BehavioralVectorize(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto fleet = device::table3_fleet(qubits);
  const auto compiled = transpile::compile(m.circuit(), fleet[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::vectorize(compiled, fleet[0], m.circuit().size()));
  }
}
BENCHMARK(BM_BehavioralVectorize)->DenseRange(2, 10, 4);

void BM_OptimizePass(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto compiled =
      transpile::compile(m.circuit(), device::table3_fleet(qubits)[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transpile::optimize(compiled.executable));
  }
}
BENCHMARK(BM_OptimizePass)->DenseRange(2, 10, 2);

void BM_ForwardOptimizedVsRaw(benchmark::State& state) {
  // Forward evaluation cost after the peephole pass (compare with
  // BM_CompiledNoisyForward at the same qubit count).
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto dev = device::table3_fleet(qubits)[0];
  const auto compiled = transpile::compile(m.circuit(), dev);
  const auto optimized = transpile::optimize(compiled.executable);
  sim::StatevectorSimulator sim(dev.make_noise_model());
  std::vector<double> params(static_cast<std::size_t>(m.num_params()), 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.expectation_z(optimized, params, 0));
  }
}
BENCHMARK(BM_ForwardOptimizedVsRaw)->DenseRange(2, 10, 2);

void BM_FleetEpochThreads(benchmark::State& state) {
  // End-to-end distributed training epochs with the per-QPU work fanned
  // across the pool (compare thread counts at the same workload).
  const data::EncodedSplit split =
      data::prepare_case({"iris", 2, 2}, 42);
  const qnn::QnnModel m(qnn::Backbone::kCRz, 2, 2);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.exec.num_threads = static_cast<int>(state.range(0));
  const core::DistributedTrainer trainer(m, device::table3_fleet_subset(4, 2),
                                         cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trainer.train(core::Strategy::kArbiterQ, split));
  }
}
BENCHMARK(BM_FleetEpochThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Per-qubit gate-kernel times: one gate of each kernel shape applied to
// one register, per target qubit (q_lo for the 2q shapes, which act on
// (q + 1, q): control above target for CX), on 4- and 10-qubit
// registers. Width 0 is the unbatched Statevector (classifier and
// dispatch included, as the simulator pays them); widths 1 and 4 are
// the sample-batched register walks, with the matrix shape and the
// kernel table resolved once, as the plan walks do. Brackets are
// unbatched only.
// Args: {shape, qubits, q, width}.
enum GateKernelShape : int {
  kDiag1q,
  kDense1q,
  kCx,
  kDiag2q,
  kDiagBracket,
  kDenseBracket,
  kNumGateKernelShapes
};

void BM_GateKernel(benchmark::State& state) {
  static const char* const kNames[] = {"diag1q",       "dense1q", "cx",
                                       "diag2q",       "diag_bracket",
                                       "dense_bracket"};
  const auto shape = static_cast<GateKernelShape>(state.range(0));
  const int nq = static_cast<int>(state.range(1));
  const int q = static_cast<int>(state.range(2));
  const auto width = static_cast<std::size_t>(state.range(3));
  const std::size_t dim = std::size_t{1} << nq;
  const bool dense = shape == kDense1q || shape == kDenseBracket;
  const circuit::Mat2 m2 = circuit::gate_matrix_1q(
      dense ? circuit::GateKind::kSX : circuit::GateKind::kRZ, {0.37, 0, 0});
  const circuit::Mat4 m4 = circuit::gate_matrix_2q(
      shape == kCx ? circuit::GateKind::kCX : circuit::GateKind::kCRZ,
      {0.41, 0, 0});
  math::Rng rng(17);
  sim::AmpVector init(dim);
  for (sim::Complex& a : init) {
    a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  state.SetLabel(std::string(kNames[shape]) + " q" + std::to_string(nq) +
                 " on " + std::to_string(q) +
                 (width == 0 ? std::string(" unbatched")
                             : " w" + std::to_string(width)));
  const bool two_qubit = shape == kCx || shape == kDiag2q;
  if (shape == kDiagBracket || shape == kDenseBracket) {
    const sim::AmpVector lam = init;
    for (auto _ : state) {
      benchmark::DoNotOptimize(sim::kernels::kernel_table().bracket_1q(
          lam.data(), init.data(), dim, m2, q));
    }
    return;
  }
  if (width == 0) {
    sim::Statevector sv(nq);
    std::copy(init.begin(), init.end(), sv.data());
    for (auto _ : state) {
      if (two_qubit) {
        sv.apply_mat4(m4, q + 1, q);
      } else {
        sv.apply_mat2(m2, q);
      }
      benchmark::ClobberMemory();
    }
    return;
  }
  sim::BatchedStatevector st;
  st.configure(nq, width);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t b = 0; b < width; ++b) st.row(i)[b] = init[i];
  }
  const sim::kernels::KernelTable& k = sim::kernels::kernel_table();
  const auto shape2 = sim::kernels::classify(m2);
  const auto shape4 = sim::kernels::classify(m4);
  for (auto _ : state) {
    if (two_qubit) {
      st.apply_mat4_all(k, m4, shape4, q + 1, q);
    } else {
      st.apply_mat2_all(k, m2, shape2, q);
    }
    benchmark::ClobberMemory();
  }
}

void gate_kernel_args(benchmark::internal::Benchmark* b) {
  for (int shape = 0; shape < kNumGateKernelShapes; ++shape) {
    const bool bracket = shape == kDiagBracket || shape == kDenseBracket;
    const bool two_qubit = shape == kCx || shape == kDiag2q;
    for (const int nq : {4, 10}) {
      for (int q = 0; q + (two_qubit ? 1 : 0) < nq; ++q) {
        for (const int width : {0, 1, 4}) {
          if (bracket && width != 0) continue;
          b->Args({shape, nq, q, width});
        }
      }
    }
  }
}
BENCHMARK(BM_GateKernel)->Apply(gate_kernel_args);

// Per-call trajectory-sampler times: one plan-based sample_marginal_ones
// call on the iris (2-qubit) or wine (4-qubit) Model-CRz circuit
// compiled for a Table III QPU, with that QPU's noise model, at the
// (shots, trajectories) call shapes of the sampler-bound end-to-end
// workloads: serve-admission's (32, 1), infer-torus's per-member split
// of 256 shots (42, 16) and (77, 16). QPU 1 is a typical device; wine
// on QPU 0 is the noisiest plan (about 1.2 expected Paulis per
// trajectory, so most of its 16 trajectories fire). Args: {qubits,
// shots, trajectories, qpu}.
void BM_Sampler(benchmark::State& state) {
  const int nq = static_cast<int>(state.range(0));
  const auto qpu = static_cast<std::size_t>(state.range(3));
  const qnn::QnnModel m(qnn::Backbone::kCRz, nq, 2);
  const device::Qpu dev = device::table3_fleet(nq)[qpu];
  const transpile::CompiledCircuit compiled =
      transpile::compile(m.circuit(), dev);
  const sim::StatevectorSimulator simulator(dev.make_noise_model());
  const sim::ExecPlan plan = simulator.make_plan(compiled.executable);
  math::Rng prng(19);
  std::vector<double> features(static_cast<std::size_t>(nq));
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()));
  for (double& v : features) v = prng.uniform(-1.5, 1.5);
  for (double& v : weights) v = prng.uniform(-1.5, 1.5);
  const std::vector<double> params = m.pack_params(features, weights);
  sim::ShotOptions opts;
  opts.shots = static_cast<int>(state.range(1));
  opts.trajectories = static_cast<int>(state.range(2));
  sim::Workspace ws;
  math::Rng rng(23);
  state.SetLabel(std::string(nq == 2 ? "iris" : "wine") + " " +
                 std::to_string(nq) + "q qpu " + std::to_string(qpu) +
                 " shots " +
                 std::to_string(opts.shots) + " traj " +
                 std::to_string(opts.trajectories));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.sample_marginal_ones(
        plan, params, compiled.measure_qubit(0), opts, rng, ws));
  }
  state.SetItemsProcessed(state.iterations() * opts.shots);
}
BENCHMARK(BM_Sampler)->ArgsProduct({{2, 4}, {32}, {1}, {1}})
    ->ArgsProduct({{2, 4}, {42, 77}, {16}, {1}})
    ->Args({4, 42, 16, 0});

// Per-call executor times of personalized training: one
// QnnExecutor::dataset_loss (a test-loss sweep) or loss_gradient (a
// minibatch gradient) call on the iris (2-qubit) or wine (4-qubit)
// Model-CRz circuit compiled for Table III QPU 1, serial, over
// `samples` random feature rows. Every weight moves each iteration, as
// in training, so no call reuses the previous call's bound weights.
// Args: {qubits, samples}; train-iris makes 20-sample loss and 4-sample
// gradient calls.
struct ExecutorCall {
  explicit ExecutorCall(benchmark::State& state)
      : nq(static_cast<int>(state.range(0))),
        model(qnn::Backbone::kCRz, nq, 2),
        ex(model, device::table3_fleet(nq)[1]) {
    const auto n = static_cast<std::size_t>(state.range(1));
    math::Rng rng(29);
    features.resize(n, std::vector<double>(static_cast<std::size_t>(nq)));
    for (auto& f : features) {
      for (double& v : f) v = rng.uniform(-1.5, 1.5);
    }
    labels.resize(n);
    for (int& l : labels) l = static_cast<int>(rng.uniform_int(2));
    weights.resize(static_cast<std::size_t>(model.num_weights()));
    for (double& v : weights) v = rng.uniform(-1.5, 1.5);
    state.SetLabel(std::string(nq == 2 ? "iris" : "wine") + " " +
                   std::to_string(nq) + "q samples " + std::to_string(n));
  }
  /// Moves every weight, as an optimizer step does.
  void step() {
    for (double& v : weights) v += 1e-3;
  }

  int nq;
  qnn::QnnModel model;
  qnn::QnnExecutor ex;
  std::vector<std::vector<double>> features;
  std::vector<int> labels;
  std::vector<double> weights;
};

void BM_ExecutorDatasetLoss(benchmark::State& state) {
  ExecutorCall call(state);
  for (auto _ : state) {
    call.step();
    benchmark::DoNotOptimize(call.ex.dataset_loss(
        qnn::LossKind::kMse, call.features, call.labels, call.weights));
  }
}
BENCHMARK(BM_ExecutorDatasetLoss)->Args({2, 20})->Args({2, 4})->Args({4, 20});

void BM_ExecutorLossGradient(benchmark::State& state) {
  ExecutorCall call(state);
  for (auto _ : state) {
    call.step();
    benchmark::DoNotOptimize(call.ex.loss_gradient(
        qnn::LossKind::kMse, call.features, call.labels, call.weights));
  }
}
BENCHMARK(BM_ExecutorLossGradient)->Args({2, 20})->Args({2, 4})->Args({4, 4});

// ---------------------------------------------------------------------------
// Wall-clock helper for the plan A/B mode below.

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Plan A/B mode (`--plan-ab`): the production executor on both kernel
// arms (portable scalar, SIMD) against the naive circuit walk. For each
// benchmark circuit size, every column of one dataset block's
// adjoint_gradient_z_bound (one bind_block; its <Z> and its gradient) is
// first checked bitwise against StatevectorSimulator::expectation_z and
// the circuit adjoint on the executor's compiled circuit and noise
// model, on both arms, and the executor's loss and gradient must not
// depend on the arm (default strict-reproducibility arm; exit code 2 on
// any divergence).
// Then each arm's dataset_loss and loss_gradient are clocked (median of
// `kAbReps` repetitions), with the naive walk — the reference engines'
// per-sample forward and forward+adjoint over the same samples, SIMD
// on — clocked alongside. The headline speedups pit the SIMD executor
// against the scalar one (kernels) and against the naive walk (plan).

constexpr int kAbReps = 5;
constexpr int kAbBatch = 8;  ///< samples per dataset call (mini-GEMM width)

struct ArmTiming {
  double forward_median_s = 0.0;
  double gradient_median_s = 0.0;

  double combined() const { return forward_median_s + gradient_median_s; }
};

struct PlanAbPoint {
  int qubits = 0;
  std::size_t gates = 0;
  std::size_t fused_gates = 0;
  std::size_t stream_ops = 0;
  int forward_iters = 0;   ///< dataset_loss calls per rep (x kAbBatch samples)
  int gradient_iters = 0;  ///< loss_gradient calls per rep
  ArmTiming scalar;        ///< production executor, portable kernels
  ArmTiming simd;          ///< production executor, SIMD kernels
  ArmTiming naive;         ///< circuit walk, SIMD kernels
  bool identical = true;

  double kernel_speedup() const { return scalar.combined() / simd.combined(); }
  double plan_speedup() const { return naive.combined() / simd.combined(); }
};

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One circuit size: check the executor's batched kernels against the
/// circuit references and the executor's outputs across the two kernel
/// arms bitwise, then clock each arm and the naive walk.
PlanAbPoint measure_plan_ab(int qubits, int forward_iters,
                            int gradient_iters) {
  const qnn::QnnModel m = model_for(qubits);
  const qnn::QnnExecutor ex(m, device::table3_fleet(qubits)[0]);
  const sim::ExecPlan& plan = *ex.plan();
  const circuit::Circuit& c = ex.compiled().executable;
  const sim::StatevectorSimulator ref_sim(ex.noise());
  const sim::NoiseModel* noise = ex.noise().enabled() ? &ex.noise() : nullptr;
  const int q = ex.readout_qubit();

  math::Rng rng(17u + static_cast<std::uint64_t>(qubits));
  std::vector<std::vector<double>> feats;
  std::vector<int> labels;
  for (int s = 0; s < kAbBatch; ++s) {
    std::vector<double> row(static_cast<std::size_t>(qubits));
    for (double& v : row) v = rng.uniform(0.0, 1.0);
    feats.push_back(std::move(row));
    labels.push_back(s % 2);
  }
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()));
  for (double& v : weights) v = rng.uniform(-1.5, 1.5);
  const auto np = static_cast<std::size_t>(plan.num_params());
  std::vector<std::vector<double>> cols;
  std::vector<double> packed;
  for (const auto& f : feats) {
    cols.push_back(m.pack_params(f, weights));
    packed.insert(packed.end(), cols.back().begin(), cols.back().end());
  }

  PlanAbPoint p;
  p.qubits = qubits;
  p.forward_iters = forward_iters;
  p.gradient_iters = gradient_iters;
  p.gates = plan.gate_count();
  p.fused_gates = plan.fused_gate_count();
  p.stream_ops = plan.stream_op_count();

  // The SIMD arm stays scalar when --no-simd or ARBITERQ_SIMD=OFF turned
  // the SIMD kernels off for the run.
  const bool simd_was = sim::kernels::simd_runtime_enabled();
  const auto set_arm = [simd_was](bool simd) {
    sim::kernels::set_simd_runtime_enabled(simd && simd_was);
  };
  const auto loss_of = [&] {
    return ex.dataset_loss(qnn::LossKind::kMse, feats, labels, weights);
  };
  const auto grad_of = [&] {
    return ex.loss_gradient(qnn::LossKind::kMse, feats, labels, weights);
  };
  // The naive walk's per-sample engine work for the same loss and
  // gradient (the scalar loss algebra around it is negligible): the
  // gradient takes p from expectation_z, as the circuit adjoint reports
  // no <Z>, then the circuit adjoint's own forward and reverse sweep.
  const auto naive_loss = [&] {
    double z = 0.0;
    for (const auto& col : cols) {
      z += ref_sim.expectation_z(c, col, q, ex.survival());
    }
    return z;
  };
  const auto naive_grad = [&] {
    double g = naive_loss();
    for (const auto& col : cols) {
      g += sim::adjoint_gradient_z(c, col, q, noise, ex.survival())[0];
    }
    return g;
  };

  // Bitwise verification on both arms (also warms every workspace pool
  // the clocks touch). The references run on the scalar arm.
  set_arm(false);
  std::vector<double> ref_z;
  std::vector<std::vector<double>> ref_grad;
  for (const auto& col : cols) {
    ref_z.push_back(ref_sim.expectation_z(c, col, q));
    ref_grad.push_back(sim::adjoint_gradient_z(c, col, q, noise));
  }
  const double loss = loss_of();
  const std::vector<double> grad = grad_of();
  sim::Workspace bws;
  std::vector<double> zs(cols.size());
  std::vector<double> grads(cols.size() * np);
  for (const bool simd : {false, true}) {
    set_arm(simd);
    plan.bind_block(packed.data(), np, cols.size(), bws, /*adjoint=*/true);
    sim::adjoint_gradient_z_bound(plan, q, bws, zs.data(), grads.data());
    for (std::size_t b = 0; b < cols.size(); ++b) {
      p.identical &= zs[b] == ref_z[b];
      p.identical &= std::equal(ref_grad[b].begin(), ref_grad[b].end(),
                                grads.begin() +
                                    static_cast<std::ptrdiff_t>(b * np));
    }
    p.identical &= loss_of() == loss;
    p.identical &= grad_of() == grad;
  }

  // Median-of-kAbReps wall clocks per arm.
  double sink = 0.0;
  const auto clock_arm = [&](const auto& forward, const auto& gradient,
                             bool simd, ArmTiming* arm) {
    set_arm(simd);
    std::vector<double> fwd_reps, grd_reps;
    for (int rep = 0; rep < kAbReps; ++rep) {
      double t0 = now_seconds();
      for (int r = 0; r < forward_iters; ++r) sink += forward();
      fwd_reps.push_back(now_seconds() - t0);
      t0 = now_seconds();
      for (int r = 0; r < gradient_iters; ++r) sink += gradient();
      grd_reps.push_back(now_seconds() - t0);
    }
    arm->forward_median_s = median_of(fwd_reps);
    arm->gradient_median_s = median_of(grd_reps);
  };
  const auto grad_head = [&] { return grad_of()[0]; };
  clock_arm(loss_of, grad_head, false, &p.scalar);
  clock_arm(loss_of, grad_head, true, &p.simd);
  clock_arm(naive_loss, naive_grad, true, &p.naive);
  sim::kernels::set_simd_runtime_enabled(simd_was);
  benchmark::DoNotOptimize(sink);

  std::printf("  plan-ab q=%d  simd/scalar %.2fx  plan/naive %.2fx  "
              "identical=%s\n",
              qubits, p.kernel_speedup(), p.plan_speedup(),
              p.identical ? "yes" : "NO");
  return p;
}

void write_arm(std::FILE* f, const char* name, const ArmTiming& arm) {
  std::fprintf(f,
               "\"%s\": {\"forward_median_seconds\": %.6f, "
               "\"gradient_median_seconds\": %.6f}",
               name, arm.forward_median_s, arm.gradient_median_s);
}

int run_plan_ab_mode(const std::string& out_path) {
  std::printf("plan A/B mode: executor on scalar/SIMD kernels vs the "
              "circuit walk (arch %s, strict=%s)\n",
              sim::kernels::arch_name(sim::kernels::active_arch()),
              sim::kernels::strict_reproducibility() ? "on" : "off");
  // The default set mirrors the training workloads the plan accelerates:
  // the paper's Table I models are 2-qubit (iris) and 4-qubit (wine/
  // breast-cancer) backbones; 6 qubits adds headroom beyond them.
  const std::vector<int> qubit_set = {2, 4, 6};
  std::vector<PlanAbPoint> points;
  for (int q : qubit_set) {
    points.push_back(
        measure_plan_ab(q, /*forward_iters=*/120, /*gradient_iters=*/60));
  }

  // Suite aggregates are geometric means over the benchmark circuits, so
  // each circuit counts once (the standard suite metric); a total-time
  // ratio would just re-measure the largest register, whose per-call
  // cost dwarfs the smallest.
  double log_kernel = 0.0, log_plan = 0.0;
  bool identical = true;
  for (const auto& p : points) {
    log_kernel += std::log(p.kernel_speedup());
    log_plan += std::log(p.plan_speedup());
    identical &= p.identical;
  }
  const double n = static_cast<double>(points.size());
  const double kernel_speedup = std::exp(log_kernel / n);
  const double plan_speedup = std::exp(log_plan / n);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"plan-ab\",\n");
  std::fprintf(f, "  \"identical\": %s,\n", identical ? "true" : "false");
  std::fprintf(f, "  \"kernel_arch\": \"%s\",\n",
               sim::kernels::arch_name(sim::kernels::active_arch()));
  std::fprintf(f, "  \"strict_reproducibility\": %s,\n",
               sim::kernels::strict_reproducibility() ? "true" : "false");
  std::fprintf(f,
               "  \"timing\": \"median of %d reps per arm; iterations "
               "are calls per rep, forward calls cover %d samples "
               "each; speedups are combined forward+gradient time\",\n",
               kAbReps, kAbBatch);
  std::fprintf(f, "  \"aggregate\": \"geometric mean over circuits\",\n");
  std::fprintf(f, "  \"kernel_speedup\": %.4f,\n", kernel_speedup);
  std::fprintf(f, "  \"plan_speedup\": %.4f,\n", plan_speedup);
  std::fprintf(f, "  \"circuits\": [");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PlanAbPoint& p = points[i];
    std::fprintf(
        f,
        "%s\n    {\"qubits\": %d, \"layers\": 2, \"gates\": %zu, "
        "\"fused_gates\": %zu, \"stream_ops\": %zu, \"batch\": %d, "
        "\"reps\": %d, \"forward_iterations\": %d, "
        "\"gradient_iterations\": %d,\n     ",
        i ? "," : "", p.qubits, p.gates, p.fused_gates, p.stream_ops,
        kAbBatch, kAbReps, p.forward_iters, p.gradient_iters);
    write_arm(f, "scalar", p.scalar);
    std::fprintf(f, ", ");
    write_arm(f, "simd", p.simd);
    std::fprintf(f, ", ");
    write_arm(f, "naive", p.naive);
    std::fprintf(f,
                 ",\n     \"kernel_speedup\": %.4f, \"plan_speedup\": "
                 "%.4f, \"identical\": %s}",
                 p.kernel_speedup(), p.plan_speedup(),
                 p.identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("simd/scalar %.2fx  plan/naive %.2fx (geomean)  "
              "identical=%s\n",
              kernel_speedup, plan_speedup, identical ? "yes" : "NO");
  return identical ? 0 : 2;
}

}  // namespace

// Expanded BENCHMARK_MAIN(): `--plan-ab` switches to the plan A/B mode
// above; otherwise the google-benchmark suite runs. Either way the
// telemetry accumulated across every iteration (simulator/transpiler
// counters and the trace ring) can be dumped as JSONL by setting
// $ARBITERQ_TELEMETRY_PATH (no file is written when it is unset).
int main(int argc, char** argv) {
  bool plan_ab = false;
  std::string scaling_out = "BENCH_perf.json";
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plan-ab") {
      plan_ab = true;
    } else if (flag == "--no-simd") {
      // Force the portable scalar kernels for every mode (same effect
      // as ARBITERQ_SIMD=OFF). --plan-ab still clocks its scalar arm
      // but dispatches the SIMD arm to scalar, so its kernel speedup
      // degenerates to 1.
      arbiterq::sim::kernels::set_simd_runtime_enabled(false);
    } else if (flag == "--scaling-out") {
      if (i + 1 < argc) scaling_out = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int rc = 0;
  if (plan_ab) {
    rc = run_plan_ab_mode(scaling_out);
  } else {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  // The telemetry dump is opt-in: unset ARBITERQ_TELEMETRY_PATH means no
  // file — benches invoked from a repo checkout must not litter it.
  const char* env = std::getenv("ARBITERQ_TELEMETRY_PATH");
  if (env != nullptr && env[0] != '\0') {
    try {
      arbiterq::telemetry::JsonlExporter exporter(env);
      exporter.write_global_state();
      exporter.close();
      std::printf("(wrote %s: %zu telemetry lines)\n", env,
                  exporter.lines_written());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry dump failed: %s\n", e.what());
    }
  } else {
    std::printf("(telemetry dump skipped; set ARBITERQ_TELEMETRY_PATH to "
                "write the JSONL)\n");
  }
  return rc;
}
