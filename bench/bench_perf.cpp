// Performance microbenchmarks (google-benchmark): the simulator and
// compiler substrate costs that size every experiment above — state
// vector evolution vs qubit count, exact vs trajectory execution,
// adjoint gradient vs parameter shift, transpilation, and the
// density-matrix reference.
//
// Thread-scaling mode: `bench_perf --threads N` skips the
// google-benchmark suite and instead measures end-to-end fleet training
// plus raw statevector kernels at 1, 2, 4, ... up to N worker threads,
// verifies the parallel runs reproduce the serial loss curve exactly,
// and emits a machine-readable BENCH_perf.json.
//
// Serving-scale mode: `bench_perf --serving-scale` sweeps simulated
// fleet sizes x shard counts through the sharded serving runtime with
// synthetic execution, measuring admission rate and per-shard lock
// contention and verifying admitted results stay bit-identical across
// shard counts.
//
// Plan A/B mode: `bench_perf --plan-ab` pits the compiled-ExecPlan
// executor against the naive per-call circuit walk on the default
// benchmark circuits, verifies forward probabilities and adjoint
// gradients are bit-identical between the two paths, and records the
// forward/gradient/combined speedups in BENCH_perf.json (exit code 2 if
// any output diverges).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/core/behavioral_vector.hpp"
#include "arbiterq/core/trainers.hpp"
#include "arbiterq/data/pipeline.hpp"
#include "arbiterq/device/presets.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/monitor/slo.hpp"
#include "arbiterq/monitor/watchdog.hpp"
#include "arbiterq/qnn/executor.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/serve/flight_recorder.hpp"
#include "arbiterq/serve/runtime.hpp"
#include "arbiterq/serve/trafficgen.hpp"
#include "arbiterq/sim/adjoint.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/density_matrix.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/sim/statevector.hpp"
#include "arbiterq/telemetry/export.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/timeseries.hpp"
#include "arbiterq/telemetry/trace.hpp"
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
  // The per-call circuit walk (ExecPlan disabled) — compare with
  // BM_CompiledNoisyForward at the same qubit count for the plan win.
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  qnn::ExecutorOptions opts;
  opts.use_plan = false;
  const qnn::QnnExecutor ex(m, device::table3_fleet(qubits)[0], opts);
  std::vector<double> features(static_cast<std::size_t>(qubits), 0.7);
  std::vector<double> weights(static_cast<std::size_t>(m.num_weights()),
                              0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.probability(features, weights));
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
  // Plan-based adjoint with warm workspace registers — compare with
  // BM_AdjointGradient at the same qubit count.
  const int qubits = static_cast<int>(state.range(0));
  const qnn::QnnModel m = model_for(qubits);
  const auto params = params_for(m);
  const sim::ExecPlan plan(m.circuit(), sim::NoiseModel{});
  sim::Workspace ws;
  std::vector<double> grad(static_cast<std::size_t>(m.num_params()));
  for (auto _ : state) {
    sim::adjoint_gradient_z(plan, params, 0, ws, grad);
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
// the sample-batched register walks. Brackets are unbatched only.
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
      benchmark::DoNotOptimize(
          sim::kernels::bracket_1q(lam.data(), init.data(), dim, m2, q));
    }
    return;
  }
  if (width == 0) {
    sim::Statevector sv(nq);
    sv.load_strided(init.data(), 1);
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
  for (auto _ : state) {
    if (two_qubit) {
      st.apply_mat4_all(m4, q + 1, q, width);
    } else {
      st.apply_mat2_all(m2, q, width);
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

// ---------------------------------------------------------------------------
// Thread-scaling mode (`--threads N`): wall-clock the two workloads the
// engine accelerates and dump BENCH_perf.json.

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScalingPoint {
  int threads = 1;
  double seconds = 0.0;
  bool equivalent = true;  ///< results match the 1-thread run exactly
};

std::vector<int> thread_sweep(int max_threads) {
  std::vector<int> sweep;
  for (int t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

/// Fleet training: ArbiterQ strategy over `fleet_size` Table III QPUs.
std::vector<ScalingPoint> scale_fleet_training(int max_threads,
                                               int fleet_size, int epochs) {
  const data::BenchmarkCase bc{"wine", 4, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 42);
  const qnn::QnnModel m(qnn::Backbone::kCRz, bc.num_qubits, bc.num_layers);
  std::vector<ScalingPoint> points;
  std::vector<double> baseline_losses;
  for (int t : thread_sweep(max_threads)) {
    core::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.exec.num_threads = t;
    const core::DistributedTrainer trainer(
        m, device::table3_fleet_subset(fleet_size, bc.num_qubits), cfg);
    const double t0 = now_seconds();
    const core::TrainResult r =
        trainer.train(core::Strategy::kArbiterQ, split);
    ScalingPoint p;
    p.threads = t;
    p.seconds = now_seconds() - t0;
    if (t == 1) {
      baseline_losses = r.epoch_test_loss;
    } else {
      p.equivalent = r.epoch_test_loss == baseline_losses;
    }
    points.push_back(p);
    std::printf("  fleet training  threads=%2d  %.3fs  speedup %.2fx  "
                "equivalent=%s\n",
                t, p.seconds, points.front().seconds / p.seconds,
                p.equivalent ? "yes" : "NO");
  }
  return points;
}

/// Raw stride kernels: repeated 1q butterflies + diagonal 2q passes over
/// a large register.
std::vector<ScalingPoint> scale_statevector_kernels(int max_threads,
                                                    int qubits, int sweeps) {
  const circuit::Mat2 ry =
      circuit::gate_matrix_1q(circuit::GateKind::kRY, {0.3, 0.0, 0.0});
  const circuit::Mat4 crz =
      circuit::gate_matrix_2q(circuit::GateKind::kCRZ, {0.7, 0.0, 0.0});
  std::vector<ScalingPoint> points;
  sim::AmpVector baseline;
  for (int t : thread_sweep(max_threads)) {
    sim::Statevector sv(qubits);
    exec::ExecPolicy policy;
    policy.num_threads = t;
    sv.set_exec_policy(policy);
    const double t0 = now_seconds();
    for (int s = 0; s < sweeps; ++s) {
      for (int q = 0; q < qubits; ++q) sv.apply_mat2(ry, q);
      for (int q = 0; q + 1 < qubits; ++q) sv.apply_mat4(crz, q + 1, q);
    }
    ScalingPoint p;
    p.threads = t;
    p.seconds = now_seconds() - t0;
    if (t == 1) {
      baseline = sv.amplitudes();
    } else {
      p.equivalent = sv.amplitudes() == baseline;
    }
    points.push_back(p);
    std::printf("  sv kernels      threads=%2d  %.3fs  speedup %.2fx  "
                "equivalent=%s\n",
                t, p.seconds, points.front().seconds / p.seconds,
                p.equivalent ? "yes" : "NO");
  }
  return points;
}

void write_points(std::FILE* f, const std::vector<ScalingPoint>& points) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::fprintf(f,
                 "%s{\"threads\": %d, \"seconds\": %.6f, "
                 "\"speedup\": %.4f, \"equivalent\": %s}",
                 i ? ", " : "", points[i].threads, points[i].seconds,
                 points.front().seconds / points[i].seconds,
                 points[i].equivalent ? "true" : "false");
  }
  std::fprintf(f, "]");
}

int run_scaling_mode(int max_threads, int fleet_size, int epochs,
                     const std::string& out_path) {
  std::printf("thread-scaling mode: up to %d threads "
              "(fleet %d, %d epochs)\n",
              max_threads, fleet_size, epochs);
  const auto fleet = scale_fleet_training(max_threads, fleet_size, epochs);
  const int sv_qubits = 18;
  const auto kernels =
      scale_statevector_kernels(max_threads, sv_qubits, /*sweeps=*/20);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"thread-scaling\",\n");
  std::fprintf(f, "  \"max_threads\": %d,\n", max_threads);
  std::fprintf(f, "  \"hardware_concurrency\": %d,\n",
               exec::resolve_threads(0));
  std::fprintf(f,
               "  \"fleet_training\": {\"dataset\": \"wine\", "
               "\"fleet\": %d, \"epochs\": %d, \"strategy\": \"arbiterq\", "
               "\"results\": ",
               fleet_size, epochs);
  write_points(f, fleet);
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"statevector_kernels\": {\"qubits\": %d, "
               "\"results\": ",
               sv_qubits);
  write_points(f, kernels);
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  bool all_equivalent = true;
  for (const auto& p : fleet) all_equivalent &= p.equivalent;
  for (const auto& p : kernels) all_equivalent &= p.equivalent;
  return all_equivalent ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Plan A/B mode (`--plan-ab`): the kernel A/B matrix. For each benchmark
// circuit size the compiled-plan executor runs under all four
// {scalar, SIMD} x {unbatched, batched} arms, plus the naive per-call
// circuit walk as context, with every output verified bit-identical
// across arms before the clocks count (default strict-reproducibility
// arm; exit code 2 on any divergence). Each arm reports the median of
// `kAbReps` timed repetitions together with its iteration counts, and
// the headline combined speedup pits SIMD+batched against
// scalar+unbatched.

constexpr int kAbReps = 5;
constexpr int kAbBatch = 8;  ///< samples per dataset call (mini-GEMM width)

struct ArmTiming {
  bool simd = false;
  bool batched = false;
  double forward_median_s = 0.0;
  double gradient_median_s = 0.0;
};

struct PlanAbPoint {
  int qubits = 0;
  std::size_t gates = 0;
  std::size_t fused_gates = 0;
  std::size_t stream_ops = 0;
  int forward_iters = 0;   ///< dataset_loss calls per rep (x kAbBatch samples)
  int gradient_iters = 0;  ///< loss_gradient calls per rep
  ArmTiming arms[4];       ///< [simd*2 + batched]
  double naive_forward_s = 0.0;   // per-call circuit walk, SIMD on
  double naive_gradient_s = 0.0;
  bool identical = true;
};

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// One circuit size: build the naive walker plus planned executors with
/// the sample-batched forward off/on, check losses and adjoint gradients
/// bitwise across the naive path and all four kernel arms, then clock
/// each arm.
PlanAbPoint measure_plan_ab(int qubits, int forward_iters,
                            int gradient_iters) {
  const qnn::QnnModel m = model_for(qubits);
  const device::Qpu dev = device::table3_fleet(qubits)[0];
  qnn::ExecutorOptions naive_opts;
  naive_opts.use_plan = false;
  const qnn::QnnExecutor naive(m, dev, naive_opts);
  qnn::ExecutorOptions unbatched_opts;
  unbatched_opts.batched_forward = false;
  const qnn::QnnExecutor plan_unbatched(m, dev, unbatched_opts);
  const qnn::QnnExecutor plan_batched(m, dev);

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

  PlanAbPoint p;
  p.qubits = qubits;
  p.forward_iters = forward_iters;
  p.gradient_iters = gradient_iters;
  if (const sim::ExecPlan* plan = plan_batched.plan()) {
    p.gates = plan->gate_count();
    p.fused_gates = plan->fused_gate_count();
    p.stream_ops = plan->stream_op_count();
  }

  const bool simd_was = sim::kernels::simd_runtime_enabled();
  const auto loss_of = [&](const qnn::QnnExecutor& ex) {
    return ex.dataset_loss(qnn::LossKind::kMse, feats, labels, weights);
  };
  const auto grad_of = [&](const qnn::QnnExecutor& ex) {
    return ex.loss_gradient(qnn::LossKind::kMse, feats, labels, weights);
  };

  // Bitwise verification across the naive walk and all four kernel arms
  // (also warms every workspace pool the clocks touch).
  sim::kernels::set_simd_runtime_enabled(false);
  const double ref_loss = loss_of(naive);
  const std::vector<double> ref_grad = grad_of(naive);
  for (bool simd : {false, true}) {
    sim::kernels::set_simd_runtime_enabled(simd);
    for (const qnn::QnnExecutor* ex : {&plan_unbatched, &plan_batched}) {
      p.identical &= loss_of(*ex) == ref_loss;
      p.identical &= grad_of(*ex) == ref_grad;
      for (const auto& f : feats) {
        p.identical &=
            ex->probability(f, weights) == naive.probability(f, weights);
      }
    }
  }

  // Median-of-kAbReps wall clocks per arm.
  double sink = 0.0;
  const auto clock_arm = [&](const qnn::QnnExecutor& ex, bool simd,
                             double* fwd, double* grd) {
    sim::kernels::set_simd_runtime_enabled(simd);
    std::vector<double> fwd_reps, grd_reps;
    for (int rep = 0; rep < kAbReps; ++rep) {
      double t0 = now_seconds();
      for (int r = 0; r < forward_iters; ++r) sink += loss_of(ex);
      fwd_reps.push_back(now_seconds() - t0);
      t0 = now_seconds();
      for (int r = 0; r < gradient_iters; ++r) sink += grad_of(ex)[0];
      grd_reps.push_back(now_seconds() - t0);
    }
    *fwd = median_of(fwd_reps);
    *grd = median_of(grd_reps);
  };
  for (int simd = 0; simd < 2; ++simd) {
    for (int batched = 0; batched < 2; ++batched) {
      ArmTiming& arm = p.arms[2 * simd + batched];
      arm.simd = simd != 0;
      arm.batched = batched != 0;
      clock_arm(batched ? plan_batched : plan_unbatched, arm.simd,
                &arm.forward_median_s, &arm.gradient_median_s);
    }
  }
  clock_arm(naive, true, &p.naive_forward_s, &p.naive_gradient_s);
  sim::kernels::set_simd_runtime_enabled(simd_was);
  benchmark::DoNotOptimize(sink);

  const ArmTiming& base = p.arms[0];  // scalar + unbatched
  const ArmTiming& best = p.arms[3];  // SIMD + batched
  std::printf("  plan-ab q=%d  forward %.2fx  gradient %.2fx  combined "
              "%.2fx  identical=%s\n",
              qubits, base.forward_median_s / best.forward_median_s,
              base.gradient_median_s / best.gradient_median_s,
              (base.forward_median_s + base.gradient_median_s) /
                  (best.forward_median_s + best.gradient_median_s),
              p.identical ? "yes" : "NO");
  return p;
}

int run_plan_ab_mode(const std::string& out_path) {
  std::printf("plan A/B mode: kernel matrix scalar/SIMD x "
              "unbatched/batched (arch %s, strict=%s)\n",
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
  double log_fwd = 0.0, log_grad = 0.0, log_combined = 0.0;
  double combined_6q = 0.0;
  bool identical = true;
  for (const auto& p : points) {
    const ArmTiming& base = p.arms[0];
    const ArmTiming& best = p.arms[3];
    log_fwd += std::log(base.forward_median_s / best.forward_median_s);
    log_grad += std::log(base.gradient_median_s / best.gradient_median_s);
    const double combined =
        (base.forward_median_s + base.gradient_median_s) /
        (best.forward_median_s + best.gradient_median_s);
    log_combined += std::log(combined);
    if (p.qubits == 6) combined_6q = combined;
    identical &= p.identical;
  }
  const double n = static_cast<double>(points.size());
  const double forward_speedup = std::exp(log_fwd / n);
  const double gradient_speedup = std::exp(log_grad / n);
  const double combined_speedup = std::exp(log_combined / n);

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
               "  \"baseline_arm\": \"scalar unbatched plan\", "
               "\"speedup_arm\": \"simd batched plan\",\n");
  std::fprintf(f,
               "  \"timing\": \"median of %d reps per arm; iterations "
               "are calls per rep, forward calls cover %d samples "
               "each\",\n",
               kAbReps, kAbBatch);
  std::fprintf(f, "  \"aggregate\": \"geometric mean over circuits\",\n");
  std::fprintf(f, "  \"forward_speedup\": %.4f,\n", forward_speedup);
  std::fprintf(f, "  \"gradient_speedup\": %.4f,\n", gradient_speedup);
  std::fprintf(f, "  \"combined_speedup\": %.4f,\n", combined_speedup);
  std::fprintf(f, "  \"combined_speedup_6q\": %.4f,\n", combined_6q);
  std::fprintf(f, "  \"target_combined_speedup_6q\": 3.0,\n");
  std::fprintf(f, "  \"circuits\": [");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PlanAbPoint& p = points[i];
    const ArmTiming& base = p.arms[0];
    const ArmTiming& best = p.arms[3];
    std::fprintf(
        f,
        "%s\n    {\"qubits\": %d, \"layers\": 2, \"gates\": %zu, "
        "\"fused_gates\": %zu, \"stream_ops\": %zu, \"batch\": %d, "
        "\"reps\": %d, \"forward_iterations\": %d, "
        "\"gradient_iterations\": %d,\n     \"arms\": [",
        i ? "," : "", p.qubits, p.gates, p.fused_gates, p.stream_ops,
        kAbBatch, kAbReps, p.forward_iters, p.gradient_iters);
    for (int a = 0; a < 4; ++a) {
      const ArmTiming& arm = p.arms[a];
      std::fprintf(f,
                   "%s\n      {\"kernels\": \"%s\", \"batched\": %s, "
                   "\"forward_median_seconds\": %.6f, "
                   "\"gradient_median_seconds\": %.6f}",
                   a ? "," : "", arm.simd ? "simd" : "scalar",
                   arm.batched ? "true" : "false", arm.forward_median_s,
                   arm.gradient_median_s);
    }
    std::fprintf(
        f,
        "],\n     \"naive\": {\"forward_median_seconds\": %.6f, "
        "\"gradient_median_seconds\": %.6f},\n"
        "     \"forward_speedup\": %.4f, \"gradient_speedup\": %.4f, "
        "\"combined_speedup\": %.4f, \"identical\": %s}",
        p.naive_forward_s, p.naive_gradient_s,
        base.forward_median_s / best.forward_median_s,
        base.gradient_median_s / best.gradient_median_s,
        (base.forward_median_s + base.gradient_median_s) /
            (best.forward_median_s + best.gradient_median_s),
        p.identical ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("forward %.2fx  gradient %.2fx  combined %.2fx (geomean; "
              "6q combined %.2fx)  identical=%s\n",
              forward_speedup, gradient_speedup, combined_speedup,
              combined_6q, identical ? "yes" : "NO");
  return identical ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Telemetry A/B mode (`--telemetry-ab`): the same fleet-training workload
// clocked with the runtime telemetry switch on and off (spans + metric
// macros become no-ops when off; explicit sinks are unaffected), plus a
// third arm with a live time-series Collector sampling the registry at
// 50ms. The loss curves must match exactly across all arms —
// instrumentation is observational only — and the on/off wall-clock
// ratio is the instrumentation overhead, targeted at < 5% (documented in
// DESIGN.md; not enforced by exit code because CI machines are noisy).
//
// In ARBITERQ_TELEMETRY=OFF builds the macros compile away entirely, so
// both arms run the stripped code and the ratio measures the runtime
// branch alone; "telemetry_compiled" in the JSON records which case ran.

int run_telemetry_ab_mode(const std::string& out_path) {
  std::printf("telemetry A/B mode: runtime switch on vs off\n");
  // 6 qubits so gate arithmetic dominates: the per-gate instrumentation
  // cost is fixed, so tiny circuits would overstate the relative overhead.
  const data::BenchmarkCase bc{"wine", 6, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 42);
  const qnn::QnnModel m(qnn::Backbone::kCRz, bc.num_qubits, bc.num_layers);
  core::TrainConfig cfg;
  cfg.epochs = 40;
  const core::DistributedTrainer trainer(
      m, device::table3_fleet_subset(6, bc.num_qubits), cfg);

  std::vector<double> losses_on, losses_off;
  const auto timed_run = [&](bool enabled, std::vector<double>* losses) {
    telemetry::set_telemetry_runtime_enabled(enabled);
    const double t0 = now_seconds();
    const core::TrainResult r =
        trainer.train(core::Strategy::kArbiterQ, split);
    const double s = now_seconds() - t0;
    *losses = r.epoch_test_loss;
    return s;
  };
  // The arms run in adjacent (off, on) pairs so each pair sees the same
  // machine-load conditions; the median of the per-pair ratios is robust
  // to bursty noise that best-of-N across arms is not. One discarded
  // warm-up run eats one-time init costs, and the loop ends with
  // telemetry live for the final dump.
  // Third arm: telemetry on with a live Collector thread folding the
  // global registry into a TimeSeriesStore every 50ms — the full
  // time-series pipeline whose budget DESIGN.md documents.
  std::vector<double> losses_col;
  const auto timed_collector_run = [&](std::vector<double>* losses) {
    telemetry::TimeSeriesStore store;
    telemetry::CollectorOptions co;
    co.cadence_us = 50'000.0;
    telemetry::Collector collector(store,
                                   telemetry::MetricsRegistry::global(),
                                   co);
    collector.start();
    const double s = timed_run(true, losses);
    collector.stop();
    return s;
  };

  telemetry::set_telemetry_runtime_enabled(true);
  (void)trainer.train(core::Strategy::kArbiterQ, split);
  double off_s = 1e300, on_s = 1e300, col_s = 1e300;
  std::vector<double> ratios, col_ratios;
  for (int rep = 0; rep < 9; ++rep) {
    const double off_rep = timed_run(false, &losses_off);
    const double on_rep = timed_run(true, &losses_on);
    const double col_rep = timed_collector_run(&losses_col);
    off_s = std::min(off_s, off_rep);
    on_s = std::min(on_s, on_rep);
    col_s = std::min(col_s, col_rep);
    ratios.push_back(on_rep / off_rep);
    col_ratios.push_back(col_rep / off_rep);
  }
  telemetry::set_telemetry_runtime_enabled(true);
  std::sort(ratios.begin(), ratios.end());
  std::sort(col_ratios.begin(), col_ratios.end());

  const bool equivalent =
      losses_on == losses_off && losses_col == losses_off;
  const double ratio = ratios[ratios.size() / 2];
  const double col_ratio = col_ratios[col_ratios.size() / 2];
#ifdef ARBITERQ_TELEMETRY_ENABLED
  const bool compiled = true;
#else
  const bool compiled = false;
#endif

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"telemetry-ab\",\n");
  std::fprintf(f, "  \"telemetry_compiled\": %s,\n",
               compiled ? "true" : "false");
  std::fprintf(f,
               "  \"workload\": {\"dataset\": \"wine\", \"qubits\": 6, "
               "\"fleet\": 6, \"epochs\": 40, \"strategy\": \"arbiterq\"},\n");
  std::fprintf(f,
               "  \"timing\": \"median of 9 paired on/off ratios; "
               "seconds are per-arm minima\",\n");
  std::fprintf(f, "  \"telemetry_on_seconds\": %.6f,\n", on_s);
  std::fprintf(f, "  \"telemetry_off_seconds\": %.6f,\n", off_s);
  std::fprintf(f, "  \"telemetry_collector_seconds\": %.6f,\n", col_s);
  std::fprintf(f, "  \"overhead_ratio\": %.4f,\n", ratio);
  std::fprintf(f, "  \"overhead_percent\": %.2f,\n", 100.0 * (ratio - 1.0));
  std::fprintf(f, "  \"collector_overhead_ratio\": %.4f,\n", col_ratio);
  std::fprintf(f, "  \"collector_overhead_percent\": %.2f,\n",
               100.0 * (col_ratio - 1.0));
  std::fprintf(f, "  \"overhead_target_percent\": 5.0,\n");
  std::fprintf(f, "  \"equivalent\": %s\n}\n",
               equivalent ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("telemetry on %.3fs  off %.3fs  collector %.3fs  "
              "overhead %.2f%% (collector %.2f%%)  equivalent=%s\n",
              on_s, off_s, col_s, 100.0 * (ratio - 1.0),
              100.0 * (col_ratio - 1.0), equivalent ? "yes" : "NO");
  return equivalent ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Serving sweeps write an append-only trajectory instead of overwriting:
// each run becomes one timestamped entry in a "runs" array, so repeated
// sweeps on a branch accumulate a perf history a human (or a regression
// script) can diff. The document shape is stable:
//
//   { "mode": "<mode>", "schema": 1, "runs": [ {entry}, {entry}, ... ] }
//
// When the existing file does not match this shape (older flat schema, a
// different mode, or garbage), it is replaced with a fresh one-entry
// document rather than corrupted by a blind splice.

std::string utc_timestamp() {
  char buf[32];
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// printf-append onto a std::string (entry bodies are built in memory so
/// the splice below can treat them as opaque text).
void jsonf(std::string* out, const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

int append_run_entry(const std::string& out_path, const std::string& mode,
                     const std::string& entry) {
  const std::string header =
      "{\n  \"mode\": \"" + mode + "\",\n  \"schema\": 1,\n  \"runs\": [\n";
  const std::string footer = "\n  ]\n}\n";
  std::string prior;
  if (std::FILE* in = std::fopen(out_path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) {
      prior.append(buf, n);
    }
    std::fclose(in);
  }
  std::string doc;
  if (prior.size() > header.size() + footer.size() &&
      prior.compare(0, header.size(), header) == 0 &&
      prior.compare(prior.size() - footer.size(), footer.size(), footer) ==
          0) {
    doc = prior.substr(0, prior.size() - footer.size());
    doc += ",\n";
  } else {
    doc = header;
  }
  doc += entry;
  doc += footer;
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Serving mode (`--serving`): wall-clock the fleet serving runtime under
// fault injection — async job queue, per-QPU workers, retry re-routing and
// a mid-run QPU dropout with torus repartitioning — and record throughput
// plus the latency histogram's p50/p99 in BENCH_perf.json. The workload
// runs twice with the same seed; per-job outputs must be bit-identical
// (exit code 2 otherwise), the serving determinism guarantee.

// Shared serving workload: 6-QPU fleet, iris 2q2l, per-QPU personalized
// weights from deterministic draws (the benches measure serving
// mechanics, not model quality). Used by --serving and --serving-obs.
struct ServingWorkload {
  data::EncodedSplit split;
  std::unique_ptr<core::DistributedTrainer> trainer;
  std::vector<std::vector<double>> weights;
  int fleet_size = 6;
};

ServingWorkload make_serving_workload() {
  ServingWorkload w;
  const data::BenchmarkCase bc{"iris", 2, 2};
  w.split = data::prepare_case(bc, 42);
  const qnn::QnnModel m(qnn::Backbone::kCRz, bc.num_qubits, bc.num_layers);
  core::TrainConfig tcfg;
  w.trainer = std::make_unique<core::DistributedTrainer>(
      m, device::table3_fleet_subset(w.fleet_size, bc.num_qubits), tcfg);
  math::Rng wrng(42);
  for (int q = 0; q < w.fleet_size; ++q) {
    std::vector<double> wq(static_cast<std::size_t>(m.num_weights()));
    math::Rng qrng = wrng.split(static_cast<std::uint64_t>(q));
    for (double& x : wq) x = qrng.normal(0.0, 0.3);
    w.weights.push_back(std::move(wq));
  }
  return w;
}

int run_serving_mode(const std::string& out_path, std::size_t n_jobs) {
  std::printf("serving mode: fleet runtime under fault injection "
              "(%zu jobs)\n", n_jobs);
  const ServingWorkload w = make_serving_workload();
  const int fleet_size = w.fleet_size;
  const data::EncodedSplit& split = w.split;
  const core::DistributedTrainer& trainer = *w.trainer;

  const std::string fault_spec = "kill:1@120,transient:0.02,lag:8";
  serve::FaultConfig fcfg = serve::FaultInjector::parse(fault_spec);
  const serve::FaultInjector faults(static_cast<std::size_t>(fleet_size),
                                    fcfg);

  struct ServingRun {
    std::vector<serve::JobResult> results;
    serve::ServingReport report;
    std::size_t epochs = 0;
    std::vector<serve::FlightRecord> flight;
    std::string flight_jsonl;
  };
  const auto run_once = [&]() {
    serve::ServeConfig sc;
    sc.shots_per_job = 128;
    sc.trajectories = 8;
    sc.backoff_base_us = 5.0;  // keep the bench snappy
    sc.backoff_max_us = 100.0;
    // Size the queue for the whole workload: admission rejects depend on
    // live occupancy and would break the run-to-run determinism check.
    sc.queue_capacity = n_jobs * static_cast<std::size_t>(fleet_size);
    serve::FlightRecorder flight(n_jobs + 1);
    serve::ServingRuntime runtime(trainer.executors(), w.weights,
                                  trainer.behavioral_vectors(), sc,
                                  &faults, nullptr, &flight);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      serve::JobSpec spec;
      spec.features = split.test_features[i % split.test_features.size()];
      spec.label = split.test_labels[i % split.test_labels.size()];
      // Every 8th job carries an unmeetable modeled-time deadline, so
      // the dropout scenario deterministically produces deadline-missed
      // jobs for the flight-recorder coverage check below.
      if (i % 8 == 0) spec.deadline_us = 1e-3;
      runtime.submit(spec);
    }
    runtime.drain();
    ServingRun out;
    out.results = runtime.results();
    out.report = runtime.report();
    out.epochs = runtime.epochs();
    out.flight = flight.snapshot();
    out.flight_jsonl = flight.to_jsonl();
    return out;
  };

  telemetry::MetricsRegistry::global().reset_values();
  const ServingRun a = run_once();
  double p50 = 0.0, p99 = 0.0, vp50 = 0.0, vp99 = 0.0;
  for (const auto& h :
       telemetry::MetricsRegistry::global().snapshot().histograms) {
    if (h.name == "serve.job.latency_us") {
      p50 = h.p50();
      p99 = h.p99();
    } else if (h.name == "serve.job.virtual_latency_us") {
      vp50 = h.p50();
      vp99 = h.p99();
    }
  }

  // Determinism check: same seed, fresh runtime, bit-identical jobs.
  const ServingRun b = run_once();
  bool deterministic = a.results.size() == b.results.size();
  if (deterministic) {
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      deterministic &= a.results[i].status == b.results[i].status &&
                       a.results[i].probability == b.results[i].probability &&
                       a.results[i].retries == b.results[i].retries &&
                       a.results[i].virtual_latency_us ==
                           b.results[i].virtual_latency_us;
    }
  }

  // Flight-recorder coverage: every dropped, deadline-missed, or
  // retry-exhausted job must have left a postmortem record, and the
  // record dump (modeled quantities only) must reproduce byte-for-byte.
  std::size_t bad_jobs = 0, covered = 0;
  for (const serve::JobResult& jr : a.results) {
    if (jr.status == serve::JobStatus::kOk) continue;
    ++bad_jobs;
    for (const serve::FlightRecord& fr : a.flight) {
      if (fr.job == jr.id) {
        ++covered;
        break;
      }
    }
  }
  const bool flight_covered = covered == bad_jobs;
  const bool flight_deterministic = a.flight_jsonl == b.flight_jsonl;

  const serve::ServingReport& rep = a.report;
  std::string e;
  jsonf(&e, "    {\"timestamp\": \"%s\",\n", utc_timestamp().c_str());
  jsonf(&e, "     \"fleet\": %d, \"jobs\": %zu, \"shots_per_job\": 128, "
            "\"faults\": \"%s\",\n", fleet_size, n_jobs,
        fault_spec.c_str());
  jsonf(&e, "     \"completed\": %zu, \"rejected\": %zu, \"expired\": %zu, "
            "\"failed\": %zu, \"retries\": %llu,\n", rep.completed,
        rep.rejected, rep.expired, rep.failed,
        static_cast<unsigned long long>(rep.retries));
  jsonf(&e, "     \"dropouts_detected\": %zu, \"repartitions\": %zu, "
            "\"epochs\": %zu,\n", rep.dropouts_detected, rep.repartitions,
        a.epochs);
  jsonf(&e, "     \"wall_seconds\": %.6f, \"throughput_jobs_per_s\": "
            "%.2f,\n", rep.wall_seconds, rep.throughput_jobs_per_s);
  jsonf(&e, "     \"latency_us\": {\"wall_p50\": %.2f, \"wall_p99\": %.2f, "
            "\"virtual_p50\": %.2f, \"virtual_p99\": %.2f},\n",
        p50, p99, vp50, vp99);
  jsonf(&e, "     \"flight_records\": %zu, \"flight_coverage\": "
            "\"%zu/%zu\", \"flight_covered\": %s,\n", a.flight.size(),
        covered, bad_jobs, flight_covered ? "true" : "false");
  jsonf(&e, "     \"flight_deterministic\": %s, \"deterministic\": %s}",
        flight_deterministic ? "true" : "false",
        deterministic ? "true" : "false");
  if (const int rc = append_run_entry(out_path, "serving", e)) return rc;
  std::printf("serving: %zu jobs ok, %llu retries, %zu dropouts, "
              "%.1f jobs/s, p50 %.1fus p99 %.1fus, deterministic=%s, "
              "flight %zu/%zu (dump deterministic=%s)\n",
              rep.completed,
              static_cast<unsigned long long>(rep.retries),
              rep.dropouts_detected, rep.throughput_jobs_per_s, p50, p99,
              deterministic ? "yes" : "NO", covered, bad_jobs,
              flight_deterministic ? "yes" : "NO");
  return deterministic && flight_covered && flight_deterministic ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Serving observability A/B mode (`--serving-obs`): the serving workload
// clocked under three tracing regimes — off, sampled (every 8th job), and
// full per-job tracing — in adjacent triples so each triple sees the same
// machine conditions (median-of-ratios, like --telemetry-ab). Per-job
// outputs must be bit-identical across all three regimes (tracing is
// observational only; exit code 2 otherwise). The full-tracing overhead
// ratio is targeted at < 5% and recorded, not enforced: CI machines are
// noisy.

int run_serving_obs_mode(const std::string& out_path, std::size_t n_jobs) {
  std::printf("serving observability A/B: tracing off / sampled / full "
              "(%zu jobs)\n", n_jobs);
  const ServingWorkload w = make_serving_workload();
  const data::EncodedSplit& split = w.split;
  const core::DistributedTrainer& trainer = *w.trainer;
  const std::string fault_spec = "kill:1@120,transient:0.02,lag:8";
  const serve::FaultInjector faults(
      static_cast<std::size_t>(w.fleet_size),
      serve::FaultInjector::parse(fault_spec));

  struct ObsRun {
    std::vector<serve::JobResult> results;
    double seconds = 0.0;
  };
  const auto run_once = [&](int sample_every) {
    telemetry::TraceBuffer::global().clear();
    serve::ServeConfig sc;
    sc.shots_per_job = 128;
    sc.trajectories = 8;
    sc.backoff_base_us = 5.0;
    sc.backoff_max_us = 100.0;
    sc.queue_capacity = n_jobs * static_cast<std::size_t>(w.fleet_size);
    sc.trace_sample_every = sample_every;
    ObsRun out;
    const double t0 = now_seconds();
    {
      serve::ServingRuntime runtime(trainer.executors(), w.weights,
                                    trainer.behavioral_vectors(), sc,
                                    &faults);
      for (std::size_t i = 0; i < n_jobs; ++i) {
        serve::JobSpec spec;
        spec.features = split.test_features[i % split.test_features.size()];
        spec.label = split.test_labels[i % split.test_labels.size()];
        runtime.submit(spec);
      }
      runtime.drain();
      out.results = runtime.results();
    }
    out.seconds = now_seconds() - t0;
    return out;
  };

  telemetry::set_telemetry_runtime_enabled(true);
  (void)run_once(0);  // warm-up eats one-time init costs

  double off_s = 1e300, sampled_s = 1e300, full_s = 1e300;
  std::vector<double> sampled_ratios, full_ratios;
  std::vector<serve::JobResult> res_off, res_sampled, res_full;
  for (int rep = 0; rep < 5; ++rep) {
    const ObsRun off = run_once(0);
    const ObsRun sampled = run_once(8);
    const ObsRun full = run_once(1);
    off_s = std::min(off_s, off.seconds);
    sampled_s = std::min(sampled_s, sampled.seconds);
    full_s = std::min(full_s, full.seconds);
    sampled_ratios.push_back(sampled.seconds / off.seconds);
    full_ratios.push_back(full.seconds / off.seconds);
    if (rep == 0) {
      res_off = off.results;
      res_sampled = sampled.results;
      res_full = full.results;
    }
  }
  std::sort(sampled_ratios.begin(), sampled_ratios.end());
  std::sort(full_ratios.begin(), full_ratios.end());
  const double sampled_ratio = sampled_ratios[sampled_ratios.size() / 2];
  const double full_ratio = full_ratios[full_ratios.size() / 2];

  // Admitted-set bit-identity across all three tracing regimes.
  const auto same = [](const std::vector<serve::JobResult>& x,
                       const std::vector<serve::JobResult>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].status != y[i].status ||
          x[i].probability != y[i].probability ||
          x[i].retries != y[i].retries ||
          x[i].virtual_latency_us != y[i].virtual_latency_us) {
        return false;
      }
    }
    return true;
  };
  const bool identical =
      same(res_off, res_sampled) && same(res_off, res_full);

  std::string e;
  jsonf(&e, "    {\"timestamp\": \"%s\",\n", utc_timestamp().c_str());
  jsonf(&e, "     \"fleet\": %d, \"jobs\": %zu, \"faults\": \"%s\",\n",
        w.fleet_size, n_jobs, fault_spec.c_str());
  jsonf(&e, "     \"timing\": \"median of 5 off/sampled/full triples; "
            "seconds are per-arm minima\",\n");
  jsonf(&e, "     \"trace_off_seconds\": %.6f, \"trace_sampled_seconds\": "
            "%.6f, \"trace_full_seconds\": %.6f,\n", off_s, sampled_s,
        full_s);
  jsonf(&e, "     \"sampled_overhead_ratio\": %.4f, "
            "\"full_overhead_ratio\": %.4f, \"full_overhead_percent\": "
            "%.2f,\n", sampled_ratio, full_ratio,
        100.0 * (full_ratio - 1.0));
  jsonf(&e, "     \"overhead_target_percent\": 5.0, \"identical\": %s}",
        identical ? "true" : "false");
  if (const int rc = append_run_entry(out_path, "serving-obs", e)) return rc;
  std::printf("serving-obs: off %.3fs  sampled %.3fs (%+.2f%%)  "
              "full %.3fs (%+.2f%%)  identical=%s\n",
              off_s, sampled_s, 100.0 * (sampled_ratio - 1.0), full_s,
              100.0 * (full_ratio - 1.0), identical ? "yes" : "NO");
  return identical ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Serving-scale mode (`--serving-scale`): admission-scale sweep over
// simulated fleet sizes x shard counts. Execution is synthetic (the slot
// probability is a seeded pure function of (seed, job, slot, attempt) —
// see ServeConfig::synthetic_execution), so fleets far wider than any
// interesting circuit workload still drive the full routing, admission,
// mailbox and retry machinery. For each fleet size the identical job
// stream runs under every shard count; the admitted results must be
// bit-identical across shard counts (exit code 2 otherwise — the
// sharded-determinism guarantee). Each configuration records the
// admission rate (jobs/s over the single-threaded submit phase — the
// number the 100k jobs/s target is about), end-to-end throughput, and
// the per-shard queue-lock contention that sharding is meant to keep
// flat as the fleet grows.

struct ScalePoint {
  int fleet = 0;
  int shards = 0;
  std::size_t jobs = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::uint64_t retries = 0;
  std::size_t cross_shard_in = 0;
  double submit_seconds = 0.0;
  double admission_jobs_per_s = 0.0;
  double wall_seconds = 0.0;
  double throughput_jobs_per_s = 0.0;
  std::uint64_t lock_wait_ns_total = 0;
  std::uint64_t lock_wait_ns_max_shard = 0;
  std::uint64_t lock_contentions = 0;
  std::uint64_t doorbell_wakeups = 0;
  std::uint64_t doorbell_backstops = 0;
  bool identical = true;  ///< vs the same fleet's first shard count
  /// Per-window admission series on the modeled virtual clock (the
  /// "serve.ts.admitted" event series) — the trajectory the single
  /// aggregate admission rate used to flatten away.
  double window_virtual_us = 0.0;
  std::vector<telemetry::SeriesWindow> admitted_windows;
};

/// One serving-scale configuration run. `with_series` attaches a
/// virtual-clock TimeSeriesStore to the runtime (per-job observes on the
/// submit path); `with_collector` additionally runs the full real-time
/// pipeline — a Collector thread sampling the global registry with
/// publish_shard_metrics() as its pre-sample hook — which is the "on" arm
/// of the collector overhead A/B.
struct ScaleRun {
  std::vector<serve::JobResult> results;
  serve::ServingReport report;
  double submit_seconds = 0.0;
  double admission_jobs_per_s = 0.0;
  std::string ts_json;  ///< virtual-clock series dump (with_series only)
  telemetry::SeriesSnapshot admitted;
};

int run_serving_scale_mode(const std::string& out_path,
                           const std::vector<int>& fleets,
                           const std::vector<int>& shard_counts,
                           std::size_t n_jobs) {
  std::printf("serving-scale mode: %zu jobs per config, synthetic "
              "execution\n", n_jobs);
  const data::BenchmarkCase bc{"iris", 2, 2};
  const data::EncodedSplit split = data::prepare_case(bc, 42);
  const qnn::QnnModel m(qnn::Backbone::kCRz, bc.num_qubits, bc.num_layers);

  std::vector<ScalePoint> points;
  bool all_identical = true;
  double top_rate = 0.0;
  // Collector A/B + two-run reproducibility run at the sweep's largest
  // fleet with 4 shards when present (the acceptance configuration),
  // else the last shard count.
  const int ab_fleet = fleets.empty() ? 0 : fleets.back();
  int ab_shards = shard_counts.empty() ? 1 : shard_counts.back();
  for (const int s : shard_counts) {
    if (s == 4) ab_shards = 4;
  }
  std::string ab_ts_json;
  bool series_reproducible = true;
  double collector_off_rate = 0.0, collector_on_rate = 0.0;
  double collector_ratio = 0.0;

  for (const int fleet : fleets) {
    std::printf("fleet %d:\n", fleet);
    core::TrainConfig tcfg;
    const core::DistributedTrainer trainer(
        m, device::table3_fleet_cycled(fleet, bc.num_qubits), tcfg);
    math::Rng wrng(42);
    std::vector<std::vector<double>> weights;
    for (int q = 0; q < fleet; ++q) {
      std::vector<double> wq(static_cast<std::size_t>(m.num_weights()));
      math::Rng qrng = wrng.split(static_cast<std::uint64_t>(q));
      for (double& x : wq) x = qrng.normal(0.0, 0.3);
      weights.push_back(std::move(wq));
    }
    // One mid-stream dropout plus a transient rate: the sweep exercises
    // the cross-shard reroute lanes, not just clean admission.
    const serve::FaultInjector faults(
        static_cast<std::size_t>(fleet),
        serve::FaultInjector::parse("kill:1@64,transient:0.01,lag:32,"
                                    "seed:9"));

    // Virtual window sized so the stream spans ~32 windows: total modeled
    // time ≈ jobs × shots × mean shot latency / fleet. Retention is far
    // above the estimate so no window is ever evicted — eviction order is
    // the one thing the bit-identity contract does not cover.
    double mean_lat = 0.0;
    for (const qnn::QnnExecutor& ex : trainer.executors()) {
      mean_lat += ex.shot_latency_us();
    }
    mean_lat /= static_cast<double>(fleet);
    telemetry::TimeSeriesConfig tscfg;
    tscfg.window_us = std::max(
        1.0, static_cast<double>(n_jobs) * 96.0 * mean_lat /
                 static_cast<double>(fleet) / 32.0);
    tscfg.max_windows = 8192;
    tscfg.max_series = 16384;

    const auto run_config = [&](int shards, bool with_series,
                                bool with_collector) {
      serve::ServeConfig sc;
      sc.shots_per_job = 96;
      sc.backoff_base_us = 0.0;  // modeled-only backoff: no real sleeps
      // Size the queue for the whole stream: admission rejects depend
      // on live occupancy and would break the bit-identity check.
      sc.queue_capacity = n_jobs * 8;
      sc.num_shards = shards;
      // Far fewer worker threads than simulated QPUs: each worker
      // stripes its shard's lanes.
      sc.workers_per_shard = 2;
      sc.synthetic_execution = true;
      sc.gauge_cadence_us = 0.0;
      telemetry::TimeSeriesStore ts(tscfg);
      if (with_series) sc.series = &ts;
      serve::ServingRuntime runtime(trainer.executors(), weights,
                                    trainer.behavioral_vectors(), sc,
                                    &faults);
      std::unique_ptr<telemetry::TimeSeriesStore> rt_store;
      std::unique_ptr<telemetry::Collector> collector;
      if (with_collector) {
        rt_store = std::make_unique<telemetry::TimeSeriesStore>();
        telemetry::CollectorOptions co;
        co.cadence_us = 50'000.0;
        co.pre_sample = [&runtime] { runtime.publish_shard_metrics(); };
        collector = std::make_unique<telemetry::Collector>(
            *rt_store, telemetry::MetricsRegistry::global(), co);
        collector->start();
      }
      const double t0 = now_seconds();
      for (std::size_t i = 0; i < n_jobs; ++i) {
        serve::JobSpec spec;
        spec.features = split.test_features[i % split.test_features.size()];
        spec.label = split.test_labels[i % split.test_labels.size()];
        runtime.submit(spec);
      }
      ScaleRun out;
      out.submit_seconds = now_seconds() - t0;
      runtime.drain();
      if (collector) collector->stop();
      out.report = runtime.report();
      out.results = runtime.results();
      out.admission_jobs_per_s =
          out.submit_seconds > 0.0
              ? static_cast<double>(out.report.admitted) / out.submit_seconds
              : 0.0;
      if (with_series) {
        out.ts_json = ts.to_json("serve.ts.");
        for (telemetry::SeriesSnapshot& snap :
             ts.snapshot("serve.ts.admitted")) {
          if (snap.name == "serve.ts.admitted") out.admitted = snap;
        }
      }
      return out;
    };

    std::vector<serve::JobResult> baseline;
    for (const int shards : shard_counts) {
      const ScaleRun run = run_config(shards, true, false);
      const serve::ServingReport& rep = run.report;

      ScalePoint p;
      p.fleet = fleet;
      p.shards = shards;
      p.jobs = n_jobs;
      p.admitted = rep.admitted;
      p.completed = rep.completed;
      p.retries = rep.retries;
      p.submit_seconds = run.submit_seconds;
      p.admission_jobs_per_s = run.admission_jobs_per_s;
      p.wall_seconds = rep.wall_seconds;
      p.throughput_jobs_per_s = rep.throughput_jobs_per_s;
      for (const serve::ShardStats& s : rep.shards) {
        p.cross_shard_in += s.cross_shard_in;
        p.lock_wait_ns_total += s.lock_wait_ns;
        p.lock_wait_ns_max_shard =
            std::max(p.lock_wait_ns_max_shard, s.lock_wait_ns);
        p.lock_contentions += s.lock_contentions;
        p.doorbell_wakeups += s.doorbell_wakeups;
        p.doorbell_backstops += s.doorbell_backstops;
      }
      p.window_virtual_us = run.admitted.window_us;
      p.admitted_windows = run.admitted.windows;
      if (baseline.empty()) {
        baseline = run.results;
      } else {
        p.identical = run.results.size() == baseline.size();
        for (std::size_t i = 0; p.identical && i < run.results.size();
             ++i) {
          p.identical =
              run.results[i].status == baseline[i].status &&
              run.results[i].probability == baseline[i].probability &&
              run.results[i].retries == baseline[i].retries &&
              run.results[i].virtual_latency_us ==
                  baseline[i].virtual_latency_us;
        }
      }
      all_identical &= p.identical;
      top_rate = std::max(top_rate, p.admission_jobs_per_s);
      std::printf("  shards=%-3d admission %9.0f jobs/s  e2e %9.0f "
                  "jobs/s  lock max/shard %6.2fms  cross-shard %zu  "
                  "identical=%s  (%zu windows)\n",
                  shards, p.admission_jobs_per_s, p.throughput_jobs_per_s,
                  static_cast<double>(p.lock_wait_ns_max_shard) / 1e6,
                  p.cross_shard_in, p.identical ? "yes" : "NO",
                  p.admitted_windows.size());
      if (fleet == ab_fleet && shards == ab_shards) {
        ab_ts_json = run.ts_json;
      }
      points.push_back(std::move(p));
    }

    if (fleet == ab_fleet) {
      // Two-run reproducibility: an identical re-run of the acceptance
      // configuration must dump byte-identical virtual-clock series.
      const ScaleRun rerun = run_config(ab_shards, true, false);
      series_reproducible =
          !ab_ts_json.empty() && rerun.ts_json == ab_ts_json;
      std::printf("  series reproducible across two runs: %s "
                  "(%zu bytes)\n",
                  series_reproducible ? "yes" : "NO", ab_ts_json.size());

      // Collector A/B: one discarded warm-up, then adjacent off/on pairs.
      // "On" is the full pipeline — per-job series observes plus a live
      // Collector thread. The submit phase is ~100ms with worker threads
      // churning alongside, so single-pair ratios are noisy; the headline
      // overhead compares per-arm best rates (the per-arm-minima
      // convention the other A/B modes use).
      (void)run_config(ab_shards, false, false);
      double off_best = 0.0, on_best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        const ScaleRun off = run_config(ab_shards, false, false);
        const ScaleRun on = run_config(ab_shards, true, true);
        off_best = std::max(off_best, off.admission_jobs_per_s);
        on_best = std::max(on_best, on.admission_jobs_per_s);
      }
      collector_off_rate = off_best;
      collector_on_rate = on_best;
      collector_ratio = on_best > 0.0 ? off_best / on_best : 0.0;
      std::printf("  collector A/B (fleet %d x %d shards): off %.0f "
                  "jobs/s  on %.0f jobs/s  overhead %+.2f%% (target "
                  "<= 5%%)\n",
                  ab_fleet, ab_shards, collector_off_rate,
                  collector_on_rate, 100.0 * (collector_ratio - 1.0));
    }
  }

  // Watchdog acceptance probe: a synthetic queue-saturation ramp (steady
  // depth, then doubling every window) must be flagged within 2 windows
  // of the ramp start.
  std::int64_t ramp_flagged_window = -1;
  const std::int64_t ramp_start = 6;
  {
    telemetry::TimeSeriesConfig wtc;
    wtc.window_us = 1000.0;
    telemetry::TimeSeriesStore wstore(wtc);
    monitor::AnomalyWatchdog dog;
    double depth = 100.0;
    for (std::int64_t w = 0; w < 12; ++w) {
      if (w >= ramp_start) depth *= 2.0;
      telemetry::MetricsSnapshot snap;
      snap.gauges.push_back({"serve.queue.depth", depth});
      wstore.sample(snap, (static_cast<double>(w) + 0.5) * wtc.window_us);
      for (const monitor::AnomalyEvent& ev : dog.poll(wstore)) {
        if (ev.kind == monitor::AnomalyKind::kQueueSaturation &&
            ramp_flagged_window < 0) {
          ramp_flagged_window = ev.window;
        }
      }
    }
  }
  const bool ramp_flagged = ramp_flagged_window >= 0 &&
                            ramp_flagged_window - ramp_start < 2;
  std::printf("watchdog ramp: start window %lld, flagged window %lld "
              "(%s)\n",
              static_cast<long long>(ramp_start),
              static_cast<long long>(ramp_flagged_window),
              ramp_flagged ? "within 2 windows" : "MISSED");

  std::string e;
  jsonf(&e, "    {\"timestamp\": \"%s\",\n", utc_timestamp().c_str());
  jsonf(&e, "     \"jobs_per_config\": %zu, \"synthetic_execution\": true, "
            "\"faults\": \"kill:1@64,transient:0.01,lag:32,seed:9\",\n",
        n_jobs);
  jsonf(&e, "     \"admission_rate\": \"admitted jobs / single-threaded "
            "submit-phase seconds\",\n");
  jsonf(&e, "     \"top_admission_jobs_per_s\": %.0f, "
            "\"target_admission_jobs_per_s\": 100000,\n", top_rate);
  jsonf(&e, "     \"identical_across_shard_counts\": %s,\n",
        all_identical ? "true" : "false");
  jsonf(&e, "     \"collector_ab\": {\"fleet\": %d, \"shards\": %d, "
            "\"pairs\": 5, \"rates\": \"per-arm best of 5 paired runs\", "
            "\"admission_off_jobs_per_s\": %.1f, "
            "\"admission_on_jobs_per_s\": %.1f,\n", ab_fleet, ab_shards,
        collector_off_rate, collector_on_rate);
  jsonf(&e, "       \"overhead_ratio\": %.4f, \"overhead_percent\": %.2f, "
            "\"overhead_target_percent\": 5.0},\n", collector_ratio,
        100.0 * (collector_ratio - 1.0));
  jsonf(&e, "     \"series_reproducible\": %s,\n",
        series_reproducible ? "true" : "false");
  jsonf(&e, "     \"watchdog_ramp\": {\"ramp_start_window\": %lld, "
            "\"flagged_window\": %lld, \"flagged_within_2\": %s},\n",
        static_cast<long long>(ramp_start),
        static_cast<long long>(ramp_flagged_window),
        ramp_flagged ? "true" : "false");
  jsonf(&e, "     \"configs\": [");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    jsonf(&e,
          "%s\n      {\"fleet\": %d, \"shards\": %d, \"jobs\": %zu, "
          "\"admitted\": %zu, \"completed\": %zu, \"retries\": %llu, "
          "\"cross_shard_batches\": %zu,\n       \"submit_seconds\": %.6f, "
          "\"admission_jobs_per_s\": %.1f, \"wall_seconds\": %.6f, "
          "\"throughput_jobs_per_s\": %.1f,\n       \"lock_wait_ms_total\": "
          "%.3f, \"lock_wait_ms_max_shard\": %.3f, \"lock_contentions\": "
          "%llu,\n       \"doorbell_wakeups\": %llu, "
          "\"doorbell_backstops\": %llu, \"identical\": %s,\n",
          i ? "," : "", p.fleet, p.shards, p.jobs, p.admitted, p.completed,
          static_cast<unsigned long long>(p.retries), p.cross_shard_in,
          p.submit_seconds, p.admission_jobs_per_s, p.wall_seconds,
          p.throughput_jobs_per_s,
          static_cast<double>(p.lock_wait_ns_total) / 1e6,
          static_cast<double>(p.lock_wait_ns_max_shard) / 1e6,
          static_cast<unsigned long long>(p.lock_contentions),
          static_cast<unsigned long long>(p.doorbell_wakeups),
          static_cast<unsigned long long>(p.doorbell_backstops),
          p.identical ? "true" : "false");
    // The admission trajectory on the modeled virtual clock: one entry
    // per window. Capped at 96 windows per config so a mis-estimated
    // window width cannot bloat the file; the cap is recorded, never
    // silent.
    constexpr std::size_t kMaxEmit = 96;
    const std::size_t emit = std::min(p.admitted_windows.size(), kMaxEmit);
    jsonf(&e, "       \"admission_windows\": {\"window_virtual_us\": %.1f, "
              "\"total_windows\": %zu, \"truncated\": %s, \"series\": [",
          p.window_virtual_us, p.admitted_windows.size(),
          p.admitted_windows.size() > kMaxEmit ? "true" : "false");
    for (std::size_t wi = 0; wi < emit; ++wi) {
      const telemetry::SeriesWindow& w = p.admitted_windows[wi];
      const double rate =
          p.window_virtual_us > 0.0
              ? static_cast<double>(w.count) / (p.window_virtual_us / 1e6)
              : 0.0;
      jsonf(&e, "%s{\"w\": %lld, \"jobs\": %llu, \"rate_per_virtual_s\": "
                "%.1f}", wi ? ", " : "",
            static_cast<long long>(w.index),
            static_cast<unsigned long long>(w.count), rate);
    }
    jsonf(&e, "]}}");
  }
  jsonf(&e, "\n     ]}");
  if (const int rc = append_run_entry(out_path, "serving-scale", e)) {
    return rc;
  }
  std::printf("serving-scale: top admission %.0f jobs/s (target 100000), "
              "identical=%s, series_reproducible=%s, ramp_flagged=%s, "
              "collector overhead %+.2f%%\n",
              top_rate, all_identical ? "yes" : "NO",
              series_reproducible ? "yes" : "NO",
              ramp_flagged ? "yes" : "NO",
              100.0 * (collector_ratio - 1.0));
  return all_identical && series_reproducible && ramp_flagged ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Fairness mode (`--fairness`): the multi-tenant QoS acceptance
// scenario. An adversarial open-loop traffic mix (one flooding
// best-effort tenant, two heavy bulk tenants, four light interactive
// tenants — see serve::adversarial_mix) is replayed through the sharded
// runtime under every arbiter. Execution is synthetic and the whole
// stream is submitted before the workers start (saturated-backlog
// replay), so with model_queue_wait the wait-inclusive virtual latency
// of every job is a pure function of (arrival sequence, arbiter) —
// bit-identical across runs and shard counts (exit 2 otherwise).
//
// Fairness is scored per arbiter with a Jain index over
// service/entitlement ratios: service is the jobs a tenant got finished
// within the modeled horizon, entitlement is its weighted max-min
// (water-filled) share of the total service the arbiter actually
// delivered. Gates (exit 2 on failure): weighted_credit Jain >= 0.9
// with the interactive class p99 inside the SLO target, aggregate
// admission within 10% of FIFO, and bit-identity everywhere. FIFO's
// numbers land in the same JSON entry as the side-by-side starvation
// evidence.

double vec_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Weighted max-min water-filling: distribute `capacity` across tenants
/// proportional to weight, cap each at its demand, redistribute the
/// surplus among the uncapped until none caps or capacity is exhausted.
std::vector<double> waterfill_entitlements(
    const std::vector<double>& weight, const std::vector<double>& demand,
    double capacity) {
  const std::size_t n = weight.size();
  std::vector<double> ent(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = capacity;
  for (;;) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!capped[i]) wsum += std::max(0.0, weight[i]);
    }
    if (wsum <= 0.0 || remaining <= 1e-9) break;
    bool newly_capped = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i] || weight[i] <= 0.0) continue;
      const double share = remaining * weight[i] / wsum;
      if (share >= demand[i]) {
        ent[i] = demand[i];
        capped[i] = true;
        remaining -= demand[i];
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!capped[i] && weight[i] > 0.0) {
          ent[i] = remaining * weight[i] / wsum;
        }
      }
      break;
    }
  }
  return ent;
}

struct FairnessTenantRow {
  std::string name;
  double weight = 1.0;
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t served_in_horizon = 0;
  double entitled = 0.0;
  double ratio = 0.0;  ///< served / entitled
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct FairnessClassRow {
  std::size_t jobs = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double compliance = 1.0;  ///< from the attached SloEngine
};

struct FairnessArbiterResult {
  serve::ArbiterKind kind = serve::ArbiterKind::kFifo;
  bool identical = true;  ///< across shard counts and a re-run
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t served_in_horizon = 0;
  double jain = 0.0;
  std::string starved_tenant;  ///< min service/entitlement ratio
  double starved_ratio = 0.0;
  std::vector<FairnessTenantRow> tenants;
  FairnessClassRow classes[monitor::kNumSloClasses];
};

int run_fairness_mode(const std::string& out_path, int fleet,
                      const std::vector<int>& shard_counts, double scale) {
  if (fleet < 1 || shard_counts.empty() || scale <= 0.0) {
    std::fprintf(stderr, "fairness: bad fleet/shards/scale\n");
    return 1;
  }
  const data::BenchmarkCase bc{"iris", 2, 2};
  const qnn::QnnModel m(qnn::Backbone::kCRz, bc.num_qubits, bc.num_layers);
  core::TrainConfig tcfg;
  const core::DistributedTrainer trainer(
      m, device::table3_fleet_cycled(fleet, bc.num_qubits), tcfg);
  math::Rng wrng(42);
  std::vector<std::vector<double>> weights;
  for (int q = 0; q < fleet; ++q) {
    std::vector<double> wq(static_cast<std::size_t>(m.num_weights()));
    math::Rng qrng = wrng.split(static_cast<std::uint64_t>(q));
    for (double& x : wq) x = qrng.normal(0.0, 0.3);
    weights.push_back(std::move(wq));
  }

  // Scale the scenario to the modeled fleet: capacity is the jobs the
  // whole fleet completes per modeled second, and the horizon is sized
  // so the mix (mean demand ~3.1x capacity, see adversarial_mix) yields
  // ~12k jobs at scale 1.
  const int shots = 96;
  double mean_lat = 0.0;
  for (const qnn::QnnExecutor& ex : trainer.executors()) {
    mean_lat += ex.shot_latency_us();
  }
  mean_lat /= static_cast<double>(fleet);
  const double capacity_jobs_per_s =
      static_cast<double>(fleet) * 1e6 /
      (static_cast<double>(shots) * mean_lat);
  const double target_jobs = std::max(200.0, 12000.0 * scale);
  const double duration_s = target_jobs / (3.12 * capacity_jobs_per_s);
  const double horizon_us = duration_s * 1e6;
  // Interactive SLO: wait-inclusive p99 within 16 serial job executions
  // — a handful of queued batches, versus the O(backlog) wait a FIFO
  // dequeue leaves the interactive tenants with.
  const double slo_target_us =
      16.0 * static_cast<double>(shots) * mean_lat;

  serve::TrafficGenerator gen(
      serve::adversarial_mix(7, duration_s, capacity_jobs_per_s));
  const std::vector<serve::GeneratedJob> stream = gen.generate_all();
  const std::vector<serve::TenantSpec> tenant_rows = gen.tenant_specs();
  std::map<std::string, std::size_t> tenant_index;
  std::vector<std::size_t> arrivals(tenant_rows.size(), 0);
  for (std::size_t t = 0; t < tenant_rows.size(); ++t) {
    tenant_index[tenant_rows[t].name] = t;
  }
  for (const serve::GeneratedJob& g : stream) ++arrivals[g.tenant];
  std::printf("fairness mode: fleet %d, %zu jobs over %.4f modeled s "
              "(capacity %.0f jobs/s, slo target %.0f us)\n",
              fleet, stream.size(), duration_s, capacity_jobs_per_s,
              slo_target_us);

  monitor::SloPolicy policy;
  policy.objectives[static_cast<std::size_t>(
      monitor::SloClass::kLatencyBound)] = {slo_target_us, 0.05};
  policy.objectives[static_cast<std::size_t>(
      monitor::SloClass::kThroughputBound)] = {0.0, 0.25};
  policy.objectives[static_cast<std::size_t>(
      monitor::SloClass::kBestEffort)] = {0.0, 0.5};

  struct OneRun {
    std::vector<serve::JobResult> results;
    serve::ServingReport report;
    monitor::SloReport slo;
  };
  const auto run_one = [&](serve::ArbiterKind kind, int shards) {
    serve::ServeConfig sc;
    sc.shots_per_job = shots;
    sc.backoff_base_us = 0.0;
    sc.queue_capacity = stream.size() * 32;  // never reject on capacity
    sc.num_shards = shards;
    sc.workers_per_shard = 2;
    sc.synthetic_execution = true;
    sc.gauge_cadence_us = 0.0;
    sc.autostart = false;  // saturated-backlog replay: submit, then run
    sc.model_queue_wait = true;
    sc.arbiter = kind;
    sc.tenants = tenant_rows;
    monitor::SloEngine slo(policy);
    serve::ServingRuntime rt(trainer.executors(), weights,
                             trainer.behavioral_vectors(), sc, nullptr,
                             nullptr, nullptr, &slo);
    for (const serve::GeneratedJob& g : stream) rt.submit(g.spec);
    rt.start();
    rt.drain();
    OneRun out;
    out.results = rt.results();
    out.report = rt.report();
    out.slo = slo.report();
    return out;
  };
  const auto same_results = [](const std::vector<serve::JobResult>& a,
                               const std::vector<serve::JobResult>& b) {
    if (a.size() != b.size()) {
      std::fprintf(stderr, "  mismatch: %zu vs %zu results\n", a.size(),
                   b.size());
      return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].status != b[i].status ||
          a[i].probability != b[i].probability ||
          a[i].retries != b[i].retries ||
          a[i].virtual_latency_us != b[i].virtual_latency_us ||
          a[i].admit_virtual_us != b[i].admit_virtual_us) {
        std::fprintf(stderr,
                     "  mismatch at job %zu (%s): vlat %.6f vs %.6f, "
                     "p %.9f vs %.9f\n",
                     i, a[i].tenant.c_str(), a[i].virtual_latency_us,
                     b[i].virtual_latency_us, a[i].probability,
                     b[i].probability);
        return false;
      }
    }
    return true;
  };

  const serve::ArbiterKind kinds[] = {
      serve::ArbiterKind::kFifo, serve::ArbiterKind::kRoundRobin,
      serve::ArbiterKind::kMatrix, serve::ArbiterKind::kWeightedCredit};
  std::vector<FairnessArbiterResult> rows;
  for (const serve::ArbiterKind kind : kinds) {
    FairnessArbiterResult row;
    row.kind = kind;
    OneRun last;
    std::vector<serve::JobResult> baseline;
    for (const int shards : shard_counts) {
      last = run_one(kind, shards);
      if (baseline.empty()) {
        baseline = last.results;
      } else if (!same_results(baseline, last.results)) {
        row.identical = false;
      }
    }
    // Same config twice: the replay itself must reproduce.
    if (!same_results(baseline,
                      run_one(kind, shard_counts.back()).results)) {
      row.identical = false;
    }

    const serve::ServingReport& rep = last.report;
    row.admitted = rep.admitted;
    row.completed = rep.completed;
    std::vector<std::size_t> served(tenant_rows.size(), 0);
    std::vector<double> class_lat[monitor::kNumSloClasses];
    for (const serve::JobResult& r : last.results) {
      if (r.status != serve::JobStatus::kOk) continue;
      const double finish = r.admit_virtual_us + r.virtual_latency_us;
      const auto it = tenant_index.find(r.tenant);
      if (it != tenant_index.end() && finish <= horizon_us) {
        ++served[it->second];
      }
      class_lat[static_cast<std::size_t>(r.slo_class)].push_back(
          r.virtual_latency_us);
    }
    for (std::size_t c = 0; c < monitor::kNumSloClasses; ++c) {
      row.classes[c].jobs = class_lat[c].size();
      row.classes[c].p50_us = vec_percentile(class_lat[c], 0.50);
      row.classes[c].p99_us = vec_percentile(class_lat[c], 0.99);
    }
    for (const monitor::SloClassReport& cr : last.slo.classes) {
      row.classes[static_cast<std::size_t>(cr.cls)].compliance =
          cr.compliance;
    }

    // Jain over service/entitlement: each tenant's in-horizon service
    // against its water-filled share of the service this arbiter
    // actually delivered inside the horizon.
    std::vector<double> w(tenant_rows.size()), demand(tenant_rows.size());
    double total_served = 0.0;
    for (std::size_t t = 0; t < tenant_rows.size(); ++t) {
      w[t] = tenant_rows[t].weight;
      demand[t] = static_cast<double>(arrivals[t]);
      total_served += static_cast<double>(served[t]);
      row.served_in_horizon += served[t];
    }
    const std::vector<double> entitled =
        waterfill_entitlements(w, demand, total_served);
    double sum = 0.0, sum_sq = 0.0;
    std::size_t n_rated = 0;
    for (std::size_t t = 0; t < tenant_rows.size(); ++t) {
      FairnessTenantRow tr;
      tr.name = tenant_rows[t].name;
      tr.weight = tenant_rows[t].weight;
      tr.arrivals = arrivals[t];
      tr.served_in_horizon = served[t];
      tr.entitled = entitled[t];
      for (const serve::TenantReport& trep : rep.tenants) {
        if (trep.name != tr.name) continue;
        tr.admitted = trep.admitted;
        tr.completed = trep.completed;
        tr.p50_us = trep.p50_virtual_latency_us;
        tr.p99_us = trep.p99_virtual_latency_us;
      }
      if (entitled[t] > 1e-9) {
        tr.ratio = static_cast<double>(served[t]) / entitled[t];
        sum += tr.ratio;
        sum_sq += tr.ratio * tr.ratio;
        ++n_rated;
        if (row.starved_tenant.empty() || tr.ratio < row.starved_ratio) {
          row.starved_tenant = tr.name;
          row.starved_ratio = tr.ratio;
        }
      }
      row.tenants.push_back(std::move(tr));
    }
    row.jain = sum_sq > 0.0
                   ? sum * sum / (static_cast<double>(n_rated) * sum_sq)
                   : 0.0;
    const std::size_t lat_c =
        static_cast<std::size_t>(monitor::SloClass::kLatencyBound);
    std::printf("  %-16s jain %.3f  admitted %6zu  served@T %6zu  "
                "int p99 %10.0f us (slo %s)  starved %s=%.2f  "
                "identical=%s\n",
                serve::arbiter_kind_name(kind).c_str(), row.jain,
                row.admitted, row.served_in_horizon,
                row.classes[lat_c].p99_us,
                row.classes[lat_c].p99_us <= slo_target_us ? "ok" : "MISS",
                row.starved_tenant.c_str(), row.starved_ratio,
                row.identical ? "yes" : "NO");
    rows.push_back(std::move(row));
  }

  // Gates: everything deterministic; weighted_credit fair (Jain >= 0.9)
  // with the interactive p99 inside the SLO while admitting within 10%
  // of FIFO's aggregate.
  const FairnessArbiterResult& fifo = rows[0];
  const FairnessArbiterResult& wc = rows[3];
  const std::size_t lat_c =
      static_cast<std::size_t>(monitor::SloClass::kLatencyBound);
  bool all_identical = true;
  for (const FairnessArbiterResult& r : rows) all_identical &= r.identical;
  const bool jain_ok = wc.jain >= 0.9;
  const bool slo_ok = wc.classes[lat_c].p99_us <= slo_target_us;
  const bool admission_ok =
      fifo.admitted > 0 &&
      std::abs(static_cast<double>(wc.admitted) -
               static_cast<double>(fifo.admitted)) <=
          0.10 * static_cast<double>(fifo.admitted);

  std::string e;
  jsonf(&e, "    {\"timestamp\": \"%s\",\n", utc_timestamp().c_str());
  jsonf(&e, "     \"fleet\": %d, \"jobs\": %zu, \"duration_modeled_s\": "
            "%.6f, \"capacity_jobs_per_s\": %.1f,\n",
        fleet, stream.size(), duration_s, capacity_jobs_per_s);
  jsonf(&e, "     \"shots_per_job\": %d, \"slo_target_us\": %.1f, "
            "\"scenario\": \"adversarial_mix(seed=7)\", \"shards\": [",
        shots, slo_target_us);
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    jsonf(&e, "%s%d", i ? ", " : "", shard_counts[i]);
  }
  jsonf(&e, "],\n");
  jsonf(&e, "     \"gates\": {\"identical\": %s, \"wc_jain_ge_0.9\": %s, "
            "\"wc_int_p99_in_slo\": %s, \"wc_admission_within_10pct\": "
            "%s},\n",
        all_identical ? "true" : "false", jain_ok ? "true" : "false",
        slo_ok ? "true" : "false", admission_ok ? "true" : "false");
  jsonf(&e, "     \"arbiters\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FairnessArbiterResult& r = rows[i];
    jsonf(&e, "%s\n      {\"arbiter\": \"%s\", \"identical\": %s, "
              "\"jain\": %.4f, \"admitted\": %zu, \"completed\": %zu, "
              "\"served_in_horizon\": %zu,\n       \"starved_tenant\": "
              "\"%s\", \"starved_ratio\": %.4f,\n",
          i ? "," : "", serve::arbiter_kind_name(r.kind).c_str(),
          r.identical ? "true" : "false", r.jain, r.admitted, r.completed,
          r.served_in_horizon, r.starved_tenant.c_str(), r.starved_ratio);
    jsonf(&e, "       \"classes\": [");
    for (std::size_t c = 0; c < monitor::kNumSloClasses; ++c) {
      jsonf(&e, "%s{\"class\": \"%s\", \"jobs\": %zu, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f, \"compliance\": %.4f}",
            c ? ", " : "",
            monitor::slo_class_name(static_cast<monitor::SloClass>(c))
                .c_str(),
            r.classes[c].jobs, r.classes[c].p50_us, r.classes[c].p99_us,
            r.classes[c].compliance);
    }
    jsonf(&e, "],\n       \"tenants\": [");
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const FairnessTenantRow& tr = r.tenants[t];
      jsonf(&e, "%s\n        {\"name\": \"%s\", \"weight\": %.1f, "
                "\"arrivals\": %zu, \"admitted\": %zu, \"completed\": "
                "%zu, \"served_in_horizon\": %zu, \"entitled\": %.1f, "
                "\"service_ratio\": %.4f, \"p50_us\": %.1f, \"p99_us\": "
                "%.1f}",
            t ? "," : "", tr.name.c_str(), tr.weight, tr.arrivals,
            tr.admitted, tr.completed, tr.served_in_horizon, tr.entitled,
            tr.ratio, tr.p50_us, tr.p99_us);
    }
    jsonf(&e, "]}");
  }
  jsonf(&e, "\n     ]}");
  if (const int rc = append_run_entry(out_path, "fairness", e)) {
    return rc;
  }
  const bool ok = all_identical && jain_ok && slo_ok && admission_ok;
  std::printf("fairness: wc jain %.3f (>= 0.9 %s)  wc int p99 %.0f us "
              "(slo %.0f us %s)  admission wc/fifo %zu/%zu (%s)  "
              "identical=%s -> %s\n",
              wc.jain, jain_ok ? "ok" : "FAIL", wc.classes[lat_c].p99_us,
              slo_target_us, slo_ok ? "ok" : "FAIL", wc.admitted,
              fifo.admitted, admission_ok ? "ok" : "FAIL",
              all_identical ? "yes" : "NO", ok ? "PASS" : "FAIL");
  return ok ? 0 : 2;
}

std::vector<int> parse_int_list(const char* csv) {
  std::vector<int> out;
  std::string tok;
  for (const char* c = csv;; ++c) {
    if (*c == ',' || *c == '\0') {
      if (!tok.empty()) out.push_back(std::atoi(tok.c_str()));
      tok.clear();
      if (*c == '\0') break;
    } else {
      tok.push_back(*c);
    }
  }
  return out;
}

}  // namespace

// Expanded BENCHMARK_MAIN(): `--threads N` switches to the thread-scaling
// mode above; otherwise the google-benchmark suite runs. Either way the
// telemetry accumulated across every iteration (simulator/transpiler
// counters and the trace ring) can be dumped as JSONL by setting
// $ARBITERQ_TELEMETRY_PATH (no file is written when it is unset).
int main(int argc, char** argv) {
  int scaling_threads = 0;
  int scaling_fleet = 8;
  int scaling_epochs = 4;
  bool plan_ab = false;
  bool telemetry_ab = false;
  bool serving = false;
  bool serving_obs = false;
  bool serving_scale = false;
  bool fairness = false;
  int serving_jobs = 400;
  std::vector<int> scale_fleets = {64, 256};
  std::vector<int> scale_shards = {1, 4, 16};
  int scale_jobs = 20000;
  int fairness_fleet = 256;
  std::vector<int> fairness_shards = {1, 2, 4};
  double fairness_scale = 1.0;
  std::string scaling_out = "BENCH_perf.json";
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--threads") {
      if (const char* v = next()) scaling_threads = std::atoi(v);
    } else if (flag == "--plan-ab") {
      plan_ab = true;
    } else if (flag == "--no-simd") {
      // Force the portable scalar kernels for every mode (same effect
      // as ARBITERQ_SIMD=OFF). --plan-ab still clocks its scalar arms
      // but dispatches SIMD arms to scalar, so the matrix degenerates
      // to a batched-vs-unbatched comparison.
      arbiterq::sim::kernels::set_simd_runtime_enabled(false);
    } else if (flag == "--telemetry-ab") {
      telemetry_ab = true;
    } else if (flag == "--serving") {
      serving = true;
    } else if (flag == "--serving-obs") {
      serving_obs = true;
    } else if (flag == "--serving-jobs") {
      if (const char* v = next()) serving_jobs = std::atoi(v);
    } else if (flag == "--serving-scale") {
      serving_scale = true;
    } else if (flag == "--fairness") {
      fairness = true;
    } else if (flag == "--fairness-fleet") {
      if (const char* v = next()) fairness_fleet = std::atoi(v);
    } else if (flag == "--fairness-shards") {
      if (const char* v = next()) fairness_shards = parse_int_list(v);
    } else if (flag == "--fairness-scale") {
      if (const char* v = next()) fairness_scale = std::atof(v);
    } else if (flag == "--scale-fleets") {
      if (const char* v = next()) scale_fleets = parse_int_list(v);
    } else if (flag == "--scale-shards") {
      if (const char* v = next()) scale_shards = parse_int_list(v);
    } else if (flag == "--scale-jobs") {
      if (const char* v = next()) scale_jobs = std::atoi(v);
    } else if (flag == "--scaling-fleet") {
      if (const char* v = next()) scaling_fleet = std::atoi(v);
    } else if (flag == "--scaling-epochs") {
      if (const char* v = next()) scaling_epochs = std::atoi(v);
    } else if (flag == "--scaling-out") {
      if (const char* v = next()) scaling_out = v;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const std::size_t n_serving_jobs =
      serving_jobs > 0 ? static_cast<std::size_t>(serving_jobs) : 400;
  int rc = 0;
  if (plan_ab) {
    rc = run_plan_ab_mode(scaling_out);
  } else if (serving) {
    rc = run_serving_mode(scaling_out, n_serving_jobs);
  } else if (serving_obs) {
    rc = run_serving_obs_mode(scaling_out, n_serving_jobs);
  } else if (serving_scale) {
    rc = run_serving_scale_mode(
        scaling_out, scale_fleets, scale_shards,
        scale_jobs > 0 ? static_cast<std::size_t>(scale_jobs) : 20000);
  } else if (fairness) {
    rc = run_fairness_mode(scaling_out, fairness_fleet, fairness_shards,
                           fairness_scale);
  } else if (telemetry_ab) {
    rc = run_telemetry_ab_mode(scaling_out);
  } else if (scaling_threads != 0) {
    rc = run_scaling_mode(arbiterq::exec::resolve_threads(scaling_threads),
                          scaling_fleet, scaling_epochs, scaling_out);
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
