#pragma once
// QnnExecutor binds one QNN model to one QPU: it compiles the circuit
// once (routing + basis translation), derives the device's noise model,
// and then serves forward evaluations and gradients against that
// compiled artifact for any (features, weights) binding.
//
// Every evaluation runs through one compiled ExecPlan (sim/exec_plan.hpp),
// rebuilt whenever recalibrate() swaps the noise model. Multi-sample work
// takes the plan's sample-batched kernels (sim/batched.hpp). The naive
// sim engines (StatevectorSimulator on a circuit, the circuit adjoint,
// the circuit-walking sampler, DensityMatrix) are not called from here:
// they are the independent references the tests compare this executor
// against bit for bit.
//
// Two forward paths mirror StatevectorSimulator's noise treatments:
//  * exact mode             — probability() for one sample (the batched
//    walk at batch 1); dataset_loss() and loss_gradient() run the same
//    walk kBatchBlock samples at a time, and training calls only those;
//  * sampled_probability()  — trajectory shots, used during inference.
// Readout error is folded into both as a classical contraction / flip.
//
// Two gradient paths:
//  * loss_gradient()        — adjoint differentiation, O(#gates);
//  * loss_gradient_shift()  — exact parameter-shift rules (§III-B),
//    the method real hardware would run; validated against the adjoint.

#include <memory>
#include <vector>

#include "arbiterq/device/qpu.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/qnn/loss.hpp"
#include "arbiterq/qnn/model.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/transpile/transpiler.hpp"

namespace arbiterq::qnn {

struct ExecutorOptions {
  /// Depolarizing error mitigation: rescale the measured <Z> by the
  /// inverse circuit survival probability (the standard global-folding /
  /// ZNE-style correction, cf. QuantumNAT [29]). Exactly cancels the
  /// exact-mode attenuation; in sampled mode it amplifies the shot noise
  /// by 1/S, as it does on real hardware. Needed to train circuits whose
  /// depth exceeds the fleet's coherence budget (the HMDB51 model).
  bool mitigate_depolarizing = false;
  /// Parallel execution policy: dataset losses and gradients split their
  /// samples into chunks on the shared thread pool, each chunk walking
  /// its kBatchBlock blocks on its own leased Workspace. Per-sample
  /// partials are folded in index order behind a serial barrier, so
  /// losses and gradients are bit-identical to the serial schedule for
  /// every thread count. Default: serial.
  exec::ExecPolicy exec = {};
};

class QnnExecutor {
 public:
  QnnExecutor(QnnModel model, device::Qpu qpu, ExecutorOptions options = {});

  const QnnModel& model() const noexcept { return model_; }
  const device::Qpu& qpu() const noexcept { return qpu_; }
  const transpile::CompiledCircuit& compiled() const noexcept {
    return compiled_;
  }
  const sim::NoiseModel& noise() const noexcept { return simulator_.noise(); }

  /// Physical qubit whose Z readout is the classifier output.
  int readout_qubit() const noexcept { return readout_qubit_; }

  const ExecutorOptions& options() const noexcept { return options_; }
  /// Circuit survival probability under the device's stochastic errors.
  double survival() const noexcept { return survival_; }

  /// The compiled execution plan (never null). Rebuilt by recalibrate().
  const sim::ExecPlan* plan() const noexcept { return plan_.get(); }

  /// Temporal calibration drift (paper §II-B, "spatial and temporal"
  /// noise biases): perturb every qubit's coherent bias by
  /// N(0, bias_drift_sigma) radians. Stochastic error rates (and hence
  /// the survival probability and the behavioral vector) are unchanged —
  /// drift moves each device's *optimum*, not its error budget.
  void recalibrate(double bias_drift_sigma, math::Rng& rng);

  /// Exact-mode P(readout = 1) including readout-error contraction.
  double probability(const std::vector<double>& features,
                     const std::vector<double>& weights) const;

  /// Trajectory-mode sampled P(readout = 1) over `shots` shots.
  double sampled_probability(const std::vector<double>& features,
                             const std::vector<double>& weights, int shots,
                             math::Rng& rng, int trajectories = 32) const;

  /// Mean exact-mode loss over a dataset of encoded features, kBatchBlock
  /// samples per batched register sweep.
  double dataset_loss(LossKind kind,
                      const std::vector<std::vector<double>>& features,
                      const std::vector<int>& labels,
                      const std::vector<double>& weights) const;

  /// Gradient of the mean loss w.r.t. the weights (batched adjoint).
  std::vector<double> loss_gradient(
      LossKind kind, const std::vector<std::vector<double>>& features,
      const std::vector<int>& labels,
      const std::vector<double>& weights) const;

  /// Same objective via exact parameter-shift rules.
  std::vector<double> loss_gradient_shift(
      LossKind kind, const std::vector<std::vector<double>>& features,
      const std::vector<int>& labels,
      const std::vector<double>& weights) const;

  /// Shift rule per weight (forwarded from the model).
  std::vector<ShiftRule> shift_rules() const;

  /// Wall-clock estimate for one shot on this device (scheduling input).
  double shot_latency_us() const;
  double shot_rate() const;

 private:
  /// P(readout = 1) from the plan's survival-scaled <Z>: mitigation,
  /// then the readout-error contraction.
  double readout_probability(double z) const;
  /// (Re)compile the plan against the simulator's current noise model.
  void rebuild_plan();
  /// One batched block: packs samples [b0, b0 + count) as [features |
  /// weights] bindings into ws.params (stride num_params), binds them
  /// once (with the adjoint companions when `adjoint`, for the batched
  /// adjoint) and sizes ws.values to count for the block's <Z>.
  /// count <= kBatchBlock.
  void bind_samples(const std::vector<std::vector<double>>& features,
                    const std::vector<double>& weights, std::size_t b0,
                    std::size_t count, bool adjoint,
                    sim::Workspace& ws) const;

  QnnModel model_;
  device::Qpu qpu_;
  ExecutorOptions options_;
  transpile::CompiledCircuit compiled_;
  sim::StatevectorSimulator simulator_;
  int readout_qubit_;
  double survival_ = 1.0;
  std::size_t depth_ = 0;
  /// Shared, immutable once built; copies of the executor (e.g. the
  /// drift path cloning a fleet) share the same plan until one of them
  /// recalibrates.
  std::shared_ptr<const sim::ExecPlan> plan_;
  /// Per-executor pool of reusable evaluation scratch (batched
  /// registers, bound matrices, packed params, sampler schedules) for
  /// every forward, gradient and sampler call. Mutable: those methods
  /// are logically const. Copies start with a fresh pool.
  mutable sim::WorkspacePool workspaces_;
};

}  // namespace arbiterq::qnn
