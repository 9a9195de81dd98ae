#pragma once
// Circuit execution engines.
//
// StatevectorSimulator offers two noise treatments:
//  * exact mode — coherent biases applied deterministically; stochastic
//    gate errors collapse to an expectation-value attenuation factor
//    (survival probability toward the maximally mixed state). Fast and
//    deterministic: used for training, where thousands of parameter-shift
//    evaluations per epoch are needed.
//  * trajectory mode — after every gate a random Pauli fires on each
//    involved qubit with the gate's depolarizing probability; measurement
//    applies classical readout flips. Shots are distributed over a
//    configurable number of independent trajectories: used for inference,
//    where ArbiterQ's shot-splitting across a torus is the object of
//    study.

#include <cstdint>
#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/exec_plan.hpp"
#include "arbiterq/sim/noise_model.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {

struct ShotOptions {
  int shots = 1000;
  /// Independent noisy trajectories the shots are spread across. More
  /// trajectories = better noise averaging but more state evolutions.
  int trajectories = 32;
};

class StatevectorSimulator {
 public:
  /// Ideal simulator (no noise model).
  StatevectorSimulator() = default;
  explicit StatevectorSimulator(NoiseModel noise);

  const NoiseModel& noise() const noexcept { return noise_; }

  /// Kernel-splitting policy stamped onto every Statevector the
  /// circuit-walking engines below evolve (default: serial); plans and
  /// their walks do not read it. Large registers split their butterfly
  /// passes across the shared pool; results stay bit-identical.
  void set_exec_policy(const exec::ExecPolicy& policy) noexcept {
    exec_ = policy;
  }
  const exec::ExecPolicy& exec_policy() const noexcept { return exec_; }

  /// Evolve |0..0> through the circuit with no noise at all.
  Statevector run_ideal(const circuit::Circuit& c,
                        std::span<const double> params) const;

  /// Evolve with coherent biases only (deterministic part of the noise).
  Statevector run_biased(const circuit::Circuit& c,
                         std::span<const double> params) const;

  /// Exact-mode noisy expectation of Z on `qubit`:
  /// survival * <Z>_biased (depolarized remainder contributes 0).
  double expectation_z(const circuit::Circuit& c,
                       std::span<const double> params, int qubit) const;

  /// Same, with the circuit's survival probability precomputed by the
  /// caller (it is constant per circuit — recomputing it per call walks
  /// the whole gate list for nothing).
  double expectation_z(const circuit::Circuit& c,
                       std::span<const double> params, int qubit,
                       double survival) const;

  /// Compile `c` against this engine's noise model. The plan is
  /// bit-identical to run_biased/expectation_z and must be rebuilt if
  /// the noise model changes (e.g. on recalibration).
  ExecPlan make_plan(const circuit::Circuit& c) const {
    return ExecPlan(c, noise_);
  }

  /// Exact-mode probability of measuring `qubit` = 1.
  double probability_of_one(const circuit::Circuit& c,
                            std::span<const double> params, int qubit) const;

  /// Trajectory-mode sampling: returns counts per basis state
  /// (size 2^num_qubits). Deterministic given `rng`'s state.
  std::vector<std::uint32_t> sample_counts(const circuit::Circuit& c,
                                           std::span<const double> params,
                                           const ShotOptions& opts,
                                           math::Rng& rng) const;

  /// Trajectory-mode count of shots that read `qubit` as 1, sampled from
  /// the single-qubit marginal: O(1) memory per shot instead of
  /// sample_counts' 2^n histogram (1 GiB of counters at the 26-qubit
  /// cap). Readout error is applied to the target qubit only.
  std::uint64_t sample_marginal_ones(const circuit::Circuit& c,
                                     std::span<const double> params, int qubit,
                                     const ShotOptions& opts,
                                     math::Rng& rng) const;

  /// Fraction of sampled shots with `qubit` = 1 (marginal path).
  double sampled_probability_of_one(const circuit::Circuit& c,
                                    std::span<const double> params, int qubit,
                                    const ShotOptions& opts,
                                    math::Rng& rng) const;

  /// Plan-based trajectory sampler (batched.cpp). Every random
  /// decision is pre-drawn in trajectory order; then one noise-free
  /// trunk serves every trajectory no Pauli hits, and only the hit
  /// trajectories evolve as branch registers, stacked after the trunk
  /// and forked from it at their first Pauli. Each trajectory's bits
  /// are those of its own one-register walk. The draw schedule is
  /// value-independent: a trajectory's Paulis are skip-sampled from the
  /// plan's survival table (one uniform per segment when none fires,
  /// none without noise sites) and each shot takes one outcome uniform,
  /// plus a flip uniform whenever readout noise is configured. So it
  /// differs from the circuit-walking sampler's per-gate bernoulli
  /// stream under noise — same distribution, different bits for a given
  /// seed — and equals it bitwise without noise.
  std::uint64_t sample_marginal_ones(const ExecPlan& plan,
                                     std::span<const double> params, int qubit,
                                     const ShotOptions& opts, math::Rng& rng,
                                     Workspace& ws) const;
  double sampled_probability_of_one(const ExecPlan& plan,
                                    std::span<const double> params, int qubit,
                                    const ShotOptions& opts, math::Rng& rng,
                                    Workspace& ws) const;

 private:
  void run_trajectory(const circuit::Circuit& c,
                      std::span<const double> params, Statevector& sv,
                      math::Rng& rng) const;

  NoiseModel noise_;
  exec::ExecPolicy exec_{};
};

}  // namespace arbiterq::sim
