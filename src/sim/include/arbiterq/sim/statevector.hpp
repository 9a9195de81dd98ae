#pragma once
// Pure state-vector register: the workhorse behind both the exact QNN
// executor (training) and the stochastic-trajectory shot sampler
// (inference). Qubit 0 is the least significant bit of a basis index.
//
// Gate kernels enumerate exactly the dim/2 (1q) or dim/4 (2q) butterfly
// groups by stride arithmetic — no skipped indices — with diagonal fast
// paths for phase-type gates and amplitude moves for CX/SWAP. Above a
// size threshold the index space is split across the shared thread pool
// (see set_exec_policy); every task writes a disjoint slice, so results
// are bit-identical to the serial schedule for any thread count.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/aligned.hpp"

namespace arbiterq::sim {

using circuit::Complex;

/// Amplitude storage: 64-byte-aligned so the SIMD kernels' 32-byte
/// vector loads never split a cache line (see aligned.hpp).
using AmpVector = std::vector<Complex, AlignedAllocator<Complex>>;

class Statevector {
 public:
  /// Hard cap on register width: 2^26 amplitudes = 1 GiB of
  /// complex<double>, the largest state a commodity host comfortably
  /// holds. The constructor rejects anything outside [1, kMaxQubits].
  static constexpr int kMaxQubits = 26;

  /// Initialized to |0...0>.
  explicit Statevector(int num_qubits);

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return amps_.size(); }
  const AmpVector& amplitudes() const noexcept { return amps_; }
  /// In-place access for kernels that update the register directly (the
  /// adjoint's fused diagonal step).
  Complex* data() noexcept { return amps_.data(); }

  /// Kernel-splitting policy for apply_mat2/apply_mat4 (default: serial).
  /// A grain of 0 selects a cache-friendly minimum chunk so small states
  /// never pay dispatch overhead.
  void set_exec_policy(const exec::ExecPolicy& policy) noexcept {
    exec_ = policy;
  }
  const exec::ExecPolicy& exec_policy() const noexcept { return exec_; }

  /// Back to |0...0>.
  void reset();

  /// Overwrite the register from a strided source: amps[i] =
  /// src[i * stride]. The batched adjoint uses this to peel one sample
  /// column out of a BatchedStatevector (src = row(0) + column,
  /// stride = batch). The source must hold dim() strided elements.
  void load_strided(const Complex* src, std::size_t stride);

  void apply_mat2(const circuit::Mat2& m, int q);
  /// qb is the bit matching the matrix's high index (gate.qubits[0]),
  /// qa the low one (gate.qubits[1]); see unitary.hpp for the convention.
  void apply_mat4(const circuit::Mat4& m, int qb, int qa);

  /// Apply one gate with parameters bound from `params` (no noise).
  void apply_gate(const circuit::Gate& g, std::span<const double> params);

  /// Apply a Pauli operator: 1 = X, 2 = Y, 3 = Z.
  void apply_pauli(int pauli, int q);

  double probability_of_one(int q) const;
  /// <Z_q> = P(q=0) - P(q=1).
  double expectation_z(int q) const;
  /// |amp|^2 for every basis state.
  std::vector<double> probabilities() const;

  /// Sample one basis-state index from the Born distribution.
  std::size_t sample(math::Rng& rng) const;

  /// Draw `count` samples: builds the cumulative-probability vector once
  /// (O(2^n)) and then answers every draw with a binary search (O(n)),
  /// instead of sample()'s O(2^n) linear scan per shot.
  std::vector<std::size_t> sample_many(std::size_t count,
                                       math::Rng& rng) const;

  double norm() const;

 private:
  template <typename Body>
  void dispatch(std::size_t items, const Body& body);

  int num_qubits_;
  AmpVector amps_;
  exec::ExecPolicy exec_{};
};

}  // namespace arbiterq::sim
