#pragma once
// Sample-batched forward execution: evaluate one compiled ExecPlan
// against B parameter bindings in a single pass over the register.
//
// A BatchedStatevector stores amplitudes structure-of-arrays: basis
// index i holds a contiguous row of B complex values, one per sample.
// Applying a fused gate then becomes a cache-blocked mini-GEMM — the
// butterfly walks rows once and the kernels stream B-wide down each
// row — instead of B separate sweeps of the full register. This
// amortizes everything that is per-sweep in a one-sample walk (dispatch,
// counters, workspace traffic, matrix reloads) across the batch, which
// dominates at QNN register sizes (dim 16..64). A one-sample evaluation
// is the same walk at batch 1 (ExecPlan::expectation_z).
//
// Reproducibility contract: per-column arithmetic is identical to the
// unbatched kernels (kernels.hpp) on every arm, the FMA arm included (an
// odd trailing column takes the vector lanes' operations in a 128-bit
// lane), the batched bind performs the fold operations of a one-column
// bind per column (once per block of equal columns), and the
// Z-expectation accumulates in the same basis order per sample — so
// batched results are bit-identical across batch sizes and column
// positions, and under strict reproducibility also to the reference
// engines (StatevectorSimulator::run_biased and expectation_z).
//
// Callers block samples into groups of kBatchBlock columns: at the
// 6-qubit QNN register (64 rows) a 32-wide block is 32 KiB of
// amplitudes — resident in L1 while the whole gate stream replays.

#include <cstddef>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {

/// Preferred number of sample columns per batched evolution.
inline constexpr std::size_t kBatchBlock = 32;

/// Structure-of-arrays register: dim rows x batch columns, row i
/// starting at amplitudes()[i * batch]. Column b evolves exactly as an
/// unbatched Statevector would.
class BatchedStatevector {
 public:
  BatchedStatevector() = default;

  /// Shape the register to `num_qubits` x `batch` and reset every
  /// column to |0...0>. Reuses the existing allocation when possible.
  void configure(int num_qubits, std::size_t batch);

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t batch() const noexcept { return batch_; }

  Complex* row(std::size_t i) noexcept { return amps_.data() + i * batch_; }
  const Complex* row(std::size_t i) const noexcept {
    return amps_.data() + i * batch_;
  }

  /// Apply one matrix to every column (broadcast mini-GEMM) through the
  /// kernels of `k`, with the shape dispatch of Statevector::apply_mat2 /
  /// apply_mat4. `shape` must be kernels::classify(m): walks classify
  /// once per plan or bind, not on every application.
  void apply_mat2_all(const kernels::KernelTable& k, const circuit::Mat2& m,
                      const kernels::MatShape<2>& shape, int q);
  void apply_mat4_all(const kernels::KernelTable& k, const circuit::Mat4& m,
                      const kernels::MatShape<4>& shape, int qb, int qa);

  /// Apply mats[b] to column b, shapes[b] = kernels::classify(mats[b]).
  /// The shape dispatch is per-matrix, so columns are partitioned into
  /// maximal runs of equal dispatch and each run takes the kernel its
  /// matrices would take unbatched.
  void apply_mat2_each(const kernels::KernelTable& k,
                       const circuit::Mat2* mats,
                       const kernels::MatShape<2>* shapes, int q);
  void apply_mat4_each(const kernels::KernelTable& k,
                       const circuit::Mat4* mats,
                       const kernels::MatShape<4>* shapes, int qb, int qa);

  /// out[b] = P(qubit q reads 1) for column b, accumulated in basis
  /// order — the exact association of Statevector::probability_of_one.
  void probability_of_one_all(int q, double* out) const;

 private:
  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::size_t batch_ = 0;
  AmpVector amps_;
  /// Scratch for per-sample diagonal factors in the _each paths.
  std::vector<Complex> diag_scratch_;
};

}  // namespace arbiterq::sim
