#pragma once
// Sample-batched forward execution: evaluate one compiled ExecPlan
// against B parameter bindings in a single pass over the register.
//
// A BatchedStatevector stores amplitudes structure-of-arrays: basis
// index i holds a contiguous row of B complex values, one per sample.
// Applying a fused gate then becomes a cache-blocked mini-GEMM — the
// butterfly walks rows once and the kernels stream B-wide down each
// row — instead of B separate sweeps of the full register. This
// amortizes everything that is per-sweep in the unbatched path
// (dispatch, counters, workspace traffic, matrix reloads) across the
// batch, which dominates at QNN register sizes (dim 16..64).
//
// Reproducibility contract: per-column arithmetic is identical to the
// unbatched kernels (kernels.hpp), the batched bind performs bind()'s
// fold operations per column (once per block of equal columns), and the
// Z-expectation accumulates in the same basis order per sample — so
// batched results are bit-identical across batch sizes, and under strict
// reproducibility also bit-identical to the unbatched path. (In the opt-in fast arm an odd trailing column runs
// the scalar tail loop and may differ from the FMA lanes by ULPs.)
//
// Callers block samples into groups of kBatchBlock columns: at the
// 6-qubit QNN register (64 rows) a 32-wide block is 32 KiB of
// amplitudes — resident in L1 while the whole gate stream replays.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/exec_plan.hpp"
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

  /// Apply one matrix to every column (broadcast mini-GEMM), with the
  /// same shape dispatch as Statevector::apply_mat2/apply_mat4.
  void apply_mat2_all(const circuit::Mat2& m, int q) {
    apply_mat2_all(m, kernels::classify(m), q);
  }
  void apply_mat4_all(const circuit::Mat4& m, int qb, int qa) {
    apply_mat4_all(m, kernels::classify(m), qb, qa);
  }
  /// Pre-classified forms, for walks that resolve shapes once per plan
  /// or bind instead of on every application: `shape` must be
  /// kernels::classify(m).
  void apply_mat2_all(const circuit::Mat2& m,
                      const kernels::MatShape<2>& shape, int q);
  void apply_mat4_all(const circuit::Mat4& m,
                      const kernels::MatShape<4>& shape, int qb, int qa);

  /// Apply mats[b] to column b. The shape dispatch is per-matrix, so
  /// columns are partitioned into maximal runs of equal dispatch and
  /// each run takes the kernel its matrices would take unbatched. The
  /// `shapes` forms take shapes[b] = kernels::classify(mats[b]).
  void apply_mat2_each(const circuit::Mat2* mats, int q);
  void apply_mat4_each(const circuit::Mat4* mats, int qb, int qa);
  void apply_mat2_each(const circuit::Mat2* mats,
                       const kernels::MatShape<2>* shapes, int q);
  void apply_mat4_each(const circuit::Mat4* mats,
                       const kernels::MatShape<4>* shapes, int qb, int qa);

  /// Apply a Pauli (1 = X, 2 = Y, 3 = Z) to a single column (sparse
  /// per-trajectory insertions).
  void apply_pauli_col(int pauli, int q, std::size_t col);

  /// out[b] = P(qubit q reads 1) for column b, accumulated in basis
  /// order — the exact association of Statevector::probability_of_one.
  void probability_of_one_all(int q, double* out) const;

 private:
  /// A broadcast 1q gate over columns [first, first + count).
  void apply_mat2_cols(const circuit::Mat2& m, bool diagonal, int q,
                       std::size_t first, std::size_t count);
  /// The _each partition, with shape_of(b) the dispatch of column b.
  template <class ShapeOf>
  void apply_mat2_runs(const circuit::Mat2* mats, int q, ShapeOf&& shape_of);
  template <class ShapeOf>
  void apply_mat4_runs(const circuit::Mat4* mats, int qb, int qa,
                       ShapeOf&& shape_of);

  int num_qubits_ = 0;
  std::size_t dim_ = 0;
  std::size_t batch_ = 0;
  AmpVector amps_;
  /// Scratch for per-sample diagonal factors in the _each paths.
  std::vector<Complex> diag_scratch_;
};

/// Per-evaluation scratch for batched plan execution, the batched
/// sibling of Workspace. Fields follow the same convention: grown on
/// first bind against a plan, reused thereafter (zero steady-state
/// allocations for a fixed plan and block size).
class BatchedWorkspace {
 public:
  BatchedWorkspace() = default;

  BatchedStatevector& state() noexcept { return state_; }

  /// Caller scratch: packed per-sample parameters (sample b's binding
  /// at [b * stride, b * stride + num_params)), per-sample outputs,
  /// per-sample plan gradients, and per-sample partials of a whole call
  /// (the executor's per-sample losses or gradient rows).
  std::vector<double> params;
  std::vector<double> values;
  std::vector<double> grads;
  std::vector<double> partials;

  /// Filled by ExecPlan::bind_batched — slot-major bound matrices
  /// (slot s, column b at [s * batch + b]) plus a per-slot flag telling
  /// run_batched the whole batch shares one matrix (broadcast kernel).
  std::vector<circuit::Mat2> bound1q_cols;
  std::vector<circuit::Mat4> bound2q_cols;
  std::vector<std::uint8_t> uniform1q;
  std::vector<std::uint8_t> uniform2q;
  /// bind_batched's scratch: a slot's dynamic angles ([op * batch + b]),
  /// the columns it folds, and the lockstep fold's split real and
  /// imaginary parts (accumulator and factor, entry-major).
  std::vector<std::array<double, 3>> angles;
  std::vector<std::uint32_t> fold_cols;
  std::vector<double> fold;
  /// Shape stamp: plan identity and batch width the buffers were last
  /// sized for.
  std::uint64_t plan_id = 0;
  std::size_t batch = 0;

  /// Unbatched workspace for walks that bind the per-gate table (the
  /// trajectory sampler reads bind_gates_forward's matrices from it).
  Workspace gates;

  /// ExecPlan::bind_gates_batched's gate table for one block. Per
  /// dynamic entry (GateEntry::index) the forward matrix, its adjoint
  /// and their shapes sit at [index * batch + b]; per gradient term
  /// (GradTerm::dindex) the derivative matrix and its shape at [dindex *
  /// batch + b]. An entry flagged uniform (by bound_index) holds column
  /// 0's only: its angles match across the block.
  struct GateBlock {
    std::vector<std::uint8_t> uniform;
    std::vector<std::array<double, 3>> angles;
    std::vector<circuit::Mat2> m1;
    std::vector<circuit::Mat2> adj1;
    std::vector<kernels::MatShape<2>> shape1;
    std::vector<kernels::MatShape<2>> adj_shape1;
    std::vector<circuit::Mat2> d1;
    std::vector<kernels::MatShape<2>> d_shape1;
    std::vector<circuit::Mat4> m2;
    std::vector<circuit::Mat4> adj2;
    std::vector<kernels::MatShape<4>> shape2;
    std::vector<kernels::MatShape<4>> adj_shape2;
    std::vector<circuit::Mat4> d2;
    std::vector<kernels::MatShape<4>> d_shape2;
    /// Shape stamp, as above.
    std::uint64_t plan_id = 0;
    std::size_t batch = 0;
  };
  GateBlock gate_block;

  /// The batched adjoint's lambda register and its per-column bracket
  /// values.
  BatchedStatevector& lambda() noexcept { return lambda_; }
  std::vector<Complex> brackets;

  /// Trajectory-sampler scratch (StatevectorSimulator::
  /// sample_marginal_ones on a plan), reused so a steady-state call
  /// does not allocate.
  struct Trajectories {
    /// A trajectory with at least one Pauli: its fired Paulis are
    /// fired[next, end); `next` advances as the walk applies them.
    struct Branch {
      std::uint32_t traj = 0;
      std::uint32_t next = 0;
      std::uint32_t end = 0;
    };
    std::vector<int> shots_of;
    /// The Paulis the pre-drawn schedule inserts (sites index
    /// ExecPlan::noise_sites()), in draw order: trajectory-major and
    /// site-ascending.
    std::vector<PauliFire> fired;
    std::vector<Branch> branches;
    /// A block's registers, stacked end to end: column c holds
    /// amplitudes [c * dim, (c + 1) * dim).
    AmpVector stack;
    std::vector<double> u_out;
    std::vector<double> u_flip;
    /// P(readout qubit = 1) per trajectory.
    std::vector<double> p1;
  };
  Trajectories traj;

 private:
  BatchedStatevector state_;
  BatchedStatevector lambda_;
};

/// Mutex-guarded free list of BatchedWorkspaces, mirroring
/// WorkspacePool (copying yields a fresh pool).
class BatchedWorkspacePool {
 public:
  BatchedWorkspacePool() = default;
  BatchedWorkspacePool(const BatchedWorkspacePool&) noexcept {}
  BatchedWorkspacePool& operator=(const BatchedWorkspacePool&) noexcept {
    return *this;
  }

  class Lease {
   public:
    Lease(BatchedWorkspacePool* pool,
          std::unique_ptr<BatchedWorkspace> ws) noexcept
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() {
      if (ws_ != nullptr) pool_->release(std::move(ws_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    BatchedWorkspace& operator*() noexcept { return *ws_; }
    BatchedWorkspace* operator->() noexcept { return ws_.get(); }

   private:
    BatchedWorkspacePool* pool_;
    std::unique_ptr<BatchedWorkspace> ws_;
  };

  Lease acquire();

 private:
  void release(std::unique_ptr<BatchedWorkspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<BatchedWorkspace>> free_;
};

}  // namespace arbiterq::sim
