#pragma once
// Compiled execution plans: the per-(circuit, noise model) work that
// `StatevectorSimulator::run_biased` and the adjoint engine redo on every
// call — walking the gate list, folding coherent biases into angles,
// rebuilding static gate matrices, fusing 1q runs, recomputing the
// survival probability — hoisted into a one-time compile step.
//
// An ExecPlan is immutable after construction and safe to share across
// threads. All per-evaluation mutable state (the statevector register,
// bound matrices for parameterized slots, adjoint scratch registers)
// lives in a Workspace, so steady-state evaluation performs zero heap
// allocations and a pool of workspaces serves concurrent callers.
//
// Determinism contract: a plan's output is bit-identical to the naive
// path. The fused-run fold replicates run_biased's exact left-multiply
// order (`pending = M_k * pending`, starting from identity), static
// matrices are precomputed by the same gate_matrix_* calls the naive
// path makes per evaluation, and only the *leading* static segment of a
// run is pre-folded — a static matrix that follows a parameterized gate
// is applied as its own fold step, because re-associating the product
// would change the floating-point result.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/exec/parallel.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/noise_model.hpp"
#include "arbiterq/sim/statevector.hpp"

namespace arbiterq::sim {

class ExecPlan;
class BatchedStatevector;
class BatchedWorkspace;

/// Reusable per-evaluation scratch: a statevector register and the bound
/// matrices a plan's parameterized slots are rebuilt into. One Workspace
/// serves one evaluation at a time; use a WorkspacePool to serve
/// concurrent callers. Buffers grow on first use and are reused
/// thereafter (zero steady-state allocations for a fixed plan).
class Workspace {
 public:
  Workspace() = default;

  /// The main register, reset to |0...0> with the given policy stamped.
  Statevector& state(int num_qubits, const exec::ExecPolicy& policy);

  /// Bound matrices for the plan's parameterized stream slots.
  std::vector<circuit::Mat2> bound1q;
  std::vector<circuit::Mat4> bound2q;
  /// Forward matrices + angle values for the plan's gate table (the
  /// trajectory walk, which needs per-gate rather than fused matrices),
  /// with each matrix's kernel shape, classified when the matrix is
  /// rebuilt rather than when it is applied. The adjoint walk binds the
  /// table per block instead (BatchedWorkspace::GateBlock).
  std::vector<circuit::Mat2> dyn1q;
  std::vector<circuit::Mat4> dyn2q;
  std::vector<kernels::MatShape<2>> dyn1q_shape;
  std::vector<kernels::MatShape<4>> dyn2q_shape;
  std::vector<std::array<double, 3>> dyn_bound;
  /// General caller scratch (e.g. packed circuit parameters).
  std::vector<double> params;
  /// Memoized bind state: the id of the plan the bound matrices above
  /// were last built against (0 = cold), plus each dynamic op's last
  /// bound angles. bind()/bind_gates_forward() skip the trig + matrix
  /// rebuild for ops whose angles are unchanged since the previous bind
  /// — the retained matrices were computed from identical inputs, so
  /// results stay bit-identical.
  std::uint64_t bound_plan_id = 0;
  std::uint64_t gates_plan_id = 0;
  std::vector<std::array<double, 3>> memo1q;
  std::vector<std::array<double, 3>> memo2q;

 private:
  static Statevector& reuse(std::optional<Statevector>& slot, int num_qubits,
                            const exec::ExecPolicy& policy);

  std::optional<Statevector> state_;
};

/// Mutex-guarded free list of Workspaces. acquire() hands out a lease
/// that returns the workspace on destruction; after warm-up the pool
/// holds one workspace per peak-concurrent caller and recycles them
/// without allocating. Copying a pool yields a fresh, empty pool (leases
/// are tied to the pool they came from).
class WorkspacePool {
 public:
  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) noexcept {}
  WorkspacePool& operator=(const WorkspacePool&) noexcept { return *this; }

  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<Workspace> ws) noexcept
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() {
      if (ws_ != nullptr) pool_->release(std::move(ws_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace& operator*() noexcept { return *ws_; }
    Workspace* operator->() noexcept { return ws_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<Workspace> ws_;
  };

  Lease acquire();

 private:
  friend class Lease;
  void release(std::unique_ptr<Workspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> free_;
};

/// One step of a fused 1q run's left-multiply fold: either a constant
/// matrix (a static gate that sits after a parameterized one) or a
/// parameterized gate whose matrix is rebuilt at bind time.
struct FoldOp {
  bool dynamic = false;
  circuit::Mat2 constant{};
  circuit::GateKind kind = circuit::GateKind::kI;
  int param_count = 0;
  std::array<circuit::ParamExpr, 3> params{};
  /// Coherent calibration offset of the target qubit, added to the polar
  /// angle at bind time when the plan is noisy (exactly mirroring
  /// NoiseModel::biased_params).
  double bias = 0.0;

  std::array<double, 3> bound(std::span<const double> p, bool noisy) const {
    std::array<double, 3> out{{0.0, 0.0, 0.0}};
    for (int i = 0; i < param_count; ++i) {
      out[static_cast<std::size_t>(i)] =
          params[static_cast<std::size_t>(i)].value(p);
    }
    if (noisy) out[0] += bias;
    return out;
  }
};

/// A fused 1q run containing at least one parameterized gate: the static
/// prefix is pre-folded into one constant; the tail replays the
/// remaining fold steps at bind time in the original order.
struct Bound1qSlot {
  circuit::Mat2 prefix{};  ///< identity if the run starts parameterized
  std::vector<FoldOp> tail;
  int qubit = 0;
  /// First index of this slot's dynamic tail ops in Workspace::memo1q.
  std::size_t memo_offset = 0;
};

/// A parameterized 2q gate slot (CRX/CRY/CRZ with a live parameter).
struct Bound2qSlot {
  FoldOp spec;  ///< dynamic == true; constant unused
};

/// The compiled op-stream: each op applies one matrix to the register.
struct StreamOp {
  enum class Kind : std::uint8_t { kConst1q, kBound1q, kConst2q, kBound2q };
  Kind kind = Kind::kConst1q;
  int q0 = 0;
  int q1 = 0;
  int index = 0;  ///< into the const pools or the workspace bound slots
};

/// Gate-table entry: the unfused per-gate view used by walks that need
/// every gate individually (adjoint differentiation, trajectories).
struct GateEntry {
  circuit::GateKind kind = circuit::GateKind::kI;
  int q0 = 0;
  int q1 = 0;
  int arity = 1;
  bool dynamic = false;
  /// Static: index into the plan's const pools (matrix, its adjoint and
  /// its kernel shape).
  /// Dynamic: index into the workspace dyn1q/dyn2q arrays (and, times
  /// the batch, into GateBlock's per-column arrays).
  int index = 0;
  /// Dynamic only: index into Workspace::dyn_bound and
  /// GateBlock::uniform (the bound angles and whether they match across
  /// a block).
  int bound_index = 0;
  FoldOp spec;  ///< dynamic only
  /// Non-constant parameter slots, for gradient accumulation.
  struct GradTerm {
    int slot = 0;
    int param_index = 0;
    double coeff = 1.0;
    /// Derivative index: the term's matrices sit at [dindex * batch, +
    /// batch) of GateBlock::d1 (arity 1) or d2 (arity 2).
    int dindex = 0;
  };
  std::vector<GradTerm> grads;
  /// Cached NoiseModel::gate_error(g) for trajectory walks.
  double error = 0.0;
};

/// A depolarizing noise site of a trajectory walk: after gate-table
/// entry `gate`, a Pauli hits `qubit` with probability `error` (> 0).
struct NoiseSite {
  std::size_t gate = 0;
  int qubit = 0;
  double error = 0.0;
};

/// A Pauli a trajectory's noise schedule inserts: trajectory, index
/// into the sites the schedule was built from, and the Pauli (1 = X,
/// 2 = Y, 3 = Z).
struct PauliFire {
  std::uint32_t traj = 0;
  std::uint32_t site = 0;
  std::uint8_t pauli = 0;
};

/// Skip-sampling table of a sequence of independent noise sites, site j
/// firing with probability p_j. cum[j] = prod_{i<j} (1 - p_i) is the
/// probability that no site before j fires, taken within a segment: the
/// product restarts at 1 after a certain site (p >= 1, whose factor is
/// 0) and before it would fall below kFloor, and each restart starts a
/// new segment. Segments are independent, so a trajectory draws each
/// one separately.
///
/// draw() finds a trajectory's next firing site in one uniform instead
/// of one decision per site. Given that nothing in [k, j) of a segment
/// fired, x = u * cum[k] is uniform on [0, cum[k]), and site j is the
/// first to fire exactly when cum[j+1] <= x < cum[j], an interval of
/// width cum[j] * p_j: probability cum[j] / cum[k] * p_j, the chance of
/// surviving k..j-1 and then firing at j. So every site fires
/// independently with probability p_j, up to the 2^-53 grid of
/// Rng::uniform() and the rounding of cum. kFloor keeps x a normal
/// double for every nonzero u.
class SurvivalTable {
 public:
  static constexpr double kFloor = 0x1.0p-969;

  SurvivalTable() = default;
  /// Builds the table of sites with these fire probabilities, in order.
  explicit SurvivalTable(std::span<const double> error);

  std::size_t size() const noexcept { return cum_.size(); }
  /// Number of segments (0 for no sites).
  std::size_t segments() const noexcept { return segments_.size(); }

  /// Appends trajectory `traj`'s fired Paulis to `fired`, in site order:
  /// per segment one uniform, and one compare when nothing in the rest
  /// of the segment fires (the common case); otherwise a binary search
  /// for the firing site, its Pauli from uniform_int(3), and a fresh
  /// uniform from the site after it. No sites take no draws.
  void draw(std::uint32_t traj, math::Rng& rng,
            std::vector<PauliFire>& fired) const {
    const double* const cum = cum_.data();
    std::size_t k = 0;
    for (const Segment& seg : segments_) {
      while (k < seg.end) {
        const double x = rng.uniform() * cum[k];
        if (seg.last > x) break;
        // The first j in [k, end) with cum[j+1] <= x. cum[end] belongs
        // to the next segment, so the search stops short of it; running
        // off the end means the last site, whose survival is seg.last.
        const double* const next = std::partition_point(
            cum + k + 1, cum + seg.end, [x](double c) { return c > x; });
        const auto j = static_cast<std::size_t>(next - cum) - 1;
        fired.push_back({traj, static_cast<std::uint32_t>(j),
                         static_cast<std::uint8_t>(1 + rng.uniform_int(3))});
        k = j + 1;
      }
      k = seg.end;
    }
  }

 private:
  /// Sites [previous end, end), and the probability that none fires.
  struct Segment {
    std::size_t end = 0;
    double last = 1.0;
  };
  std::vector<double> cum_;
  std::vector<Segment> segments_;
};

/// A circuit compiled against one noise model (and one kernel policy):
/// static gates pre-fused and pre-folded, parameterized gates reduced to
/// bind slots, survival probability and depth cached.
class ExecPlan {
 public:
  ExecPlan(const circuit::Circuit& c, const NoiseModel& noise,
           const exec::ExecPolicy& policy = {});

  int num_qubits() const noexcept { return num_qubits_; }
  int num_params() const noexcept { return num_params_; }
  bool noisy() const noexcept { return noisy_; }
  /// Cached circuit-wide constants.
  double survival() const noexcept { return survival_; }
  std::size_t depth() const noexcept { return depth_; }
  const exec::ExecPolicy& policy() const noexcept { return policy_; }
  /// Process-unique id stamped into workspaces by the binds so
  /// memoized matrices are never carried across plans (pointer identity
  /// would be ABA-unsafe after recalibration rebuilds a plan).
  std::uint64_t plan_id() const noexcept { return plan_id_; }

  /// Compile statistics (for telemetry and tests).
  std::size_t gate_count() const noexcept { return table_.size(); }
  std::size_t stream_op_count() const noexcept { return stream_.size(); }
  /// Gates whose matrix work was fully hoisted to compile time.
  std::size_t fused_gate_count() const noexcept { return fused_gates_; }
  std::size_t bound_slot_count() const noexcept {
    return bound1q_.size() + bound2q_.size();
  }

  /// Rebuild only the parameter-dependent stream matrices into `ws`.
  void bind(std::span<const double> params, Workspace& ws) const;
  /// bind() + evolve |0...0> through the stream; returns ws's register.
  /// Bit-identical to StatevectorSimulator::run_biased.
  Statevector& run(std::span<const double> params, Workspace& ws) const;
  /// survival() * <Z_qubit> of run(); bit-identical to
  /// StatevectorSimulator::expectation_z.
  double expectation_z(std::span<const double> params, int qubit,
                       Workspace& ws) const;

  /// Rebuild the gate table's dynamic forward matrices, their shapes and
  /// bound angles into `ws`, for walks that only apply the forward
  /// matrices (the trajectory sampler).
  void bind_gates_forward(std::span<const double> params,
                          Workspace& ws) const;
  /// Bind the gate table for a block of `batch` parameter bindings
  /// (sample b's at params + b * stride) into ws.gate_block, with every
  /// dynamic entry's adjoint and derivative matrices, for the batched
  /// adjoint walk (adjoint.cpp). An entry whose angles match across the
  /// block is built once; the others are built per run of equal angles.
  /// Every matrix is built by the calls the circuit adjoint makes, so it
  /// is bitwise that one.
  void bind_gates_batched(const double* params, std::size_t stride,
                          std::size_t batch, BatchedWorkspace& ws) const;

  /// Sample-batched forward (batched.hpp / batched.cpp). `params` holds
  /// `batch` parameter bindings, sample b's at [b * stride, + num
  /// params). bind_batched gives each column bind()'s fold bit for bit,
  /// doing the parameter work once per block (each dynamic op's matrix
  /// once per run of equal angles, the distinct columns' folds in
  /// lockstep), so results are bit-identical across batch sizes; a slot
  /// whose bound matrices coincide across the batch is flagged uniform
  /// and run_batched streams it through the broadcast mini-GEMM kernel.
  void bind_batched(const double* params, std::size_t stride,
                    std::size_t batch, BatchedWorkspace& ws) const;
  BatchedStatevector& run_batched(const double* params, std::size_t stride,
                                  std::size_t batch,
                                  BatchedWorkspace& ws) const;
  /// out[b] = survival() * <Z_qubit> of column b.
  void expectation_z_batched(const double* params, std::size_t stride,
                             std::size_t batch, int qubit,
                             BatchedWorkspace& ws, double* out) const;

  const std::vector<GateEntry>& gate_table() const noexcept { return table_; }
  /// Every noise site of the gate table, in gate order (gate, then q0
  /// before q1). Empty for a noiseless plan.
  const std::vector<NoiseSite>& noise_sites() const noexcept {
    return sites_;
  }
  /// The survival table of noise_sites(), the trajectory sampler's
  /// noise schedule.
  const SurvivalTable& survival_table() const noexcept {
    return survival_table_;
  }
  const circuit::Mat2& table_mat2_adjoint(int i) const {
    return table1q_adj_[static_cast<std::size_t>(i)];
  }
  const circuit::Mat4& table_mat4_adjoint(int i) const {
    return table2q_adj_[static_cast<std::size_t>(i)];
  }

  /// Static entry i's forward matrix and shape, and its adjoint's shape,
  /// each classified once at compile time.
  const circuit::Mat2& table_mat2(int i) const {
    return table1q_[static_cast<std::size_t>(i)];
  }
  const circuit::Mat4& table_mat4(int i) const {
    return table2q_[static_cast<std::size_t>(i)];
  }
  const kernels::MatShape<2>& table_shape2(int i) const {
    return table1q_shape_[static_cast<std::size_t>(i)];
  }
  const kernels::MatShape<4>& table_shape4(int i) const {
    return table2q_shape_[static_cast<std::size_t>(i)];
  }
  const kernels::MatShape<2>& table_shape2_adjoint(int i) const {
    return table1q_adj_shape_[static_cast<std::size_t>(i)];
  }
  const kernels::MatShape<4>& table_shape4_adjoint(int i) const {
    return table2q_adj_shape_[static_cast<std::size_t>(i)];
  }

  /// Entry e's forward matrix and its kernel shape: the plan's constant
  /// (classified once, here) for a static entry, the matrix
  /// bind_gates_forward left in `ws` for a dynamic one.
  const circuit::Mat2& mat2(const GateEntry& e, const Workspace& ws) const {
    const auto i = static_cast<std::size_t>(e.index);
    return e.dynamic ? ws.dyn1q[i] : table1q_[i];
  }
  const kernels::MatShape<2>& shape2(const GateEntry& e,
                                     const Workspace& ws) const {
    const auto i = static_cast<std::size_t>(e.index);
    return e.dynamic ? ws.dyn1q_shape[i] : table1q_shape_[i];
  }
  const circuit::Mat4& mat4(const GateEntry& e, const Workspace& ws) const {
    const auto i = static_cast<std::size_t>(e.index);
    return e.dynamic ? ws.dyn2q[i] : table2q_[i];
  }
  const kernels::MatShape<4>& shape4(const GateEntry& e,
                                     const Workspace& ws) const {
    const auto i = static_cast<std::size_t>(e.index);
    return e.dynamic ? ws.dyn2q_shape[i] : table2q_shape_[i];
  }

 private:
  void check_params(std::span<const double> params) const;

  int num_qubits_ = 0;
  int num_params_ = 0;
  bool noisy_ = false;
  double survival_ = 1.0;
  std::size_t depth_ = 0;
  std::size_t fused_gates_ = 0;
  std::uint64_t plan_id_ = 0;
  std::size_t n_slot_dyn1q_ = 0;  ///< dynamic ops across bound1q tails
  int n_grad1q_ = 0;              ///< gradient terms on 1q gates
  int n_grad2q_ = 0;              ///< gradient terms on 2q gates
  int n_dyn1q_ = 0;
  int n_dyn2q_ = 0;
  int n_dyn_ = 0;
  exec::ExecPolicy policy_{};

  std::vector<StreamOp> stream_;
  std::vector<circuit::Mat2> const1q_;  ///< fully static fused runs
  std::vector<circuit::Mat4> const2q_;  ///< static 2q gates
  std::vector<Bound1qSlot> bound1q_;
  std::vector<Bound2qSlot> bound2q_;

  std::vector<GateEntry> table_;
  std::vector<NoiseSite> sites_;
  SurvivalTable survival_table_;
  std::vector<circuit::Mat2> table1q_;
  std::vector<circuit::Mat2> table1q_adj_;
  std::vector<kernels::MatShape<2>> table1q_shape_;
  std::vector<kernels::MatShape<2>> table1q_adj_shape_;
  std::vector<circuit::Mat4> table2q_;
  std::vector<circuit::Mat4> table2q_adj_;
  std::vector<kernels::MatShape<4>> table2q_shape_;
  std::vector<kernels::MatShape<4>> table2q_adj_shape_;
};

}  // namespace arbiterq::sim
