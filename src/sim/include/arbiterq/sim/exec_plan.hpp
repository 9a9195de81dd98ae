#pragma once
// Compiled execution plans: the per-(circuit, noise model) work that
// `StatevectorSimulator::run_biased` and the adjoint engine redo on every
// call — walking the gate list, folding coherent biases into angles,
// rebuilding static gate matrices, fusing 1q runs, recomputing the
// survival probability — hoisted into a one-time compile step.
//
// An ExecPlan is immutable after construction and safe to share across
// threads. Every evaluation is a sample-batched walk (batched.hpp; one
// sample is batch 1), and all per-evaluation mutable state (the batched
// registers, bound matrices and their shapes, sampler scratch) lives in
// a Workspace, so steady-state evaluation performs zero heap allocations
// and a pool of workspaces serves concurrent callers.
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
#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"
#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/math/rng.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/noise_model.hpp"

namespace arbiterq::sim {

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
  /// kConst1q: into the fused constants; kConst2q: into the gate
  /// table's static 2q matrices; bound kinds: into the workspace's bound
  /// slots.
  int index = 0;
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

/// Per-evaluation scratch of every plan walk: the batched registers,
/// what the binds rebuild, the sampler's schedule and caller scratch.
/// One Workspace serves one evaluation at a time; use a WorkspacePool to
/// serve concurrent callers. Buffers grow on first use against a plan
/// and block width and are reused thereafter (zero steady-state
/// allocations for a fixed plan and width).
class Workspace {
 public:
  Workspace() = default;

  /// The forward register (the batched adjoint's psi).
  BatchedStatevector& state() noexcept { return state_; }
  /// The batched adjoint's lambda register and its per-column bracket
  /// values.
  BatchedStatevector& lambda() noexcept { return lambda_; }
  std::vector<Complex> brackets;

  /// Caller scratch: packed per-sample parameters (sample b's binding
  /// at [b * stride, b * stride + num_params)), per-sample outputs,
  /// per-sample plan gradients, and per-sample partials of a whole call
  /// (the executor's per-sample losses or gradient rows).
  std::vector<double> params;
  std::vector<double> values;
  std::vector<double> grads;
  std::vector<double> partials;

  /// Filled by ExecPlan::bind_batched — slot-major bound matrices and
  /// their kernel shapes (slot s, column b at [s * batch + b]) plus a
  /// per-slot flag telling run_batched the whole batch shares one matrix
  /// (broadcast kernel).
  std::vector<circuit::Mat2> bound1q_cols;
  std::vector<circuit::Mat4> bound2q_cols;
  std::vector<kernels::MatShape<2>> bound1q_shapes;
  std::vector<kernels::MatShape<4>> bound2q_shapes;
  std::vector<std::uint8_t> uniform1q;
  std::vector<std::uint8_t> uniform2q;
  /// bind_batched's scratch: a slot's dynamic angles ([op * batch + b]),
  /// the columns it folds, and the lockstep fold's split real and
  /// imaginary parts (accumulator and factor, entry-major).
  std::vector<std::array<double, 3>> angles;
  std::vector<std::uint32_t> fold_cols;
  std::vector<double> fold;
  /// Shape stamp: plan identity and batch width the buffers above were
  /// last sized for.
  std::uint64_t plan_id = 0;
  std::size_t batch = 0;

  /// Filled by ExecPlan::bind_gates_forward for the trajectory sampler,
  /// which applies the gate table's forward matrices one gate at a time:
  /// each dynamic entry's matrix and kernel shape (by GateEntry::index)
  /// and bound angles (by GateEntry::bound_index). The angles double as
  /// a memo: an entry whose angles match the previous bind on this
  /// workspace keeps its matrix (the same inputs, so bit-exact), as long
  /// as gates_plan_id names the same plan (0 = cold).
  std::vector<circuit::Mat2> dyn1q;
  std::vector<circuit::Mat4> dyn2q;
  std::vector<kernels::MatShape<2>> dyn1q_shape;
  std::vector<kernels::MatShape<4>> dyn2q_shape;
  std::vector<std::array<double, 3>> dyn_bound;
  std::uint64_t gates_plan_id = 0;

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
  void release(std::unique_ptr<Workspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> free_;
};

/// A circuit compiled against one noise model: static gates pre-fused
/// and pre-folded (and their kernel shapes classified), parameterized
/// gates reduced to bind slots, survival probability and depth cached.
class ExecPlan {
 public:
  ExecPlan(const circuit::Circuit& c, const NoiseModel& noise);

  int num_qubits() const noexcept { return num_qubits_; }
  int num_params() const noexcept { return num_params_; }
  bool noisy() const noexcept { return noisy_; }
  /// Cached circuit-wide constants.
  double survival() const noexcept { return survival_; }
  std::size_t depth() const noexcept { return depth_; }
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

  /// survival() * <Z_qubit> for one binding: expectation_z_batched at
  /// batch 1, bit-identical to StatevectorSimulator::expectation_z.
  /// Throws std::invalid_argument when `params` is shorter than
  /// num_params().
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
                          std::size_t batch, Workspace& ws) const;

  /// Sample-batched forward (batched.hpp / batched.cpp). `params` holds
  /// `batch` parameter bindings, sample b's at [b * stride, + num
  /// params). bind_batched gives each column, bit for bit, the fold
  /// run_biased performs for its binding, doing the parameter work once
  /// per block (each dynamic op's matrix once per run of equal angles,
  /// the distinct columns' folds in lockstep), so results are
  /// bit-identical across batch sizes; it classifies each bound matrix
  /// once. A slot whose bound matrices coincide across the batch is
  /// flagged uniform and run_batched streams it through the broadcast
  /// mini-GEMM kernel. run_batched resolves the kernel arm once per call.
  void bind_batched(const double* params, std::size_t stride,
                    std::size_t batch, Workspace& ws) const;
  BatchedStatevector& run_batched(const double* params, std::size_t stride,
                                  std::size_t batch, Workspace& ws) const;
  /// out[b] = survival() * <Z_qubit> of column b.
  void expectation_z_batched(const double* params, std::size_t stride,
                             std::size_t batch, int qubit, Workspace& ws,
                             double* out) const;

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
  int n_grad1q_ = 0;              ///< gradient terms on 1q gates
  int n_grad2q_ = 0;              ///< gradient terms on 2q gates
  int n_dyn1q_ = 0;
  int n_dyn2q_ = 0;
  int n_dyn_ = 0;

  std::vector<StreamOp> stream_;
  std::vector<circuit::Mat2> const1q_;  ///< fully static fused runs
  std::vector<kernels::MatShape<2>> const1q_shape_;
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
