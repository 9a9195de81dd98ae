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

/// A parameterized gate's angles at bind time: its parameter
/// expressions plus, when the plan is noisy, the target qubit's coherent
/// calibration offset on the polar angle (exactly mirroring
/// NoiseModel::biased_params).
struct AngleSpec {
  int param_count = 0;
  std::array<circuit::ParamExpr, 3> params{};
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

/// One step of a fused 1q run's left-multiply fold: a constant matrix (a
/// static gate that sits after a parameterized one) or the bound matrix
/// of a dynamic gate-table entry.
struct FoldOp {
  int gate = -1;  ///< the dynamic entry's gate-table position; -1: constant
  circuit::Mat2 constant{};
};

/// A fused 1q run containing at least one parameterized gate: the static
/// prefix is pre-folded into one constant; the tail replays the
/// remaining fold steps at bind time in the original order.
struct Bound1qSlot {
  circuit::Mat2 prefix{};  ///< identity if the run starts parameterized
  std::vector<FoldOp> tail;
  /// The parameters the tail's dynamic gates read, ascending. Two
  /// bindings that agree on them fold to the same matrix.
  std::vector<int> reads;
  int qubit = 0;
};

/// The compiled op-stream: each op applies one matrix to the register.
struct StreamOp {
  enum class Kind : std::uint8_t { kConst1q, kBound1q, kConst2q, kBound2q };
  Kind kind = Kind::kConst1q;
  int q0 = 0;
  int q1 = 0;
  /// kConst1q: into the fused constants; kConst2q: into the gate
  /// table's static 2q matrices; kBound1q: into the fused bound slots;
  /// kBound2q: the gate-table position of the dynamic 2q gate.
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
  /// the batch, into the bound block's per-column m1/m2 arrays).
  int index = 0;
  /// Dynamic only: index into Workspace::dyn_bound and the bound block's
  /// uniform flags.
  int bound_index = 0;
  AngleSpec spec;  ///< dynamic only
  /// Dynamic only: the parameters its angles read, ascending. Two
  /// bindings that agree on them bind the same matrices.
  std::vector<int> reads;
  /// Non-constant parameter slots, for gradient accumulation.
  struct GradTerm {
    int slot = 0;
    int param_index = 0;
    double coeff = 1.0;
    /// Derivative index: the term's matrices sit at [dindex * batch, +
    /// batch) of the bound block's d1 (arity 1) or d2 (arity 2).
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

  /// Filled by ExecPlan::bind_block for a block of `batch` parameter
  /// bindings: what the block's forward walk (run_bound) reads and, when
  /// bound with them, the adjoint companions the batched adjoint walk
  /// reads. Per-column arrays are item-major: item i's column b sits at
  /// [i * batch + b]. A uniform item (its matrices match across the
  /// block) holds column 0's only, which the walks broadcast.
  struct Block {
    /// Per dynamic gate-table entry (GateEntry::bound_index): whether
    /// every column agrees on the parameters it reads.
    std::vector<std::uint8_t> uniform;
    /// Per dynamic entry (GateEntry::index): the forward matrix; the 2q
    /// forward shapes; with the companions, the 1q forward shapes and
    /// the adjoints and their shapes.
    std::vector<circuit::Mat2> m1;
    std::vector<kernels::MatShape<2>> shape1;
    std::vector<circuit::Mat2> adj1;
    std::vector<kernels::MatShape<2>> adj_shape1;
    std::vector<circuit::Mat4> m2;
    std::vector<kernels::MatShape<4>> shape2;
    std::vector<circuit::Mat4> adj2;
    std::vector<kernels::MatShape<4>> adj_shape2;
    /// With the companions, per gradient term (GradTerm::dindex): the
    /// derivative matrix and its shape.
    std::vector<circuit::Mat2> d1;
    std::vector<kernels::MatShape<2>> d_shape1;
    std::vector<circuit::Mat4> d2;
    std::vector<kernels::MatShape<4>> d_shape2;
    /// Per fused 1q slot (StreamOp::index of a kBound1q op): the folded
    /// matrix, its shape, and whether only column 0 was folded (every
    /// column reads the slot's parameters alike).
    std::vector<circuit::Mat2> fused;
    std::vector<kernels::MatShape<2>> fused_shape;
    std::vector<std::uint8_t> fused_uniform;
    /// Scratch: the columns a slot folds.
    std::vector<std::uint32_t> fresh;
    /// The bound block's plan identity (0 = nothing bound) and width,
    /// and whether its companions are bound. The arrays above grow to
    /// fit a plan and width and never shrink.
    std::uint64_t plan_id = 0;
    std::size_t batch = 0;
    bool adjoint = false;
  };
  Block block;

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
    return bound1q_.size() + static_cast<std::size_t>(n_dyn2q_);
  }

  /// survival() * <Z_qubit> for one binding: bind_block and
  /// expectation_z_bound at batch 1, bit-identical to
  /// StatevectorSimulator::expectation_z.
  /// Throws std::invalid_argument when `params` is shorter than
  /// num_params().
  double expectation_z(std::span<const double> params, int qubit,
                       Workspace& ws) const;

  /// Rebuild the gate table's dynamic forward matrices, their shapes and
  /// bound angles into `ws`, for walks that only apply the forward
  /// matrices (the trajectory sampler).
  void bind_gates_forward(std::span<const double> params,
                          Workspace& ws) const;
  /// Bind a block of `batch` parameter bindings (sample b's at [b *
  /// stride, + num_params()), stride >= num_params()) into ws.block, once
  /// for every walk over the block: the fused forward (run_bound) and,
  /// with `adjoint`, the batched adjoint (adjoint_gradient_z_bound).
  ///
  /// Each dynamic gate binds its angles and evaluates its
  /// transcendentals (circuit::gate_trig) once per run of columns that
  /// agree on its parameters (GateEntry::reads), and builds its matrix
  /// and, with `adjoint`, its adjoint and derivatives from that one
  /// evaluation by the calls the circuit adjoint makes; a gate every
  /// column reads alike is built once. Each fused 1q slot folds only its
  /// fresh columns: column 0 and every column whose values of the slot's
  /// parameters (Bound1qSlot::reads) differ from the previous column's;
  /// the others copy their predecessor's matrix, which is bitwise the
  /// same fold. The fold steps the fresh
  /// columns together through the kernel table's fold_mat2, per column
  /// run_biased's fold for that binding, so every column is bit-identical
  /// to a width-1 bind of its own binding. A slot that folds column 0
  /// alone is uniform and stores that one matrix. Every stored matrix is
  /// classified once, here.
  void bind_block(const double* params, std::size_t stride,
                  std::size_t batch, Workspace& ws,
                  bool adjoint = false) const;

  /// Sample-batched forward (batched.hpp / batched.cpp) of the block
  /// last bound into ws: a uniform slot streams through the broadcast
  /// mini-GEMM kernel, the others through the per-column ones. Resolves
  /// the kernel arm once per call.
  BatchedStatevector& run_bound(Workspace& ws) const;
  /// out[b] = survival() * <Z_qubit> of column b of the bound block.
  void expectation_z_bound(int qubit, Workspace& ws, double* out) const;

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
