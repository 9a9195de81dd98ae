// Sample-batched forward execution (batched.hpp) plus the plan-based,
// trajectory-batched marginal sampler. The ExecPlan batched entry
// points live here as member functions so the stream/slot internals
// stay private to the plan.

#include "arbiterq/sim/batched.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Mat2;
using circuit::Mat4;
using kernels::MatShape;
using kernels::Shape;

inline bool is_diag(const MatShape<2>& s) noexcept {
  return s.shape == Shape::kDiagonal;
}

/// Pauli 1 = X, 2 = Y, 3 = Z, built once. Z is the one diagonal Pauli;
/// X and Y take the dense kernel, as Statevector::apply_pauli's
/// classify-dispatched apply does.
const Mat2& pauli_matrix(int pauli) {
  static const std::array<Mat2, 3> kPaulis = {
      circuit::gate_matrix_1q(circuit::GateKind::kX, {}),
      circuit::gate_matrix_1q(circuit::GateKind::kY, {}),
      circuit::gate_matrix_1q(circuit::GateKind::kZ, {})};
  return kPaulis[static_cast<std::size_t>(pauli - 1)];
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchedStatevector

void BatchedStatevector::configure(int num_qubits, std::size_t batch) {
  if (num_qubits <= 0 || num_qubits > Statevector::kMaxQubits) {
    throw std::invalid_argument("BatchedStatevector: unsupported qubit count");
  }
  if (batch == 0) {
    throw std::invalid_argument("BatchedStatevector: batch must be > 0");
  }
  num_qubits_ = num_qubits;
  dim_ = std::size_t{1} << num_qubits;
  batch_ = batch;
  amps_.assign(dim_ * batch_, Complex{0.0, 0.0});
  for (std::size_t b = 0; b < batch_; ++b) amps_[b] = 1.0;
  assert(reinterpret_cast<std::uintptr_t>(amps_.data()) % kAmpAlignment == 0 &&
         "amplitude storage must honor kAmpAlignment");
}

void BatchedStatevector::apply_mat2_all(const kernels::KernelTable& k,
                                        const Mat2& m,
                                        const MatShape<2>& shape, int q) {
  if (is_diag(shape)) {
    const Complex d[2] = {m[0], m[3]};
    k.batched_apply_diag(amps_.data(), dim_, batch_, batch_, d, 0,
                         std::size_t{1} << q);
    return;
  }
  k.batched_apply_mat2(amps_.data(), dim_, batch_, batch_, m, q);
}

void BatchedStatevector::apply_mat4_all(const kernels::KernelTable& k,
                                        const Mat4& m,
                                        const MatShape<4>& shape, int qb,
                                        int qa) {
  switch (shape.shape) {
    case Shape::kDiagonal: {
      const Complex d[4] = {m[0], m[5], m[10], m[15]};
      k.batched_apply_diag(amps_.data(), dim_, batch_, batch_, d,
                           std::size_t{1} << qb, std::size_t{1} << qa);
      return;
    }
    case Shape::kPermutation:
      kernels::batched_apply_perm4(amps_.data(), dim_, batch_, batch_,
                                   shape.src, qb, qa);
      return;
    case Shape::kDense:
      k.batched_apply_mat4(amps_.data(), dim_, batch_, batch_, m, qb, qa);
      return;
  }
}

void BatchedStatevector::apply_mat2_each(const kernels::KernelTable& k,
                                         const Mat2* mats,
                                         const MatShape<2>* shapes, int q) {
  diag_scratch_.resize(2 * batch_);
  // Diagonal dispatch is per-matrix (an RZ column sits next to an RX
  // column): partition the batch into maximal runs of equal dispatch so
  // every column takes exactly the kernel it would take unbatched.
  std::size_t b = 0;
  while (b < batch_) {
    const bool diag = is_diag(shapes[b]);
    std::size_t e = b + 1;
    while (e < batch_ && is_diag(shapes[e]) == diag) ++e;
    const std::size_t count = e - b;
    if (diag) {
      Complex* const ds[2] = {diag_scratch_.data(),
                              diag_scratch_.data() + batch_};
      for (std::size_t j = 0; j < count; ++j) {
        ds[0][j] = mats[b + j][0];
        ds[1][j] = mats[b + j][3];
      }
      k.batched_apply_diag_each(amps_.data() + b, dim_, batch_, count, ds, 0,
                                std::size_t{1} << q);
    } else {
      k.batched_apply_mat2_each(amps_.data() + b, dim_, batch_, count,
                                mats + b, q);
    }
    b = e;
  }
}

void BatchedStatevector::apply_mat4_each(const kernels::KernelTable& k,
                                         const Mat4* mats,
                                         const MatShape<4>* shapes, int qb,
                                         int qa) {
  diag_scratch_.resize(4 * batch_);
  std::size_t b = 0;
  while (b < batch_) {
    // Runs share a shape and, for permutations, the same moves.
    const MatShape<4>& shape = shapes[b];
    std::size_t e = b + 1;
    while (e < batch_ && shapes[e] == shape) ++e;
    const std::size_t count = e - b;
    switch (shape.shape) {
      case Shape::kDiagonal: {
        Complex* ds[4];
        for (unsigned s = 0; s < 4; ++s) {
          ds[s] = diag_scratch_.data() + s * batch_;
        }
        for (std::size_t j = 0; j < count; ++j) {
          const Mat4& m = mats[b + j];
          ds[0][j] = m[0];
          ds[1][j] = m[5];
          ds[2][j] = m[10];
          ds[3][j] = m[15];
        }
        k.batched_apply_diag_each(amps_.data() + b, dim_, batch_, count, ds,
                                  std::size_t{1} << qb, std::size_t{1} << qa);
        break;
      }
      case Shape::kPermutation:
        kernels::batched_apply_perm4(amps_.data() + b, dim_, batch_, count,
                                     shape.src, qb, qa);
        break;
      case Shape::kDense:
        k.batched_apply_mat4_each(amps_.data() + b, dim_, batch_, count,
                                  mats + b, qb, qa);
        break;
    }
    b = e;
  }
}

void BatchedStatevector::probability_of_one_all(int q, double* out) const {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t b = 0; b < batch_; ++b) out[b] = 0.0;
  // Basis index outer, sample inner: every column accumulates in the
  // exact index order of Statevector::probability_of_one.
  for (std::size_t i = 0; i < dim_; ++i) {
    if (!(i & bit)) continue;
    const Complex* const r = row(i);
    for (std::size_t b = 0; b < batch_; ++b) out[b] += std::norm(r[b]);
  }
}

// ---------------------------------------------------------------------------
// ExecPlan batched execution

BatchedStatevector& ExecPlan::run_bound(Workspace& ws) const {
  const Workspace::Block& k = ws.block;
  if (k.plan_id != plan_id_) {
    throw std::logic_error("run_bound: no block of this plan is bound");
  }
  const std::size_t batch = k.batch;
  AQ_COUNTER_ADD("sim.plan.batched_runs", 1);
  AQ_COUNTER_ADD("sim.plan.batched_columns",
                 static_cast<std::uint64_t>(batch));
  const kernels::KernelTable& kern = kernels::kernel_table();
  BatchedStatevector& st = ws.state();
  st.configure(num_qubits_, batch);
  for (const StreamOp& op : stream_) {
    const auto idx = static_cast<std::size_t>(op.index);
    switch (op.kind) {
      case StreamOp::Kind::kConst1q:
        st.apply_mat2_all(kern, const1q_[idx], const1q_shape_[idx], op.q0);
        break;
      case StreamOp::Kind::kBound1q: {
        const Mat2* const m = k.fused.data() + idx * batch;
        const MatShape<2>* const shape = k.fused_shape.data() + idx * batch;
        if (k.fused_uniform[idx] != 0) {
          st.apply_mat2_all(kern, *m, *shape, op.q0);
        } else {
          st.apply_mat2_each(kern, m, shape, op.q0);
        }
        break;
      }
      case StreamOp::Kind::kConst2q:
        st.apply_mat4_all(kern, table2q_[idx], table2q_shape_[idx], op.q0,
                          op.q1);
        break;
      case StreamOp::Kind::kBound2q: {
        const GateEntry& e = table_[idx];
        const std::size_t at = static_cast<std::size_t>(e.index) * batch;
        const Mat4* const m = k.m2.data() + at;
        const MatShape<4>* const shape = k.shape2.data() + at;
        if (k.uniform[static_cast<std::size_t>(e.bound_index)] != 0) {
          st.apply_mat4_all(kern, *m, *shape, op.q0, op.q1);
        } else {
          st.apply_mat4_each(kern, m, shape, op.q0, op.q1);
        }
        break;
      }
    }
  }
  return st;
}

void ExecPlan::expectation_z_bound(int qubit, Workspace& ws,
                                   double* out) const {
  const BatchedStatevector& st = run_bound(ws);
  st.probability_of_one_all(qubit, out);
  for (std::size_t b = 0; b < st.batch(); ++b) {
    out[b] = survival_ * (1.0 - 2.0 * out[b]);
  }
}

// ---------------------------------------------------------------------------
// Plan-based trajectory sampler: one noise-free trunk, a branch per
// trajectory that a Pauli hits

namespace {

/// Every random decision of a sampler call, pre-drawn trajectory by
/// trajectory so the RNG stream — and therefore every outcome — is
/// independent of how trajectories are later evolved. A trajectory's
/// Paulis come from the plan's survival table (SurvivalTable::draw: one
/// uniform per segment when none fires, so a plan without noise sites
/// takes no draws here); shot draws consume one readout-flip uniform
/// per shot whenever readout noise is configured, a value-independent
/// schedule (the circuit-walking sampler draws the flip conditionally
/// on the outcome, which would tie the stream to amplitude values).
/// Only the Paulis that fire are recorded. tr.shots_of must already
/// hold the allotment. Kept out of line so the draw loop has the
/// registers to itself.
[[gnu::noinline]] void draw_schedule(const SurvivalTable& table, bool flips,
                                     math::Rng& rng,
                                     Workspace::Trajectories& tr) {
  std::size_t shots = 0;
  for (const int n : tr.shots_of) shots += static_cast<std::size_t>(n);
  tr.fired.clear();
  tr.u_out.resize(shots);
  tr.u_flip.resize(flips ? shots : 0);
  // Drawing from a local copy keeps the generator state in registers
  // (the caller's rng may alias anything the loop stores); the copy's
  // state is handed back once every draw is taken.
  math::Rng draw = rng;
  double* u_out = tr.u_out.data();
  double* u_flip = tr.u_flip.data();
  for (std::size_t t = 0; t < tr.shots_of.size(); ++t) {
    table.draw(static_cast<std::uint32_t>(t), draw, tr.fired);
    for (int s = 0; s < tr.shots_of[t]; ++s) {
      *u_out++ = draw.uniform();
      if (flips) *u_flip++ = draw.uniform();
    }
  }
  rng = draw;
}

/// Gate-table entry e on `n` contiguous amplitudes — one register, or
/// registers stacked end to end — through the range kernel its resolved
/// shape selects: the calls Statevector::apply_mat2 / apply_mat4 make on
/// a serial register, without classifying the matrix again. The gate's
/// qubits sit below a register's width, so the index bits above it (the
/// stacked register's number) pass through every butterfly unchanged.
void apply_entry(const kernels::KernelTable& k, Complex* amps,
                 std::size_t n, const ExecPlan& plan, const GateEntry& e,
                 const Workspace& ws) {
  if (e.arity == 1) {
    const Mat2& m = plan.mat2(e, ws);
    if (is_diag(plan.shape2(e, ws))) {
      const Complex d[2] = {m[0], m[3]};
      k.apply_diag_range(amps, d, 0, std::size_t{1} << e.q0, 0, n);
    } else {
      k.apply_mat2_range(amps, m, e.q0, 0, n >> 1);
    }
    return;
  }
  const Mat4& m = plan.mat4(e, ws);
  const MatShape<4>& shape = plan.shape4(e, ws);
  switch (shape.shape) {
    case Shape::kDiagonal: {
      const Complex d[4] = {m[0], m[5], m[10], m[15]};
      k.apply_diag_range(amps, d, std::size_t{1} << e.q0,
                         std::size_t{1} << e.q1, 0, n);
      return;
    }
    case Shape::kPermutation:
      kernels::apply_perm4_range(amps, shape.src, e.q0, e.q1, 0, n >> 2);
      return;
    case Shape::kDense:
      k.apply_mat4_range(amps, m, e.q0, e.q1, 0, n >> 2);
      return;
  }
}

/// Statevector::apply_pauli on one register of `dim` amplitudes.
void apply_pauli(const kernels::KernelTable& k, Complex* amps,
                 std::size_t dim, int pauli, int q) {
  const Mat2& m = pauli_matrix(pauli);
  if (pauli == 3) {
    const Complex d[2] = {m[0], m[3]};
    k.apply_diag_range(amps, d, 0, std::size_t{1} << q, 0, dim);
  } else {
    k.apply_mat2_range(amps, m, q, 0, dim >> 1);
  }
}

/// Statevector::probability_of_one on one register: the same basis-order
/// sum.
double register_probability_of_one(const Complex* amps, std::size_t dim,
                                  int q) {
  const std::size_t bit = std::size_t{1} << q;
  double p = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (i & bit) p += std::norm(amps[i]);
  }
  return p;
}

}  // namespace

std::uint64_t StatevectorSimulator::sample_marginal_ones(
    const ExecPlan& plan, std::span<const double> params, int qubit,
    const ShotOptions& opts, math::Rng& rng, Workspace& ws) const {
  if (opts.shots <= 0 || opts.trajectories <= 0) {
    throw std::invalid_argument(
        "sample_marginal_ones: shots/trajectories invalid");
  }
  AQ_TRACE_SPAN("sim.sample.marginal");
  AQ_COUNTER_ADD("sim.sample.shots", static_cast<std::uint64_t>(opts.shots));
  using Branch = Workspace::Trajectories::Branch;
  Workspace::Trajectories& tr = ws.traj;
  const auto n_traj =
      static_cast<std::size_t>(std::min(opts.trajectories, opts.shots));
  const auto& table = plan.gate_table();
  const bool noisy = noise_.enabled();
  static const SurvivalTable kNoiseless;
  const std::span<const NoiseSite> sites =
      noisy ? std::span<const NoiseSite>(plan.noise_sites())
            : std::span<const NoiseSite>();
  const SurvivalTable& schedule =
      noisy ? plan.survival_table() : kNoiseless;
  const double p01 = noisy ? noise_.readout_p01(qubit) : 0.0;
  const double p10 = noisy ? noise_.readout_p10(qubit) : 0.0;
  const bool flips = noisy && (p01 > 0.0 || p10 > 0.0);

  // Shot allotment per trajectory: the circuit-walking sampler's
  // deterministic remaining / (n - t) spread.
  tr.shots_of.resize(n_traj);
  int remaining = opts.shots;
  for (std::size_t t = 0; t < n_traj; ++t) {
    tr.shots_of[t] = remaining / static_cast<int>(n_traj - t);
    remaining -= tr.shots_of[t];
  }

  draw_schedule(schedule, flips, rng, tr);

  // A trajectory no Pauli hits is bitwise the noise-free evolution, so
  // those all read one trunk column. Each fired trajectory becomes a
  // branch, forked from the trunk just before its first Pauli; ordering
  // branches by first fired site keeps the active columns a prefix.
  tr.branches.clear();
  for (std::size_t i = 0; i < tr.fired.size(); ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    if (i == 0 || tr.fired[i].traj != tr.fired[i - 1].traj) {
      tr.branches.push_back({tr.fired[i].traj, idx, idx});
    }
    tr.branches.back().end = idx + 1;
  }
  std::sort(tr.branches.begin(), tr.branches.end(),
            [&](const Branch& a, const Branch& b) {
              const std::uint32_t sa = tr.fired[a.next].site;
              const std::uint32_t sb = tr.fired[b.next].site;
              return sa != sb ? sa < sb : a.traj < b.traj;
            });

  // One bind serves every trajectory: gate matrices depend only on the
  // shared params; trajectories differ only in their Pauli insertions.
  // The walk applies forward matrices only, so it skips the adjoint
  // companions.
  plan.bind_gates_forward(params, ws);

  // Blocks of up to kBatchBlock - 1 branches share one walk with the
  // trunk, which each block re-walks. A block's columns are registers
  // stacked end to end (column c starts at amplitude c * dim), so the
  // active columns [0, width) are one contiguous register of width *
  // dim amplitudes and each gate is one unbatched range-kernel call over
  // it: no per-row walk, and per amplitude the arithmetic of a lone
  // register. Until the first fork that register is the trunk alone,
  // and a call where no Pauli fires never widens it. Only the first
  // block keeps the trunk pure, and only when silent trajectories read
  // it; otherwise the block's last branch to fork evolves in the
  // trunk's column in place — so a lone trajectory always walks a
  // single column. The kernel arm is resolved once per call.
  const kernels::KernelTable& kern = kernels::kernel_table();
  const std::size_t dim = std::size_t{1} << plan.num_qubits();
  const std::size_t n_branch = tr.branches.size();
  const bool any_silent = n_branch < n_traj;
  tr.p1.resize(n_traj);
  std::size_t b0 = 0;
  do {
    const std::size_t nb = std::min(kBatchBlock - 1, n_branch - b0);
    Branch* const block = tr.branches.data() + b0;
    const bool keep_trunk = b0 == 0 && any_silent;
    auto col_of = [&](std::size_t j) {
      return !keep_trunk && j + 1 == nb ? std::size_t{0} : j + 1;
    };
    tr.stack.resize((keep_trunk ? nb + 1 : nb) * dim);
    Complex* const stack = tr.stack.data();
    std::fill_n(stack, dim, Complex{0.0, 0.0});
    stack[0] = 1.0;
    std::size_t width = 1;
    std::size_t forked = 0;
    for (std::size_t k = 0; k < table.size(); ++k) {
      apply_entry(kern, stack, width * dim, plan, table[k], ws);
      // Fork every branch whose first Pauli follows this gate before
      // any Pauli lands, so each copy is the trunk right after gate k.
      while (forked < nb &&
             sites[tr.fired[block[forked].next].site].gate == k) {
        const std::size_t col = col_of(forked);
        if (col != 0) {
          std::copy_n(stack, dim, stack + col * dim);
          width = col + 1;
        }
        ++forked;
      }
      // Per-column application keeps -0.0 signs exact; a broadcast
      // identity multiply on the other columns would not.
      for (std::size_t j = 0; j < forked; ++j) {
        Branch& br = block[j];
        for (; br.next < br.end && sites[tr.fired[br.next].site].gate == k;
             ++br.next) {
          const PauliFire& f = tr.fired[br.next];
          apply_pauli(kern, stack + col_of(j) * dim, dim, f.pauli,
                      sites[f.site].qubit);
        }
      }
    }
    if (keep_trunk) {
      std::fill(tr.p1.begin(), tr.p1.end(),
                register_probability_of_one(stack, dim, qubit));
    }
    for (std::size_t j = 0; j < nb; ++j) {
      tr.p1[block[j].traj] =
          register_probability_of_one(stack + col_of(j) * dim, dim, qubit);
    }
    b0 += nb;
  } while (b0 < n_branch);

  std::uint64_t ones = 0;
  std::size_t si = 0;
  for (std::size_t t = 0; t < n_traj; ++t) {
    for (int s = 0; s < tr.shots_of[t]; ++s, ++si) {
      bool one = tr.u_out[si] < tr.p1[t];
      if (flips && tr.u_flip[si] < (one ? p10 : p01)) one = !one;
      if (one) ++ones;
    }
  }
  return ones;
}

double StatevectorSimulator::sampled_probability_of_one(
    const ExecPlan& plan, std::span<const double> params, int qubit,
    const ShotOptions& opts, math::Rng& rng, Workspace& ws) const {
  const std::uint64_t ones =
      sample_marginal_ones(plan, params, qubit, opts, rng, ws);
  return static_cast<double>(ones) / static_cast<double>(opts.shots);
}

}  // namespace arbiterq::sim
