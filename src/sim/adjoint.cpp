#include "arbiterq/sim/adjoint.hpp"

#include <cmath>
#include <stdexcept>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/sim/simulator.hpp"
#include "arbiterq/sim/statevector.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Complex;
using circuit::Gate;
using circuit::GateKind;
using circuit::Mat2;
using circuit::Mat4;

/// Shared derivative-matrix builders (circuit/unitary.hpp) under the
/// names this file historically used.
using circuit::d_gate_matrix_1q;
using circuit::d_gate_matrix_2q;

Mat2 d_matrix_1q(GateKind kind, const std::array<double, 3>& p, int slot) {
  return d_gate_matrix_1q(kind, p, slot);
}

Mat4 d_matrix_2q(GateKind kind, const std::array<double, 3>& p) {
  return d_gate_matrix_2q(kind, p);
}

// The bracket reductions — the exact arithmetic of
//   mu = psi; mu.apply_mat(M, ...); inner_product(lambda, mu)
// fused into one pass, including the apply kernels' diagonal dispatch —
// live in the kernel table so the circuit and plan-based gradients below
// go through the same arm and stay mutually bit-identical in every mode
// (scalar, AVX2 strict, AVX2+FMA fast). The circuit walk, a reference
// engine, resolves the arm per bracket as Statevector does per apply.

/// <lambda| M |psi> over whole registers.
Complex bracket_1q(const Statevector& lambda, const Statevector& psi,
                   const Mat2& m, int q) {
  return kernels::kernel_table().bracket_1q(
      lambda.amplitudes().data(), psi.amplitudes().data(), psi.dim(), m, q);
}

Complex bracket_2q(const Statevector& lambda, const Statevector& psi,
                   const Mat4& m, int qb, int qa) {
  return kernels::kernel_table().bracket_2q(lambda.amplitudes().data(),
                                            psi.amplitudes().data(),
                                            psi.dim(), m, qb, qa);
}

using kernels::MatShape;
using kernels::Shape;

template <std::size_t N>
bool is_diag(const MatShape<N>& s) noexcept {
  return s.shape == Shape::kDiagonal;
}

/// A gate-table entry's matrices (forward, adjoint or one derivative)
/// over a block: column b's at mat[b * step] with its shape at
/// shape[b * step]; step 0 when one matrix serves the whole block.
template <class M, std::size_t N>
struct BlockMats {
  const M* mat;
  const MatShape<N>* shape;
  std::size_t step;

  bool all_diagonal(std::size_t batch) const noexcept {
    for (std::size_t b = 0; b < (step == 0 ? 1 : batch); ++b) {
      if (!is_diag(shape[b])) return false;
    }
    return true;
  }
};
using BlockMats2 = BlockMats<Mat2, 2>;
using BlockMats4 = BlockMats<Mat4, 4>;

void apply(const kernels::KernelTable& k, BatchedStatevector& st,
           const BlockMats2& m, int q) {
  if (m.step == 0) {
    st.apply_mat2_all(k, *m.mat, *m.shape, q);
  } else {
    st.apply_mat2_each(k, m.mat, m.shape, q);
  }
}

void apply(const kernels::KernelTable& k, BatchedStatevector& st,
           const BlockMats4& m, int qb, int qa) {
  if (m.step == 0) {
    st.apply_mat4_all(k, *m.mat, *m.shape, qb, qa);
  } else {
    st.apply_mat4_each(k, m.mat, m.shape, qb, qa);
  }
}

/// bracket(b0, count, diagonal) over the block's maximal runs of columns
/// whose derivative matrices share the diagonal answer, as the unbatched
/// bracket dispatches per matrix.
template <class M, std::size_t N, class Bracket>
void for_each_diag_run(const BlockMats<M, N>& d, std::size_t batch,
                       Bracket&& bracket) {
  if (d.step == 0) {
    bracket(std::size_t{0}, batch, is_diag(*d.shape));
    return;
  }
  std::size_t b = 0;
  while (b < batch) {
    const bool diag = is_diag(d.shape[b]);
    std::size_t e = b + 1;
    while (e < batch && is_diag(d.shape[e]) == diag) ++e;
    bracket(b, e - b, diag);
    b = e;
  }
}

}  // namespace

std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise) {
  const bool noisy = noise != nullptr && noise->enabled();
  return adjoint_gradient_z(c, params, qubit, noise,
                            noisy ? noise->survival_probability(c) : 1.0);
}

std::vector<double> adjoint_gradient_z(const circuit::Circuit& c,
                                       std::span<const double> params,
                                       int qubit, const NoiseModel* noise,
                                       double survival) {
  if (static_cast<int>(params.size()) < c.num_params()) {
    throw std::invalid_argument("adjoint_gradient_z: params too short");
  }
  AQ_TRACE_SPAN("sim.adjoint.gradient");
  AQ_COUNTER_ADD("sim.adjoint.calls", 1);
  const bool noisy = noise != nullptr && noise->enabled();

  auto bound_of = [&](const Gate& g) {
    return noisy ? noise->biased_params(g, params) : g.bound_params(params);
  };

  // Forward half: run_biased's fused fold, the state expectation_z reads.
  Statevector psi =
      StatevectorSimulator(noisy ? *noise : NoiseModel{}).run_biased(c,
                                                                    params);

  // The reverse sweep's ops, recorded in gate order: every dynamic or 2q
  // gate, and each maximal run of static 1q gates on a qubit as the
  // adjoint of the run's product (left-multiplied gate by gate from
  // identity, as run_biased folds), recorded just before the gate that
  // ends it (control, then target) or at the circuit's end in qubit
  // order. ExecPlan's adjoint stream is this list, reversed.
  struct Op {
    int gate = -1;  ///< -1: a static run on `qubit`
    int qubit = 0;
    Mat2 run_adjoint{};
  };
  const auto nq = static_cast<std::size_t>(c.num_qubits());
  constexpr Mat2 kIdentity{Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
                           Complex{1, 0}};
  std::vector<Mat2> run(nq, kIdentity);
  std::vector<bool> open(nq, false);
  std::vector<Op> ops;
  auto flush = [&](int q) {
    const auto uq = static_cast<std::size_t>(q);
    if (!open[uq]) return;
    ops.push_back({-1, q, circuit::mat2_adjoint(run[uq])});
    run[uq] = kIdentity;
    open[uq] = false;
  };
  const auto& gates = c.gates();
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const Gate& g = gates[k];
    if (g.arity() == 1 && g.is_static()) {
      const auto uq = static_cast<std::size_t>(g.qubits[0]);
      run[uq] = circuit::mat2_multiply(
          circuit::gate_matrix_1q(g.kind, bound_of(g)), run[uq]);
      open[uq] = true;
      continue;
    }
    flush(g.qubits[0]);
    if (g.arity() == 2) flush(g.qubits[1]);
    ops.push_back({static_cast<int>(k), 0, {}});
  }
  for (int q = 0; q < c.num_qubits(); ++q) flush(q);

  // lambda = Z_qubit psi.
  Statevector lambda = psi;
  lambda.apply_pauli(3, qubit);

  std::vector<double> grad(static_cast<std::size_t>(c.num_params()), 0.0);

  for (std::size_t k = ops.size(); k-- > 0;) {
    const Op& op = ops[k];
    if (op.gate < 0) {
      psi.apply_mat2(op.run_adjoint, op.qubit);
      lambda.apply_mat2(op.run_adjoint, op.qubit);
      continue;
    }
    const Gate& g = gates[static_cast<std::size_t>(op.gate)];
    const auto bound = bound_of(g);
    if (g.arity() == 1) {
      const Mat2 m = circuit::gate_matrix_1q(g.kind, bound);
      const Mat2 md = circuit::mat2_adjoint(m);
      psi.apply_mat2(md, g.qubits[0]);
      for (int slot = 0; slot < g.param_count(); ++slot) {
        const circuit::ParamExpr& pe =
            g.params[static_cast<std::size_t>(slot)];
        if (pe.is_constant()) continue;
        const Complex ip = bracket_1q(lambda, psi,
                                      d_matrix_1q(g.kind, bound, slot),
                                      g.qubits[0]);
        grad[static_cast<std::size_t>(pe.index)] +=
            2.0 * pe.coeff * ip.real();
      }
      lambda.apply_mat2(md, g.qubits[0]);
    } else {
      const Mat4 m = circuit::gate_matrix_2q(g.kind, bound);
      const Mat4 md = circuit::mat4_adjoint(m);
      psi.apply_mat4(md, g.qubits[0], g.qubits[1]);
      if (g.param_count() > 0 && !g.params[0].is_constant()) {
        const Complex ip = bracket_2q(lambda, psi, d_matrix_2q(g.kind, bound),
                                      g.qubits[0], g.qubits[1]);
        grad[static_cast<std::size_t>(g.params[0].index)] +=
            2.0 * g.params[0].coeff * ip.real();
      }
      lambda.apply_mat4(md, g.qubits[0], g.qubits[1]);
    }
  }

  if (noisy) {
    for (double& gv : grad) gv *= survival;
  }
  return grad;
}

void adjoint_gradient_z_bound(const ExecPlan& plan, int qubit, Workspace& ws,
                              double* z, double* grads) {
  const Workspace::Block& g = ws.block;
  if (g.plan_id != plan.plan_id() || !g.adjoint) {
    throw std::logic_error(
        "adjoint_gradient_z_bound: no block of this plan is bound with its "
        "adjoint companions");
  }
  const std::size_t batch = g.batch;
  const auto np = static_cast<std::size_t>(plan.num_params());
  const std::vector<AdjointOp>& stream = plan.adjoint_stream();
  AQ_COUNTER_ADD("sim.adjoint.calls", static_cast<std::uint64_t>(batch));
  AQ_COUNTER_ADD("sim.plan.adjoint.batched_calls", 1);
  AQ_COUNTER_ADD("sim.plan.adjoint.reverse_ops",
                 static_cast<std::uint64_t>(stream.size()));

  // Forward half: the block's fused forward, which leaves psi in
  // ws.state() and gives each column's <Z>.
  plan.expectation_z_bound(qubit, ws, z);

  // The kernel arm, resolved once for the reverse sweep.
  const kernels::KernelTable& kern = kernels::kernel_table();
  // A dynamic entry's matrices step by one column, unless it is uniform.
  const auto step = [&](const GateEntry& e) {
    return g.uniform[static_cast<std::size_t>(e.bound_index)] != 0
               ? std::size_t{0}
               : std::size_t{1};
  };
  const auto at = [&](const GateEntry& e) {
    return static_cast<std::size_t>(e.index) * batch;
  };
  const auto adjoint2 = [&](const GateEntry& e) -> BlockMats2 {
    return {g.adj1.data() + at(e), g.adj_shape1.data() + at(e), step(e)};
  };
  const auto adjoint4 = [&](const GateEntry& e) -> BlockMats4 {
    if (!e.dynamic) {
      return {&plan.table_mat4_adjoint(e.index),
              &plan.table_shape4_adjoint(e.index), 0};
    }
    return {g.adj2.data() + at(e), g.adj_shape2.data() + at(e), step(e)};
  };
  const auto deriv2 = [&](const GateEntry& e, const GateEntry::GradTerm& t) {
    const std::size_t d = static_cast<std::size_t>(t.dindex) * batch;
    return BlockMats2{g.d1.data() + d, g.d_shape1.data() + d, step(e)};
  };
  const auto deriv4 = [&](const GateEntry& e, const GateEntry::GradTerm& t) {
    const std::size_t d = static_cast<std::size_t>(t.dindex) * batch;
    return BlockMats4{g.d2.data() + d, g.d_shape2.data() + d, step(e)};
  };

  // Reverse half over the adjoint stream, psi and lambda = Z_qubit psi
  // in lockstep: every op one batched kernel call per register, every
  // bracket one per-column sum. Per column each step is the circuit
  // adjoint's step, so each column's gradient carries its bits.
  BatchedStatevector& psi = ws.state();
  BatchedStatevector& lam = ws.lambda();
  lam = psi;
  static const Mat2 kZ = circuit::gate_matrix_1q(GateKind::kZ, {});
  lam.apply_mat2_all(kern, kZ, kernels::classify(kZ), qubit);
  std::fill_n(grads, batch * np, 0.0);
  ws.brackets.resize(batch);
  Complex* const ip = ws.brackets.data();
  const std::size_t dim = psi.dim();
  auto accumulate = [&](const GateEntry::GradTerm& t) {
    for (std::size_t b = 0; b < batch; ++b) {
      grads[b * np + static_cast<std::size_t>(t.param_index)] +=
          2.0 * t.coeff * ip[b].real();
    }
  };
  const std::vector<GateEntry>& table = plan.gate_table();
  for (const AdjointOp& op : stream) {
    if (op.gate < 0) {
      const BlockMats2 md{&plan.run_adjoint(op.run),
                          &plan.run_adjoint_shape(op.run), 0};
      apply(kern, psi, md, op.qubit);
      apply(kern, lam, md, op.qubit);
      continue;
    }
    const GateEntry& e = table[static_cast<std::size_t>(op.gate)];
    if (e.arity == 1) {
      // A 1q entry in the stream is dynamic.
      const BlockMats2 md = adjoint2(e);
      if (e.grads.size() == 1 && md.all_diagonal(batch) &&
          deriv2(e, e.grads.front()).all_diagonal(batch)) {
        // RZ: the two applies and the bracket in one walk, same values.
        const BlockMats2 dm = deriv2(e, e.grads.front());
        kern.batched_adjoint_step_diag_1q(lam.row(0), psi.row(0), dim, batch,
                                          batch, md.mat, dm.mat, md.step,
                                          e.q0, ip);
        accumulate(e.grads.front());
        continue;
      }
      apply(kern, psi, md, e.q0);
      for (const GateEntry::GradTerm& t : e.grads) {
        const BlockMats2 dm = deriv2(e, t);
        for_each_diag_run(dm, batch, [&](std::size_t b0, std::size_t n,
                                         bool diag) {
          kern.batched_bracket_1q(lam.row(0) + b0, psi.row(0) + b0, dim,
                                  batch, n, dm.mat + b0 * dm.step, dm.step,
                                  diag, e.q0, ip + b0);
        });
        accumulate(t);
      }
      apply(kern, lam, md, e.q0);
    } else {
      const BlockMats4 md = adjoint4(e);
      apply(kern, psi, md, e.q0, e.q1);
      for (const GateEntry::GradTerm& t : e.grads) {
        const BlockMats4 dm = deriv4(e, t);
        for_each_diag_run(dm, batch, [&](std::size_t b0, std::size_t n,
                                         bool diag) {
          kern.batched_bracket_2q(lam.row(0) + b0, psi.row(0) + b0, dim,
                                  batch, n, dm.mat + b0 * dm.step, dm.step,
                                  diag, e.q0, e.q1, ip + b0);
        });
        accumulate(t);
      }
      apply(kern, lam, md, e.q0, e.q1);
    }
  }

  if (plan.noisy()) {
    for (std::size_t i = 0; i < batch * np; ++i) grads[i] *= plan.survival();
  }
}

}  // namespace arbiterq::sim
