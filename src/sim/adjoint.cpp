#include "arbiterq/sim/adjoint.hpp"

#include <cmath>
#include <stdexcept>

#include "arbiterq/circuit/unitary.hpp"
#include "arbiterq/sim/batched.hpp"
#include "arbiterq/sim/kernels.hpp"
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
// live in kernels.cpp so the naive and plan-based gradients below go
// through the same dispatch arm and stay mutually bit-identical in
// every mode (scalar, AVX2 strict, AVX2+FMA fast).

/// <lambda| M |psi> over whole registers.
Complex bracket_1q(const Statevector& lambda, const Statevector& psi,
                   const Mat2& m, int q) {
  return kernels::bracket_1q(lambda.amplitudes().data(),
                             psi.amplitudes().data(), psi.dim(), m, q);
}

Complex bracket_2q(const Statevector& lambda, const Statevector& psi,
                   const Mat4& m, int qb, int qa) {
  return kernels::bracket_2q(lambda.amplitudes().data(),
                             psi.amplitudes().data(), psi.dim(), m, qb, qa);
}

bool is_diagonal(const Mat2& m) noexcept {
  return kernels::classify(m).shape == kernels::Shape::kDiagonal;
}

/// The reverse half of the plan adjoint: psi holds U|0>, ws holds the
/// matrices bind_gates built for this binding. Writes num_params
/// gradient entries to `grad`. Shared by the unbatched and batched
/// entry points so their per-sample arithmetic is the same code.
void reverse_sweep(const ExecPlan& plan, Workspace& ws, Statevector& psi,
                   int qubit, double* grad) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  const exec::ExecPolicy serial{};
  Statevector& lambda = ws.lambda(plan.num_qubits(), serial);
  lambda = psi;
  lambda.apply_pauli(3, qubit);

  for (std::size_t i = 0; i < np; ++i) grad[i] = 0.0;

  const std::vector<GateEntry>& table = plan.gate_table();
  for (std::size_t k = table.size(); k-- > 0;) {
    const GateEntry& e = table[k];
    if (e.arity == 1) {
      const Mat2& md = e.dynamic
                           ? ws.dyn1q_adj[static_cast<std::size_t>(e.index)]
                           : plan.table_mat2_adjoint(e.index);
      if (e.grads.size() == 1 && is_diagonal(md) &&
          is_diagonal(ws.dgrad1q[static_cast<std::size_t>(
              e.grads.front().dindex)])) {
        // RZ: the two applies and the bracket in one walk, same values.
        const GateEntry::GradTerm& t = e.grads.front();
        AQ_COUNTER_ADD("sim.apply.gate1q", 2);
        const Complex ip = kernels::adjoint_step_diag_1q(
            lambda.data(), psi.data(), psi.dim(), md,
            ws.dgrad1q[static_cast<std::size_t>(t.dindex)], e.q0);
        grad[static_cast<std::size_t>(t.param_index)] +=
            2.0 * t.coeff * ip.real();
        continue;
      }
      psi.apply_mat2(md, e.q0);
      for (const GateEntry::GradTerm& t : e.grads) {
        const Complex ip = bracket_1q(
            lambda, psi, ws.dgrad1q[static_cast<std::size_t>(t.dindex)], e.q0);
        grad[static_cast<std::size_t>(t.param_index)] +=
            2.0 * t.coeff * ip.real();
      }
      lambda.apply_mat2(md, e.q0);
    } else {
      const Mat4& md = e.dynamic
                           ? ws.dyn2q_adj[static_cast<std::size_t>(e.index)]
                           : plan.table_mat4_adjoint(e.index);
      psi.apply_mat4(md, e.q0, e.q1);
      for (const GateEntry::GradTerm& t : e.grads) {
        const Complex ip = bracket_2q(
            lambda, psi, ws.dgrad2q[static_cast<std::size_t>(t.dindex)], e.q0,
            e.q1);
        grad[static_cast<std::size_t>(t.param_index)] +=
            2.0 * t.coeff * ip.real();
      }
      lambda.apply_mat4(md, e.q0, e.q1);
    }
  }

  if (plan.noisy()) {
    for (std::size_t i = 0; i < np; ++i) grad[i] *= plan.survival();
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

  // Forward pass.
  Statevector psi(c.num_qubits());
  for (const Gate& g : c.gates()) {
    const auto bound = bound_of(g);
    if (g.arity() == 1) {
      psi.apply_mat2(circuit::gate_matrix_1q(g.kind, bound), g.qubits[0]);
    } else {
      psi.apply_mat4(circuit::gate_matrix_2q(g.kind, bound), g.qubits[0],
                     g.qubits[1]);
    }
  }

  // lambda = Z_qubit psi.
  Statevector lambda = psi;
  lambda.apply_pauli(3, qubit);

  std::vector<double> grad(static_cast<std::size_t>(c.num_params()), 0.0);

  const auto& gates = c.gates();
  for (std::size_t k = gates.size(); k-- > 0;) {
    const Gate& g = gates[k];
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

void adjoint_gradient_z(const ExecPlan& plan, std::span<const double> params,
                        int qubit, Workspace& ws, std::span<double> grad) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  if (params.size() < np) {
    throw std::invalid_argument("adjoint_gradient_z: params too short");
  }
  if (grad.size() < np) {
    throw std::invalid_argument("adjoint_gradient_z: grad span too short");
  }
  AQ_COUNTER_ADD("sim.adjoint.calls", 1);
  AQ_COUNTER_ADD("sim.plan.adjoint.calls", 1);
  plan.bind_gates(params, ws);

  // The naive path evolves default-policy (serial) registers — the
  // per-sample fan-out above this layer is the parallel axis — so the
  // plan path does the same.
  const exec::ExecPolicy serial{};
  Statevector& psi = ws.state(plan.num_qubits(), serial);
  const std::vector<GateEntry>& table = plan.gate_table();
  for (const GateEntry& e : table) {
    if (e.arity == 1) {
      psi.apply_mat2(e.dynamic ? ws.dyn1q[static_cast<std::size_t>(e.index)]
                               : plan.table_mat2(e.index),
                     e.q0);
    } else {
      psi.apply_mat4(e.dynamic ? ws.dyn2q[static_cast<std::size_t>(e.index)]
                               : plan.table_mat4(e.index),
                     e.q0, e.q1);
    }
  }

  reverse_sweep(plan, ws, psi, qubit, grad.data());
}

void adjoint_gradient_z_batched(const ExecPlan& plan, const double* params,
                                std::size_t stride, std::size_t batch,
                                int qubit, BatchedWorkspace& ws,
                                double* grads) {
  const auto np = static_cast<std::size_t>(plan.num_params());
  if (stride < np) {
    throw std::invalid_argument("adjoint_gradient_z_batched: stride < params");
  }
  if (batch == 0) return;
  AQ_COUNTER_ADD("sim.adjoint.calls", static_cast<std::uint64_t>(batch));
  AQ_COUNTER_ADD("sim.plan.adjoint.batched_calls", 1);

  // One gate-table binding per column. Each column keeps its own
  // workspace so the angle memo sees a consistent sample stream and the
  // weight gates skip their trig rebuild after warm-up, as unbatched.
  if (ws.col_gates.size() < batch) {
    ws.col_gates.reserve(batch);
    while (ws.col_gates.size() < batch) {
      ws.col_gates.push_back(std::make_unique<Workspace>());
    }
  }
  for (std::size_t b = 0; b < batch; ++b) {
    plan.bind_gates(std::span<const double>(params + b * stride, np),
                    *ws.col_gates[b]);
  }

  // Batched forward over the unfused gate table: static entries
  // broadcast one matrix across the block, dynamic entries gather each
  // column's bound matrix — unless every column bound the same angles
  // (weight gates), which takes the broadcast kernel too.
  BatchedStatevector& st = ws.state();
  st.configure(plan.num_qubits(), batch);
  const std::vector<GateEntry>& table = plan.gate_table();
  for (const GateEntry& e : table) {
    bool uniform = !e.dynamic;
    if (e.dynamic) {
      const auto bi = static_cast<std::size_t>(e.bound_index);
      uniform = true;
      for (std::size_t b = 1; b < batch; ++b) {
        if (ws.col_gates[b]->dyn_bound[bi] != ws.col_gates[0]->dyn_bound[bi]) {
          uniform = false;
          break;
        }
      }
    }
    const auto ei = static_cast<std::size_t>(e.index);
    if (e.arity == 1) {
      if (uniform) {
        st.apply_mat2_all(
            e.dynamic ? ws.col_gates[0]->dyn1q[ei] : plan.table_mat2(e.index),
            e.q0);
      } else {
        if (ws.mat2_scratch.size() < batch) ws.mat2_scratch.resize(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          ws.mat2_scratch[b] = ws.col_gates[b]->dyn1q[ei];
        }
        st.apply_mat2_each(ws.mat2_scratch.data(), e.q0);
      }
    } else {
      if (uniform) {
        st.apply_mat4_all(
            e.dynamic ? ws.col_gates[0]->dyn2q[ei] : plan.table_mat4(e.index),
            e.q0, e.q1);
      } else {
        if (ws.mat4_scratch.size() < batch) ws.mat4_scratch.resize(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          ws.mat4_scratch[b] = ws.col_gates[b]->dyn2q[ei];
        }
        st.apply_mat4_each(ws.mat4_scratch.data(), e.q0, e.q1);
      }
    }
  }

  // Reverse half per column: peel the column into that column's
  // unbatched register and run the shared sweep against its matrices.
  const exec::ExecPolicy serial{};
  for (std::size_t b = 0; b < batch; ++b) {
    Workspace& cw = *ws.col_gates[b];
    Statevector& psi = cw.state(plan.num_qubits(), serial);
    psi.load_strided(st.row(0) + b, batch);
    reverse_sweep(plan, cw, psi, qubit, grads + b * np);
  }
}

std::vector<double> adjoint_gradient_z(const ExecPlan& plan,
                                       std::span<const double> params,
                                       int qubit, Workspace& ws) {
  std::vector<double> grad(static_cast<std::size_t>(plan.num_params()), 0.0);
  adjoint_gradient_z(plan, params, qubit, ws, grad);
  return grad;
}

}  // namespace arbiterq::sim
