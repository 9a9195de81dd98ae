#include "arbiterq/sim/exec_plan.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Complex;
using circuit::Gate;
using circuit::Mat2;
using circuit::Mat4;

constexpr Mat2 kIdentity2{Complex{1, 0}, Complex{0, 0}, Complex{0, 0},
                          Complex{1, 0}};

bool gate_is_static(const Gate& g) {
  for (int i = 0; i < g.param_count(); ++i) {
    if (!g.params[static_cast<std::size_t>(i)].is_constant()) return false;
  }
  return true;
}

/// Ids start at 1 so a zero-initialized Workspace stamp is always cold.
std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// SurvivalTable

SurvivalTable::SurvivalTable(std::span<const double> error) {
  cum_.reserve(error.size());
  double c = 1.0;
  for (std::size_t j = 0; j < error.size(); ++j) {
    const double p = error[j];
    cum_.push_back(c);
    if (p >= 1.0) {
      segments_.push_back({j + 1, 0.0});
      c = 1.0;
      continue;
    }
    const double keep = p > 0.0 ? 1.0 - p : 1.0;
    if (c * keep < kFloor) {
      // j opens a new segment. 1 - p >= 2^-53 is far above kFloor, so a
      // segment always holds at least one site.
      segments_.push_back({j, c});
      cum_.back() = 1.0;
      c = 1.0;
    }
    c *= keep;
  }
  if (cum_.size() > (segments_.empty() ? 0 : segments_.back().end)) {
    segments_.push_back({cum_.size(), c});
  }
}

// ---------------------------------------------------------------------------
// WorkspacePool

WorkspacePool::Lease WorkspacePool::acquire() {
  std::unique_ptr<Workspace> ws;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ws = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (ws == nullptr) ws = std::make_unique<Workspace>();
  return Lease(this, std::move(ws));
}

void WorkspacePool::release(std::unique_ptr<Workspace> ws) {
  const std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

// ---------------------------------------------------------------------------
// ExecPlan

ExecPlan::ExecPlan(const circuit::Circuit& c, const NoiseModel& noise)
    : num_qubits_(c.num_qubits()),
      num_params_(c.num_params()),
      noisy_(noise.enabled()),
      depth_(c.depth()),
      plan_id_(next_plan_id()) {
  AQ_TRACE_SPAN("sim.plan.compile");
  survival_ = noisy_ ? noise.survival_probability(c) : 1.0;

  // Angle spec of one gate, with the target qubit's coherent bias
  // captured so bind replays NoiseModel::biased_params exactly.
  auto make_spec = [&](const Gate& g) {
    FoldOp op;
    op.dynamic = !gate_is_static(g);
    op.kind = g.kind;
    op.param_count = g.param_count();
    op.params = g.params;
    if (noisy_ && noise.num_qubits() > 0 && g.param_count() > 0) {
      const int target = g.arity() == 1 ? g.qubits[0] : g.qubits[1];
      op.bias = noise.coherent_bias(target);
    }
    return op;
  };
  // Static gates have their matrix built once, here, by the same calls
  // the naive path makes per evaluation.
  auto static_bound = [&](const Gate& g) {
    std::array<double, 3> bound{{0.0, 0.0, 0.0}};
    for (int i = 0; i < g.param_count(); ++i) {
      bound[static_cast<std::size_t>(i)] =
          g.params[static_cast<std::size_t>(i)].offset;
    }
    if (noisy_ && noise.num_qubits() > 0 && g.param_count() > 0) {
      const int target = g.arity() == 1 ? g.qubits[0] : g.qubits[1];
      bound[0] += noise.coherent_bias(target);
    }
    return bound;
  };

  // Symbolic replay of run_biased's per-qubit 1q-run fusion. The prefix
  // fold below performs the identical mat2_multiply(m, acc) sequence
  // run_biased performs at evaluation time, so the pre-folded constants
  // are bitwise the matrices it would have applied.
  struct PendingRun {
    Mat2 prefix = kIdentity2;
    std::vector<FoldOp> tail;
    bool any = false;
    std::size_t static_count = 0;
  };
  std::vector<PendingRun> pending(static_cast<std::size_t>(num_qubits_));

  auto flush = [&](int q) {
    auto& run = pending[static_cast<std::size_t>(q)];
    if (!run.any) return;
    if (run.tail.empty()) {
      stream_.push_back({StreamOp::Kind::kConst1q, q, 0,
                         static_cast<int>(const1q_.size())});
      const1q_.push_back(run.prefix);
      const1q_shape_.push_back(kernels::classify(run.prefix));
    } else {
      stream_.push_back({StreamOp::Kind::kBound1q, q, 0,
                         static_cast<int>(bound1q_.size())});
      bound1q_.push_back({run.prefix, std::move(run.tail), q});
    }
    fused_gates_ += run.static_count;
    run = PendingRun{};
  };

  int n_dyn = 0;
  for (const Gate& g : c.gates()) {
    // Gate-table entry (per-gate view for adjoint/trajectory walks).
    GateEntry entry;
    entry.kind = g.kind;
    entry.q0 = g.qubits[0];
    entry.q1 = g.qubits[1];
    entry.arity = g.arity();
    entry.dynamic = !gate_is_static(g);
    entry.error = noisy_ ? noise.gate_error(g) : 0.0;
    if (entry.dynamic) {
      entry.spec = make_spec(g);
      entry.bound_index = n_dyn++;
      for (int slot = 0; slot < g.param_count(); ++slot) {
        const circuit::ParamExpr& pe = g.params[static_cast<std::size_t>(slot)];
        if (pe.is_constant()) continue;
        entry.grads.push_back({slot, pe.index, pe.coeff,
                               g.arity() == 1 ? n_grad1q_++ : n_grad2q_++});
      }
    }

    if (g.arity() == 1) {
      auto& run = pending[static_cast<std::size_t>(g.qubits[0])];
      run.any = true;
      if (entry.dynamic) {
        entry.index = n_dyn1q_++;
        run.tail.push_back(make_spec(g));
      } else {
        const Mat2 m = circuit::gate_matrix_1q(g.kind, static_bound(g));
        entry.index = static_cast<int>(table1q_.size());
        table1q_.push_back(m);
        table1q_adj_.push_back(circuit::mat2_adjoint(m));
        table1q_shape_.push_back(kernels::classify(m));
        table1q_adj_shape_.push_back(kernels::classify(table1q_adj_.back()));
        ++run.static_count;
        if (run.tail.empty()) {
          run.prefix = circuit::mat2_multiply(m, run.prefix);
        } else {
          FoldOp op;
          op.constant = m;
          run.tail.push_back(op);
        }
      }
    } else {
      flush(g.qubits[0]);
      flush(g.qubits[1]);
      if (entry.dynamic) {
        entry.index = n_dyn2q_++;
        stream_.push_back({StreamOp::Kind::kBound2q, g.qubits[0], g.qubits[1],
                           static_cast<int>(bound2q_.size())});
        bound2q_.push_back({make_spec(g)});
      } else {
        const Mat4 m = circuit::gate_matrix_2q(g.kind, static_bound(g));
        entry.index = static_cast<int>(table2q_.size());
        table2q_.push_back(m);
        table2q_adj_.push_back(circuit::mat4_adjoint(m));
        table2q_shape_.push_back(kernels::classify(m));
        table2q_adj_shape_.push_back(kernels::classify(table2q_adj_.back()));
        stream_.push_back(
            {StreamOp::Kind::kConst2q, g.qubits[0], g.qubits[1], entry.index});
        ++fused_gates_;
      }
    }
    // Noise sites: one per (gate with depolarizing error, involved
    // qubit), in gate order — the draw order of run_trajectory.
    if (entry.error > 0.0) {
      sites_.push_back({table_.size(), entry.q0, entry.error});
      if (entry.arity == 2) {
        sites_.push_back({table_.size(), entry.q1, entry.error});
      }
    }
    table_.push_back(std::move(entry));
  }
  for (int q = 0; q < num_qubits_; ++q) flush(q);
  n_dyn_ = n_dyn;
  std::vector<double> site_error;
  for (const NoiseSite& site : sites_) site_error.push_back(site.error);
  survival_table_ = SurvivalTable(site_error);

  AQ_COUNTER_ADD("sim.plan.builds", 1);
  AQ_COUNTER_ADD("sim.plan.gates", static_cast<std::uint64_t>(table_.size()));
  AQ_COUNTER_ADD("sim.plan.fused_gates",
                 static_cast<std::uint64_t>(fused_gates_));
  AQ_COUNTER_ADD("sim.plan.stream_ops",
                 static_cast<std::uint64_t>(stream_.size()));
}

void ExecPlan::check_params(std::span<const double> params) const {
  if (static_cast<int>(params.size()) < num_params_) {
    throw std::invalid_argument("ExecPlan: params too short");
  }
}

double ExecPlan::expectation_z(std::span<const double> params, int qubit,
                               Workspace& ws) const {
  check_params(params);
  double z = 0.0;
  expectation_z_batched(params.data(), static_cast<std::size_t>(num_params_),
                        1, qubit, ws, &z);
  return z;
}

void ExecPlan::bind_gates_forward(std::span<const double> params,
                                  Workspace& ws) const {
  check_params(params);
  // dyn_bound doubles as the memo: an entry whose angles are unchanged
  // since the previous bind on this workspace keeps its matrix and shape
  // (same inputs, so the retained matrix is bit-exact).
  const bool warm = ws.gates_plan_id == plan_id_;
  if (!warm) {
    ws.dyn1q.resize(static_cast<std::size_t>(n_dyn1q_));
    ws.dyn2q.resize(static_cast<std::size_t>(n_dyn2q_));
    ws.dyn1q_shape.resize(static_cast<std::size_t>(n_dyn1q_));
    ws.dyn2q_shape.resize(static_cast<std::size_t>(n_dyn2q_));
    ws.dyn_bound.resize(static_cast<std::size_t>(n_dyn_));
    ws.gates_plan_id = plan_id_;
  }
  std::uint64_t hits = 0;
  for (const GateEntry& e : table_) {
    if (!e.dynamic) continue;
    const auto idx = static_cast<std::size_t>(e.index);
    const auto bound = e.spec.bound(params, noisy_);
    auto& memo = ws.dyn_bound[static_cast<std::size_t>(e.bound_index)];
    if (warm && bound == memo) {
      ++hits;
      continue;
    }
    memo = bound;
    if (e.arity == 1) {
      ws.dyn1q[idx] = circuit::gate_matrix_1q(e.kind, bound);
      ws.dyn1q_shape[idx] = kernels::classify(ws.dyn1q[idx]);
    } else {
      ws.dyn2q[idx] = circuit::gate_matrix_2q(e.kind, bound);
      ws.dyn2q_shape[idx] = kernels::classify(ws.dyn2q[idx]);
    }
  }
  AQ_COUNTER_ADD("sim.plan.bind.memo_hits", hits);
}

}  // namespace arbiterq::sim
