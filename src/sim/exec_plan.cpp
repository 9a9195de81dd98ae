#include "arbiterq/sim/exec_plan.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::sim {

namespace {

using circuit::Complex;
using circuit::Gate;
using circuit::GateKind;
using circuit::GateTrig;
using circuit::Mat2;
using circuit::Mat4;
using kernels::MatShape;

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

// The matrix builders of one arity, under one name for bind_entry.
Mat2 build(GateKind kind, const GateTrig& t, const Mat2*) {
  return circuit::gate_matrix_1q_of(kind, t);
}
Mat4 build(GateKind kind, const GateTrig& t, const Mat4*) {
  return circuit::gate_matrix_2q_of(kind, t);
}
Mat2 adjoint_of(const Mat2& m) { return circuit::mat2_adjoint(m); }
Mat4 adjoint_of(const Mat4& m) { return circuit::mat4_adjoint(m); }
Mat2 derivative(GateKind kind, const GateTrig& t, int slot, const Mat2*) {
  return circuit::d_gate_matrix_1q_of(kind, t, slot);
}
Mat4 derivative(GateKind kind, const GateTrig& t, int, const Mat4*) {
  return circuit::d_gate_matrix_2q_of(kind, t);
}

/// Sorts `v` and drops repeats.
void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Whether bindings `cur` and `prev` agree on every parameter in
/// `reads` (by ==, so NaN never agrees).
bool agree(const std::vector<int>& reads, const double* cur,
           const double* prev) {
  bool same = true;
  for (const int r : reads) {
    const auto p = static_cast<std::size_t>(r);
    same = same && cur[p] == prev[p];
  }
  return same;
}

/// One arity's per-column arrays of a bound block (Workspace::Block).
template <class M, class S>
struct EntryArrays {
  M* m;
  S* shape;
  M* adj;
  S* adj_shape;
  M* d;
  S* d_shape;
};

/// Dynamic entry e's matrices for columns [0, n) of a block of `batch`
/// bindings (column b's at params + b * stride): the forward matrix, its
/// shape when `shapes`, and with `adjoint` its adjoint, derivatives and
/// their shapes. A column that agrees with its predecessor on e.reads
/// copies them; the others bind e's angles and evaluate its
/// transcendentals once for all of its matrices. Returns the number of
/// evaluations.
template <class M, class S>
std::uint64_t bind_entry(const GateEntry& e, const double* params,
                         std::size_t stride, std::size_t np, bool noisy,
                         std::size_t n, std::size_t batch, bool shapes,
                         bool adjoint, const EntryArrays<M, S>& a) {
  const std::size_t at = static_cast<std::size_t>(e.index) * batch;
  std::uint64_t builds = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t i = at + b;
    const double* const col = params + b * stride;
    if (b > 0 && agree(e.reads, col, col - stride)) {
      a.m[i] = a.m[i - 1];
      if (shapes) a.shape[i] = a.shape[i - 1];
      if (!adjoint) continue;
      a.adj[i] = a.adj[i - 1];
      a.adj_shape[i] = a.adj_shape[i - 1];
      for (const GateEntry::GradTerm& term : e.grads) {
        const std::size_t d = static_cast<std::size_t>(term.dindex) * batch + b;
        a.d[d] = a.d[d - 1];
        a.d_shape[d] = a.d_shape[d - 1];
      }
      continue;
    }
    ++builds;
    const GateTrig t = circuit::gate_trig(
        e.kind, e.spec.bound(std::span<const double>(col, np), noisy));
    a.m[i] = build(e.kind, t, a.m);
    if (shapes) a.shape[i] = kernels::classify(a.m[i]);
    if (!adjoint) continue;
    a.adj[i] = adjoint_of(a.m[i]);
    a.adj_shape[i] = kernels::classify(a.adj[i]);
    for (const GateEntry::GradTerm& term : e.grads) {
      const std::size_t d = static_cast<std::size_t>(term.dindex) * batch + b;
      a.d[d] = derivative(e.kind, t, term.slot, a.d);
      a.d_shape[d] = kernels::classify(a.d[d]);
    }
  }
  return builds;
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
    AngleSpec spec;
    spec.param_count = g.param_count();
    spec.params = g.params;
    if (noisy_ && noise.num_qubits() > 0 && g.param_count() > 0) {
      const int target = g.arity() == 1 ? g.qubits[0] : g.qubits[1];
      spec.bias = noise.coherent_bias(target);
    }
    return spec;
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
    std::vector<int> reads;
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
      sort_unique(run.reads);
      bound1q_.push_back(
          {run.prefix, std::move(run.tail), std::move(run.reads), q});
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
        entry.reads.push_back(pe.index);
      }
      sort_unique(entry.reads);
    }

    if (g.arity() == 1) {
      auto& run = pending[static_cast<std::size_t>(g.qubits[0])];
      run.any = true;
      if (entry.dynamic) {
        entry.index = n_dyn1q_++;
        run.tail.push_back({static_cast<int>(table_.size()), {}});
        run.reads.insert(run.reads.end(), entry.reads.begin(),
                         entry.reads.end());
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
          run.tail.push_back({-1, m});
        }
      }
    } else {
      flush(g.qubits[0]);
      flush(g.qubits[1]);
      if (entry.dynamic) {
        entry.index = n_dyn2q_++;
        stream_.push_back({StreamOp::Kind::kBound2q, g.qubits[0], g.qubits[1],
                           static_cast<int>(table_.size())});
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
  bind_block(params.data(), static_cast<std::size_t>(num_params_), 1, ws);
  expectation_z_bound(qubit, ws, &z);
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

void ExecPlan::bind_block(const double* params, std::size_t stride,
                          std::size_t batch, Workspace& ws,
                          bool adjoint) const {
  if (batch == 0) {
    throw std::invalid_argument("bind_block: batch must be > 0");
  }
  if (stride < static_cast<std::size_t>(num_params_)) {
    throw std::invalid_argument("bind_block: stride < num_params");
  }
  AQ_COUNTER_ADD("sim.plan.batched_binds", 1);
  Workspace::Block& k = ws.block;
  if (k.plan_id != plan_id_ || k.batch != batch) {
    // Grow only: a workspace that alternates block widths (a training
    // gradient's batch, then a test-set loss) re-sizes without
    // re-initializing its arrays on every call.
    const auto grow = [](auto& v, auto n) {
      if (v.size() < static_cast<std::size_t>(n)) {
        v.resize(static_cast<std::size_t>(n));
      }
    };
    const auto cols = [batch](auto n) {
      return static_cast<std::size_t>(n) * batch;
    };
    grow(k.uniform, n_dyn_);
    grow(k.m1, cols(n_dyn1q_));
    grow(k.shape1, cols(n_dyn1q_));
    grow(k.adj1, cols(n_dyn1q_));
    grow(k.adj_shape1, cols(n_dyn1q_));
    grow(k.m2, cols(n_dyn2q_));
    grow(k.shape2, cols(n_dyn2q_));
    grow(k.adj2, cols(n_dyn2q_));
    grow(k.adj_shape2, cols(n_dyn2q_));
    grow(k.d1, cols(n_grad1q_));
    grow(k.d_shape1, cols(n_grad1q_));
    grow(k.d2, cols(n_grad2q_));
    grow(k.d_shape2, cols(n_grad2q_));
    grow(k.fused, cols(bound1q_.size()));
    grow(k.fused_shape, cols(bound1q_.size()));
    grow(k.fused_uniform, bound1q_.size());
    grow(k.fresh, batch);
    k.plan_id = plan_id_;
    k.batch = batch;
  }
  k.adjoint = adjoint;

  // Dynamic gates: angles and matrices once per run of columns that
  // agree on the gate's parameters. The fused slots read the 1q forward
  // matrices as fold factors, run_bound the 2q ones and their shapes.
  const auto np = static_cast<std::size_t>(num_params_);
  const EntryArrays<Mat2, MatShape<2>> a1{
      k.m1.data(), k.shape1.data(), k.adj1.data(),
      k.adj_shape1.data(), k.d1.data(), k.d_shape1.data()};
  const EntryArrays<Mat4, MatShape<4>> a2{
      k.m2.data(), k.shape2.data(), k.adj2.data(),
      k.adj_shape2.data(), k.d2.data(), k.d_shape2.data()};
  std::uint64_t builds = 0;
  for (const GateEntry& e : table_) {
    if (!e.dynamic) continue;
    bool uniform = true;
    for (std::size_t b = 1; b < batch && uniform; ++b) {
      const double* const col = params + b * stride;
      uniform = agree(e.reads, col, col - stride);
    }
    k.uniform[static_cast<std::size_t>(e.bound_index)] = uniform ? 1 : 0;
    const std::size_t n = uniform ? 1 : batch;
    builds += e.arity == 1 ? bind_entry(e, params, stride, np, noisy_, n,
                                        batch, adjoint, adjoint, a1)
                           : bind_entry(e, params, stride, np, noisy_, n,
                                        batch, true, adjoint, a2);
  }

  // Fused 1q slots: run_biased's fold per fresh column, the fresh
  // columns stepped together; every other column copies its
  // predecessor's matrix.
  const kernels::KernelTable& kern = kernels::kernel_table();
  std::uint32_t* const fresh = k.fresh.data();
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < bound1q_.size(); ++i) {
    const Bound1qSlot& slot = bound1q_[i];
    std::size_t nf = 1;
    fresh[0] = 0;
    for (std::size_t b = 1; b < batch; ++b) {
      const double* const col = params + b * stride;
      fresh[nf] = static_cast<std::uint32_t>(b);
      nf += agree(slot.reads, col, col - stride) ? 0 : 1;
    }
    folded += nf;
    Mat2* const out = k.fused.data() + i * batch;
    MatShape<2>* const shape = k.fused_shape.data() + i * batch;
    for (std::size_t f = 0; f < nf; ++f) out[fresh[f]] = slot.prefix;
    for (const FoldOp& op : slot.tail) {
      if (op.gate < 0) {
        kern.fold_mat2(out, &op.constant, 0, fresh, nf);
        continue;
      }
      const GateEntry& e = table_[static_cast<std::size_t>(op.gate)];
      const bool shared = k.uniform[static_cast<std::size_t>(e.bound_index)];
      kern.fold_mat2(out,
                     k.m1.data() + static_cast<std::size_t>(e.index) * batch,
                     shared ? 0 : 1, fresh, nf);
    }
    k.fused_uniform[i] = nf == 1 ? 1 : 0;
    for (std::size_t b = 0, f = 0; b < (nf == 1 ? 1 : batch); ++b) {
      if (f < nf && fresh[f] == b) {
        shape[b] = kernels::classify(out[b]);
        ++f;
      } else {
        out[b] = out[b - 1];
        shape[b] = shape[b - 1];
      }
    }
  }
  AQ_COUNTER_ADD("sim.plan.bind.matrix_builds", builds);
  AQ_COUNTER_ADD("sim.plan.bind.fold_columns", folded);
}

}  // namespace arbiterq::sim
