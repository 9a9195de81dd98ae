#include "arbiterq/sim/statevector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "arbiterq/sim/kernels.hpp"
#include "arbiterq/telemetry/metrics.hpp"

namespace arbiterq::sim {

namespace {

/// Minimum items per pool task for the kernels: below this, memory
/// bandwidth beats dispatch and the stride loop runs inline.
constexpr std::size_t kKernelGrain = std::size_t{1} << 12;

}  // namespace

template <typename Body>
void Statevector::dispatch(std::size_t items, const Body& body) {
  exec::ExecPolicy p = exec_;
  if (p.grain == 0) p.grain = kKernelGrain;
  exec::parallel_for(p, 0, items, body);
}

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits <= 0 || num_qubits > kMaxQubits) {
    throw std::invalid_argument(
        "Statevector: unsupported qubit count " + std::to_string(num_qubits) +
        " (supported: 1.." + std::to_string(kMaxQubits) + ")");
  }
  amps_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
  amps_[0] = 1.0;
  assert(reinterpret_cast<std::uintptr_t>(amps_.data()) % kAmpAlignment == 0 &&
         "amplitude storage must honor kAmpAlignment");
}

void Statevector::reset() {
  std::fill(amps_.begin(), amps_.end(), Complex{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::apply_mat2(const circuit::Mat2& m, int q) {
  AQ_COUNTER_ADD("sim.apply.gate1q", 1);
  const std::size_t n = amps_.size();
  Complex* const amps = amps_.data();
  // The arm in force now; each application resolves it afresh.
  const kernels::KernelTable& k = kernels::kernel_table();
  // Diagonal fast path (RZ/S/Z...): pure per-amplitude phases, no
  // butterfly — these dominate basis-gate streams after transpilation.
  if (kernels::classify(m).shape == kernels::Shape::kDiagonal) {
    const Complex d[2] = {m[0], m[3]};
    const std::size_t bit = std::size_t{1} << q;
    dispatch(n, [=, &k](std::size_t lo, std::size_t hi) {
      k.apply_diag_range(amps, d, 0, bit, lo, hi);
    });
    return;
  }
  dispatch(n >> 1, [=, &k, &m](std::size_t lo, std::size_t hi) {
    k.apply_mat2_range(amps, m, q, lo, hi);
  });
}

void Statevector::apply_mat4(const circuit::Mat4& m, int qb, int qa) {
  AQ_COUNTER_ADD("sim.apply.gate2q", 1);
  const std::size_t n = amps_.size();
  Complex* const amps = amps_.data();
  const kernels::KernelTable& k = kernels::kernel_table();
  const auto shape = kernels::classify(m);
  // Diagonal fast path (CZ/CRZ/CPhase): one multiply per amplitude,
  // selected by the two qubit bits — no butterfly gathering at all.
  if (shape.shape == kernels::Shape::kDiagonal) {
    const Complex d[4] = {m[0], m[5], m[10], m[15]};
    const std::size_t bit_b = std::size_t{1} << qb;
    const std::size_t bit_a = std::size_t{1} << qa;
    dispatch(n, [=, &k](std::size_t lo, std::size_t hi) {
      k.apply_diag_range(amps, d, bit_b, bit_a, lo, hi);
    });
    return;
  }
  // Permutation fast path (CX/SWAP): amplitude moves only.
  if (shape.shape == kernels::Shape::kPermutation) {
    dispatch(n >> 2, [=](std::size_t lo, std::size_t hi) {
      kernels::apply_perm4_range(amps, shape.src, qb, qa, lo, hi);
    });
    return;
  }
  dispatch(n >> 2, [=, &k, &m](std::size_t lo, std::size_t hi) {
    k.apply_mat4_range(amps, m, qb, qa, lo, hi);
  });
}

void Statevector::apply_gate(const circuit::Gate& g,
                             std::span<const double> params) {
  const auto bound = g.bound_params(params);
  if (g.arity() == 1) {
    apply_mat2(circuit::gate_matrix_1q(g.kind, bound), g.qubits[0]);
  } else {
    apply_mat4(circuit::gate_matrix_2q(g.kind, bound), g.qubits[0],
               g.qubits[1]);
  }
}

void Statevector::apply_pauli(int pauli, int q) {
  switch (pauli) {
    case 1:
      apply_mat2(circuit::gate_matrix_1q(circuit::GateKind::kX, {}), q);
      break;
    case 2:
      apply_mat2(circuit::gate_matrix_1q(circuit::GateKind::kY, {}), q);
      break;
    case 3:
      apply_mat2(circuit::gate_matrix_1q(circuit::GateKind::kZ, {}), q);
      break;
    default:
      throw std::invalid_argument("apply_pauli: pauli must be 1, 2 or 3");
  }
}

// The reductions below stay serial on purpose: a chunked sum would change
// the floating-point association and break the bit-for-bit determinism
// contract across thread counts (see DESIGN.md, execution engine).

double Statevector::probability_of_one(int q) const {
  const std::size_t bit = std::size_t{1} << q;
  double p = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    if (i & bit) p += std::norm(amps_[i]);
  }
  return p;
}

double Statevector::expectation_z(int q) const {
  return 1.0 - 2.0 * probability_of_one(q);
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> p(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) p[i] = std::norm(amps_[i]);
  return p;
}

std::size_t Statevector::sample(math::Rng& rng) const {
  double r = rng.uniform();
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    r -= std::norm(amps_[i]);
    if (r <= 0.0) return i;
  }
  return amps_.size() - 1;  // numerical slack: land on the last state
}

std::vector<std::size_t> Statevector::sample_many(std::size_t count,
                                                  math::Rng& rng) const {
  std::vector<std::size_t> out;
  out.reserve(count);
  if (count == 0) return out;
  // Cumulative Born distribution, built once per call (gate application
  // would invalidate any longer-lived cache).
  std::vector<double> cum(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    cum[i] = acc;
  }
  for (std::size_t s = 0; s < count; ++s) {
    const double r = rng.uniform();
    const auto it = std::lower_bound(cum.begin(), cum.end(), r);
    out.push_back(it == cum.end()
                      ? amps_.size() - 1  // numerical slack, as in sample()
                      : static_cast<std::size_t>(it - cum.begin()));
  }
  return out;
}

double Statevector::norm() const {
  double s = 0.0;
  for (const Complex& a : amps_) s += std::norm(a);
  return std::sqrt(s);
}

}  // namespace arbiterq::sim
