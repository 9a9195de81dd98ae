#include "arbiterq/sim/noise_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "arbiterq/circuit/circuit.hpp"

namespace arbiterq::sim {

NoiseModel::NoiseModel(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits <= 0) {
    throw std::invalid_argument("NoiseModel: qubit count must be positive");
  }
  const auto n = static_cast<std::size_t>(num_qubits);
  p1_.assign(n, 0.0);
  p2_.assign(n * n, 0.0);
  bias_.assign(n, 0.0);
  read01_.assign(n, 0.0);
  read10_.assign(n, 0.0);
}

void NoiseModel::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("NoiseModel: qubit index out of range");
  }
}

namespace {
// Written so NaN fails too: every comparison with NaN is false.
void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(what) + ": not a probability");
  }
}
}  // namespace

void NoiseModel::set_depolarizing_1q(int q, double p) {
  check_qubit(q);
  check_probability(p, "set_depolarizing_1q");
  p1_[static_cast<std::size_t>(q)] = p;
  if (p > 0.0) enabled_ = true;
}

void NoiseModel::set_depolarizing_2q(int a, int b, double p) {
  check_qubit(a);
  check_qubit(b);
  check_probability(p, "set_depolarizing_2q");
  const auto n = static_cast<std::size_t>(num_qubits_);
  p2_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)] = p;
  p2_[static_cast<std::size_t>(b) * n + static_cast<std::size_t>(a)] = p;
  if (p > 0.0) enabled_ = true;
}

void NoiseModel::set_coherent_bias(int q, double radians) {
  check_qubit(q);
  if (!std::isfinite(radians)) {
    throw std::invalid_argument("set_coherent_bias: bias must be finite");
  }
  bias_[static_cast<std::size_t>(q)] = radians;
  if (radians != 0.0) enabled_ = true;
}

void NoiseModel::set_readout_error(int q, double p0_to_1, double p1_to_0) {
  check_qubit(q);
  check_probability(p0_to_1, "set_readout_error");
  check_probability(p1_to_0, "set_readout_error");
  read01_[static_cast<std::size_t>(q)] = p0_to_1;
  read10_[static_cast<std::size_t>(q)] = p1_to_0;
  if (p0_to_1 > 0.0 || p1_to_0 > 0.0) enabled_ = true;
}

double NoiseModel::depolarizing_1q(int q) const {
  check_qubit(q);
  return p1_[static_cast<std::size_t>(q)];
}

double NoiseModel::depolarizing_2q(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  const auto n = static_cast<std::size_t>(num_qubits_);
  return p2_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
}

double NoiseModel::coherent_bias(int q) const {
  check_qubit(q);
  return bias_[static_cast<std::size_t>(q)];
}

double NoiseModel::readout_p01(int q) const {
  check_qubit(q);
  return read01_[static_cast<std::size_t>(q)];
}

double NoiseModel::readout_p10(int q) const {
  check_qubit(q);
  return read10_[static_cast<std::size_t>(q)];
}

double NoiseModel::gate_error(const circuit::Gate& g) const {
  if (num_qubits_ == 0) return 0.0;
  if (g.arity() == 1) {
    if (g.kind == circuit::GateKind::kI) return 0.0;
    return depolarizing_1q(g.qubits[0]);
  }
  return depolarizing_2q(g.qubits[0], g.qubits[1]);
}

std::array<double, 3> NoiseModel::biased_params(
    const circuit::Gate& g, std::span<const double> params) const {
  std::array<double, 3> bound = g.bound_params(params);
  if (num_qubits_ == 0 || g.param_count() == 0) return bound;
  // The rotation axis lives on the target qubit: qubits[0] for 1q gates,
  // qubits[1] for controlled rotations. Only the polar angle (first
  // parameter) picks up the calibration offset.
  const int target = g.arity() == 1 ? g.qubits[0] : g.qubits[1];
  bound[0] += coherent_bias(target);
  return bound;
}

double NoiseModel::survival_probability(const circuit::Circuit& c) const {
  double f = 1.0;
  if (num_qubits_ == 0) return f;
  for (const circuit::Gate& g : c.gates()) f *= 1.0 - gate_error(g);
  return f;
}

}  // namespace arbiterq::sim
