#pragma once
// Device-level noise description consumed by the simulators.
//
// Three effects, mirroring what makes heterogeneous QPUs *behave*
// differently in the paper:
//  * stochastic gate errors  — a depolarizing probability after every 1q
//    gate (per qubit) and 2q gate (per edge), derived from the device's
//    reported infidelities and T1/T2 via e = 1 - exp(-t/tau)*f (§III-A);
//  * coherent calibration errors — a deterministic per-qubit angle offset
//    added to every rotation. This is what shifts each device's *optimal*
//    weights, the phenomenon personalized models exploit (Fig. 2a);
//  * readout errors — classical bit-flip probabilities at measurement.

#include <vector>

#include "arbiterq/circuit/circuit.hpp"

namespace arbiterq::sim {

class NoiseModel {
 public:
  /// Noiseless model (enabled() == false until something is set).
  NoiseModel() = default;
  explicit NoiseModel(int num_qubits);

  int num_qubits() const noexcept { return num_qubits_; }
  bool enabled() const noexcept { return enabled_; }

  /// Setters throw std::out_of_range for a bad qubit and
  /// std::invalid_argument for a probability outside [0, 1] or a
  /// non-finite bias (NaN included).
  void set_depolarizing_1q(int q, double p);
  void set_depolarizing_2q(int a, int b, double p);
  void set_coherent_bias(int q, double radians);
  void set_readout_error(int q, double p0_to_1, double p1_to_0);

  double depolarizing_1q(int q) const;
  double depolarizing_2q(int a, int b) const;
  double coherent_bias(int q) const;
  double readout_p01(int q) const;  ///< P(read 1 | true 0)
  double readout_p10(int q) const;  ///< P(read 0 | true 1)

  /// Depolarizing probability triggered by this gate (0 for 1q identity).
  double gate_error(const circuit::Gate& g) const;

  /// Copy of `g` with the coherent per-qubit bias folded into its bound
  /// rotation angles (returns the bound parameter array to use).
  std::array<double, 3> biased_params(const circuit::Gate& g,
                                      std::span<const double> params) const;

  /// Product over all gates of (1 - gate_error): the survival probability
  /// that no stochastic error fired — used by the fast exact executor as
  /// the expectation-value attenuation factor.
  double survival_probability(const circuit::Circuit& c) const;

 private:
  void check_qubit(int q) const;

  int num_qubits_ = 0;
  bool enabled_ = false;
  std::vector<double> p1_;
  std::vector<double> p2_;  // dense num_qubits x num_qubits, symmetric
  std::vector<double> bias_;
  std::vector<double> read01_;
  std::vector<double> read10_;
};

}  // namespace arbiterq::sim
