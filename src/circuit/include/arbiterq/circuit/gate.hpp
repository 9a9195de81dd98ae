#pragma once
// Gate-level IR. A gate stores its kind, the qubits it acts on and up to
// three angle parameters. Each angle is a ParamExpr — an affine function
// of one entry of an external parameter vector — so a circuit transpiled
// once can be re-bound to new weights every training step without
// re-transpiling (decompositions like CRZ(θ) → RZ(θ/2)·CX·RZ(−θ/2)·CX
// keep the symbolic link through the coefficient).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace arbiterq::circuit {

enum class GateKind : std::uint8_t {
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kSX,
  kRX,
  kRY,
  kRZ,
  kU3,
  kCX,
  kCZ,
  kCRX,
  kCRY,
  kCRZ,
  kSwap,
};

/// Number of qubits a gate kind acts on (1 or 2).
int gate_arity(GateKind kind) noexcept;
/// Number of angle parameters (0, 1 or 3).
int gate_param_count(GateKind kind) noexcept;
/// Lower-case mnemonic, e.g. "crz".
std::string gate_name(GateKind kind);

/// value = coeff * params[index] + offset; index < 0 means a constant.
struct ParamExpr {
  int index = -1;
  double coeff = 1.0;
  double offset = 0.0;

  static ParamExpr constant(double v) noexcept { return {-1, 0.0, v}; }
  static ParamExpr ref(int idx, double coeff = 1.0,
                       double offset = 0.0) noexcept {
    return {idx, coeff, offset};
  }

  bool is_constant() const noexcept { return index < 0; }

  double value(std::span<const double> params) const {
    return is_constant() ? offset
                         : coeff * params[static_cast<std::size_t>(index)] +
                               offset;
  }
};

struct Gate {
  GateKind kind = GateKind::kI;
  // qubits[0] is the (single) target for 1q gates; for controlled gates
  // qubits[0] is the control and qubits[1] the target; SWAP is symmetric.
  std::array<int, 2> qubits{{0, 0}};
  std::array<ParamExpr, 3> params{};
  // Index of the logical QNN gate this physical gate was decomposed from;
  // -1 for gates that do not trace back (e.g. routing SWAPs). Behavioral
  // vectorization (paper §III-A) groups basis-gate errors by this id.
  int logical_id = -1;
  // True for SWAPs inserted by the router (the topological part of the
  // behavioral vector); the SWAP's `logical_id` then names the two-qubit
  // logical gate whose routing required it.
  bool is_routing_swap = false;

  int arity() const noexcept { return gate_arity(kind); }
  int param_count() const noexcept { return gate_param_count(kind); }
  /// Whether every angle is a constant (no parameter is read).
  bool is_static() const noexcept {
    for (int i = 0; i < param_count(); ++i) {
      if (!params[static_cast<std::size_t>(i)].is_constant()) return false;
    }
    return true;
  }

  /// Bound angle values under a parameter vector.
  std::array<double, 3> bound_params(std::span<const double> params) const;

  /// "crz(q0,q1; 0.5*p3)" style rendering for dumps and tests.
  std::string to_string() const;
};

}  // namespace arbiterq::circuit
