#pragma once
// Gate semantics: unitary matrices for every GateKind, plus a dense
// whole-circuit unitary used by equivalence tests (transpiler validation)
// and by the ZYZ resynthesis pass.
//
// Bit convention: qubit 0 is the least significant bit of a basis index.
// A two-qubit matrix acts in the basis |b a> where b is the bit of
// gate.qubits[0] (control for controlled gates) and a the bit of
// gate.qubits[1] (target); i.e. row/col index = 2*b + a.

#include <array>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "arbiterq/circuit/circuit.hpp"

namespace arbiterq::circuit {

using Complex = std::complex<double>;

/// Row-major 2x2 complex matrix.
using Mat2 = std::array<Complex, 4>;
/// Row-major 4x4 complex matrix.
using Mat4 = std::array<Complex, 16>;

Mat2 mat2_multiply(const Mat2& a, const Mat2& b) noexcept;
Mat2 mat2_adjoint(const Mat2& a) noexcept;
/// Conjugate transpose of a 4x4.
Mat4 mat4_adjoint(const Mat4& a) noexcept;
bool mat2_is_unitary(const Mat2& a, double tol = 1e-10) noexcept;
bool mat4_is_unitary(const Mat4& a, double tol = 1e-10) noexcept;

/// Unitary of a single-qubit gate with bound parameter values.
Mat2 gate_matrix_1q(GateKind kind, const std::array<double, 3>& params);
/// Unitary of a two-qubit gate with bound parameter values.
Mat4 gate_matrix_2q(GateKind kind, const std::array<double, 3>& params);

/// Derivative of a parameterized 1q gate matrix with respect to
/// parameter slot `slot` (RX/RY/RZ slot 0; U3 slots 0..2). Throws
/// std::logic_error for non-parameterized kinds.
Mat2 d_gate_matrix_1q(GateKind kind, const std::array<double, 3>& params,
                      int slot);
/// Derivative of a controlled-rotation 4x4 (zero on the control=0 block,
/// the inner rotation's derivative on the control=1 block).
Mat4 d_gate_matrix_2q(GateKind kind, const std::array<double, 3>& params);

/// The transcendentals a parameterized gate's matrix and derivatives are
/// built from. RX, RY and U3 (and CRX, CRY) read c = cos(p0 / 2) and s =
/// sin(p0 / 2); RZ and CRZ read e0 = exp(-i p0 / 2) and e1 = exp(i p0 /
/// 2); U3 also reads e0 = exp(i p2), e1 = exp(i p1) and e2 = exp(i (p1 +
/// p2)). The angle builders above evaluate it themselves, so a caller
/// that needs a gate's matrix and its derivatives evaluates it once and
/// gets from the _of builders below bitwise the same matrices.
struct GateTrig {
  double c = 0.0;
  double s = 0.0;
  Complex e0{};
  Complex e1{};
  Complex e2{};
};
GateTrig gate_trig(GateKind kind, const std::array<double, 3>& params);
Mat2 gate_matrix_1q_of(GateKind kind, const GateTrig& trig);
Mat4 gate_matrix_2q_of(GateKind kind, const GateTrig& trig);
Mat2 d_gate_matrix_1q_of(GateKind kind, const GateTrig& trig, int slot);
Mat4 d_gate_matrix_2q_of(GateKind kind, const GateTrig& trig);

/// Named constructors: gate_matrix_1q of one rotation.
Mat2 matrix_rx(double theta) noexcept;
Mat2 matrix_ry(double theta) noexcept;
Mat2 matrix_u3(double theta, double phi, double lambda) noexcept;

/// Dense 2^n x 2^n unitary of a circuit under a parameter binding.
/// Row-major; intended for n <= ~10 (tests only).
std::vector<Complex> circuit_unitary(const Circuit& c,
                                     std::span<const double> params);

/// Max-norm distance between two same-size square matrices after removing
/// an optimal global phase; 0 means physically identical operations.
double unitary_distance_up_to_phase(const std::vector<Complex>& a,
                                    const std::vector<Complex>& b);

/// Unitary of a pure qubit relabeling: out[perm[q]] = in[q].
std::vector<Complex> permutation_unitary(const std::vector<int>& perm);

std::vector<Complex> multiply_square(const std::vector<Complex>& a,
                                     const std::vector<Complex>& b);

}  // namespace arbiterq::circuit
