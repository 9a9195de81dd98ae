#include "arbiterq/circuit/unitary.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace arbiterq::circuit {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Mat2Ops, MultiplyAndAdjoint) {
  const Mat2 h = gate_matrix_1q(GateKind::kH, {});
  const Mat2 hh = mat2_multiply(h, h);
  EXPECT_NEAR(std::abs(hh[0] - 1.0), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(hh[1]), 0.0, 1e-12);
  const Mat2 s = gate_matrix_1q(GateKind::kS, {});
  const Mat2 sdg = gate_matrix_1q(GateKind::kSdg, {});
  const Mat2 adj = mat2_adjoint(s);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(adj[static_cast<std::size_t>(i)] -
                         sdg[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
  }
}

class OneQubitUnitary
    : public ::testing::TestWithParam<std::tuple<GateKind, double>> {};

TEST_P(OneQubitUnitary, IsUnitary) {
  const auto [kind, theta] = GetParam();
  const Mat2 m = gate_matrix_1q(kind, {theta, 0.7, -0.3});
  EXPECT_TRUE(mat2_is_unitary(m)) << gate_name(kind) << " theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndAngles, OneQubitUnitary,
    ::testing::Combine(
        ::testing::Values(GateKind::kI, GateKind::kX, GateKind::kY,
                          GateKind::kZ, GateKind::kH, GateKind::kS,
                          GateKind::kSdg, GateKind::kSX, GateKind::kRX,
                          GateKind::kRY, GateKind::kRZ, GateKind::kU3),
        ::testing::Values(0.0, 0.3, kPi / 2, kPi, -1.1, 2 * kPi)));

class TwoQubitUnitary
    : public ::testing::TestWithParam<std::tuple<GateKind, double>> {};

TEST_P(TwoQubitUnitary, IsUnitary) {
  const auto [kind, theta] = GetParam();
  const Mat4 m = gate_matrix_2q(kind, {theta, 0.0, 0.0});
  EXPECT_TRUE(mat4_is_unitary(m)) << gate_name(kind) << " theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndAngles, TwoQubitUnitary,
    ::testing::Combine(::testing::Values(GateKind::kCX, GateKind::kCZ,
                                         GateKind::kCRX, GateKind::kCRY,
                                         GateKind::kCRZ, GateKind::kSwap),
                       ::testing::Values(0.0, 0.4, kPi / 2, -2.2)));

TEST(GateMatrices, WrongArityThrows) {
  EXPECT_THROW(gate_matrix_1q(GateKind::kCX, {}), std::invalid_argument);
  EXPECT_THROW(gate_matrix_2q(GateKind::kH, {}), std::invalid_argument);
}

TEST(GateMatrices, HadamardValues) {
  const Mat2 h = gate_matrix_1q(GateKind::kH, {});
  const double inv = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(h[0].real(), inv, 1e-12);
  EXPECT_NEAR(h[3].real(), -inv, 1e-12);
}

TEST(GateMatrices, RotationsAtZeroAreIdentity) {
  for (GateKind k : {GateKind::kRX, GateKind::kRY, GateKind::kRZ}) {
    const Mat2 m = gate_matrix_1q(k, {0.0, 0.0, 0.0});
    EXPECT_NEAR(std::abs(m[0] - 1.0), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m[1]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m[2]), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(m[3] - 1.0), 0.0, 1e-12);
  }
}

TEST(GateMatrices, RzTrigIsTheComplexExponential) {
  // gate_trig evaluates RZ's exp(-+i theta / 2) with one sincos; the
  // matrices and derivatives must stay bitwise the complex exponentials
  // (and the -+i/2 products of them) they were defined by, on this
  // platform's libm, for angles across the range training reaches and
  // the edges (signed zeros, subnormals, huge angles).
  const Complex i{0.0, 1.0};
  std::vector<double> angles = {0.0, -0.0, 1e-310, -1e-310, 1e-20, kPi,
                                -kPi, 2 * kPi, 1e6, -1e6, 1e300};
  for (int k = -20000; k <= 20000; ++k) angles.push_back(k * 1.37e-3);
  for (const double theta : angles) {
    const Complex e0 = std::exp(-i * (theta / 2.0));
    const Complex e1 = std::exp(i * (theta / 2.0));
    const Mat2 m = gate_matrix_1q(GateKind::kRZ, {theta, 0.0, 0.0});
    const Mat2 d = d_gate_matrix_1q(GateKind::kRZ, {theta, 0.0, 0.0}, 0);
    const auto bits = [](const Complex& z) {
      return std::array<std::uint64_t, 2>{std::bit_cast<std::uint64_t>(z.real()),
                                          std::bit_cast<std::uint64_t>(z.imag())};
    };
    EXPECT_EQ(bits(m[0]), bits(e0)) << theta;
    EXPECT_EQ(bits(m[3]), bits(e1)) << theta;
    EXPECT_EQ(bits(d[0]), bits(-i * 0.5 * e0)) << theta;
    EXPECT_EQ(bits(d[3]), bits(i * 0.5 * e1)) << theta;
  }
}

TEST(GateMatrices, RxAtPiIsXUpToPhase) {
  const Mat2 rx = matrix_rx(kPi);
  // RX(pi) = -i X.
  EXPECT_NEAR(std::abs(rx[1] - Complex(0.0, -1.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0]), 0.0, 1e-12);
}

TEST(GateMatrices, U3ReproducesRy) {
  const Mat2 ry = matrix_ry(0.8);
  const Mat2 u = matrix_u3(0.8, 0.0, 0.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(ry[static_cast<std::size_t>(i)] -
                         u[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
  }
}

TEST(GateMatrices, CxActionOnBasis) {
  const Mat4 cx = gate_matrix_2q(GateKind::kCX, {});
  // |c t>: 10 -> 11 means column 2 has a 1 in row 3.
  EXPECT_NEAR(std::abs(cx[3 * 4 + 2] - 1.0), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(cx[2 * 4 + 3] - 1.0), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(cx[0 * 4 + 0] - 1.0), 0.0, 1e-12);
}

TEST(CircuitUnitary, BellCircuit) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const auto u = circuit_unitary(c, {});
  // Column 0 = (|00> + |11>)/sqrt(2) with qubit0 = LSB.
  const double inv = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(u[0 * 4 + 0] - inv), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(u[3 * 4 + 0] - inv), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(u[1 * 4 + 0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(u[2 * 4 + 0]), 0.0, 1e-12);
}

TEST(CircuitUnitary, ParameterBinding) {
  Circuit c(1, 1);
  c.ry(0, ParamExpr::ref(0, 2.0));  // angle = 2 * p0
  const std::vector<double> params = {0.4};
  const auto u = circuit_unitary(c, params);
  const Mat2 expect = matrix_ry(0.8);
  EXPECT_NEAR(std::abs(u[0] - expect[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(u[1] - expect[1]), 0.0, 1e-12);
}

TEST(CircuitUnitary, InverseComposesToIdentity) {
  Circuit c(2, 0);
  c.h(0).cx(0, 1).rz(1, ParamExpr::constant(0.7)).cx(0, 1).h(0);
  Circuit inv(2, 0);
  inv.h(0).cx(0, 1).rz(1, ParamExpr::constant(-0.7)).cx(0, 1).h(0);
  const auto u = multiply_square(circuit_unitary(inv, {}),
                                 circuit_unitary(c, {}));
  std::vector<Complex> id(16, Complex{0.0, 0.0});
  for (int i = 0; i < 4; ++i) id[static_cast<std::size_t>(i * 4 + i)] = 1.0;
  EXPECT_LT(unitary_distance_up_to_phase(u, id), 1e-10);
}

TEST(PermutationUnitary, SwapsBits) {
  // perm: q0 -> q1, q1 -> q0 over 2 qubits = SWAP matrix.
  const auto u = permutation_unitary({1, 0});
  const Mat4 sw = gate_matrix_2q(GateKind::kSwap, {});
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(std::abs(u[static_cast<std::size_t>(i)] -
                         sw[static_cast<std::size_t>(i)]),
                0.0, 1e-12);
  }
}

TEST(UnitaryDistance, GlobalPhaseIgnored) {
  Circuit c(1);
  c.z(0);
  const auto a = circuit_unitary(c, {});
  Circuit d(1);
  d.rz(0, ParamExpr::constant(kPi));  // Z up to global phase -i
  const auto b = circuit_unitary(d, {});
  EXPECT_GT(std::abs(a[0] - b[0]), 0.1);  // entries differ...
  EXPECT_LT(unitary_distance_up_to_phase(a, b), 1e-12);  // ...but not
}

TEST(UnitaryDistance, DetectsRealDifference) {
  Circuit c(1);
  c.x(0);
  Circuit d(1);
  d.z(0);
  EXPECT_GT(unitary_distance_up_to_phase(circuit_unitary(c, {}),
                                         circuit_unitary(d, {})),
            0.5);
}

}  // namespace
}  // namespace arbiterq::circuit
