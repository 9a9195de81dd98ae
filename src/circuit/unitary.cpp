#include "arbiterq/circuit/unitary.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace arbiterq::circuit {

namespace {

constexpr Complex kI{0.0, 1.0};

Mat4 controlled(const Mat2& u) noexcept {
  // |control target>: identity on the control=0 block, u on control=1.
  Mat4 m{};
  m[0 * 4 + 0] = 1.0;
  m[1 * 4 + 1] = 1.0;
  m[2 * 4 + 2] = u[0];
  m[2 * 4 + 3] = u[1];
  m[3 * 4 + 2] = u[2];
  m[3 * 4 + 3] = u[3];
  return m;
}

}  // namespace

Mat2 mat2_multiply(const Mat2& a, const Mat2& b) noexcept {
  Mat2 c{};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      c[static_cast<std::size_t>(i * 2 + j)] =
          a[static_cast<std::size_t>(i * 2)] *
              b[static_cast<std::size_t>(j)] +
          a[static_cast<std::size_t>(i * 2 + 1)] *
              b[static_cast<std::size_t>(2 + j)];
    }
  }
  return c;
}

Mat2 mat2_adjoint(const Mat2& a) noexcept {
  return {std::conj(a[0]), std::conj(a[2]), std::conj(a[1]), std::conj(a[3])};
}

Mat4 mat4_adjoint(const Mat4& a) noexcept {
  Mat4 md{};
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      md[static_cast<std::size_t>(r * 4 + c)] =
          std::conj(a[static_cast<std::size_t>(c * 4 + r)]);
    }
  }
  return md;
}

bool mat2_is_unitary(const Mat2& a, double tol) noexcept {
  const Mat2 p = mat2_multiply(mat2_adjoint(a), a);
  return std::abs(p[0] - 1.0) < tol && std::abs(p[3] - 1.0) < tol &&
         std::abs(p[1]) < tol && std::abs(p[2]) < tol;
}

bool mat4_is_unitary(const Mat4& a, double tol) noexcept {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      Complex acc{0.0, 0.0};
      for (int k = 0; k < 4; ++k) {
        acc += std::conj(a[static_cast<std::size_t>(k * 4 + i)]) *
               a[static_cast<std::size_t>(k * 4 + j)];
      }
      const Complex expect = (i == j) ? Complex{1.0, 0.0} : Complex{0.0, 0.0};
      if (std::abs(acc - expect) > tol) return false;
    }
  }
  return true;
}

namespace {

/// The rotation a controlled rotation controls.
GateKind inner_rotation(GateKind kind) {
  switch (kind) {
    case GateKind::kCRX:
      return GateKind::kRX;
    case GateKind::kCRY:
      return GateKind::kRY;
    case GateKind::kCRZ:
      return GateKind::kRZ;
    default:
      return kind;
  }
}

}  // namespace

Mat2 matrix_rx(double theta) noexcept {
  return gate_matrix_1q(GateKind::kRX, {theta, 0.0, 0.0});
}

Mat2 matrix_ry(double theta) noexcept {
  return gate_matrix_1q(GateKind::kRY, {theta, 0.0, 0.0});
}

Mat2 matrix_u3(double theta, double phi, double lambda) noexcept {
  return gate_matrix_1q(GateKind::kU3, {theta, phi, lambda});
}

GateTrig gate_trig(GateKind kind, const std::array<double, 3>& p) {
  GateTrig t;
  switch (inner_rotation(kind)) {
    case GateKind::kRX:
    case GateKind::kRY:
      t.c = std::cos(p[0] / 2.0);
      t.s = std::sin(p[0] / 2.0);
      break;
    case GateKind::kRZ: {
      // exp(-+i h) has a zero real exponent, which cexp scales by
      // exp(+-0) = 1: the values are (cos h, -+sin h), one sincos
      // instead of two cexp calls (pinned bitwise against std::exp by
      // GateMatrices.RzTrigIsTheComplexExponential).
      const double h = p[0] / 2.0;
      const double c = std::cos(h);
      const double s = std::sin(h);
      t.e0 = Complex{c, -s};
      t.e1 = Complex{c, s};
      break;
    }
    case GateKind::kU3:
      t.c = std::cos(p[0] / 2.0);
      t.s = std::sin(p[0] / 2.0);
      t.e0 = std::exp(kI * p[2]);
      t.e1 = std::exp(kI * p[1]);
      t.e2 = std::exp(kI * (p[1] + p[2]));
      break;
    default:
      break;
  }
  return t;
}

Mat2 gate_matrix_1q(GateKind kind, const std::array<double, 3>& p) {
  return gate_matrix_1q_of(kind, gate_trig(kind, p));
}

Mat2 gate_matrix_1q_of(GateKind kind, const GateTrig& t) {
  const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
  switch (kind) {
    case GateKind::kI:
      return {1.0, 0.0, 0.0, 1.0};
    case GateKind::kX:
      return {0.0, 1.0, 1.0, 0.0};
    case GateKind::kY:
      return {Complex{0.0, 0.0}, -kI, kI, Complex{0.0, 0.0}};
    case GateKind::kZ:
      return {1.0, 0.0, 0.0, -1.0};
    case GateKind::kH:
      return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
    case GateKind::kS:
      return {1.0, 0.0, 0.0, kI};
    case GateKind::kSdg:
      return {1.0, 0.0, 0.0, -kI};
    case GateKind::kSX:
      return {Complex{0.5, 0.5}, Complex{0.5, -0.5}, Complex{0.5, -0.5},
              Complex{0.5, 0.5}};
    case GateKind::kRX:
      return {Complex{t.c, 0.0}, -kI * t.s, -kI * t.s, Complex{t.c, 0.0}};
    case GateKind::kRY:
      return {Complex{t.c, 0.0}, Complex{-t.s, 0.0}, Complex{t.s, 0.0},
              Complex{t.c, 0.0}};
    case GateKind::kRZ:
      return {t.e0, Complex{0.0, 0.0}, Complex{0.0, 0.0}, t.e1};
    case GateKind::kU3:
      return {Complex{t.c, 0.0}, -t.e0 * t.s, t.e1 * t.s, t.e2 * t.c};
    default:
      throw std::invalid_argument("gate_matrix_1q: not a one-qubit gate");
  }
}

Mat4 gate_matrix_2q(GateKind kind, const std::array<double, 3>& p) {
  return gate_matrix_2q_of(kind, gate_trig(kind, p));
}

Mat4 gate_matrix_2q_of(GateKind kind, const GateTrig& t) {
  switch (kind) {
    case GateKind::kCX:
      return controlled(gate_matrix_1q_of(GateKind::kX, t));
    case GateKind::kCZ:
      return controlled(gate_matrix_1q_of(GateKind::kZ, t));
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      return controlled(gate_matrix_1q_of(inner_rotation(kind), t));
    case GateKind::kSwap: {
      Mat4 m{};
      m[0 * 4 + 0] = 1.0;
      m[1 * 4 + 2] = 1.0;
      m[2 * 4 + 1] = 1.0;
      m[3 * 4 + 3] = 1.0;
      return m;
    }
    default:
      throw std::invalid_argument("gate_matrix_2q: not a two-qubit gate");
  }
}

Mat2 d_gate_matrix_1q(GateKind kind, const std::array<double, 3>& p,
                      int slot) {
  return d_gate_matrix_1q_of(kind, gate_trig(kind, p), slot);
}

Mat2 d_gate_matrix_1q_of(GateKind kind, const GateTrig& t, int slot) {
  const double c = t.c;
  const double s = t.s;
  switch (kind) {
    case GateKind::kRX:
      return {Complex{-s / 2, 0}, -kI * (c / 2), -kI * (c / 2),
              Complex{-s / 2, 0}};
    case GateKind::kRY:
      return {Complex{-s / 2, 0}, Complex{-c / 2, 0}, Complex{c / 2, 0},
              Complex{-s / 2, 0}};
    case GateKind::kRZ:
      return {-kI * 0.5 * t.e0, Complex{0, 0}, Complex{0, 0},
              kI * 0.5 * t.e1};
    case GateKind::kU3: {
      const Complex el = t.e0;
      const Complex ep = t.e1;
      const Complex epl = t.e2;
      switch (slot) {
        case 0:
          return {Complex{-s / 2, 0}, -el * (c / 2), ep * (c / 2),
                  -epl * (s / 2)};
        case 1:
          return {Complex{0, 0}, Complex{0, 0}, kI * ep * s, kI * epl * c};
        case 2:
          return {Complex{0, 0}, -kI * el * s, Complex{0, 0}, kI * epl * c};
        default:
          break;
      }
      throw std::logic_error("d_gate_matrix_1q: bad U3 slot");
    }
    default:
      throw std::logic_error("d_gate_matrix_1q: gate is not parameterized");
  }
}

Mat4 d_gate_matrix_2q(GateKind kind, const std::array<double, 3>& p) {
  return d_gate_matrix_2q_of(kind, gate_trig(kind, p));
}

Mat4 d_gate_matrix_2q_of(GateKind kind, const GateTrig& t) {
  const GateKind inner = inner_rotation(kind);
  if (inner == kind) {
    throw std::logic_error("d_gate_matrix_2q: gate is not parameterized");
  }
  const Mat2 d = d_gate_matrix_1q_of(inner, t, 0);
  Mat4 m{};
  m[2 * 4 + 2] = d[0];
  m[2 * 4 + 3] = d[1];
  m[3 * 4 + 2] = d[2];
  m[3 * 4 + 3] = d[3];
  return m;
}

std::vector<Complex> circuit_unitary(const Circuit& c,
                                     std::span<const double> params) {
  const int n = c.num_qubits();
  const std::size_t dim = std::size_t{1} << n;
  std::vector<Complex> u(dim * dim, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < dim; ++i) u[i * dim + i] = 1.0;

  // Apply gates column-wise: for each basis-state column of the current
  // unitary, evolve it like a state vector.
  for (const Gate& g : c.gates()) {
    const auto bound = g.bound_params(params);
    if (g.arity() == 1) {
      const Mat2 m = gate_matrix_1q(g.kind, bound);
      const std::size_t bit = std::size_t{1} << g.qubits[0];
      for (std::size_t col = 0; col < dim; ++col) {
        for (std::size_t row = 0; row < dim; ++row) {
          if (row & bit) continue;
          const std::size_t r0 = row;
          const std::size_t r1 = row | bit;
          const Complex a0 = u[r0 * dim + col];
          const Complex a1 = u[r1 * dim + col];
          u[r0 * dim + col] = m[0] * a0 + m[1] * a1;
          u[r1 * dim + col] = m[2] * a0 + m[3] * a1;
        }
      }
    } else {
      const Mat4 m = gate_matrix_2q(g.kind, bound);
      const std::size_t bit_b = std::size_t{1} << g.qubits[0];
      const std::size_t bit_a = std::size_t{1} << g.qubits[1];
      for (std::size_t col = 0; col < dim; ++col) {
        for (std::size_t row = 0; row < dim; ++row) {
          if ((row & bit_b) || (row & bit_a)) continue;
          std::size_t idx[4];
          idx[0] = row;                  // b=0 a=0
          idx[1] = row | bit_a;          // b=0 a=1
          idx[2] = row | bit_b;          // b=1 a=0
          idx[3] = row | bit_b | bit_a;  // b=1 a=1
          Complex amp[4];
          for (int k = 0; k < 4; ++k) amp[k] = u[idx[k] * dim + col];
          for (int r = 0; r < 4; ++r) {
            Complex acc{0.0, 0.0};
            for (int k = 0; k < 4; ++k) {
              acc += m[static_cast<std::size_t>(r * 4 + k)] * amp[k];
            }
            u[idx[r] * dim + col] = acc;
          }
        }
      }
    }
  }
  return u;
}

double unitary_distance_up_to_phase(const std::vector<Complex>& a,
                                    const std::vector<Complex>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("unitary_distance: size mismatch");
  }
  // Phase-align with the inner product <a, b> = sum conj(a_ij) b_ij.
  Complex inner{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) inner += std::conj(a[i]) * b[i];
  Complex phase{1.0, 0.0};
  if (std::abs(inner) > 1e-12) phase = inner / std::abs(inner);
  double dist = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dist = std::max(dist, std::abs(a[i] * phase - b[i]));
  }
  return dist;
}

std::vector<Complex> permutation_unitary(const std::vector<int>& perm) {
  const int n = static_cast<int>(perm.size());
  const std::size_t dim = std::size_t{1} << n;
  std::vector<Complex> u(dim * dim, Complex{0.0, 0.0});
  for (std::size_t in = 0; in < dim; ++in) {
    std::size_t out = 0;
    for (int q = 0; q < n; ++q) {
      if (in & (std::size_t{1} << q)) {
        out |= std::size_t{1} << perm[static_cast<std::size_t>(q)];
      }
    }
    u[out * dim + in] = 1.0;
  }
  return u;
}

std::vector<Complex> multiply_square(const std::vector<Complex>& a,
                                     const std::vector<Complex>& b) {
  const auto dim = static_cast<std::size_t>(std::sqrt(a.size()) + 0.5);
  if (dim * dim != a.size() || a.size() != b.size()) {
    throw std::invalid_argument("multiply_square: bad shapes");
  }
  std::vector<Complex> c(a.size(), Complex{0.0, 0.0});
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t k = 0; k < dim; ++k) {
      const Complex aik = a[i * dim + k];
      if (aik == Complex{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        c[i * dim + j] += aik * b[k * dim + j];
      }
    }
  }
  return c;
}

}  // namespace arbiterq::circuit
